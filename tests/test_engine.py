import itertools
import json
import math
import os
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphvar.catalog import list_entries, load
from sphvar.chars import QLaurent, sym_powers_upto
from sphvar.geometry import Cone, LatticeMap
from sphvar.rootdata import ParabolicDatum, root_datum, product_datum
from sphvar.spherical import ColoredCone, SphericalDatum
from sphvar.engine import (KAPPA, BasicFunctionTable, BorelRoute, DualRadicalRep,
                           FFixedRep, LFactor, PPRoute, TransportRoute,
                           apply_shifts, basic_function_borel,
                           basic_function_graded, basic_function_pp,
                           basic_function_smooth, basic_function_transport,
                           dual_radical, f_fixed, growth_certificate,
                           local_lfactor, minuscule_satake, pp_shifts,
                           satake_transform, toric_distance, transport_height)
from sphvar.engine import _external_char, _truncation_default

ONE = QLaurent.one()


def a2_datum():
    """The affine plane under T(1) x SL(2)."""
    return SphericalDatum(
        name="a2", ambient=product_datum(root_datum("T", 1), root_datum("SL", 2)),
        rank=1, lattice_map=LatticeMap.of([(1,), (1,)]),
        valuation_cone=Cone(1, ((1,), (-1,))),
        colors=(("D", (1,)),),
        colored_cone=ColoredCone(Cone(1, ((1,),)), ("D",)))


def a2_routes():
    sl2 = root_datum("SL", 2)
    m = LatticeMap.of([(-1,)])
    return BorelRoute(sl2, m), PPRoute(sl2, (), m)


def borel_gl2_datum():
    return SphericalDatum(
        name="borel-gl2", ambient=product_datum(root_datum("T", 2), root_datum("GL", 2)),
        rank=2, lattice_map=LatticeMap.of([(0, -1), (-1, -1), (0, 1), (1, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("D", (1, 0)),),
        colored_cone=ColoredCone(Cone(2, ((1, 0),)), ("D",)))


def borel_gl2_route():
    return BorelRoute(root_datum("GL", 2), LatticeMap.of([(0, 1), (1, 1)]))


def borel_sl3_datum():
    return SphericalDatum(
        name="borel-sl3", ambient=product_datum(root_datum("T", 2), root_datum("SL", 3)),
        rank=2, lattice_map=LatticeMap.of([(0, 1), (1, 0), (0, -1), (-1, 0)]),
        valuation_cone=Cone.full(2),
        colors=(("D1", (1, 0)), ("D2", (0, 1))),
        colored_cone=ColoredCone(Cone(2, ((1, 0), (0, 1))), ("D1", "D2")))


def borel_sl3_routes():
    sl3 = root_datum("SL", 3)
    m = LatticeMap.of([(0, -1), (-1, 0)])
    return BorelRoute(sl3, m), PPRoute(sl3, (), m)


def pp_gl3_datum():
    return SphericalDatum(
        name="pp-gl3", ambient=product_datum(root_datum("T", 2), root_datum("GL", 3)),
        rank=2, lattice_map=LatticeMap.of([(0, 1), (1, 1), (0, 1), (0, 1), (1, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("D", (1, 0)),), levi_roots=(0,),
        colored_cone=ColoredCone(Cone(2, ((1, 0),)), ("D",)))


def pp_gl3_route():
    return PPRoute(root_datum("GL", 3), (0,), LatticeMap.of([(0, 0, 1), (1, 1, 1)]))


def siegel_datum():
    return SphericalDatum(
        name="siegel-gsp6", ambient=product_datum(root_datum("T", 2), root_datum("GSP", 6)),
        rank=2,
        lattice_map=LatticeMap.of([(0, 1), (1, 1), (-1, 0), (-1, 0), (-1, 0), (3, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("DY", (1, 0)),), levi_roots=(0, 1),
        colored_cone=ColoredCone(Cone(2, ((1, 0),)), ("DY",)))


def siegel_route():
    return PPRoute(root_datum("GSP", 6), (0, 1),
                   LatticeMap.of([(-1, -1, -1, 3), (0, 0, 0, 1)]))


def triple_datum():
    from sphvar.rootdata import RootDatum
    a1triple = RootDatum(
        "a1triple", 5,
        ((1, -1, 0, 0, 0), (-1, -1, 2, 0, 0), (-1, -1, 0, 2, 0)),
        ((1, -1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)))
    return SphericalDatum(
        name="triple-product", ambient=a1triple, rank=5,
        lattice_map=LatticeMap.identity(5),
        valuation_cone=Cone.from_inequalities(
            [(-1, 1, 0, 0, 0), (1, 1, -2, 0, 0), (1, 1, 0, -2, 0)], 5),
        colors=(("D1", (1, 0, 0, 0, 1)), ("D2", (0, 1, 1, 0, 1)),
                ("D3", (0, 1, 0, 1, 1)), ("D4", (0, -1, 0, 0, -1))),
        spherical_roots=((1, -1, 0, 0, 0), (-1, -1, 2, 0, 0), (-1, -1, 0, 2, 0)),
        colored_cone=ColoredCone(
            Cone(5, ((1, 0, 0, 0, 1), (0, 1, 1, 0, 1), (0, 1, 0, 1, 1),
                     (0, -1, 0, 0, -1))),
            ("D1", "D2", "D3", "D4")))


def triple_route():
    return TransportRoute("siegel-gsp6",
                          LatticeMap.of([(1, 0, 1, 1, -1), (1, 1, 0, 0, -1)]))


def hecke_datum():
    return SphericalDatum(
        name="hecke-gl2", ambient=product_datum(root_datum("T", 1), root_datum("PGL", 2)),
        rank=2, lattice_map=LatticeMap.identity(2),
        valuation_cone=Cone(2, ((1, 0), (-1, 0), (0, -1))),
        colors=(("D1", (1, 1)), ("D2", (-1, 1))),
        spherical_roots=((0, 1),),
        colored_cone=ColoredCone(Cone(2, ()), ()))


def gj2_datum():
    return SphericalDatum(
        name="godement-jacquet-2",
        ambient=product_datum(root_datum("GL", 2), root_datum("GL", 2)),
        rank=2, lattice_map=LatticeMap.of([(0, -1), (-1, -1), (1, 1), (0, 1)]),
        valuation_cone=Cone(2, ((1, 2), (-1, -2), (-1, 0))),
        colors=(("D", (1, 0)),),
        spherical_roots=((2, -1),),
        colored_cone=ColoredCone(Cone(2, ((1, 0), (0, 1))), ("D",)))


def a1_datum():
    return SphericalDatum(
        name="a1-gl1", ambient=root_datum("T", 1), rank=1,
        lattice_map=LatticeMap.of([(1,)]),
        valuation_cone=Cone(1, ((1,), (-1,))),
        colored_cone=ColoredCone(Cone(1, ((1,),)), ()))


def torus5_datum():
    return SphericalDatum(
        name="t5", ambient=root_datum("T", 5), rank=5,
        lattice_map=LatticeMap.identity(5),
        valuation_cone=Cone.full(5),
        colored_cone=ColoredCone(
            Cone(5, tuple(tuple(1 if j == i else 0 for j in range(5))
                          for i in range(5))), ()))


def no_cone_datum():
    return SphericalDatum(
        name="bare", ambient=root_datum("T", 2), rank=2,
        lattice_map=LatticeMap.identity(2),
        valuation_cone=Cone.full(2))


# ---------------------------------------------------------------------------
# dual radical and f-fixed data

def test_dual_radical_needs_radical():
    gl2 = root_datum("GL", 2)
    with pytest.raises(ValueError, match="no radical"):
        dual_radical(ParabolicDatum(gl2, (0,)))


def test_dual_radical_gl3():
    r = dual_radical(ParabolicDatum(root_datum("GL", 3), (0,)))
    assert r.weights == (((0, 1, -1), (1, -1), -1), ((1, 0, -1), (1, -1), 1))


def test_dual_radical_gl4_grades():
    r = dual_radical(ParabolicDatum(root_datum("GL", 4), (0, 2)))
    assert sorted(m for _, _, m in r.weights) == [-2, 0, 0, 2]
    assert {tb for _, tb, _ in r.weights} == {(1, -1)}


def test_f_fixed_sl2_borel():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("SL", 2), ())))
    assert ff.entries == (((1,), 0, 1),)


def test_f_fixed_gl3_mirabolic():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GL", 3), (0,))))
    assert ff.entries == (((1, -1), -1, 1),)
    assert ff.total_multiplicity() == 1


def test_f_fixed_gl4_two_strings():
    # grades 0, 2, -2, 0 in one class: strings with lowest weights -2 and 0
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GL", 4), (0, 2))))
    assert ff.entries == (((1, -1), -2, 1), ((1, -1), 0, 1))
    assert ff.total_multiplicity() == 2


def test_f_fixed_sp4_siegel():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("C", 2), (0,))))
    assert ff.entries == (((1,), -1, 1), ((2,), 0, 1))


def test_f_fixed_gsp6_siegel():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GSP", 6), (0, 1))))
    assert ff.entries == (((1, 0), -2, 1), ((2, 0), -2, 1))


def test_f_fixed_rejects_asymmetric_grades():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    bad = DualRadicalRep(p, (((1, 0, -1), (1, -1), 1),))
    with pytest.raises(ValueError, match="asymmetric"):
        f_fixed(bad)


def test_f_fixed_rejects_grade_gaps():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    bad = DualRadicalRep(p, (((1, 0, -1), (1, -1), 3), ((0, 1, -1), (1, -1), -3)))
    with pytest.raises(ValueError, match="grade gap"):
        f_fixed(bad)


def test_f_fixed_counts_levi_constituents():
    # string count equals the number of dual-Levi constituents of the radical
    from sphvar.chars import WeightChar, decompose
    from sphvar.rootdata import levi_datum
    for kind, n, levi in (("GL", 3, (0,)), ("C", 2, (0,))):
        p = ParabolicDatum(root_datum(kind, n), levi)
        ff = f_fixed(dual_radical(p))
        rad = WeightChar.of([(tuple(int(x) for x in bv), 1)
                             for _, bv in p.radical_pairs])
        md = levi_datum(p.datum, p.levi_indices).dual
        assert ff.total_multiplicity() == len(decompose(md, rad))


# ---------------------------------------------------------------------------
# basic function tables, Borel route

def test_borel_a2_all_ones_to_height_ten():
    route, _ = a2_routes()
    tb = basic_function_borel(a2_datum(), route, 10)
    assert tb.support() == [(n,) for n in range(11)]
    assert all(v == ONE for _, v in tb.values)
    assert tb.value((-1,)).is_zero()
    assert tb.case == "UP-Borel"


def test_borel_gl2_ray():
    tb = basic_function_borel(borel_gl2_datum(), borel_gl2_route(), 6)
    assert tb.support() == [(a, 0) for a in range(7)]
    assert all(v == ONE for _, v in tb.values)


def test_borel_sl3_values():
    tb = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 6)
    assert tb.value((0, 0)) == ONE
    assert str(tb.value((1, 1))) == "q + 1"
    assert str(tb.value((2, 1))) == "q + 1"
    assert str(tb.value((1, 2))) == "q + 1"
    assert str(tb.value((2, 2))) == "q^2 + q + 1"
    for m in range(1, 7):
        assert tb.value((m, 0)) == ONE
        assert tb.value((0, m)) == ONE
    assert all(x >= 0 for l in tb.support() for x in l)
    assert tb.truncation == 14


def test_table_rejects_non_integral_labels():
    tb = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 4)
    with pytest.raises(ValueError, match="non-integral"):
        tb.value((1.5, 1.2))
    assert str(tb.value((Fraction(1), 1.0))) == "q + 1"
    with pytest.raises(ValueError, match="non-integral"):
        BasicFunctionTable.of("toy", "smooth", 1, {(1.7,): ONE}, 0, 1)


@pytest.mark.parametrize("kind,n,h,searched,expanded", [
    ("SL", 3, 12, 582, 93), ("SL", 4, 6, 839, 89), ("B", 2, 10, 520, 94),
    ("G", 2, 8, 454, 50), ("C", 3, 4, 1764, 63)])
def test_borel_table_shares_one_kostant_memo(monkeypatch, kind, n, h,
                                             searched, expanded):
    # a fresh memo per label made 5,558 search calls on SL3 at h = 12; each
    # coroot and each nonzero label is expanded once
    from sphvar import chars
    calls = []
    nat = chars._nat_coordinates
    monkeypatch.setattr(chars, "_nat_coordinates",
                        lambda span, v: calls.append(v) or nat(span, v))
    recs = []

    def profile(frame, event, arg):
        if (event == "call" and frame.f_code.co_name == "rec"
                and frame.f_globals is vars(chars)):
            recs.append(1)

    rd = root_datum(kind, n)
    route = BorelRoute(rd, LatticeMap.identity(rd.rank))
    sys.setprofile(profile)
    try:
        basic_function_borel(a2_datum(), route, h)
    finally:
        sys.setprofile(None)
    assert (len(recs), len(calls)) == (searched, expanded)


def test_borel_label_map_must_be_square():
    gl2 = root_datum("GL", 2)
    with pytest.raises(ValueError, match="square"):
        basic_function_borel(borel_gl2_datum(),
                             BorelRoute(gl2, LatticeMap.of([(1, 0)])), 2)


def test_borel_label_map_must_be_unimodular():
    gl2 = root_datum("GL", 2)
    with pytest.raises(ValueError, match="unimodular"):
        basic_function_borel(borel_gl2_datum(),
                             BorelRoute(gl2, LatticeMap.of([(2, 0), (0, 1)])), 2)


# ---------------------------------------------------------------------------
# basic function tables, derived parabolic route

def test_pp_matches_borel_sl2():
    borel, pp = a2_routes()
    d = a2_datum()
    t1 = basic_function_borel(d, borel, 10)
    t2 = basic_function_pp(d, pp, 10)
    assert t1.values == t2.values


def test_pp_matches_borel_sl3():
    borel, pp = borel_sl3_routes()
    d = borel_sl3_datum()
    t1 = basic_function_borel(d, borel, 6)
    t2 = basic_function_pp(d, pp, 6)
    assert t1.values == t2.values
    assert t2.case == "PP-general"


def test_pp_gl3_sign_dependence():
    d = pp_gl3_datum()
    route = pp_gl3_route()
    plus = basic_function_pp(d, route, 4, kappa=1)
    minus = basic_function_pp(d, route, 4, kappa=-1)
    assert plus.support() == [(n, 0) for n in range(5)]
    assert all(v == ONE for _, v in plus.values)
    for n in range(5):
        assert minus.value((n, 0)) == QLaurent.q_pow(n)


def test_pp_rejects_other_kappa():
    with pytest.raises(ValueError, match="kappa"):
        basic_function_pp(pp_gl3_datum(), pp_gl3_route(), 2, kappa=0)


def test_pp_rejects_negative_height():
    with pytest.raises(ValueError, match="height must be >= 0"):
        basic_function_pp(pp_gl3_datum(), pp_gl3_route(), -1)


def test_pp_siegel_values():
    tb = basic_function_pp(siegel_datum(), siegel_route(), 4)
    assert [(l, str(v)) for l, v in tb.values] == [
        ((0, 0), "1"), ((1, 0), "1"), ((2, 0), "q^2 + 1"),
        ((3, 0), "q^2 + 1"), ((4, 0), "q^4 + q^2 + 1")]


def test_pp_label_map_must_kill_levi():
    route = PPRoute(root_datum("GL", 3), (0,),
                    LatticeMap.of([(1, 0, 0), (0, 0, 1)]))
    with pytest.raises(ValueError, match="kill Levi"):
        basic_function_pp(pp_gl3_datum(), route, 2)


def test_pp_rejects_non_monotone_labels():
    route = PPRoute(root_datum("GL", 3), (0,),
                    LatticeMap.of([(0, 0, -1), (1, 1, 1)]))
    with pytest.raises(ValueError, match="non-monotone"):
        basic_function_pp(pp_gl3_datum(), route, 2)


def test_pp_route_builds_its_parabolic_once(monkeypatch):
    import sphvar.engine as engine
    built = []
    parabolic = engine.ParabolicDatum
    monkeypatch.setattr(engine, "ParabolicDatum",
                        lambda *a: built.append(a) or parabolic(*a))
    route = pp_gl3_route()
    first = route.parabolic()
    assert route.parabolic() is first
    basic_function_pp(pp_gl3_datum(), route, 3)
    pp_shifts(route, minuscule_satake(route.group, (1, 0, 0)))
    # one datum, so one Levi closure and one label-map check, per route
    assert built == [(route.group, route.levi)]
    # a refused route is refused on every call, not cached
    bad = PPRoute(root_datum("GL", 3), (0,), LatticeMap.of([(1, 0, 0), (1, 1, 1)]))
    for _ in range(2):
        with pytest.raises(ValueError, match="does not kill Levi coroot"):
            bad.parabolic()


def stratum_scan_pp(datum, route, height, kappa=KAPPA):
    """The two-phase basic_function_pp that the one-pass reading replaced:
    a depth-first walk of the stratum monoid, then a scan of every Sym^i
    weight per stratum."""
    if height < 0:
        raise ValueError("height must be >= 0")
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    p = route.parabolic()
    ff = f_fixed(dual_radical(p))
    chi = _external_char(ff)
    gens = [g for g in p.monoid_generators if any(x != 0 for x in g)]
    downs = []
    for g in gens:
        d = tuple(-x for x in route.label_map.apply(p.lift(g)))
        if all(x == 0 for x in d) or any(x < 0 for x in d):
            raise ValueError("stratum generator %r has non-monotone label shift %r"
                             % (g, d))
        downs.append(d)

    strata = {}

    def enumerate_strata(idx, theta, label, used):
        if idx == len(gens):
            if label in strata and strata[label] != theta:
                raise ValueError("label %r reached by two strata" % (label,))
            strata[label] = theta
            return
        step = sum(downs[idx])
        n = 0
        while used + n * step <= height:
            enumerate_strata(
                idx + 1,
                tuple(t - n * gi for t, gi in zip(theta, gens[idx])),
                tuple(l + n * di for l, di in zip(label, downs[idx])),
                used + n * step)
            n += 1

    qrank = len(gens[0]) if gens else p.datum.rank
    enumerate_strata(0, (0,) * qrank, (0,) * route.label_map.m, 0)

    # each Sym step moves the label l1-norm by at least 1, so i <= height
    sym = sym_powers_upto(chi, height)
    table = {}
    for label, theta in sorted(strata.items()):
        target = tuple(-x for x in theta)
        acc = {}
        for i, s in enumerate(sym):
            for w, mult in s.weights:
                if w[:-1] == target:
                    e = Fraction(kappa * w[-1], 2) - i
                    acc[e] = acc.get(e, 0) + mult
        val = QLaurent.of(acc)
        if val.is_zero():
            continue
        table[label] = QLaurent.q_pow(-p.rho_p_pair(theta)) * val
    trunc = _truncation_default(p.datum, [p.lift(g) for g in gens], height)
    return BasicFunctionTable.of(datum.name, "PP-general", route.label_map.m,
                                 table, trunc, height)


def pp_cases():
    from sphvar import catalog
    cases = [(catalog.load(k).datum, r) for k in catalog.list_entries()
             for r in catalog.load(k).routes if isinstance(r, PPRoute)]
    assert [d.name for d, _ in cases] == ["a2-sl2", "borel-sl3", "pp-gl3",
                                          "siegel-gsp6"]
    return cases + [(a2_datum(), a2_routes()[1]),
                    (borel_sl3_datum(), borel_sl3_routes()[1]),
                    (pp_gl3_datum(), pp_gl3_route()),
                    (siegel_datum(), siegel_route())]


def test_pp_matches_the_stratum_scan():
    for datum, route in pp_cases():
        for h in range(13):
            for kappa in (1, -1):
                assert (basic_function_pp(datum, route, h, kappa)
                        == stratum_scan_pp(datum, route, h, kappa)), (
                            datum.name, route, h, kappa)


def test_pp_rejects_a_collapsing_label_map():
    # both simple coroots of SL(3) shift the label by (1, 0), so the map is
    # not injective on the strata; refused at every height, 0 included
    route = PPRoute(root_datum("SL", 3), (), LatticeMap.of([(-1, -1), (0, 0)]))
    for h in (0, 1, 3):
        with pytest.raises(ValueError, match="not injective"):
            basic_function_pp(borel_sl3_datum(), route, h)


# (key, route index) -> table truncation at heights 6 and 8, as the
# Fraction pairing with rho gave them
TRUNCATIONS = {
    ("a1-gl1", 0): (0, 0), ("a2-sl2", 0): (8, 10), ("a2-sl2", 1): (8, 10),
    ("a2-sl2-nocenter", 0): (8, 10), ("borel-gl2", 0): (8, 10),
    ("borel-sl3", 0): (14, 18), ("borel-sl3", 1): (14, 18),
    ("pp-gl3", 0): (8, 10), ("hecke-gl2", 0): (0, 0), ("pgl2-group", 0): (0, 0),
    ("godement-jacquet-2", 0): (0, 0), ("godement-jacquet-3", 0): (0, 0),
    ("rankin-selberg", 0): (0, 0), ("bump-friedberg", 0): (0, 0),
    ("triple-product", 0): (4, 4), ("siegel-gsp6", 0): (14, 18),
    ("kvs-1-15", 0): (0, 0), ("kvs-2-3", 0): (0, 0), ("kvs-2-5", 0): (0, 0),
}


def _truncation_reference(group, lifted_gens, height):
    # height * max(1, ceil |<rho, g>|) + 2, with rho as Fractions
    pairings = [abs(sum(r * x for r, x in zip(group.rho, g))) for g in lifted_gens]
    return height * max([1] + [math.ceil(e) for e in pairings]) + 2


def test_truncation_is_kept_on_every_catalog_route():
    from sphvar import catalog
    from sphvar.engine import route_table
    got = {}
    for key in catalog.list_entries():
        entry = catalog.load(key)
        for i, route in enumerate(entry.routes):
            got[key, i] = tuple(route_table(entry.datum, route, h,
                                            catalog.basic_table).truncation
                                for h in (6, 8))
            if isinstance(route, (BorelRoute, PPRoute)):
                p = route.parabolic()
                gens = ([bv for _, bv in p.datum.positive_pairs]
                        if isinstance(route, BorelRoute)
                        else [p.lift(g) for g in p.monoid_generators])
                for h in (6, 8):
                    assert (_truncation_default(p.datum, gens, h)
                            == _truncation_reference(p.datum, gens, h))
    assert got == TRUNCATIONS


@given(st.sampled_from([("GL", 2), ("GL", 3), ("SL", 3), ("GSP", 4), ("B", 3),
                        ("G", 2), ("T", 2)]),
       st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4), max_size=4),
       st.integers(0, 9))
@settings(max_examples=60, deadline=None)
def test_truncation_is_the_ceiling_of_the_rho_pairing(group, gens, height):
    rd = root_datum(*group)
    gens = [tuple(g[:rd.rank]) for g in gens]
    assert (_truncation_default(rd, gens, height)
            == _truncation_reference(rd, gens, height))


# ---------------------------------------------------------------------------
# smooth and transported tables

def test_smooth_hecke_is_origin_only():
    tb = basic_function_smooth(hecke_datum(), 6)
    assert tb.values == (((0, 0), ONE),)


def test_smooth_gj2_support():
    tb = basic_function_smooth(gj2_datum(), 4)
    assert tb.support() == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)]
    assert all(v == ONE for _, v in tb.values)


def test_smooth_needs_colored_cone():
    with pytest.raises(ValueError, match="colored cone"):
        basic_function_smooth(no_cone_datum(), 2)


def test_transport_height_is_small():
    assert transport_height(triple_datum(), triple_route(), 6) == 1


def test_transport_pulls_back_partner_values():
    d = triple_datum()
    route = triple_route()
    asked = []

    def partner(h):
        asked.append(h)
        return basic_function_pp(siegel_datum(), siegel_route(), h)
    tb = basic_function_transport(d, route, partner, 6)
    assert asked == [transport_height(d, route, 6)]
    assert len(tb.values) == 5
    assert all(v == ONE for _, v in tb.values)
    assert tb.value((0, 0, 0, 0, 0)) == ONE
    assert tb.case == "transport"


def test_transport_rejects_short_partner():
    partner = basic_function_pp(siegel_datum(), siegel_route(), 0)
    with pytest.raises(ValueError, match="too short"):
        basic_function_transport(triple_datum(), triple_route(),
                                 lambda h: partner, 6)


def test_table_mechanics():
    tb = BasicFunctionTable.of("toy", "smooth", 1,
                               {(0,): ONE, (1,): QLaurent.zero()}, 0, 1)
    assert tb.support() == [(0,)]
    assert tb.value((1,)).is_zero()
    sp = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 3).specialize(2)
    assert sp[(1, 1)] == 3


def test_table_rejects_labels_of_the_wrong_rank():
    with pytest.raises(ValueError, match="wrong rank"):
        BasicFunctionTable.of("toy", "smooth", 2, {(0,): ONE}, 0, 1)


# ---------------------------------------------------------------------------
# Satake shifts

def test_minuscule_satake_gl2():
    gl2 = root_datum("GL", 2)
    s = minuscule_satake(gl2, (1, 0))
    assert set(s) == {(1, 0), (0, 1)}
    assert all(str(v) == "q^1/2" for v in s.values())
    c = minuscule_satake(gl2, (1, 1))
    assert c == {(1, 1): ONE}


def test_minuscule_satake_rejects_higher_weights():
    with pytest.raises(ValueError, match="minuscule"):
        minuscule_satake(root_datum("GL", 2), (2, 0))
    with pytest.raises(ValueError, match="minuscule"):
        minuscule_satake(root_datum("SL", 2), (1,))


def _route_groups():
    return {r.group.name: r.group for key in list_entries()
            for r in load(key).routes if hasattr(r, "group")}


def test_satake_transform_is_minuscule_satake_where_that_applies():
    # the reference: q^<rho,lam> times the sum over the Weyl orbit of lam,
    # which is the Satake transform exactly at minuscule and central lam
    groups = _route_groups()
    assert len(groups) >= 5
    seen = 0
    for rd in groups.values():
        for mu in itertools.product(range(-1, 2), repeat=rd.rank):
            dom = rd.dual.dominant_char(mu)
            if all(sum(x * y for x, y in zip(a, dom)) <= 1
                   for a in rd.positive_roots()):
                orbit_sum = {w: QLaurent.q_pow(sum(r * x for r, x in zip(rd.rho, dom)))
                             for w in rd.dual.weyl_orbit_char(dom)}
                assert satake_transform(rd, mu) == minuscule_satake(rd, mu) \
                    == orbit_sum, mu
                seen += 1
    assert seen > 20


Q, Q_MINUS_1 = QLaurent.q_pow(1), QLaurent.of({1: 1, 0: -1})


def test_satake_transform_beyond_minuscule():
    assert satake_transform(root_datum("SL", 2), (1,)) == {
        (1,): Q, (-1,): Q, (0,): Q_MINUS_1}
    assert satake_transform(root_datum("GL", 2), (2, 0)) == {
        (2, 0): Q, (0, 2): Q, (1, 1): Q_MINUS_1}
    assert satake_transform(root_datum("GL", 2), (0, 2)) \
        == satake_transform(root_datum("GL", 2), (2, 0))


def _satake_product(f, g):
    """Product of two Satake polynomials {weight: QLaurent}."""
    out = {}
    for w1, c1 in f.items():
        for w2, c2 in g.items():
            w = tuple(a + b for a, b in zip(w1, w2))
            out[w] = out.get(w, QLaurent.zero()) + c1 * c2
    return {w: c for w, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("n", [2, 3])
def test_satake_transform_hecke_relation(n):
    # T_(1,0..)^2 = T_(2,0..) + (q+1) T_(1,1,0..) in the spherical Hecke algebra
    gl = root_datum("GL", n)
    t1 = satake_transform(gl, (1,) + (0,) * (n - 1))
    want = dict(satake_transform(gl, (2,) + (0,) * (n - 1)))
    for w, c in _satake_product({(0,) * n: Q + ONE},
                                satake_transform(gl, (1, 1) + (0,) * (n - 2))).items():
        want[w] = want.get(w, QLaurent.zero()) + c
    assert _satake_product(t1, t1) == want


def test_borel_shifts_gl2():
    route = borel_gl2_route()
    h = pp_shifts(route, minuscule_satake(route.group, (1, 0)))
    assert h == [((1, 1), ONE), ((0, 1), QLaurent.q_pow(1))]
    z = pp_shifts(route, minuscule_satake(route.group, (1, 1)))
    assert z == [((1, 2), ONE)]


def test_pp_shifts_gl3():
    route = pp_gl3_route()
    s = minuscule_satake(route.group, (1, 0, 0))
    for kappa in (1, -1):
        h = dict(pp_shifts(route, s, kappa))
        assert set(h) == {(0, 1), (1, 1)}
        assert h[(1, 1)] == ONE
        assert str(h[(0, 1)]) == "q^2 + q"
    for kappa in (0, 5):
        with pytest.raises(ValueError, match=r"kappa must be \+1 or -1"):
            pp_shifts(route, s, kappa)


def test_apply_shifts_orientation():
    route = borel_gl2_route()
    h = pp_shifts(route, minuscule_satake(route.group, (1, 0)))
    out = apply_shifts(h, {(2, 1): 1})
    assert out == {(1, 0): ONE, (2, 0): QLaurent.q_pow(1)}


def test_shifts_commute():
    route = borel_gl2_route()
    h1 = pp_shifts(route, minuscule_satake(route.group, (1, 0)))
    h2 = pp_shifts(route, minuscule_satake(route.group, (1, 1)))
    f = {(0, 0): 1, (2, 1): 1}
    a = apply_shifts(h2, apply_shifts(h1, f))
    b = apply_shifts(h1, apply_shifts(h2, f))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3))
def test_minuscule_orbit_coefficients_equal(a, b):
    gl2 = root_datum("GL", 2)
    assume(abs(a - b) <= 1)
    s = minuscule_satake(gl2, (a, b))
    assert set(s) == set(gl2.dual.weyl_orbit_char(
        gl2.dual.dominant_char((a, b))))
    assert len({str(v) for v in s.values()}) == 1
    mass = sum(v.specialize(1) for _, v in pp_shifts(borel_gl2_route(), s))
    assert mass == len(s)


# ---------------------------------------------------------------------------
# graded decompositions for a general Levi

def test_graded_sl2_borel():
    p = ParabolicDatum(root_datum("SL", 2), ())
    assert basic_function_graded(p, 3) == [(i, (((i,), 1),)) for i in range(4)]


def test_graded_gl3_mirabolic():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    assert basic_function_graded(p, 2) == [
        (0, (((0, 0, 0), 1),)),
        (1, (((1, 0, -1), 1),)),
        (2, (((2, 0, -2), 1),))]


def test_graded_makes_no_freudenthal_evaluation(monkeypatch):
    import sphvar.chars as chars

    def refuse(*args):
        raise AssertionError("Freudenthal evaluated")
    monkeypatch.setattr(chars, "irrep_char", refuse)
    monkeypatch.setattr(chars, "freudenthal_multiplicity", refuse)
    p = ParabolicDatum(root_datum("GSP", 6), (0, 1))
    assert [i for i, _ in basic_function_graded(p, 3)] == [0, 1, 2, 3]


def test_graded_matches_the_benchmark_references(benchmark_ops):
    with open(os.path.join(benchmark_ops.REFS, "hecke.json")) as f:
        refs = json.load(f)
    for kind, n, levi, bound in benchmark_ops.GRADED:
        graded = basic_function_graded(
            ParabolicDatum(root_datum(kind, n), levi), bound)
        key = "graded:%s%d:%s:%d" % (kind, n, levi, bound)
        assert benchmark_ops._graded_canon(graded) == refs[key]


def test_graded_rejects_bad_input():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    with pytest.raises(ValueError, match="degree bound"):
        basic_function_graded(p, -1)
    with pytest.raises(ValueError, match="no radical"):
        basic_function_graded(ParabolicDatum(root_datum("GL", 2), (0,)), 2)


# ---------------------------------------------------------------------------
# local L-factors

def test_lfactor_sl2_geometric_series():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("SL", 2), ())))
    lf = local_lfactor(ff, {"t1": Fraction(2, 3)})
    assert lf.monomials == ((Fraction(2, 3), Fraction(0)),)
    assert lf.expand(4, 2) == [Fraction(2, 3) ** k for k in range(5)]


def test_lfactor_empty_rep_is_one():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    lf = local_lfactor(FFixedRep(p, ()), {})
    assert lf.expand(3, 2) == [1, 0, 0, 0]


def test_lfactor_expand_matches_sym_powers():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GSP", 6), (0, 1))))
    lf = local_lfactor(ff, {"t1": 2, "t2": 5})
    assert lf.monomials == ((Fraction(2), Fraction(-1)), (Fraction(4), Fraction(-1)))
    for q0 in (2, 3):
        vals = [Fraction(c) * Fraction(q0) ** int(e) for c, e in lf.monomials]
        got = lf.expand(5, q0)
        for k in range(6):
            brute = sum(
                _prod(pick)
                for pick in itertools.combinations_with_replacement(vals, k))
            assert got[k] == brute


def _prod(xs):
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


def test_lfactor_half_exponents_need_square_q():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GL", 3), (0,))))
    lf = local_lfactor(ff, {"t1": 2, "t2": 3})
    assert lf.monomials == ((Fraction(2, 3), Fraction(-1, 2)),)
    assert lf.expand(3, 4) == [Fraction(3) ** -k for k in range(4)]
    with pytest.raises(ValueError, match="square"):
        lf.expand(3, 2)


def test_lfactor_full_radical_rep():
    r = dual_radical(ParabolicDatum(root_datum("GL", 3), (0,)))
    lf = local_lfactor(r, {"t1": 2, "t2": 3})
    assert sorted(lf.monomials) == [
        (Fraction(2, 3), Fraction(-1, 2)), (Fraction(2, 3), Fraction(1, 2))]


def test_lfactor_point_errors():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GL", 3), (0,))))
    with pytest.raises(ValueError, match="missing coordinate t1"):
        local_lfactor(ff, {})
    with pytest.raises(ValueError, match="zero coordinate t1"):
        local_lfactor(ff, {"t1": 0, "t2": 1})
    with pytest.raises(ValueError, match="unsupported representation"):
        local_lfactor("nonsense", {})


def test_lfactor_rejects_bad_kappa_and_bound():
    ff = f_fixed(dual_radical(ParabolicDatum(root_datum("GL", 3), (0,))))
    for kappa in (0, 3, -2):
        with pytest.raises(ValueError, match="kappa must be"):
            local_lfactor(ff, {"t1": 2, "t2": 3}, kappa=kappa)
    lf = local_lfactor(ff, {"t1": 2, "t2": 3})
    assert lf.expand(0, 4) == [1]
    with pytest.raises(ValueError, match="bound must be >= 0"):
        lf.expand(-2, 4)


def test_lfactor_expands_numeric_monomials():
    lf = LFactor(((Fraction(1, 2), Fraction(1, 2)), (Fraction(3), Fraction(1, 2))))
    assert lf.expand(2, 4) == [1, 7, 43]


# ---------------------------------------------------------------------------
# growth certificates and toric distance

def test_growth_certificate_all_ones():
    tb = basic_function_smooth(gj2_datum(), 4)
    assert growth_certificate(tb) == (Fraction(0), Fraction(0))


def test_growth_certificate_accepts_hint():
    tb = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 6)
    assert growth_certificate(tb, hints=((1, 1),)) == (Fraction(1), Fraction(1))


def test_growth_certificate_searches():
    tb = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 6)
    chi = growth_certificate(tb)
    assert chi is not None
    for l, v in tb.values:
        assert sum(c * x for c, x in zip(chi, l)) >= v.degree()


def test_growth_certificate_inconclusive():
    tb = BasicFunctionTable.of(
        "toy", "smooth", 1,
        {(n,): QLaurent.q_pow(abs(n)) for n in range(-2, 3)}, 0, 2)
    assert growth_certificate(tb) is None


def test_growth_certificate_empty_table():
    tb = BasicFunctionTable.of("toy", "smooth", 2, {}, 0, 0)
    assert growth_certificate(tb) == (Fraction(0), Fraction(0))


def test_toric_distance_line():
    d = a1_datum()
    for n in range(4):
        assert toric_distance(d, (n,), 3) == Fraction(3) ** -n
    with pytest.raises(ValueError, match="outside"):
        toric_distance(d, (-1,), 3)


def test_toric_distance_quotients_lineality():
    d = borel_gl2_datum()
    assert toric_distance(d, (2, 0), 2) == Fraction(1, 4)
    assert toric_distance(d, (0, 0), 2) == 1


def test_toric_distance_rejects_nonpositive_q():
    for q0 in (0, -2, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="q must be positive"):
            toric_distance(borel_sl3_datum(), (1, 1), q0)


def test_toric_distance_rejects_non_integral_labels():
    with pytest.raises(ValueError, match="non-integral"):
        toric_distance(borel_sl3_datum(), (Fraction(3, 2), 1), 2)
    assert (toric_distance(borel_sl3_datum(), (Fraction(2, 2), 1.0), 2)
            == toric_distance(borel_sl3_datum(), (1, 1), 2))


def test_toric_distance_trivial_cone():
    assert toric_distance(hecke_datum(), (0, 0), 5) == 1


def test_toric_distance_needs_colored_cone():
    with pytest.raises(ValueError, match="no colored cone"):
        toric_distance(no_cone_datum(), (0, 0), 2)


def test_toric_distance_rank_limit():
    with pytest.raises(ValueError, match="unsupported rank"):
        toric_distance(torus5_datum(), (0, 0, 0, 0, 0), 2)


def test_distance_bounds_table_values():
    # |Phi0| at q0 is within d^-2 of the boundary distance on these tables
    sieg = basic_function_pp(siegel_datum(), siegel_route(), 6)
    sl3 = basic_function_borel(borel_sl3_datum(), borel_sl3_routes()[0], 6)
    for datum, tb in ((siegel_datum(), sieg), (borel_sl3_datum(), sl3)):
        for q0 in (2, 3):
            for l, v in tb.specialize(q0).items():
                dist = toric_distance(datum, l, q0)
                assert abs(v) <= dist ** -2
