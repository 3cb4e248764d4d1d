import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from sphvar import catalog
from sphvar.catalog import (
    CatalogEntry,
    ExpectedLValue,
    _godement_jacquet,
    _sl2_tensor,
    basic_table,
    list_entries,
    load,
    transport_coincidence,
)
from sphvar.chars import QLaurent, WeightChar, sym_power
from sphvar.engine import (
    BorelRoute,
    LFactor,
    PPRoute,
    basic_function_borel,
    basic_function_pp,
    growth_certificate,
    satake_transform,
)
from sphvar.geometry import Cone
from sphvar.oracle import mat2_coset_label_counts
from sphvar.rootdata import root_datum
from sphvar.spherical import (
    affine_closure_data,
    arithmetic_multiplicity,
    is_affine,
    is_wavefront,
    negligible_orbit_check,
    parabolic_induction,
    validate_colored_cone,
)

ALL_KEYS = (
    "a1-gl1", "a2-sl2", "a2-sl2-nocenter", "borel-gl2", "borel-sl3",
    "pp-gl3", "hecke-gl2", "pgl2-group", "godement-jacquet-2",
    "godement-jacquet-3", "rankin-selberg", "bump-friedberg",
    "triple-product", "siegel-gsp6", "tensor-4", "kvs-1-15", "kvs-2-3",
    "kvs-2-5",
)

# entries whose stored colored cone is recovered by the closure recipe
CLOSURE_SAME = frozenset(ALL_KEYS) - {
    "a1-gl1", "godement-jacquet-2", "godement-jacquet-3",
    "kvs-1-15", "kvs-2-3", "kvs-2-5",
}


def test_listing_is_stable():
    assert list_entries() == ALL_KEYS
    assert len(set(ALL_KEYS)) == 18


def test_unknown_key():
    with pytest.raises(ValueError, match="unknown catalog key"):
        load("borel-e8")


def test_load_returns_entries():
    e = load("siegel-gsp6")
    assert isinstance(e, CatalogEntry)
    assert e.key == "siegel-gsp6" and e.datum.name == "siegel-gsp6"
    assert e.preflag_case == "PP"


def test_each_entry_is_named_once():
    # the key is the datum's name, not a field of its own
    assert "key" not in CatalogEntry._fields
    for key in ALL_KEYS:
        assert load(key).key == load(key).datum.name == key
    assert load("pp-gl3") is load("pp-gl3")


# Each step runs in a fresh interpreter and reports the names of the data
# it built, by wrapping SphericalDatum.__post_init__.
_LAZINESS = """
import json, sphvar.spherical as sp
from sphvar import catalog
built = []
post_init = sp.SphericalDatum.__post_init__
def counted(self):
    built.append(self.name)
    post_init(self)
sp.SphericalDatum.__post_init__ = counted
def step(fn, *args):
    del built[:]
    try:
        fn(*args)
    except ValueError as e:
        built.append("ValueError: %s" % e)
    return sorted(built)
print(json.dumps([step(catalog.list_entries),
                  step(catalog.load, "hecke-gl2"),
                  step(catalog.load, "hecke-gl2"),
                  step(catalog.basic_table, "triple-product", 4),
                  step(catalog.load, "borel-e8")]))
"""


def test_entries_are_built_on_first_load():
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LAZINESS],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    listing, first, again, transport, unknown = json.loads(proc.stdout)
    assert listing == [] and again == []
    assert first == ["hecke-gl2"]
    assert transport == ["siegel-gsp6", "triple-product"]
    assert unknown == ["ValueError: unknown catalog key 'borel-e8'"]


def test_every_listed_key_loads_its_own_entry():
    for key in list_entries():
        entry = load(key)
        assert isinstance(entry, CatalogEntry) and entry.key == key


@pytest.mark.parametrize("key, spoil, message", [
    ("hecke-gl2", lambda e: e.replace(preflag_case="toroidal"),
     "unknown preflag case"),
    ("pp-gl3", lambda e: e.replace(reductive_stabilizer=True),
     "reductive stabilizer with Levi roots"),
    ("siegel-gsp6", lambda e: load("pp-gl3"), "builder made entry pp-gl3"),
])
def test_load_checks_each_entry_it_builds(monkeypatch, key, spoil, message):
    build = catalog._BUILDERS[key]
    monkeypatch.setitem(catalog._BUILDERS, key, lambda: spoil(build()))
    monkeypatch.delitem(catalog._LOADED, key, raising=False)
    with pytest.raises(RuntimeError, match="^%s: %s$" % (key, message)):
        load(key)
    # a failed build is not kept
    assert key not in catalog._LOADED
    monkeypatch.setitem(catalog._BUILDERS, key, build)
    assert load(key).key == key


@pytest.mark.parametrize("key", ALL_KEYS)
def test_colored_cone_is_valid(key):
    d = load(key).datum
    ok, diag = validate_colored_cone(d, d.colored_cone)
    assert ok, diag


@pytest.mark.parametrize("key", ALL_KEYS)
def test_cone_vectors_are_ints(key):
    d = load(key).datum
    cones = [d.valuation_cone, d.colored_cone.cone,
             d.valuation_cone.intersect(d.colored_cone.cone),
             affine_closure_data(d).cone]
    for c in cones:
        for v in c.generators + c.dual_generators():
            assert all(type(a) is int for a in v), (c, v)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_wavefront_flag_matches(key):
    e = load(key)
    assert is_wavefront(e.datum) == e.wavefront_expected


@pytest.mark.parametrize("key", ALL_KEYS)
def test_arithmetic_multiplicity_is_one(key):
    assert arithmetic_multiplicity(load(key).datum) == 1


@pytest.mark.parametrize("key", ALL_KEYS)
def test_induction_matches_case(key):
    e = load(key)
    ind = parabolic_induction(e.datum)
    if e.reductive_stabilizer:
        assert ind is None
    if e.preflag_case in ("U_P", "PP"):
        assert ind == e.datum.levi_roots
    if e.preflag_case == "PP" :
        assert ind


def test_negligible_flags():
    for key in ALL_KEYS:
        d = load(key).datum
        if key == "a2-sl2-nocenter":
            # no central direction to absorb the determinant twist
            with pytest.raises(ValueError):
                negligible_orbit_check(d)
            continue
        ok, _ = negligible_orbit_check(d)
        assert ok, key


def test_closure_recipe_agreement():
    for key in ALL_KEYS:
        d = load(key).datum
        same = affine_closure_data(d).same_as(d.colored_cone)
        assert same == (key in CLOSURE_SAME), key


@pytest.mark.parametrize("key", [k for k in ALL_KEYS if k != "tensor-4"])
def test_smooth_flag_forces_trivial_values(key):
    e = load(key)
    t = basic_table(e, 5)
    if e.smooth_expected:
        assert all(str(v) == "1" for _, v in t.values), key
    elif key != "triple-product":
        # the transported table is still trivial this far out; the Siegel
        # partner values only reach its strata beyond height 6
        assert any(str(v) != "1" for _, v in basic_table(e, 6).values), key


def test_basic_table_accepts_keys_and_entries():
    by_key = basic_table("a1-gl1", 3)
    by_entry = basic_table(load("a1-gl1"), 3)
    assert by_key.values == by_entry.values
    assert by_key.support() == [(0,), (1,), (2,), (3,)]


def test_no_route_for_conjectural_entry():
    e = load("tensor-4")
    assert e.routes == ()
    assert e.expected_lvalue.conjectural
    with pytest.raises(ValueError, match="no route for tensor-4"):
        basic_table(e, 3)


def test_borel_and_pp_routes_coincide():
    for key in ("a2-sl2", "borel-sl3"):
        e = load(key)
        tb = basic_function_borel(e.datum, e.routes[0], 4)
        tp = basic_function_pp(e.datum, e.routes[1], 4)
        assert tb.values == tp.values, key


# the hand-typed routes the catalog carried before they were derived:
# (key, kind, simple roots, simple coroots, Levi, label-map rows)
HAND_ROUTES = (
    ("a2-sl2", BorelRoute, ((2,),), ((1,),), (), ((-1,),)),
    ("a2-sl2", PPRoute, ((2,),), ((1,),), (), ((-1,),)),
    ("a2-sl2-nocenter", BorelRoute, ((2,),), ((1,),), (), ((-1,),)),
    ("borel-gl2", BorelRoute, ((1, -1),), ((1, -1),), (), ((0, 1), (1, 1))),
    ("borel-sl3", BorelRoute, ((2, -1), (-1, 2)), ((1, 0), (0, 1)), (),
     ((0, -1), (-1, 0))),
    ("borel-sl3", PPRoute, ((2, -1), (-1, 2)), ((1, 0), (0, 1)), (),
     ((0, -1), (-1, 0))),
    ("pp-gl3", PPRoute, ((1, -1, 0), (0, 1, -1)), ((1, -1, 0), (0, 1, -1)),
     (0,), ((0, 0, 1), (1, 1, 1))),
    ("siegel-gsp6", PPRoute,
     ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 2, -1)),
     ((1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, 0)),
     (0, 1), ((-1, -1, -1, 3), (0, 0, 0, 1))),
)


def test_derived_routes_equal_the_hand_typed_routes():
    got = []
    for key in ALL_KEYS:
        for route in load(key).routes:
            if isinstance(route, (BorelRoute, PPRoute)):
                got.append((key, type(route), route.group.simple_roots,
                            route.group.simple_coroots,
                            getattr(route, "levi", ()), route.label_map.rows))
    assert tuple(got) == HAND_ROUTES


def test_siegel_table_frozen():
    t = basic_table("siegel-gsp6", 4)
    assert [(l, str(v)) for l, v in t.values] == [
        ((0, 0), "1"), ((1, 0), "1"), ((2, 0), "q^2 + 1"),
        ((3, 0), "q^2 + 1"), ((4, 0), "q^4 + q^2 + 1")]


def test_transport_table_is_sparse_and_trivial():
    t = basic_table("triple-product", 6)
    assert t.case == "transport"
    assert len(t.values) == 5
    assert all(str(v) == "1" for _, v in t.values)


@pytest.fixture
def scans(monkeypatch):
    """Heights of the lattice-point scans made by the table layer."""
    from sphvar import engine, geometry, spherical
    seen = []

    def counting(cone, height):
        seen.append(height)
        return geometry.lattice_points(cone, height)
    for mod in (engine, spherical):
        monkeypatch.setattr(mod, "lattice_points", counting)
    return seen


@pytest.mark.parametrize("key", [k for k in ALL_KEYS if load(k).routes])
def test_each_table_scans_at_most_once(scans, key):
    basic_table(key, 6)
    want = {"pp-gl3": 0, "siegel-gsp6": 0, "triple-product": 1}
    if key in want:
        assert len(scans) == want[key]
    else:
        assert len(scans) <= 1


def test_transport_coincidence():
    ok, diag = transport_coincidence("triple-product")
    assert ok, diag
    ok, diag = transport_coincidence("a1-gl1")
    assert not ok and "no transport route" in diag


def test_growth_hints_certify():
    for key in ("siegel-gsp6", "borel-sl3", "triple-product"):
        e = load(key)
        t = basic_table(e, 4)
        cert = growth_certificate(t, hints=(e.growth_hint,))
        assert cert, key


# the hint-less growth certificate, found by the linear program, on every
# table at heights 4-10; entries not listed certify with chi = 0
LP_GROWTH = {"borel-sl3": (1, 1), "siegel-gsp6": (2, 0)}


@pytest.mark.parametrize("key", [k for k in list_entries() if load(k).routes])
def test_growth_certificate_without_hints(key):
    e = load(key)
    for h in range(4, 11):
        cert = growth_certificate(basic_table(e, h))
        assert cert == LP_GROWTH.get(key, (0,) * e.datum.rank), (key, h)
        assert all(type(x) is Fraction for x in cert)


def test_gj2_lvalue_metadata():
    lv = load("godement-jacquet-2").expected_lvalue
    assert lv == ExpectedLValue(numerator=(("std", Fraction(1, 2)),))
    lv = load("hecke-gl2").expected_lvalue
    assert lv.numerator == (("std", Fraction(1, 2)),
                            ("std-dual", Fraction(-1, 2)))
    assert lv.denominator == (("Ad", Fraction(1)),)
    assert not lv.conjectural


def test_gj2_table_realizes_standard_lfactor():
    # weight each stratum by its coset count; the determinant-degree series
    # must match the two-monomial Euler factor 1/((1-x)(1-qx))
    table = basic_table("godement-jacquet-2", 6)
    lf = LFactor(((1, 0), (1, 1)))
    for q in (2, 3):
        counts = mat2_coset_label_counts(q, 16, 4)
        vals = table.specialize(q)
        series = [sum(vals.get(lab, 0) * c for lab, c in counts.items()
                      if lab[1] == k) for k in range(5)]
        assert series == lf.expand(4, q)


def test_provenance_and_cases():
    for key in ALL_KEYS:
        e = load(key)
        assert e.provenance
        assert e.preflag_case in ("U_P", "PP", "homogeneous", "vector-space")
        if e.preflag_case in ("homogeneous", "vector-space"):
            assert e.datum.levi_roots == ()


# the valuation cones these two entries typed by hand before the catalog
# derived every valuation cone from the spherical roots
HAND_VALUATION_CONES = {
    "godement-jacquet-2": ((1, 2), (-1, -2), (-1, 0)),
    "bump-friedberg": ((1, -1), (-1, 1), (-1, -1)),
}


@pytest.mark.parametrize("key", sorted(HAND_VALUATION_CONES))
def test_derived_valuation_cone_equals_the_hand_typed_cone(key):
    d = load(key).datum
    old = Cone(d.rank, HAND_VALUATION_CONES[key])
    assert d.valuation_cone == old
    # the same cone, spelled by different generators
    assert d.valuation_cone.generators != old.generators


def tamagawa_mismatches(entry, kmax, values):
    """The degrees k <= kmax at which the Godement-Jacquet table values miss
    Tamagawa's identity sum_(d_n = k) Phi0(d) Sat(K t^lam(d) K) =
    q^(k s) Sym^k(std) of GL(n), with s the declared shift of std.

    A label d = (d_1, ..., d_n) holds determinantal divisors, so lam(d) is
    the differences d_i - d_(i-1) (d_0 = 0) sorted decreasingly."""
    n = entry.datum.rank
    s = dict(entry.expected_lvalue.numerator)["std"]
    gl = root_datum("GL", n)
    std = WeightChar.of({tuple(int(i == j) for j in range(n)): 1
                         for i in range(n)})
    bad = []
    for k in range(kmax + 1):
        lhs = {}
        for d, phi in values:
            if d[-1] == k:
                lam = sorted((b - a for a, b in zip((0,) + d, d)), reverse=True)
                for w, c in satake_transform(gl, lam).items():
                    lhs[w] = lhs.get(w, QLaurent.zero()) + phi * c
        lhs = {w: c for w, c in lhs.items() if not c.is_zero()}
        rhs = {w: QLaurent.q_pow(k * s, m) for w, m in sym_power(std, k).weights}
        if lhs != rhs:
            bad.append(k)
    return bad


GJ_DEGREES = ((load("godement-jacquet-2"), 4), (load("godement-jacquet-3"), 3),
              (_godement_jacquet(4), 3))


@pytest.mark.parametrize("entry,kmax", GJ_DEGREES,
                         ids=[e.key for e, _ in GJ_DEGREES])
def test_godement_jacquet_tables_realize_the_declared_lvalue(entry, kmax):
    # at height n*k the table holds every label of degree d_n <= k
    values = basic_table(entry, entry.datum.rank * kmax).values
    assert tamagawa_mismatches(entry, kmax, values) == []
    # negative control: dropping one label of degree k breaks degree k
    for i, (d, _) in enumerate(values):
        if d[-1] == kmax:
            cut = values[:i] + values[i + 1:]
            assert tamagawa_mismatches(entry, kmax, cut) == [kmax]
            break


def test_godement_jacquet_3_rejects_the_gl2_shift():
    e = load("godement-jacquet-3")
    assert e.expected_lvalue.numerator == (("std", Fraction(1)),)
    wrong = e.replace(expected_lvalue=ExpectedLValue(
        numerator=(("std", Fraction(1, 2)),)))
    values = basic_table(e, 9).values
    assert tamagawa_mismatches(wrong, 3, values) == [1, 2, 3]


def test_family_members_outside_the_catalog():
    assert _godement_jacquet(4).key not in list_entries()
    gj4 = _godement_jacquet(4).datum
    tensor5 = _sl2_tensor("tensor-5", "a1quint", 5, "De")
    assert gj4.rank == 4 and tensor5.rank == 7
    for d in (gj4, tensor5):
        ok, diag = validate_colored_cone(d, d.colored_cone)
        assert ok, (d.name, diag)
        assert is_wavefront(d), d.name
        assert is_affine(d, d.colored_cone)[0], d.name
    assert parabolic_induction(gj4) is None
    assert negligible_orbit_check(gj4)[0]

