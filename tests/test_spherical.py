from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sphvar import spherical
from sphvar.catalog import list_entries, load
from sphvar.chars import QLaurent
from sphvar.engine import satake_transform
from sphvar.geometry import Cone, LatticeMap, _idot, feasible
from sphvar.rootdata import (ParabolicDatum, _reflect, levi_datum, product_datum,
                             root_datum)
from sphvar.spherical import (ColoredCone, SphericalDatum, affine_closure_data,
                              antidominant_cochar_chamber,
                              arithmetic_multiplicity, aut_lineality,
                              check_little_weyl,
                              enumerate_orbits, is_affine, is_wavefront,
                              negligible_orbit_check, parabolic_induction,
                              support, validate_colored_cone)

FULL1 = Cone(1, ((1,), (-1,)))


def line_datum(**kw):
    """Rank-1 horospherical model: T(1) x SL(2) acting on the affine plane."""
    args = dict(
        name="plane", ambient=product_datum(root_datum("T", 1), root_datum("SL", 2)),
        rank=1, lattice_map=LatticeMap.of([(1,), (1,)]), valuation_cone=FULL1,
        colors=(("D", (1,)),),
        colored_cone=ColoredCone(Cone(1, ((1,),)), ("D",)))
    args.update(kw)
    return SphericalDatum(**args)


def group_datum(**kw):
    """PGL(2) as a variety under left-right translation."""
    args = dict(
        name="grp", ambient=product_datum(root_datum("PGL", 2), root_datum("PGL", 2)),
        rank=1, lattice_map=LatticeMap.of([(1,), (1,)]),
        valuation_cone=Cone(1, ((-1,),)),
        colors=(("D", (2,)),), spherical_roots=((1,),),
        colored_cone=ColoredCone(Cone(1, ()), ()))
    args.update(kw)
    return SphericalDatum(**args)


def matrix_datum(**kw):
    """2x2 matrices under two-sided GL(2), rank 2."""
    args = dict(
        name="mat2", ambient=product_datum(root_datum("GL", 2), root_datum("GL", 2)),
        rank=2, lattice_map=LatticeMap.of([(0, -1), (-1, -1), (1, 1), (0, 1)]),
        valuation_cone=Cone(2, ((1, 2), (-1, -2), (-1, 0))),
        colors=(("D", (1, 0)),), spherical_roots=((2, -1),),
        colored_cone=ColoredCone(Cone(2, ((1, 0), (0, 1))), ("D",)))
    args.update(kw)
    return SphericalDatum(**args)


def coset_datum(**kw):
    """T(1) x PGL(2) over the unit coset space, rank 2, with one spherical root."""
    args = dict(
        name="coset", ambient=product_datum(root_datum("T", 1), root_datum("PGL", 2)),
        rank=2, lattice_map=LatticeMap.identity(2),
        valuation_cone=Cone(2, ((1, 0), (-1, 0), (0, -1))),
        colors=(("D1", (1, 1)), ("D2", (-1, 1))),
        spherical_roots=((0, 1),),
        colored_cone=ColoredCone(Cone(2, ()), ()))
    args.update(kw)
    return SphericalDatum(**args)


# -- construction and validation -------------------------------------------

def test_datum_shape_errors():
    with pytest.raises(ValueError):
        line_datum(lattice_map=LatticeMap.identity(2))
    with pytest.raises(ValueError):
        line_datum(valuation_cone=Cone.full(2))
    with pytest.raises(ValueError):
        line_datum(colors=(("D", (1, 0)),))
    with pytest.raises(ValueError):
        line_datum(levi_roots=(5,))


def test_datum_spherical_root_sign():
    # a root pairing > 0 with a valuation generator is rejected
    with pytest.raises(ValueError):
        group_datum(spherical_roots=((-1,),))


def test_datum_antidominant_containment():
    with pytest.raises(ValueError):
        group_datum(valuation_cone=Cone(1, ((1,),)), spherical_roots=())


def test_datum_little_weyl_rejected():
    # swapping the coordinates folds two cone points into one orbit
    d = coset_datum()
    with pytest.raises(ValueError, match="not in W_X"):
        check_little_weyl(d, [((0, 1), (1, 0))])
    with pytest.raises(ValueError, match="not in W_X"):
        check_little_weyl(d, [((1, 0),)])
    with pytest.raises(ValueError, match="do not generate"):
        check_little_weyl(d, [((1, 0), (0, 1))])
    check_little_weyl(d, [((1, 0), (0, -1)), ((1, 0), (0, 1))])
    check_little_weyl(line_datum(), [])
    with pytest.raises(ValueError, match="without coroots"):
        check_little_weyl(coset_datum(colors=(("D", (0, 1)),)), [])


# coroots and |W_X| of the little root datum of every catalog entry whose
# spherical roots all get a coroot from the colors; None stands for the
# ambient group's own simple coroots
LITTLE_DATA = {
    "hecke-gl2": (((0, 2),), 2),
    "pgl2-group": (((2,),), 2),
    "godement-jacquet-2": (((1, 0),), 2),
    "godement-jacquet-3": (((1, 0, 0), (0, 1, 0)), 6),
    "bump-friedberg": (((1, 1),), 2),
    "triple-product": (None, 8),
    "tensor-4": (None, 16),
    "kvs-2-3": (((1, -1, 0),), 2),
}


def little_pin_holds(key, d):
    coroots, order = LITTLE_DATA[key]
    try:
        ld = d.little_datum
        return ld is not None and ld.weyl_order() == order and \
            ld.simple_coroots == (coroots or d.ambient.simple_coroots)
    except ValueError:  # <gamma, gamma-check> != 2
        return False


@pytest.mark.parametrize("key", list_entries())
def test_little_datum_is_derived_from_the_colors(key):
    d = load(key).datum
    if key in LITTLE_DATA:
        assert little_pin_holds(key, d)
        assert d.little_datum.simple_roots == d.spherical_roots
        # the simple reflections v -> v - <gamma, v> gamma-check generate W_X
        unit = LatticeMap.identity(d.rank).rows
        check_little_weyl(d, [tuple(zip(*(_reflect(e, gv, g) for e in unit)))
                              for g, gv in d.little_datum._char_pairs])
    elif key == "rankin-selberg":
        # its second root pairs -1, 0, 1 with D1, D2, D3: no rule applies
        assert d.spherical_roots and d.little_datum is None
    else:
        assert not d.spherical_roots and d.little_datum.weyl_order() == 1


@pytest.mark.parametrize("rhos, want", [
    (((1, 0), (0, 1)), (1, 1)),           # two colors pair to 1
    (((2, 0), (0, 5)), (2, 0)),           # one color pairs to 2
    (((1, 0), (0, 1), (2, 0)), None),     # both rules apply
    (((1, 0), (0, 1), (3, -2)), None),    # three colors pair to 1
    (((2, 0), (0, 2)), None),             # two colors pair to 2
    (((1, 0), (0, 3)), None),             # one color pairs to 1
])
def test_coroot_rules_never_guess(rhos, want):
    colors = [("D%d" % i, rho) for i, rho in enumerate(rhos)]
    assert spherical._coroot((1, 1), colors) == want


def test_little_datum_difference_rule_fails_the_pin(monkeypatch):
    # negative control: rho(D+) - rho(D-) in place of the sum
    real = spherical._coroot

    def difference(gamma, colors):
        ones = [rho for _, rho in colors if _idot(gamma, rho) == 1]
        if len(ones) == 2:
            return tuple(a - b for a, b in zip(*ones))
        return real(gamma, colors)
    monkeypatch.setattr(spherical, "_coroot", difference)
    fresh = {key: load(key).datum.replace() for key in LITTLE_DATA}
    failed = [key for key, d in fresh.items() if not little_pin_holds(key, d)]
    assert "hecke-gl2" in failed and "bump-friedberg" in failed


@pytest.mark.parametrize("key, old", [("hecke-gl2", ((1, 0), (0, -1))),
                                      ("pgl2-group", ((-1,),))])
def test_little_weyl_equals_the_old_typed_matrices(key, old):
    d = load(key).datum
    ident = LatticeMap.identity(d.rank).rows
    assert set(d.little_datum.dual.weyl_char) == {ident, old}
    check_little_weyl(d, [old])


GL3 = root_datum("GL", 3)


@pytest.mark.parametrize("call", [
    lambda x: GL3.dual.dominant_char((x, 2, 1)),
    lambda x: GL3.weyl_orbit_char((x, 2, 1)),
    lambda x: satake_transform(root_datum("GL", 2), (x, 0)),
    lambda x: ParabolicDatum(GL3, (0,)).pi((x, 0, 0)),
    lambda x: ParabolicDatum(GL3, (0,)).lift((x, 0)),
    lambda x: levi_datum(GL3, (x,)),
    lambda x: ParabolicDatum(GL3, (x,)),
    lambda x: line_datum(colors=(("D", (x,)),)),
    lambda x: line_datum(levi_roots=(x - 1,)),
    lambda x: group_datum(spherical_roots=((x,),)),
    lambda x: QLaurent.of({0: x}),
], ids=["fold", "orbit", "satake", "pi", "lift", "levi_datum", "levi_indices",
        "colors", "levi_roots", "spherical_roots", "qlaurent"])
def test_non_integral_input_is_refused(call):
    # an integral Fraction or float is accepted; 1/2 used to be truncated
    call(1.0)
    call(Fraction(1))
    with pytest.raises(ValueError, match="non-integral"):
        call(0.5)


def test_colored_cone_same_as():
    a = ColoredCone(Cone(2, ((1, 0),)), ("D",))
    b = ColoredCone(Cone(2, ((2, 0),)), ("D",))
    c = ColoredCone(Cone(2, ((1, 0),)), ())
    assert a.same_as(b)
    assert not a.same_as(c)


def test_rho_image_unknown_label():
    with pytest.raises(ValueError):
        line_datum().rho_image(("bogus",))


def test_validate_examples():
    d = line_datum()
    assert validate_colored_cone(d, d.colored_cone) == (True, "valid")
    g = group_datum()
    assert validate_colored_cone(g, g.colored_cone)[0]
    m = matrix_datum()
    assert validate_colored_cone(m, m.colored_cone)[0]


def test_validate_rejects_line():
    d = line_datum()
    bad = ColoredCone(FULL1, ("D",))
    ok, diag = validate_colored_cone(d, bad)
    assert not ok and "line" in diag


def test_validate_rejects_generator_outside_hull():
    g = group_datum()
    # V is the negative ray and rho(D) = 2; the positive ray with no color
    # is not generated by rho(F) + V
    bad = ColoredCone(Cone(1, ((1,),)), ())
    ok, diag = validate_colored_cone(g, bad)
    assert not ok and "outside" in diag


def test_validate_rejects_relint_miss():
    m = matrix_datum()
    # the ray through (1, 0) touches V = {2 v1 <= v2} only at the origin
    bad = ColoredCone(Cone(2, ((1, 0),)), ("D",))
    ok, diag = validate_colored_cone(m, bad)
    assert not ok and "(ii)" in diag


GE, GT, EQ = ">=0", ">0", "=0"


def feasible_tagged(cons, n):
    """feasible on (row, relation) pairs: an equation is two rows."""
    rows = [r for r, rel in cons if rel != GT]
    rows += [tuple(-a for a in r) for r, rel in cons if rel == EQ]
    return feasible(rows, [r for r, rel in cons if rel == GT], n)


def relint_meets_lp(c, v):
    """Condition (ii) as a linear program: relint(c) meets v iff
    sum t_i g_i = sum s_j w_j for some t > 0, s >= 0."""
    if not c.generators:
        return True  # relint({0}) = {0}, contained in every cone
    k, m = len(c.generators), len(v.generators)
    cons = [(tuple(g[i] for g in c.generators) + tuple(-w[i] for w in v.generators), EQ)
            for i in range(c.n)]
    for j in range(k + m):
        e = [0] * (k + m)
        e[j] = 1
        cons.append((tuple(e), GT if j < k else GE))
    return feasible_tagged(cons, k + m) is not None


def cone_pairs():
    def cone(n):
        return st.lists(st.tuples(*[st.integers(-2, 2)] * n), max_size=4).map(
            lambda gs: Cone(n, gs))
    return st.integers(1, 3).flatmap(lambda n: st.tuples(cone(n), cone(n)))


@given(cone_pairs())
@example((Cone.zero(2), Cone(2, ((1, 0),))))  # relint {0} = {0}
@example((Cone(2, ((1, 0),)), Cone.zero(2)))
@example((Cone.full(2), Cone.zero(2)))  # 0 lies in relint of a linear space
@example((Cone(2, ((1, 1),)), Cone.full(2)))
@example((Cone(2, ((1, 0), (-1, 0))), Cone(2, ((0, 1),))))  # a line
@example((Cone(2, ((1, 0),)), Cone(2, ((1, 0), (-1, 0)))))
@example((Cone(2, ((1, 0),)), Cone(2, ((-1, 0),))))  # disjoint rays
@example((Cone(2, ((1, 0), (1, 1))), Cone(2, ((0, 1), (-1, 0)))))
@example((Cone(2, ((1, 0), (0, 1))), Cone(2, ((1, 0),))))  # v on a facet
@settings(max_examples=150, deadline=None)
def test_relint_meets_matches_lp(pair):
    c, v = pair
    assert spherical._relint_meets(c, v) == relint_meets_lp(c, v)


def test_validate_rejects_zero_color():
    d = line_datum(colors=(("D", (0,)),), colored_cone=None)
    bad = ColoredCone(Cone(1, ((1,),)), ("D",))
    ok, diag = validate_colored_cone(d, bad)
    assert not ok and "(iii)" in diag


def test_validate_dimension_mismatch():
    with pytest.raises(ValueError):
        validate_colored_cone(line_datum(), ColoredCone(Cone.full(2), ()))


# -- affineness --------------------------------------------------------------

def test_is_affine_plane():
    d = line_datum()
    ok, wit = is_affine(d, d.colored_cone)
    assert ok and wit == (0,)


def test_is_affine_group():
    g = group_datum()
    ok, wit = is_affine(g, g.colored_cone)
    assert ok and wit[0] < 0


def test_is_affine_false():
    # drop the color from the plane embedding: rho(D) must now be negative
    # somewhere V forces nonnegativity
    d = line_datum()
    open_cc = ColoredCone(Cone(1, ()), ())
    ok, wit = is_affine(d, open_cc)
    assert not ok and wit is None


def test_is_affine_invalid_cone():
    d = line_datum()
    with pytest.raises(ValueError):
        is_affine(d, ColoredCone(FULL1, ("D",)))


def test_affine_closure_reproduces_plane():
    d = line_datum()
    assert affine_closure_data(d).same_as(d.colored_cone)


def test_affine_closure_group_is_open_orbit():
    got = affine_closure_data(group_datum())
    assert got.cone.generators == () and got.colors == ()


def test_affine_closure_matrix_strict():
    # the open orbit of the matrix space is already affine, so its closure
    # data is the trivial colored cone, not the stored embedding
    m = matrix_datum()
    got = affine_closure_data(m)
    assert got.cone.generators == () and not got.same_as(m.colored_cone)


@st.composite
def gl3_quasi_affine_data(draw):
    """V = the antidominant image of GL(3) plus random rays; nonzero colors
    spanning a strictly convex cone."""
    vec = st.tuples(*[st.integers(-2, 2)] * 3)
    rays = draw(st.lists(vec, max_size=3))
    colors = draw(st.lists(vec.filter(any), min_size=1, max_size=4))
    assume(Cone(3, colors).is_strictly_convex())
    chamber = antidominant_cochar_chamber(GL3)
    return SphericalDatum(
        name="gl3", ambient=GL3, rank=3, lattice_map=LatticeMap.identity(3),
        valuation_cone=Cone(3, chamber.generators + tuple(rays)),
        colors=tuple(("D%d" % i, rho) for i, rho in enumerate(colors)))


@given(gl3_quasi_affine_data())
@settings(max_examples=60, deadline=None)
def test_affine_closure_is_the_cone_of_the_colors_where_r_vanishes(d):
    # F is read off the face of R = {chi >= 0 on V, <= 0 on the colors}:
    # the colors on which every generator of R vanishes
    rows = list(d.valuation_cone.generators) + [tuple(-x for x in rho)
                                               for _, rho in d.colors]
    r = Cone.from_inequalities(rows, 3)
    f = tuple(lbl for lbl, rho in d.colors
              if all(_idot(g, rho) == 0 for g in r.generators))
    got = affine_closure_data(d)
    assert got.colors == f
    assert got.cone == Cone(3, d.rho_image(f))
    assert validate_colored_cone(d, got)[0]


def test_affine_closure_refuses_an_invalid_result(monkeypatch):
    monkeypatch.setattr(spherical, "validate_colored_cone",
                        lambda d, cc: (False, "condition (ii): forced"))
    with pytest.raises(RuntimeError, match="forced"):
        affine_closure_data(line_datum())


def test_affine_closure_not_quasi_affine():
    d = line_datum(colors=(("D", (0,)),), colored_cone=None)
    with pytest.raises(ValueError, match="quasi-affine"):
        affine_closure_data(d)
    e = coset_datum(colors=(("D1", (0, 1)), ("D2", (0, -1))), colored_cone=None)
    with pytest.raises(ValueError, match="quasi-affine"):
        affine_closure_data(e)


# -- invariant criteria -------------------------------------------------------

def test_wavefront():
    assert is_wavefront(line_datum())
    assert is_wavefront(matrix_datum())
    nocenter = SphericalDatum(
        name="half", ambient=root_datum("SL", 2), rank=1,
        lattice_map=LatticeMap.of([(1,)]), valuation_cone=FULL1,
        colors=(("D", (1,)),))
    assert not is_wavefront(nocenter)


def test_wavefront_reuses_the_chamber_image(monkeypatch):
    # __post_init__ already built the antidominant chamber and its image
    built = [line_datum(), matrix_datum()]
    calls = []
    monkeypatch.setattr(Cone, "from_inequalities",
                        staticmethod(lambda *a: calls.append(a)))
    assert [is_wavefront(d) for d in built] == [True, True]
    assert calls == []


def test_multiplicity():
    assert arithmetic_multiplicity(line_datum()) == 1
    squared = SphericalDatum(
        name="sq", ambient=root_datum("T", 1), rank=1,
        lattice_map=LatticeMap.of([(2,)]), valuation_cone=FULL1)
    assert arithmetic_multiplicity(squared) == 2


def test_enumerate_orbits():
    d = line_datum()
    assert enumerate_orbits(d, 0) == [(0,)]
    assert enumerate_orbits(d, 2) == [(-2,), (-1,), (0,), (1,), (2,)]
    assert enumerate_orbits(d, 2, integral_only=True) == [(0,), (1,), (2,)]
    with pytest.raises(ValueError):
        enumerate_orbits(line_datum(colored_cone=None), 2, integral_only=True)


def test_orbit_subset():
    m = matrix_datum()
    allpts = set(enumerate_orbits(m, 3))
    integral = set(enumerate_orbits(m, 3, integral_only=True))
    assert integral < allpts
    assert all(m.valuation_cone.contains(p) for p in allpts)


def test_support():
    rd = product_datum(root_datum("GL", 2), root_datum("GL", 2))
    assert support(rd, [(1, -1, 1, -1)]) == (0, 1)
    assert support(rd, [(1, -1, 0, 0)]) == (0,)
    assert support(rd, []) == ()
    with pytest.raises(ValueError):
        support(rd, [(1, 0, 0, 0)])


def test_parabolic_induction():
    assert parabolic_induction(line_datum()) == ()
    assert parabolic_induction(matrix_datum()) is None
    assert parabolic_induction(group_datum()) is None
    levi = coset_datum(levi_roots=(0,))
    assert parabolic_induction(levi) is None


def test_negligible_vacuous():
    ok, cert = negligible_orbit_check(line_datum())
    assert ok and cert == {}


def test_negligible_certificate():
    ok, cert = negligible_orbit_check(group_datum())
    assert ok and cert == {(): 0}
    ok, cert = negligible_orbit_check(matrix_datum())
    assert ok and cert == {(): 0}


def test_negligible_failure():
    # declare the lone simple root to be a Levi root: nothing is left to
    # witness even the empty subset
    stuck = coset_datum(levi_roots=(0,))
    ok, cert = negligible_orbit_check(stuck)
    assert not ok and cert == {(): None}


def test_negligible_not_wavefront():
    nocenter = SphericalDatum(
        name="half", ambient=root_datum("SL", 2), rank=1,
        lattice_map=LatticeMap.of([(1,)]), valuation_cone=FULL1,
        colors=(("D", (1,)),))
    with pytest.raises(ValueError, match="wavefront"):
        negligible_orbit_check(nocenter)


def test_negligible_noncentral_lineality():
    # the image of the antidominant chamber is a full line even though the
    # central cocharacters all map to zero
    twisted = SphericalDatum(
        name="tw", ambient=product_datum(root_datum("GL", 2), root_datum("GL", 2)),
        rank=1, lattice_map=LatticeMap.of([(1,), (-1,), (-1,), (1,)]),
        valuation_cone=FULL1)
    assert is_wavefront(twisted)
    with pytest.raises(ValueError, match="central"):
        negligible_orbit_check(twisted)


def test_aut_lineality():
    rank, cone = aut_lineality(line_datum())
    assert rank == 1 and cone.generators == ((1,),)
    rank, cone = aut_lineality(group_datum())
    assert rank == 0 and cone.generators == ()
    rank, cone = aut_lineality(line_datum(colored_cone=None))
    assert rank == 1 and cone is None


def test_antidominant_chamber():
    rd = root_datum("GL", 2)
    c = antidominant_cochar_chamber(rd)
    assert c.contains((0, 1)) and c.contains((1, 1)) and not c.contains((1, 0))
