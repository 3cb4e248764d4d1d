"""Root data builders, Weyl machinery, and parabolic gradings."""
from __future__ import annotations

import itertools
import operator
import signal
from fractions import Fraction

import pytest

from sphvar import rootdata
from sphvar.catalog import list_entries, load
from sphvar.geometry import solve_linear
from sphvar.rootdata import (RootDatum, ParabolicDatum, root_datum,
                             product_datum, levi_datum, _closure, _reflect)


WEYL_TABLE = [
    ("SL", 2, 2, 1), ("SL", 3, 6, 3), ("SL", 4, 24, 6),
    ("GL", 3, 6, 3), ("PGL", 2, 2, 1),
    ("B", 3, 48, 9), ("C", 3, 48, 9), ("D", 4, 192, 12),
    ("G", 2, 12, 6), ("GSP", 6, 48, 9), ("T", 2, 1, 0),
]


@pytest.mark.parametrize("kind,n,order,npos", WEYL_TABLE)
def test_weyl_order_and_positive_roots(kind, n, order, npos):
    rd = root_datum(kind, n)
    assert rd.weyl_order() == order
    assert len(rd.positive_pairs) == npos
    assert len(rd.positive_roots()) == npos
    assert len(rd.dual.positive_roots()) == npos


def _all_roots_by_sign(rd):
    """The positive pairs found the long way: every (root, coroot) pair
    closed under every simple reflection, kept where the root has no
    negative coefficient in the simple roots."""
    def step(pair):
        return ((_reflect(pair[0], a, av), _reflect(pair[1], av, a))
                for a, av in zip(rd.simple_roots, rd.simple_coroots))
    pairs = _closure(zip(rd.simple_roots, rd.simple_coroots), step,
                     "does not close")
    return tuple(sorted(p for p in pairs
                        if min(rd.simple_root_expansion(p[0]), default=0) >= 0))


# every family of root_datum up to rank 6, GSp(2)-GSp(12), and a product
RANK6_DATA = [root_datum(k, n) for k, n in (
    [("T", n) for n in range(1, 7)] + [("GL", n) for n in range(1, 7)]
    + [(k, n) for k in ("SL", "PGL") for n in range(2, 8)]
    + [(k, n) for k in ("B", "C") for n in range(2, 7)]
    + [("D", n) for n in range(3, 7)] + [("G", 2)]
    + [("GSP", n) for n in range(2, 13, 2)])] + [
    product_datum(root_datum("GL", 2), root_datum("G", 2), root_datum("T", 1))]


@pytest.mark.parametrize("rd", RANK6_DATA, ids=lambda rd: rd.name)
def test_positive_half_closure_matches_all_roots_by_sign(rd):
    # on the datum and its dual, and on every Levi of either up to rank 4
    for side in (rd, rd.dual):
        levis = [levi_datum(side, ix) for k in range(side.nsimple + 1)
                 for ix in itertools.combinations(range(side.nsimple), k)
                 ] if side.nsimple <= 4 else []
        for d in [side] + levis:
            assert d.positive_pairs == _all_roots_by_sign(d), d.name


def test_positive_half_closure_matches_on_little_data():
    little = [load(key).datum.little_datum for key in list_entries()]
    little = [d for d in little if d is not None]
    assert little
    for d in little:
        assert d.positive_pairs == _all_roots_by_sign(d), d.name


def test_rho_values():
    assert root_datum("SL", 3).rho == (1, 1)
    assert root_datum("GL", 3).rho == (1, 0, -1)
    assert root_datum("GSP", 6).rho == (3, 2, 1, -3)
    assert root_datum("C", 2).rho == (2, 1)
    assert root_datum("T", 2).rho == (0, 0)


# every family of root_datum up to rank 4, a product and a Levi
RANK4_DATA = (
    [("T", n) for n in range(1, 5)] + [("GL", n) for n in range(1, 5)]
    + [(k, n) for k in ("SL", "PGL") for n in range(2, 6)]
    + [(k, n) for k in ("B", "C") for n in range(2, 5)]
    + [("D", 3), ("D", 4), ("G", 2), ("GSP", 2), ("GSP", 4), ("GSP", 6)])


@pytest.mark.parametrize("rd", [root_datum(k, n) for k, n in RANK4_DATA] + [
    product_datum(root_datum("GL", 2), root_datum("G", 2)),
    levi_datum(root_datum("B", 4), (0, 2, 3))], ids=lambda rd: rd.name)
def test_two_rho_is_an_int_tuple(rd):
    assert all(type(x) is int for x in rd.rho2)
    assert rd.rho2 == tuple(2 * x for x in rd.rho)
    assert all(type(x) is Fraction for x in rd.rho)
    # <rho, av> = 1 on every simple coroot
    assert all(sum(map(operator.mul, rd.rho2, av)) == 2 for av in rd.simple_coroots)


def test_cartan_matrices():
    sl3 = root_datum("SL", 3)
    assert sl3.cartan == ((2, -1), (-1, 2))
    g2 = root_datum("G", 2)
    # cartan[i][j] = <alpha_j, alpha_i^vee>; G2 has the 3 on one side only
    vals = sorted([g2.cartan[0][1], g2.cartan[1][0]])
    assert vals == [-3, -1]
    assert g2.cartan[0][0] == g2.cartan[1][1] == 2


def test_pairing_normalization():
    for kind, n, _, _ in WEYL_TABLE:
        rd = root_datum(kind, n)
        for a, av in zip(rd.simple_roots, rd.simple_coroots):
            assert sum(x * y for x, y in zip(a, av)) == 2


def test_simple_reflection_permutes_other_positives():
    for kind, n in [("SL", 3), ("C", 2), ("G", 2), ("GSP", 4)]:
        rd = root_datum(kind, n)
        pos = set(rd.positive_roots())
        for i, (ai, avi) in enumerate(zip(rd.simple_roots, rd.simple_coroots)):
            for b in pos:
                img = tuple(x - sum(p * q for p, q in zip(b, avi)) * y
                            for x, y in zip(b, ai))
                if b == ai:
                    assert img == tuple(-x for x in ai)
                else:
                    assert img in pos


def test_weyl_orbits():
    gl2 = root_datum("GL", 2)
    assert gl2.dual.weyl_orbit_char((1, 0)) == ((0, 1), (1, 0))
    sl3 = root_datum("SL", 3)
    # the coroot lattice of SL3: orbit of a simple coroot is all six coroots
    assert len(sl3.dual.weyl_orbit_char((1, 0))) == 6
    sp4 = root_datum("C", 2)
    assert len(sp4.weyl_orbit_char((1, 0))) == 4
    assert len(sp4.weyl_orbit_char((1, 1))) == 4
    gl3 = root_datum("GL", 3)
    assert gl3.dual.weyl_orbit_char((1, 1, 0)) == ((0, 1, 1), (1, 0, 1),
                                                   (1, 1, 0))


def test_dominance():
    gl3 = root_datum("GL", 3)
    assert gl3.dual.is_dominant_char((2, 1, 0))
    assert not gl3.dual.is_dominant_char((0, 1, 2))
    assert gl3.dual.dominant_char((0, 1, 2)) == (2, 1, 0)
    sl3 = root_datum("SL", 3)
    assert sl3.is_dominant_char((1, 0))
    assert not sl3.is_dominant_char((-1, 3))
    assert sl3.dominant_char((-1, 3)) in [w for w in sl3.weyl_orbit_char((-1, 3))
                                          if sl3.is_dominant_char(w)]


PANEL = [root_datum(k, n) for k, n in (
    ("GL", 3), ("SL", 4), ("PGL", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2),
    ("GSP", 6), ("T", 2))]


@pytest.mark.parametrize("rd", PANEL + [rd.dual for rd in PANEL],
                         ids=lambda rd: rd.name)
def test_fold_lands_in_the_orbit_on_its_only_dominant_point(rd):
    # the chamber fold and the orbit closure are separate walks: the fold's
    # end must be the one dominant point of the orbit, on characters and on
    # cocharacters (the characters of the dual), and every orbit size
    # divides |W|
    for v in [(2, -1, 0, 1, -2)[:rd.rank], (-1, 3, -2, 0, 1)[:rd.rank]]:
        for side in (rd, rd.dual):
            orbit = side.weyl_orbit_char(v)
            assert [w for w in orbit if side.is_dominant_char(w)] == [
                side.dominant_char(v)]
            assert rd.weyl_order() % len(orbit) == 0


def _contragredient(m):
    """M^-T: the N with M^T N = 1, solved one column at a time."""
    n = len(m)
    cols = [solve_linear(tuple(zip(*m)), [int(i == j) for i in range(n)])
            for j in range(n)]
    return tuple(zip(*cols))


def _panel_and_catalog_groups():
    """PANEL, then the ambient group of every catalog entry and the group of
    each of its routes that has one, once per name."""
    out = {rd.name: rd for rd in PANEL}
    for key in list_entries():
        entry = load(key)
        out.setdefault(entry.datum.ambient.name, entry.datum.ambient)
        for r in entry.routes:
            if hasattr(r, "group"):
                out.setdefault(r.group.name, r.group)
    return list(out.values())


@pytest.mark.parametrize("rd", _panel_and_catalog_groups(),
                         ids=lambda rd: rd.name)
def test_weyl_group_on_cocharacters_is_the_contragredient(rd):
    # cocharacter questions go to rd.dual: that is sound because the dual's
    # W, acting on X_*, is W acting on X^* transported by the pairing
    assert {_contragredient(m) for m in rd.weyl_char} == set(rd.dual.weyl_char)


@pytest.fixture
def time_limit():
    """Fail the test instead of hanging it once its budget is spent."""
    def expire(signum, frame):
        raise TimeoutError("time budget exceeded")
    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("method,v", [
    ("weyl_orbit_char", (1, 0, 0)), ("dual.weyl_orbit_char", (1, 0, 0)),
    ("dominant_char", (-1, 0, 0)), ("dual.dominant_char", (-1, 0, 0))])
def test_affine_datum_raises_instead_of_hanging(time_limit, method, v):
    # affine A1: the constructor's checks pass, but W is infinite, and so
    # is the W of its dual
    rd = RootDatum("aff", 3, ((2, -2, 1), (-2, 2, 0)), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="bad input data"):
        operator.attrgetter(method)(rd)(v)


def test_weights_of_the_wrong_length_are_refused():
    sl3 = root_datum("SL", 3)
    for side in (sl3, sl3.dual):
        for method in ("is_dominant_char", "dominant_char", "weyl_orbit_char"):
            with pytest.raises(ValueError, match="dimension mismatch: 1 vs 2"):
                getattr(side, method)((1,))


def test_simple_root_expansion():
    gl3 = root_datum("GL", 3)
    assert gl3.simple_root_expansion((1, 0, -1)) == (Fraction(1), Fraction(1))
    assert gl3.simple_root_expansion((1, 1, 1)) is None
    sl2 = root_datum("SL", 2)
    assert sl2.simple_root_expansion((2,)) == (Fraction(1),)


def test_central_cochar_basis():
    assert root_datum("GL", 3).central_cochar_basis() == ((1, 1, 1),)
    assert root_datum("SL", 3).central_cochar_basis() == ()
    assert root_datum("T", 2).central_cochar_basis() == ((1, 0), (0, 1))
    gsp = root_datum("GSP", 4)
    cz = gsp.central_cochar_basis()
    assert len(cz) == 1
    for a in gsp.simple_roots:
        assert sum(x * y for x, y in zip(a, cz[0])) == 0


def test_builder_errors():
    for kind, n in [("B", 1), ("D", 2), ("GSP", 3), ("GSP", 0), ("Q", 2)]:
        with pytest.raises(ValueError):
            root_datum(kind, n)


@pytest.mark.parametrize("kind,largest,beyond", (
    ("GL", 64, 65), ("SL", 64, 65), ("PGL", 64, 65), ("B", 45, 46),
    ("C", 45, 46), ("D", 45, 46), ("GSP", 90, 92)))
def test_families_beyond_the_closure_cap_are_refused(kind, largest, beyond):
    # the largest size of each family whose root count is within the cap is
    # built; the next is refused, since its roots could never close
    assert root_datum(kind, largest).nsimple
    with pytest.raises(ValueError, match="more than the closure cap 4096"):
        root_datum(kind, beyond)


def test_validation_errors():
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((1, 0),), ((1, 0),))  # pairing 1, not 2
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((2, 0), (2, 0)), ((1, 0), (1, 0)))  # dependent
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((2, 0),), ((1, 0), (0, 1)))  # length mismatch
    with pytest.raises(ValueError):
        RootDatum("bad", 2, ((2,),), ((1,),))  # wrong coordinate length


@pytest.mark.parametrize("build,rank", (
    (lambda: RootDatum("x", -3, (), ()), -3), (lambda: root_datum("SL", 0), -1),
    (lambda: root_datum("PGL", 0), -1), (lambda: root_datum("GL", -1), -1),
    (lambda: root_datum("T", -2), -2)), ids=("custom", "SL0", "PGL0", "GL-1", "T-2"))
def test_negative_ranks_are_refused(build, rank):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == "rank %d is negative; bad input data" % rank


def test_rank_zero_is_a_datum():
    for rd in (RootDatum("x", 0, (), ()), root_datum("SL", 1), root_datum("T", 0),
               root_datum("GL", 0), root_datum("PGL", 1)):
        assert rd.rank == 0 and rd.positive_pairs == ()


@pytest.mark.parametrize("roots,message", (
    (((2, 1), (1, 2)), "<alpha_1, alpha_0^> = 1, <alpha_0, alpha_1^> = 1"),
    (((2, -1), (0, 2)), "<alpha_1, alpha_0^> = 0, <alpha_0, alpha_1^> = -1")),
    ids=("positive-entry", "one-sided-zero"))
def test_data_that_are_not_a_cartan_matrix_are_refused(roots, message):
    # a positive off-diagonal entry, or a zero facing a nonzero entry: the
    # positive half of such data need not close on itself
    with pytest.raises(ValueError) as err:
        RootDatum("x", 2, roots, ((1, 0), (0, 1)))
    assert str(err.value) == (message + ": not a generalized Cartan matrix; "
                              "bad input data")


def test_closure_cap_counts_all_roots(monkeypatch):
    # GL(5) typed as custom roots has 20 roots, GL(6) has 30: with the cap
    # at 20 the first closes and the second is refused once closed
    def custom(n):
        rd = root_datum("GL", n)
        return RootDatum("custom", n, rd.simple_roots, rd.simple_coroots)
    gl5, gl6 = custom(5), custom(6)
    monkeypatch.setattr(rootdata, "_CLOSURE_CAP", 20)
    assert len(gl5.positive_pairs) == 10
    with pytest.raises(ValueError,
                       match="^root system does not close; bad input data$"):
        gl6.positive_pairs


def test_non_integral_roots_are_refused():
    with pytest.raises(ValueError, match="non-integral"):
        RootDatum("x", 1, ((2.9,),), ((1,),))  # not truncated to (2,)
    assert RootDatum("x", 1, ((2.0,),), ((Fraction(1),),)).simple_roots == ((2,),)


def test_product_and_dual():
    t1 = root_datum("T", 1)
    sl2 = root_datum("SL", 2)
    prod = product_datum(t1, sl2)
    assert prod.rank == 2
    assert prod.simple_roots == ((0, 2),)
    assert prod.simple_coroots == ((0, 1),)
    dual = root_datum("C", 3).dual
    b3 = root_datum("B", 3)
    assert dual.simple_roots == b3.simple_roots
    assert dual.weyl_order() == 48


def test_levi_datum():
    gl3 = root_datum("GL", 3)
    levi = levi_datum(gl3, (0,))
    assert levi.simple_roots == ((1, -1, 0),)
    assert levi.weyl_order() == 2
    assert levi_datum(gl3, ()).weyl_order() == 1


# ---------------------------------------------------------------------------
# parabolic data

def test_rho_decomposition():
    for kind, n, levis in [("GL", 3, [(0,), (1,), ()]),
                           ("GSP", 6, [(0, 1), (0,), ()]),
                           ("C", 2, [(0,), ()])]:
        rd = root_datum(kind, n)
        for levi in levis:
            p = ParabolicDatum(rd, levi)
            assert tuple(m + u for m, u in zip(p.rho_m, p.rho_p)) == rd.rho


def test_gl3_mirabolic_grading():
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    assert p.rho_m == (Fraction(1, 2), Fraction(-1, 2), 0)
    assert p.rho_p == (Fraction(1, 2), Fraction(1, 2), -1)
    rad = sorted(bv for _, bv in p.radical_pairs)
    assert rad == [(0, 1, -1), (1, 0, -1)]
    assert p.grade((0, 1, -1)) == -1
    assert p.grade((1, 0, -1)) == 1
    with pytest.raises(ValueError, match="dimension mismatch"):
        p.grade((1, 0))
    # both radical coroots fall in one class of the Levi-coroot quotient
    assert p.pi((0, 1, -1)) == p.pi((1, 0, -1))
    assert p.monoid_generators == (p.pi((0, 1, -1)),)
    theta = p.pi((0, 1, -1))
    assert p.lift(theta) == (0, 1, -1)
    assert p.rho_p_pair(theta) == Fraction(3, 2)


def test_gsp6_siegel_grading():
    p = ParabolicDatum(root_datum("GSP", 6), (0, 1))
    assert p.rho_m == (1, 0, -1, 0)
    assert p.rho_p == (2, 2, 2, -3)
    grades = sorted(p.grade(bv) for _, bv in p.radical_pairs)
    assert grades == [-2, -2, 0, 0, 2, 2]
    classes = {p.pi(bv) for _, bv in p.radical_pairs}
    assert len(classes) == 2
    gens = p.monoid_generators
    assert len(gens) == 2
    short, long_ = gens
    assert tuple(2 * x for x in short) in (long_,)
    assert p.rho_p_pair(short) == 2
    assert p.rho_p_pair(long_) == 4
    assert p.lift(short) == (0, 0, 1, 0)


def test_gl4_22_grades():
    p = ParabolicDatum(root_datum("GL", 4), (0, 2))
    grades = sorted(p.grade(bv) for _, bv in p.radical_pairs)
    assert grades == [-2, 0, 0, 2]
    assert len({p.pi(bv) for _, bv in p.radical_pairs}) == 1


def test_sp4_siegel_grading():
    p = ParabolicDatum(root_datum("C", 2), (0,))
    grades = sorted(p.grade(bv) for _, bv in p.radical_pairs)
    assert grades == [-1, 0, 1]
    assert len({p.pi(bv) for _, bv in p.radical_pairs}) == 2


def test_borel_parabolic():
    sl3 = root_datum("SL", 3)
    p = ParabolicDatum(sl3, ())
    assert p.rho_m == (0, 0)
    assert p.rho_p == sl3.rho
    assert len(p.radical_pairs) == 3
    # trivial quotient: classes are the coroots themselves
    assert p.pi((1, 0)) == (1, 0)


def test_parabolic_sorts_indices():
    p = ParabolicDatum(root_datum("GSP", 6), (1, 0))
    assert p.levi_indices == (0, 1)
    assert p.levi.weyl_order() == 6  # GL2 x GL1-ish Levi of the Siegel parabolic
