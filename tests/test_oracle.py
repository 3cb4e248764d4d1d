import importlib.util
import itertools
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphvar.engine import PPRoute, minuscule_satake, pp_shifts
from sphvar.geometry import LatticeMap
from sphvar.oracle import (
    SPACES,
    LatticePoint,
    PrecisionError,
    TruncSeries,
    coset_reps,
    det_count_series,
    gj_recursion_mismatches,
    hecke_convolve,
    hecke_operators,
    integral_table,
    interpolates,
    left_translate,
    mat2_coset_label_counts,
    mat_det,
    mat_id,
    mat_inv,
    mat_mul,
    orbit_invariant,
    random_unimodular,
    right_translate,
    satake_compatibility_check,
    satake_mismatches,
    stratum_labels,
    stratum_point,
    transition_counts,
    translate_invariance_mismatches,
    vec_mat,
)
from sphvar.rootdata import root_datum

P, PREC = 2, 12


def ts(items, p=P, prec=PREC):
    return TruncSeries.of(p, prec, items)


def tp(e, p=P, prec=PREC):
    return TruncSeries.t_pow(p, prec, e)


# --- truncated series ------------------------------------------------------

def test_series_normalization():
    s = ts({0: 5, 1: 2, 3: 7, 20: 1})
    assert s.terms == ((0, 1), (3, 1))
    assert ts([(1, 1), (1, 1)]).is_zero()


def test_series_val_and_zero():
    assert tp(-2).val() == -2
    z = ts({})
    assert z.is_zero()
    with pytest.raises(PrecisionError, match="0 mod t\\^12"):
        z.val()


def test_series_arithmetic():
    a = ts({0: 1, 1: 1})
    b = ts({0: 1, 1: 1})
    assert (a + b).is_zero()
    assert (a - b).is_zero()
    sq = a * b
    assert sq.terms == ((0, 1), (2, 1))
    assert (-a).terms == ((0, 1), (1, 1))


def test_series_mul_precision():
    a = TruncSeries.t_pow(3, 5, 2)
    b = TruncSeries.t_pow(3, 5, 3)
    c = a * b
    assert c.prec == 7 and c.terms == ((5, 1),)
    # multiplying by something only known to be 0 keeps no information
    z = TruncSeries.of(3, 2, {})
    assert (a * z).prec == 4 and (a * z).is_zero()


def test_series_inverse():
    a = ts({2: 1, 3: 1}, p=5)
    ai = a.inverse()
    assert ai.val() == -2
    prod = a * ai
    assert prod.terms == ((0, 1),)
    with pytest.raises(PrecisionError, match="no room"):
        TruncSeries.t_pow(5, 7, 4).inverse()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 6), st.integers(0, 4)),
                max_size=5),
       st.lists(st.tuples(st.integers(-3, 6), st.integers(0, 4)),
                max_size=5),
       st.lists(st.tuples(st.integers(-3, 6), st.integers(0, 4)),
                max_size=5))
def test_series_ring_laws(xs, ys, zs):
    a, b, c = (TruncSeries.of(5, 8, w) for w in (xs, ys, zs))
    assert a + b == b + a
    assert a * b == b * a
    left = a * (b + c)
    right = a * b + a * c
    # distributivity holds on the shared precision window
    prec = min(left.prec, right.prec)
    assert {e: x for e, x in left.terms if e < prec} == \
        {e: x for e, x in right.terms if e < prec}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.lists(st.tuples(st.integers(1, 6),
                                             st.integers(0, 4)), max_size=4))
def test_series_inverse_is_inverse(v, tail):
    a = TruncSeries.of(5, 10, [(v, 1)] + [(v + e, c) for e, c in tail])
    prod = a * a.inverse()
    assert prod.terms == ((0, 1),)


# --- matrices --------------------------------------------------------------

def test_mat_det_and_inv():
    m = [[tp(1), ts({0: 1})], [ts({}), tp(2)]]
    assert mat_det(m).val() == 3
    mi = mat_inv(m)
    prod = mat_mul(m, mi)
    assert prod[0][0].terms == ((0, 1),)
    assert prod[0][1].is_zero() and prod[1][0].is_zero()
    assert prod[1][1].terms == ((0, 1),)


def test_mat_det_3x3():
    rng = random.Random(7)
    m = random_unimodular(rng, 3, 10, 3)
    assert mat_det(m).val() == 0
    prod = mat_mul(m, mat_inv(m))
    for i in range(3):
        for j in range(3):
            if i == j:
                assert prod[i][j].terms == ((0, 1),)
            else:
                assert prod[i][j].is_zero()


def test_vec_mat():
    v = (tp(0), tp(1))
    m = [[ts({}), ts({0: 1})], [ts({0: 1}), ts({})]]
    w = vec_mat(v, m)
    assert w[0].val() == 1 and w[1].val() == 0


def test_random_unimodular_is_unimodular():
    rng = random.Random(0)
    for p in (2, 3, 5):
        g = random_unimodular(rng, p, 8, 2)
        assert mat_det(g).val() == 0


def _series_det_sampler(rng, p, prec, n):
    # reference: the same draws, accepted on the determinant of the series
    while True:
        m = [[TruncSeries.of(p, prec,
                             {e: rng.randrange(p) for e in range(prec)})
              for _ in range(n)] for _ in range(n)]
        d = mat_det(m)
        if d.terms and d.val() == 0:
            return m


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (2, 3))
def test_random_unimodular_matches_series_determinant_sampler(p, n):
    mine, ref = random.Random(17 * p + n), random.Random(17 * p + n)
    for _ in range(200):
        assert random_unimodular(mine, p, 6, n) == \
            _series_det_sampler(ref, p, 6, n)


def test_random_unimodular_needs_a_residue():
    with pytest.raises(ValueError, match="precision"):
        random_unimodular(random.Random(0), 2, 0, 2)


# --- orbit labels ----------------------------------------------------------

def test_orbit_invariant_examples():
    assert orbit_invariant(LatticePoint("A2", (tp(2), tp(3)))) == (2,)
    one, z = ts({0: 1}), ts({})
    assert orbit_invariant(LatticePoint("MAT2", (one, z, z, tp(1)))) == (0, 1)
    assert orbit_invariant(LatticePoint("UGL2", (z, tp(2), tp(3)))) == (2, 3)
    assert orbit_invariant(
        LatticePoint("PPGL3", (z, z, tp(1), tp(4)))) == (1, 4)


def test_orbit_invariant_precision_guard():
    shallow = TruncSeries.of(2, 2, {})
    with pytest.raises(PrecisionError, match="only known mod t\\^2"):
        orbit_invariant(LatticePoint("A2", (shallow, tp(3))))
    # a valuation below the unknown floor is still decidable
    assert orbit_invariant(LatticePoint("A2", (shallow, tp(1)))) == (1,)
    with pytest.raises(PrecisionError, match="vector is 0 mod"):
        orbit_invariant(LatticePoint("A2", (shallow, TruncSeries.of(2, 5, {}))))


def test_unknown_space_rejected():
    with pytest.raises(ValueError, match="unknown space"):
        stratum_point("B7", (0,), P, PREC)
    with pytest.raises(ValueError, match="unknown space"):
        orbit_invariant(LatticePoint("B7", (tp(0),)))


def test_stratum_point_guards():
    with pytest.raises(ValueError, match="complementary divisor"):
        stratum_point("MAT2", (2, 3), P, PREC)


@pytest.mark.parametrize("space", SPACES)
def test_stratum_point_rejects_labels_of_the_wrong_length(space):
    size = {"A2": 1, "UGL2": 2, "MAT2": 2, "PPGL3": 2}[space]
    assert len(stratum_point(space, (0,) * size, P, PREC).coords) > size
    for length in range(4):
        if length != size:
            with pytest.raises(ValueError):
                stratum_point(space, (0,) * length, P, PREC)


def test_stratum_labels():
    assert stratum_labels("A2", 2) == [(0,), (1,), (2,)]
    assert stratum_labels("UGL2", 2) == [(0, 0), (0, 1), (0, 2), (1, 0),
                                         (1, 1), (2, 0)]
    assert stratum_labels("PPGL3", 2, integral=True) == [(0, 0), (1, 0),
                                                         (2, 0)]
    assert stratum_labels("A2", 2, integral=True) == stratum_labels("A2", 2)
    # 2a <= k and a + k <= height, ordered by k
    assert stratum_labels("MAT2", 4) == [(0, 0), (0, 1), (0, 2), (1, 2),
                                         (0, 3), (1, 3), (0, 4)]
    assert stratum_labels("MAT2", 4, integral=True) == \
        stratum_labels("MAT2", 4)
    with pytest.raises(ValueError, match="unknown space"):
        stratum_labels("B7", 2)
    with pytest.raises(ValueError, match="no integral model"):
        stratum_labels("B7", 2, integral=True)


def _benchmark_ops():
    # the benchmark keeps its own copy of the labels; load it without
    # putting perfbench on sys.path
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "ops.py")
    spec = importlib.util.spec_from_file_location("_perfbench_ops", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_stratum_labels_match_the_benchmark_copy():
    ops = _benchmark_ops()
    for space in SPACES:
        for h in range(7):
            assert stratum_labels(space, h) == ops.translate_labels(space, h)


def test_mismatched_inputs_raise():
    with pytest.raises(ValueError, match="F_2 and F_3"):
        ts({0: 1}, p=2) + ts({0: 1}, p=3)
    with pytest.raises(ValueError, match="F_2 and F_3"):
        ts({0: 1}, p=2) * ts({0: 1}, p=3)
    with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x3"):
        mat_mul(mat_id(P, PREC, 2), mat_id(P, PREC, 3))


def test_wrong_representative_is_an_internal_error(monkeypatch):
    import sphvar.oracle as oracle
    monkeypatch.setattr(oracle, "orbit_invariant", lambda x: (-1,))
    with pytest.raises(RuntimeError, match="representative"):
        integral_table("A2", 1, P, PREC)
    with pytest.raises(RuntimeError, match="representative"):
        transition_counts("A2", [mat_id(P, PREC, 2)], [(0,)], P, PREC)


def test_representatives_hit_their_labels():
    # every achievable label of height <= 4 is witnessed exactly
    for n in range(-4, 5):
        assert orbit_invariant(stratum_point("A2", (n,), P, PREC)) == (n,)
    for a, b in itertools.product(range(-2, 3), repeat=2):
        for space in ("UGL2", "PPGL3"):
            x = stratum_point(space, (a, b), P, PREC)
            assert orbit_invariant(x) == (a, b)
    for k in range(5):
        for a in range(-(4 - k), k // 2 + 1):
            x = stratum_point("MAT2", (a, k), P, PREC)
            assert orbit_invariant(x) == (a, k)


# --- coset lists -----------------------------------------------------------

def test_coset_list_sizes():
    for p in (2, 3, 5):
        assert len(coset_reps("GL2", "t1", p, 8)) == p + 1
        assert len(coset_reps("GL2", "central", p, 8)) == 1
        assert len(coset_reps("GL3", "t1", p, 8)) == p * p + p + 1
        assert len(coset_reps("GL3", "wedge", p, 8)) == p * p + p + 1
    assert coset_reps("GL2", "unit", 2, 8) == [mat_id(2, 8, 2)]


def test_coset_determinant_valuations():
    for g in coset_reps("GL3", "t1", 2, 10):
        assert mat_det(g).val() == 1
    for g in coset_reps("GL3", "wedge", 2, 10):
        assert mat_det(g).val() == 2
    for g in coset_reps("GL2", "t1", 3, 10):
        assert mat_det(g).val() == 1


def test_unknown_operator_rejected():
    with pytest.raises(ValueError, match="unknown operator"):
        coset_reps("GL2", "wedge", 2, 8)
    with pytest.raises(ValueError, match="unknown operator"):
        coset_reps("GL4", "t1", 2, 8)


# --- transition counts -----------------------------------------------------

def test_ugl2_degree_one_counts():
    reps = coset_reps("GL2", "t1", 2, PREC)
    got = transition_counts("UGL2", reps, [(0, 0)], 2, PREC)
    assert got == {((0, 0), (0, 1)): 2, ((0, 0), (1, 1)): 1}
    # the shift pattern is label independent
    got = transition_counts("UGL2", reps, [(2, -1)], 2, PREC)
    assert got == {((2, -1), (2, 0)): 2, ((2, -1), (3, 0)): 1}
    reps = coset_reps("GL2", "t1", 3, PREC)
    got = transition_counts("UGL2", reps, [(0, 0)], 3, PREC)
    assert got == {((0, 0), (0, 1)): 3, ((0, 0), (1, 1)): 1}


def test_ugl2_central_counts():
    reps = coset_reps("GL2", "central", 2, PREC)
    got = transition_counts("UGL2", reps, [(0, 0), (1, 1)], 2, PREC)
    assert got == {((0, 0), (1, 2)): 1, ((1, 1), (2, 3)): 1}


def test_a2_central_shift_is_one():
    # scaling A^2 by the uniformizer moves each stratum up a single step
    reps = coset_reps("GL2", "central", 2, PREC)
    got = transition_counts("A2", reps, [(0,), (3,)], 2, PREC)
    assert got == {((0,), (1,)): 1, ((3,), (4,)): 1}


def test_ppgl3_degree_one_counts():
    reps = coset_reps("GL3", "t1", 2, PREC)
    got = transition_counts("PPGL3", reps, [(0, 0)], 2, PREC)
    assert got == {((0, 0), (0, 1)): 6, ((0, 0), (1, 1)): 1}
    reps = coset_reps("GL3", "t1", 3, PREC)
    got = transition_counts("PPGL3", reps, [(1, 2)], 3, PREC)
    assert got == {((1, 2), (1, 3)): 12, ((1, 2), (2, 3)): 1}


def test_ppgl3_wedge_counts():
    reps = coset_reps("GL3", "wedge", 2, PREC)
    got = transition_counts("PPGL3", reps, [(0, 0)], 2, PREC)
    assert got == {((0, 0), (0, 2)): 4, ((0, 0), (1, 2)): 3}
    reps = coset_reps("GL3", "wedge", 3, PREC)
    got = transition_counts("PPGL3", reps, [(0, 0)], 3, PREC)
    assert got == {((0, 0), (0, 2)): 9, ((0, 0), (1, 2)): 4}


# --- convolution -----------------------------------------------------------

def test_unit_operator_fixes_everything():
    reps = coset_reps("GL2", "unit", 2, PREC)
    f = {(0, 0): 1, (1, 1): Fraction(5, 3), (2, 3): -2}
    window = [(a, b) for a in range(4) for b in range(4)]
    assert hecke_convolve(reps, f, "UGL2", window, 2, PREC) == f


def test_convolution_by_hand():
    reps = coset_reps("GL2", "t1", 2, PREC)
    f = {(0, 1): 1, (1, 1): 1}
    got = hecke_convolve(reps, f, "UGL2", [(0, 0), (1, 0)], 2, PREC)
    # (0,0) sees (0,1) twice and (1,1) once; (1,0) sees (1,1) twice
    assert got == {(0, 0): 3, (1, 0): 2}


def test_convolution_is_associative():
    reps = coset_reps("GL2", "t1", 2, PREC)
    prod = [mat_mul(g, h) for g in reps for h in reps]
    f = {(1, 1): 1, (0, 2): 2}
    big = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    small = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    inner = hecke_convolve(reps, f, "UGL2", big, 2, PREC)
    nested = hecke_convolve(reps, inner, "UGL2", small, 2, PREC)
    direct = hecke_convolve(prod, f, "UGL2", small, 2, PREC)
    assert nested == direct


def test_gj_recursion_closes():
    assert gj_recursion_mismatches(2) == []
    assert gj_recursion_mismatches(3) == []


# --- coset enumeration of the matrix strata --------------------------------

def test_hermite_label_counts():
    got = mat2_coset_label_counts(2, 14, 3)
    assert got == {(0, 0): 1, (0, 1): 3, (0, 2): 6, (1, 2): 1,
                   (0, 3): 12, (1, 3): 3}
    got = mat2_coset_label_counts(3, 14, 2)
    assert got == {(0, 0): 1, (0, 1): 4, (0, 2): 12, (1, 2): 1}


def test_det_count_series_matches_classical_formula():
    for p in (2, 3):
        series = det_count_series(p, 16, 4)
        assert series == [sum(p ** j for j in range(k + 1)) for k in range(5)]


def test_integral_tables():
    assert integral_table("A2", 3, 2, 10) == {(0,): 1, (1,): 1, (2,): 1,
                                              (3,): 1}
    assert integral_table("UGL2", 2, 2, 10) == {(0, 0): 1, (1, 0): 1,
                                                (2, 0): 1}
    assert integral_table("PPGL3", 2, 2, 10) == {(0, 0): 1, (1, 0): 1,
                                                 (2, 0): 1}
    got = integral_table("MAT2", 4, 2, 12)
    assert sorted(got) == [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4),
                           (1, 2), (1, 3)]
    assert set(got.values()) == {1}
    with pytest.raises(ValueError, match="no integral model"):
        integral_table("B7", 2, 2, 10)


# --- randomized invariance -------------------------------------------------

def test_orbit_invariant_survives_translation():
    for space, label in (("A2", (2,)), ("UGL2", (1, 2)), ("PPGL3", (0, 1))):
        assert translate_invariance_mismatches(space, label, 2, 10, 60) == []


def test_matrix_labels_survive_two_sided_translation():
    for a in range(3):
        for b in range(a, 4):
            bad = translate_invariance_mismatches("MAT2", (a, a + b),
                                                  2, 16, 100, seed=a + 7 * b)
            assert bad == []


def test_left_translate_guard():
    x = stratum_point("UGL2", (0, 0), 2, 8)
    with pytest.raises(ValueError, match="left action"):
        left_translate(x, mat_id(2, 8, 2))


# --- interpolation ---------------------------------------------------------

def test_interpolates():
    assert interpolates({2: 6, 3: 12, 5: 30, 7: 56}, 2)   # q^2 + q
    assert interpolates({2: 3, 3: 4, 5: 6}, 1)            # q + 1
    assert not interpolates({2: 6, 3: 12, 5: 30, 7: 57}, 2)
    assert not interpolates({2: 3, 3: 4, 5: 7}, 1)


def test_counts_interpolate_in_q():
    shift_counts = {}
    for p in (2, 3, 5, 7):
        reps = coset_reps("GL3", "t1", p, 10)
        counts = transition_counts("PPGL3", reps, [(0, 0)], p, 10)
        shift_counts[p] = counts[((0, 0), (0, 1))]
    assert interpolates(shift_counts, 2)


# --- agreement with the symbolic engine ------------------------------------

def test_satake_compatibility_ugl2():
    for op in ("unit", "t1", "central"):
        for q in (2, 3):
            assert satake_compatibility_check(op, "UGL2", 3, q)


def test_satake_compatibility_ppgl3():
    for op in ("unit", "t1", "wedge", "central"):
        assert satake_compatibility_check(op, "PPGL3", 2, 2)
    assert satake_compatibility_check("t1", "PPGL3", 2, 3)


def test_satake_comparison_cannot_see_the_sign_of_kappa():
    # the PPGL3 shifts are the same under kappa -> -kappa, so kappa = -1
    # passes as well; the catalog tables are what fix the sign
    route = PPRoute(root_datum("GL", 3), (0,),
                    LatticeMap.of([(0, 0, 1), (1, 1, 1)]))
    for op in hecke_operators("PPGL3"):
        assert satake_mismatches(op, "PPGL3", 2, 2, kappa=-1) == []
    for k in range(4):
        satake = minuscule_satake(route.group, (1,) * k + (0,) * (3 - k))
        assert pp_shifts(route, satake, -1) == pp_shifts(route, satake, 1)


def test_hecke_operators():
    assert hecke_operators("UGL2") == ("unit", "t1", "central")
    assert hecke_operators("PPGL3") == ("unit", "t1", "wedge", "central")
    for space in ("A2", "MAT2", "B7"):
        with pytest.raises(ValueError, match="unknown space"):
            hecke_operators(space)


def test_satake_mismatch_reporting():
    assert satake_mismatches("t1", "UGL2", 2, 2) == []
    with pytest.raises(ValueError, match="unknown operator"):
        satake_mismatches("wedge", "UGL2", 2, 2)
    with pytest.raises(ValueError, match="unknown space"):
        satake_mismatches("t1", "MAT2", 2, 2)
