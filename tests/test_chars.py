"""Character arithmetic against brute-force expansions."""
from __future__ import annotations

import functools
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sphvar import chars
from sphvar.geometry import Cone, _idot, lattice_points, solve_linear
from sphvar.rootdata import product_datum, root_datum
from sphvar.chars import (QLaurent, WeightChar, sym_power, ext_power,
                          sym_powers_upto, kostant_counter, kostant_counts,
                          freudenthal_multiplicity, irrep_char, weyl_dim,
                          decompose, _nat_coordinates)


# ---------------------------------------------------------------------------
# QLaurent

def test_qlaurent_format():
    assert str(QLaurent.of({1: 1, 0: 1})) == "q + 1"
    assert str(QLaurent.q_pow(-2)) == "q^-2"
    assert str(QLaurent.zero()) == "0"
    assert str(QLaurent.of({2: 1, 1: 2, 0: -3})) == "q^2 + 2 q - 3"
    assert str(QLaurent.of({Fraction(1, 2): 1})) == "q^1/2"
    assert str(QLaurent.of({0: -1, 3: -2})) == "-2 q^3 - 1"


def test_qlaurent_arithmetic():
    a = QLaurent.of({1: 1, 0: 1})
    assert a * a == QLaurent.of({2: 1, 1: 2, 0: 1})
    assert a - a == QLaurent.zero()
    assert (a + QLaurent.one()).specialize(2) == 4
    assert a.specialize(Fraction(1, 2)) == Fraction(3, 2)
    assert QLaurent.q_pow(-2).specialize(2) == Fraction(1, 4)


def test_qlaurent_half_exponents():
    h = QLaurent.of({Fraction(1, 2): 1, Fraction(-1, 2): 1})
    assert h.specialize(4) == Fraction(5, 2)
    assert h * h == QLaurent.of({1: 1, 0: 2, -1: 1})
    with pytest.raises(ValueError):
        h.specialize(2)  # 2 is not a square
    with pytest.raises(ValueError):
        QLaurent.of({Fraction(1, 3): 1})


def test_half_power_specializes_at_large_square_q():
    # a float square root misjudges both of these
    r = 10 ** 20 + 39
    half = QLaurent.q_pow(Fraction(1, 2))
    assert half.specialize(r * r) == r
    assert half.specialize(10 ** 400) == 10 ** 200
    assert half.specialize(Fraction(10 ** 400, r * r)) == Fraction(10 ** 200, r)
    with pytest.raises(ValueError, match="square"):
        half.specialize(r * r + 1)


def test_qlaurent_degree():
    assert QLaurent.of({3: 2, -1: 5}).degree() == 3
    assert QLaurent.zero().degree() is None


def test_qlaurent_terms_count_halves_of_q():
    # terms hold (k, c) with int k for c * q^(k/2), by descending k
    p = QLaurent.of([(Fraction(1, 2), 2), (-1, 1), (0.5, 1), (Fraction(6, 4), 0)])
    assert p.terms == ((1, 3), (-2, 1))
    assert all(type(k) is int for k, _ in p.terms)
    assert QLaurent.q_pow(Fraction(-5, 2), 7).terms == ((-5, 7),)
    assert type(p.degree()) is Fraction and p.degree() == Fraction(1, 2)


def test_qlaurent_format_of_negative_half_exponents():
    assert str(QLaurent.q_pow(Fraction(-1, 2))) == "q^-1/2"
    assert str(QLaurent.q_pow(Fraction(-5, 2), -3)) == "-3 q^-5/2"
    assert str(QLaurent.of({1: 1, Fraction(-1, 2): 1, Fraction(-5, 2): -3})) \
        == "q + q^-1/2 - 3 q^-5/2"


def test_specialize_takes_one_square_root(monkeypatch):
    calls = []
    sqrt = chars._exact_sqrt
    monkeypatch.setattr(chars, "_exact_sqrt", lambda x: calls.append(x) or sqrt(x))
    odd = QLaurent.of({Fraction(k, 2): 1 for k in (5, 1, -3)})
    assert odd.specialize(4) == 32 + 2 + Fraction(1, 8) and calls == [4]
    # without an odd exponent no root is taken, so a non-square q is fine
    even = QLaurent.of({1: 1, -2: 3})
    assert even.specialize(2) == 2 + Fraction(3, 4) and calls == [4]
    with pytest.raises(ValueError, match="square"):
        (even + odd).specialize(2)


def _format_reference(expr, s):
    """QLaurent.__str__'s format, on Fraction exponents of q, of sympy's
    coefficients of expr, a Laurent polynomial in s = q^(1/2) of degrees
    within +-20."""
    import sympy
    poly = sympy.Poly(sympy.expand(expr * s ** 20), s)
    if poly.is_zero:
        return "0"
    parts = []
    for (n,), c in sorted(poly.terms(), reverse=True):
        e, c = Fraction(n - 20, 2), int(c)
        qs = "q" if e == 1 else "q^%s" % e
        body = str(abs(c)) if e == 0 else qs if abs(c) == 1 else "%d %s" % (abs(c), qs)
        parts.append(("-" if c < 0 else "") + body if not parts
                     else "%s %s" % ("-" if c < 0 else "+", body))
    return " ".join(parts)


# sparse Laurent polynomials in s = q^(1/2), as {k: c} for c * s^k
half_polys = st.dictionaries(st.integers(-9, 9), st.integers(-4, 4), max_size=6)


@given(half_polys, half_polys, st.integers(-3, 3),
       st.fractions(Fraction(1, 5), Fraction(5), max_denominator=6))
@settings(max_examples=60, deadline=None)
def test_qlaurent_agrees_with_sympy_in_the_square_root_of_q(da, db, c, r):
    sympy = pytest.importorskip("sympy")
    s = sympy.Symbol("s", positive=True)

    def sym(p):
        return sum((v * s ** k for k, v in p.terms), sympy.Integer(0))

    def value(x):
        x = sympy.Rational(x)
        return Fraction(int(x.p), int(x.q))

    a, b = (QLaurent.of({Fraction(k, 2): v for k, v in d.items()}) for d in (da, db))
    want = {"+": sym(a) + sym(b), "-": sym(a) - sym(b), "*": sym(a) * sym(b),
            "scale": c * sym(a)}
    got = {"+": a + b, "-": a - b, "*": a * b, "scale": a.scale(c)}
    for op, p in got.items():
        assert sympy.expand(sym(p) - want[op]) == 0, op
        ks = [k for k, _ in p.terms]
        assert ks == sorted(set(ks), reverse=True) and all(v for _, v in p.terms)
        assert all(type(k) is int and type(v) is int for k, v in p.terms)
        assert str(p) == _format_reference(want[op], s), op
        poly = sympy.Poly(sympy.expand(want[op] * s ** 20), s)
        assert p.degree() == (None if poly.is_zero
                              else Fraction(poly.degree() - 20, 2)), op
    # at a square q the value is the value at s = r; at a non-square q it
    # exists only without odd powers of s
    rs = sympy.Rational(r.numerator, r.denominator)
    assert a.specialize(r * r) == value(sym(a).subs(s, rs))
    if any(k % 2 for k, _ in a.terms):
        with pytest.raises(ValueError, match="square"):
            a.specialize(2 * r * r)
    else:
        assert a.specialize(2 * r * r) == value(sym(a).subs(s, sympy.sqrt(2) * rs))


# ---------------------------------------------------------------------------
# symmetric/exterior powers vs brute-force expansion

def _slots(chi):
    out = []
    for w, m in chi.weights:
        out.extend([w] * m)
    return out


def _brute_sym(chi, i):
    acc = Counter()
    for combo in itertools.combinations_with_replacement(_slots(chi), i):
        acc[tuple(map(sum, zip(*combo))) if combo else ()] += 1
    if i == 0:
        n = len(chi.weights[0][0]) if chi.weights else 0
        return WeightChar.unit(n)
    return WeightChar.of(acc)


def _brute_ext(chi, i):
    acc = Counter()
    slots = _slots(chi)
    for combo in itertools.combinations(range(len(slots)), i):
        ws = [slots[j] for j in combo]
        acc[tuple(map(sum, zip(*ws))) if ws else ()] += 1
    if i == 0:
        n = len(chi.weights[0][0]) if chi.weights else 0
        return WeightChar.unit(n)
    return WeightChar.of(acc)


small_chars = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(1, 2)),
    min_size=1, max_size=3).map(WeightChar.of))


@settings(max_examples=60, deadline=None)
@given(small_chars, st.integers(0, 5))
def test_sym_matches_bruteforce(chi, i):
    assert sym_power(chi, i) == _brute_sym(chi, i)


@settings(max_examples=60, deadline=None)
@given(small_chars, st.integers(0, 5))
def test_ext_matches_bruteforce(chi, i):
    if i > chi.dim():
        assert ext_power(chi, i).is_zero()
    else:
        assert ext_power(chi, i) == _brute_ext(chi, i)


@settings(max_examples=40, deadline=None)
@given(small_chars.filter(lambda c: c.dim() <= 3), st.integers(1, 4))
def test_ext_sym_alternating_identity(chi, j):
    # sum_i (-1)^i e_i h_{j-i} = 0 for j >= 1
    n = len(chi.weights[0][0])
    acc = WeightChar.of({})
    for i in range(j + 1):
        term = ext_power(chi, i) * sym_power(chi, j - i)
        acc = acc + (term if i % 2 == 0 else term.scale(-1))
    assert acc.is_zero()


virtual_pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(*[st.lists(
    st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.integers(1, 2)),
    min_size=1, max_size=3).map(WeightChar.of)] * 2))


@settings(max_examples=40, deadline=None)
@given(virtual_pairs, st.integers(0, 4))
def test_powers_of_virtual_characters(pair, j):
    # lambda-ring rules: Sym(a - b) * Sym(b) = Sym(a), Ext(a - b) * Ext(b) = Ext(a)
    a, b = pair
    for power in (sym_power, ext_power):
        acc = WeightChar.of({})
        for i in range(j + 1):
            acc = acc + power(a - b, i) * power(b, j - i)
        assert acc == power(a, j)


def test_zero_character_power_is_the_identity():
    a = WeightChar.of({(1,): 1})
    assert sym_power(a - a, 0) * a == a
    assert a * ext_power(a - a, 0) == a
    assert (a - a) * a == WeightChar.of({})


def test_mul_rejects_mixed_weight_dimensions():
    with pytest.raises(ValueError):
        WeightChar.of({(1,): 1}) * WeightChar.of({(1, 0): 1})


def test_weight_char_rejects_non_integral_entries():
    # int() would read {(1/2, 0): 3/2} as {(0, 0): 1}
    with pytest.raises(ValueError, match="non-integral"):
        WeightChar.of({(Fraction(1, 2), 0): Fraction(3, 2)})
    with pytest.raises(ValueError, match="non-integral"):
        WeightChar.of({(0, 0): Fraction(3, 2)})
    with pytest.raises(ValueError, match="non-integral"):
        WeightChar.of([((0.5,), 1)])
    assert WeightChar.of({(Fraction(2), 1.0): Fraction(4, 2)}) \
        == WeightChar.of({(2, 1): 2})


def test_power_errors():
    std = WeightChar.of({(1,): 1, (-1,): 1})
    with pytest.raises(ValueError):
        sym_power(std, -1)
    with pytest.raises(ValueError):
        ext_power(std, -2)
    assert sym_power(std, 0) == WeightChar.unit(1)
    assert sym_powers_upto(std, 2)[2] == sym_power(std, 2)


def _graded_power_lines(fn):
    """The line events fn() runs inside chars._graded_powers."""
    code, lines = chars._graded_powers.__code__, [0]

    def local(frame, event, arg):
        lines[0] += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(None)
    return lines[0]


def test_pp_gl3_powers_take_work_linear_in_the_height():
    # pp-gl3's f-fixed character has one weight, so each of the h + 1
    # degrees of the table gets one term; a degree without terms must cost
    # a fixed number of steps, not one per later degree
    from sphvar import catalog
    entry = catalog.load("pp-gl3")
    work = [_graded_power_lines(lambda: catalog.basic_table(entry, h))
            for h in (40, 80, 120)]
    assert work[0] < work[1] < work[2]
    # equal steps in the height add equal work
    assert work[2] - work[1] == work[1] - work[0]


def test_sym_frozen_sl3_radical():
    # Sym^2 of the three positive coroots of SL3: six distinct monomials
    chi = WeightChar.of({(0, 1): 1, (1, 1): 1, (1, 0): 1})
    s2 = sym_power(chi, 2)
    assert s2.dim() == 6
    assert s2.as_dict() == {(0, 2): 1, (1, 2): 1, (2, 2): 1,
                            (1, 1): 1, (2, 1): 1, (2, 0): 1}


# ---------------------------------------------------------------------------
# Kostant counts

def test_kostant_counts_sl3():
    sl3 = root_datum("SL", 3)
    scr, pcr = sl3.simple_coroots, sl3.dual.positive_roots()
    assert kostant_counts(scr, pcr, (0, 0)) == {0: 1}
    assert kostant_counts(scr, pcr, (1, 1)) == {1: 1, 2: 1}
    assert kostant_counts(scr, pcr, (2, 1)) == {2: 1, 3: 1}
    assert kostant_counts(scr, pcr, (2, 2)) == {2: 1, 3: 1, 4: 1}
    assert kostant_counts(scr, pcr, (1, 0)) == {1: 1}
    assert kostant_counts(scr, pcr, (-1, 0)) == {}


def test_kostant_counts_reject_non_integral_targets():
    sl3 = root_datum("SL", 3)
    scr, pcr = sl3.simple_coroots, sl3.dual.positive_roots()
    with pytest.raises(ValueError, match="non-integral"):
        kostant_counts(scr, pcr, (Fraction(1, 2), 0))
    assert kostant_counts(scr, pcr, (Fraction(2, 2), 1.0)) == {1: 1, 2: 1}


def test_kostant_counter_rejects_non_integral_coroots():
    # int() would read the coroot (3/2, 0) as (1, 0)
    half = [(Fraction(3, 2), 0), (0, 1)]
    with pytest.raises(ValueError, match="non-integral"):
        kostant_counter(half, half)
    whole = [(Fraction(1), 0), (0, 1.0)]
    assert kostant_counter(whole, whole)((1, 1)) == {2: 1}


def test_kostant_counts_gl2():
    gl2 = root_datum("GL", 2)
    scr, pcr = gl2.simple_coroots, gl2.dual.positive_roots()
    assert kostant_counts(scr, pcr, (3, -3)) == {3: 1}
    assert kostant_counts(scr, pcr, (1, 0)) == {}


def test_kostant_target_must_have_the_coroot_length():
    sl3 = root_datum("SL", 3)
    scr, pcr = sl3.simple_coroots, sl3.dual.positive_roots()
    for target in ((1, 1, 0), (1,), ()):
        with pytest.raises(ValueError, match="coroot length 2"):
            kostant_counts(scr, pcr, target)
    # a torus has no coroots: only the zero target counts
    t2 = root_datum("T", 2)
    count = kostant_counter(t2.simple_coroots, t2.dual.positive_roots())
    assert count((0, 0)) == {0: 1} and count((1, 0)) == {}


def _kostant_reference(simple_coroots, coroots, target):
    # the same recursion, with viability decided by a rational solve
    rows = [[c[j] for c in simple_coroots] for j in range(len(target))]

    def viable(v):
        sol = solve_linear(rows, list(v))
        return sol is not None and all(x.denominator == 1 and x >= 0
                                       for x in sol)

    @functools.lru_cache(maxsize=None)
    def rec(idx, rem):
        if not any(rem):
            return {0: 1}
        if idx == len(coroots):
            return {}
        out = dict(rec(idx + 1, rem))
        nrem = tuple(a - b for a, b in zip(rem, coroots[idx]))
        if viable(nrem):
            for parts, cnt in rec(idx, nrem).items():
                out[parts + 1] = out.get(parts + 1, 0) + cnt
        return out

    return rec(0, tuple(target)) if viable(target) else {}


KOSTANT_SETS = [("SL", 3, 5), ("SL", 4, 3), ("B", 2, 5), ("G", 2, 5),
                ("C", 3, 3)]


def _kostant_targets(rd, h):
    targets = set(itertools.product(range(-h, h + 1), repeat=rd.rank))
    targets = {t for t in targets if sum(map(abs, t)) <= h}
    for combo in itertools.combinations_with_replacement(
            rd.dual.positive_roots(), 2):
        targets.add(tuple(map(sum, zip(*combo))))
    return sorted(targets)


@pytest.mark.parametrize("kind,n,h", KOSTANT_SETS)
def test_kostant_counts_match_rational_viability(kind, n, h):
    rd = root_datum(kind, n)
    scr, pcr = rd.simple_coroots, rd.dual.positive_roots()
    nonempty = 0
    for t in _kostant_targets(rd, h):
        got = kostant_counts(scr, pcr, t)
        assert got == _kostant_reference(scr, pcr, t), t
        nonempty += bool(got)
    assert nonempty > len(pcr)


@pytest.mark.parametrize("kind,n,h", KOSTANT_SETS)
def test_one_kostant_counter_does_not_depend_on_the_target_order(kind, n, h):
    rd = root_datum(kind, n)
    scr, pcr = rd.simple_coroots, rd.dual.positive_roots()
    targets = _kostant_targets(rd, h)
    random.Random(kind + str(n)).shuffle(targets)
    count = kostant_counter(scr, pcr)
    for t in targets:
        got = count(t)
        assert got == _kostant_reference(scr, pcr, t), t
        assert got == kostant_counts(scr, pcr, t), t
        # the caller owns the returned dict: the memo keeps its own
        got[-1] = 1
    assert all(count(t) == kostant_counts(scr, pcr, t) for t in targets)


def _coroot_heights(simple_coroots):
    """v -> the sum of v's coefficients in the simple coroots, or None when
    v is not a nonnegative integer combination of them; by a left inverse
    that sympy computes, not by span_coordinates."""
    import sympy
    basis = sympy.Matrix([list(c) for c in simple_coroots]).T
    left = basis.pinv()
    left = [[Fraction(int(x.p), int(x.q)) for x in left.row(i)]
            for i in range(left.rows)]

    def height(v):
        sol = [sum(a * x for a, x in zip(row, v)) for row in left]
        back = [sum(c[j] * x for c, x in zip(simple_coroots, sol))
                for j in range(len(v))]
        if back != list(v) or any(x.denominator != 1 or x < 0 for x in sol):
            return None
        return int(sum(sol))

    return height


@pytest.mark.parametrize("kind,n,parts", [
    ("SL", 3, 12), ("SL", 4, 7), ("B", 2, 10), ("B", 3, 6), ("C", 3, 6),
    ("D", 4, 5), ("G", 2, 9), ("GL", 3, 12)])
def test_kostant_counts_match_a_tally_of_multisets(kind, n, parts):
    # every multiset of at most `parts` positive coroots, tallied by its sum;
    # a target of coroot height h has no partition of more than h parts, so
    # the tally is complete on the targets of height <= parts
    rd = root_datum(kind, n)
    scr, pcr = rd.simple_coroots, rd.dual.positive_roots()
    tally = {}
    for i in range(parts + 1):
        for combo in itertools.combinations_with_replacement(pcr, i):
            t = tuple(map(sum, zip((0,) * rd.rank, *combo)))
            tally.setdefault(t, Counter())[i] += 1
    box = [t for t in itertools.product(range(-2, 3), repeat=rd.rank)
           if sum(map(abs, t)) <= 2]
    height = _coroot_heights(scr)
    compared = 0
    for t in sorted(set(tally) | set(box)):
        h = height(t)
        if h is not None and h > parts:
            continue
        assert kostant_counts(scr, pcr, t) == dict(tally.get(t, {})), t
        compared += 1
    assert compared > len(box)


@pytest.mark.parametrize("simple,coroots", [
    ([(1,)], [(0,)]),
    ([(1,)], [(1,), (-1,)]),
    ([(1, 0), (0, 1)], [(1, -1), (0, 1)]),
    ([(1, 0)], [(1, 0), (0, 1)]),
    ([(2, 0)], [(2, 0), (1, 0)])],
    ids=("zero", "opposite-pair", "mixed-signs", "outside-the-span",
         "non-integral-coefficients"))
def test_kostant_counter_refuses_coroots_that_are_not_positive(simple, coroots):
    # the first two recursed without end, the third counted (1, -1) + (0, 1)
    # as a partition of (1, 0), and the last two were silently skipped
    message = "is not a nonzero nonnegative integer combination"
    with pytest.raises(ValueError, match=message):
        kostant_counts(simple, coroots, (1,) * len(coroots[0]))
    with pytest.raises(ValueError, match="bad input data"):
        kostant_counter(simple, coroots)


# ---------------------------------------------------------------------------
# weight multiplicities vs the alternating-sum oracle

def _det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def _kostant_partition(rd, v):
    counts = kostant_counts(rd.simple_roots, rd.positive_roots(), v)
    return sum(counts.values())


def _alternating_mult(rd, lam, mu):
    """Weight multiplicity via the alternating sum over the Weyl group."""
    rho2 = tuple(int(2 * r) for r in rd.rho)
    lam2 = tuple(2 * x + r for x, r in zip(lam, rho2))
    total = 0
    for w in rd.weyl_char:
        sign = _det(w)
        assert abs(sign) == 1
        img = tuple(sum(w[i][j] * lam2[j] for j in range(rd.rank))
                    for i in range(rd.rank))
        tgt = tuple(a - 2 * m - r for a, m, r in zip(img, mu, rho2))
        assert all(t % 2 == 0 for t in tgt)
        total += int(sign) * _kostant_partition(rd, tuple(t // 2 for t in tgt))
    return total


@pytest.mark.parametrize("kind,n,lams", [
    ("SL", 3, [(a, b) for a in range(4) for b in range(4) if a + b <= 3]),
    ("C", 2, [(a, b) for a in range(4) for b in range(4)
              if a >= b and a + b <= 3]),
])
def test_freudenthal_matches_alternating_oracle(kind, n, lams):
    rd = root_datum(kind, n)
    for lam in lams:
        chi = irrep_char(rd, lam)
        for mu, m in chi.weights:
            assert freudenthal_multiplicity(rd, lam, mu) == m
            assert _alternating_mult(rd, lam, mu) == m
        # a point just outside the weight diagram
        outside = tuple(lam[j] + rd.simple_roots[0][j] for j in range(rd.rank))
        if not rd.is_dominant_char(outside) or outside == lam:
            continue
        assert freudenthal_multiplicity(rd, lam, outside) == 0


def test_freudenthal_frozen():
    sl2, sl3 = root_datum("SL", 2), root_datum("SL", 3)
    assert freudenthal_multiplicity(sl2, (2,), (0,)) == 1
    assert freudenthal_multiplicity(sl3, (1, 1), (0, 0)) == 2
    assert freudenthal_multiplicity(sl3, (1, 1), (1, 1)) == 1
    assert freudenthal_multiplicity(sl3, (1, 1), (5, 5)) == 0
    with pytest.raises(ValueError):
        freudenthal_multiplicity(sl3, (-1, 0), (0, 0))


def test_freudenthal_rejects_non_integral_weights():
    sl3 = root_datum("SL", 3)
    with pytest.raises(ValueError, match="non-integral"):
        freudenthal_multiplicity(sl3, (Fraction(3, 2), 0), (0, 0))
    with pytest.raises(ValueError, match="non-integral"):
        freudenthal_multiplicity(sl3, (1, 1), (0.5, 0))
    assert freudenthal_multiplicity(sl3, (Fraction(1), 1.0), (0, 0)) == 2


def test_freudenthal_refuses_a_weight_of_the_wrong_length():
    # a bare lookup in the character would answer 0
    sl3 = root_datum("SL", 3)
    with pytest.raises(ValueError, match="dimension mismatch"):
        freudenthal_multiplicity(sl3, (1, 1), (0, 0, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        freudenthal_multiplicity(sl3, (1, 1), (0,))


# ---------------------------------------------------------------------------
# irreducible characters and decomposition

def _freudenthal_char(rd, lam):
    """Reference character of V(lam): Freudenthal's recursion with the
    sum-over-positive-coroots form over the simple-root drops below lam,
    with one form and one memo for the whole character."""
    pcs = rd.dual.positive_roots()

    def B(x, y):
        return sum(_idot(x, bv) * _idot(y, bv) for bv in pcs)

    def below(w):
        diff = tuple(a - b for a, b in zip(lam, w))
        return _nat_coordinates(rd._expansion_rows, diff)

    rho2 = tuple(int(2 * x) for x in rd.rho)
    memo = {}

    def mult(w):
        wd = rd.dominant_char(w)
        if wd == lam:
            return 1
        if below(wd) is None:
            return 0
        if wd not in memo:
            num = 0
            for a, _ in rd.positive_pairs:
                for k in itertools.count(1):
                    w2 = tuple(x + k * y for x, y in zip(wd, a))
                    if below(w2) is None:
                        break
                    num += B(w2, a) * mult(w2)
            lhs = tuple(a + b + r for a, b, r in zip(lam, wd, rho2))
            den = B(lhs, tuple(a - b for a, b in zip(lam, wd)))
            val = Fraction(2 * num, den)
            assert den > 0 and val.denominator == 1 and val >= 0
            memo[wd] = int(val)
        return memo[wd]

    lowest = tuple(-x for x in rd.dominant_char(tuple(-x for x in lam)))
    drops = lattice_points(Cone.orthant(rd.nsimple), sum(below(lowest)))
    return WeightChar.of(
        (w, mult(w)) for w in (
            tuple(l - sum(c * a[i] for c, a in zip(drop, rd.simple_roots))
                  for i, l in enumerate(lam)) for drop in drops))


_PANEL = [(root_datum("SL", 3), 4), (root_datum("C", 2), 4),
          (root_datum("G", 2), 4), (root_datum("GL", 3), 4),
          (root_datum("T", 2), 4),
          (product_datum(root_datum("T", 1), root_datum("SL", 2)), 4),
          (root_datum("B", 3), 4), (root_datum("C", 3), 4),
          (root_datum("SL", 4), 3), (root_datum("D", 4), 3)]


@pytest.mark.parametrize("rd,bound", _PANEL, ids=[rd.name for rd, _ in _PANEL])
def test_irrep_char_matches_freudenthal_reference(rd, bound):
    box = itertools.product(range(-bound, bound + 1), repeat=rd.rank)
    lams = [lam for lam in box
            if sum(map(abs, lam)) <= bound and rd.is_dominant_char(lam)]
    assert lams
    for lam in lams:
        assert irrep_char(rd, lam) == _freudenthal_char(rd, lam), lam


def test_irrep_char_division_is_exact(monkeypatch):
    # every orbit sign +1: the numerator is no multiple of the Weyl denominator
    closure = chars._closure
    monkeypatch.setattr(chars, "_closure", lambda seeds, step, message: {
        (v, 1) for v, _ in closure(seeds, step, message)})
    for kind, n, lam in [("SL", 2, (0,)), ("SL", 3, (1, 0)), ("G", 2, (1, 1))]:
        with pytest.raises(RuntimeError, match="not divisible"):
            irrep_char(root_datum(kind, n), lam)


def test_weyl_dim_frozen():
    sp4 = root_datum("C", 2)
    assert [weyl_dim(sp4, lam) for lam in [(0, 0), (1, 0), (1, 1), (2, 0)]] \
        == [1, 4, 5, 10]
    gl3 = root_datum("GL", 3)
    assert weyl_dim(gl3, (2, 1, 0)) == 8
    assert weyl_dim(gl3, (1, 1, 1)) == 1
    with pytest.raises(ValueError):
        weyl_dim(sp4, (0, 1))


def test_weyl_dim_rejects_a_non_integral_weight():
    # int() would read (3/2, 0) as (1, 0), of dimension 3
    sl3 = root_datum("SL", 3)
    with pytest.raises(ValueError, match="non-integral"):
        weyl_dim(sl3, (Fraction(3, 2), 0))
    assert weyl_dim(sl3, (Fraction(2), 1.0)) == 15


def test_irrep_char_sl2():
    sl2 = root_datum("SL", 2)
    assert irrep_char(sl2, (3,)).as_dict() == {(3,): 1, (1,): 1,
                                               (-1,): 1, (-3,): 1}


def test_irrep_char_without_simple_roots():
    # a torus has no simple roots: the character is the highest weight alone
    assert irrep_char(root_datum("T", 2), (1, 2)).as_dict() == {(1, 2): 1}
    t1sl2 = product_datum(root_datum("T", 1), root_datum("SL", 2))
    assert irrep_char(t1sl2, (3, 1)).as_dict() == {(3, -1): 1, (3, 1): 1}


def test_irrep_char_rejects_a_non_integral_weight():
    sl3 = root_datum("SL", 3)
    with pytest.raises(ValueError, match="non-integral"):
        irrep_char(sl3, (1.5, 0))
    assert irrep_char(sl3, (Fraction(1), 0)) == irrep_char(sl3, (1, 0))


def test_irrep_char_dim_consistency():
    for kind, n, lams in [("SL", 3, [(2, 1), (3, 0)]), ("C", 2, [(2, 1)]),
                          ("GL", 3, [(2, 1, 0)]), ("G", 2, [(1, 0)])]:
        rd = root_datum(kind, n)
        for lam in lams:
            assert irrep_char(rd, lam).dim() == weyl_dim(rd, lam)


def test_decompose_roundtrip():
    sl3 = root_datum("SL", 3)
    pieces = [((1, 0), 2), ((0, 2), 1), ((1, 1), 3)]
    chi = WeightChar.of({})
    for lam, m in pieces:
        chi = chi + irrep_char(sl3, lam).scale(m)
    assert decompose(sl3, chi) == sorted(pieces)


def test_decompose_tensor_sl2():
    sl2 = root_datum("SL", 2)
    std = irrep_char(sl2, (1,))
    assert decompose(sl2, std * std) == [((0,), 1), ((2,), 1)]


# small highest weights per group, within a box and a dimension cap
_ROUNDTRIP = {("SL", 3): 27, ("C", 2): 20, ("G", 2): 27, ("B", 3): 35,
              ("GL", 3): 27}


@functools.lru_cache(maxsize=None)
def _small_highest_weights(kind, n):
    rd = root_datum(kind, n)
    return tuple(lam for lam in itertools.product(range(-1, 3), repeat=rd.rank)
                 if rd.is_dominant_char(lam)
                 and weyl_dim(rd, lam) <= _ROUNDTRIP[kind, n])


@functools.lru_cache(maxsize=None)
def _cached_irrep(kind, n, lam):
    return irrep_char(root_datum(kind, n), lam)


roundtrip_cases = st.sampled_from(sorted(_ROUNDTRIP)).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(
        st.tuples(st.sampled_from(_small_highest_weights(*g)),
                  st.integers(1, 3)),
        max_size=3, unique_by=lambda piece: piece[0])))


@settings(max_examples=60, deadline=None)
@given(roundtrip_cases)
def test_decompose_inverts_freudenthal_sums(case):
    # the pieces are irrep_char, held to Freudenthal's recursion above
    (kind, n), pieces = case
    chi = WeightChar.of({})
    for lam, m in pieces:
        chi = chi + _cached_irrep(kind, n, lam).scale(m)
    assert decompose(root_datum(kind, n), chi) == sorted(pieces)


def test_decompose_rejects_non_characters():
    sl2 = root_datum("SL", 2)
    with pytest.raises(ValueError):
        decompose(sl2, WeightChar.of({(1,): 1}))  # lone weight, no orbit
    with pytest.raises(ValueError):
        decompose(sl2, WeightChar.of({(0,): -1}))
    with pytest.raises(ValueError):
        decompose(sl2, WeightChar.of({(2,): 1, (-2,): 1}))  # missing 0 weight
    sl3 = root_datum("SL", 3)
    with pytest.raises(ValueError, match="Weyl-invariant"):
        decompose(sl3, WeightChar.of({(1, 1): 1}))
    bumped = irrep_char(sl3, (1, 0)) + WeightChar.of({(-1, 1): 1})
    with pytest.raises(ValueError, match="Weyl-invariant"):
        decompose(sl3, bumped)
    # W-invariant with nonnegative weight multiplicities, yet V(1,1) - V(0,0)
    virtual = irrep_char(sl3, (1, 1)) - irrep_char(sl3, (0, 0))
    assert all(m > 0 for _, m in virtual.weights)
    with pytest.raises(ValueError, match=r"negative multiplicity at \(0, 0\)"):
        decompose(sl3, virtual)
