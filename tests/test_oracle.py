import hashlib
import itertools
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphvar.oracle as oracle
from sphvar import catalog
from sphvar.chars import QLaurent
from sphvar.engine import PPRoute, minuscule_satake, pp_shifts
from sphvar.geometry import LatticeMap
from sphvar.oracle import (
    MAX_COSETS,
    SPACES,
    LatticePoint,
    PrecisionError,
    TruncSeries,
    coset_reps,
    gj_recursion_mismatches,
    hecke_convolve,
    hecke_operators,
    integral_table,
    interpolates,
    mat2_coset_label_counts,
    mat_det,
    mat_inv,
    orbit_invariant,
    random_unimodular,
    satake_compatibility_check,
    satake_mismatches,
    stratum_labels,
    stratum_point,
    transition_counts,
    translate_invariance_mismatches,
)
from sphvar.rootdata import root_datum
from sphvar.spherical import enumerate_orbits

P, PREC = 2, 12


def ts(items, p=P, prec=PREC):
    return TruncSeries.of(p, prec, items)


def tp(e, p=P, prec=PREC):
    return TruncSeries.t_pow(p, prec, e)


# --- p-adic numbers --------------------------------------------------------

def test_series_normalization():
    # 5 + 2 * 2 + 7 * 2^3 = 65 = 1 + 2^6; 2^20 is 0 mod 2^12
    s = ts({0: 5, 1: 2, 3: 7, 20: 1})
    assert s.terms == ((0, 1), (6, 1))
    assert ts([(1, 1), (1, 1)]).terms == ((2, 1),)
    assert ts([(0, 1), (0, -1)]).is_zero()
    assert ts([(11, 1), (11, 1)]).is_zero()


def test_series_val_and_zero():
    assert tp(-2).val() == -2
    z = ts({})
    assert z.is_zero()
    with pytest.raises(PrecisionError, match="0 mod 2\\^12"):
        z.val()


def test_series_arithmetic():
    # 3 + 3 = 6, 3 * 3 = 9 and -3 = 2^12 - 3 mod 2^12
    a = ts({0: 1, 1: 1})
    b = ts({0: 1, 1: 1})
    assert (a + b).terms == ((1, 1), (2, 1))
    assert (a - b).is_zero()
    sq = a * b
    assert sq.terms == ((0, 1), (3, 1))
    assert (-a).terms == ((0, 1),) + tuple((e, 1) for e in range(2, PREC))
    assert (a + (-a)).is_zero()


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


def test_series_are_read_only_values():
    s = ts({0: 1, 3: 1})
    for name in ("p", "prec", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 3)
    assert repr(s) == "TruncSeries(p=2, prec=12, terms=((0, 1), (3, 1)))"
    # 8 + 3 - 2 = 9
    assert {s: 1}[ts([(3, 1), (0, 3), (0, -2)])] == 1
    assert s != ts({0: 1, 3: 1}, prec=11) and s != s.terms


def _vp(x, p):
    """The p-adic valuation of a nonzero Fraction."""
    v, n, d = 0, x.numerator, x.denominator
    while not n % p:
        n, v = n // p, v + 1
    while not d % p:
        d, v = d // p, v - 1
    return v


class _PadicRef:
    """The reference p-adic number: an exact Fraction, known mod p^prec,
    normalized with plain ints mod p^N."""

    def __init__(self, p, prec, value):
        self.p, self.prec, self.value = p, prec, Fraction(value)

    @staticmethod
    def of(p, prec, items):
        items = items.items() if isinstance(items, dict) else items
        return _PadicRef(p, int(prec), sum(
            (Fraction(int(c)) * Fraction(p) ** int(e) for e, c in items),
            Fraction(0)))

    def _lead(self):
        """The valuation, or prec when the value is 0 mod p^prec."""
        if not self.value:
            return self.prec
        return min(_vp(self.value, self.p), self.prec)

    def fields(self):
        """(p, prec, v, unit mod p^(prec - v)); v = prec and unit 0 at 0."""
        v = self._lead()
        if v == self.prec:
            return self.p, self.prec, v, 0
        u, mod = self.value / Fraction(self.p) ** v, self.p ** (self.prec - v)
        return (self.p, self.prec, v,
                u.numerator * pow(u.denominator, -1, mod) % mod)

    @property
    def terms(self):
        _, _, v, x = self.fields()
        return tuple((v + i, x // self.p ** i % self.p)
                     for i in range(self.prec - v) if x // self.p ** i % self.p)

    def is_zero(self):
        return self._lead() == self.prec

    def val(self):
        if self.is_zero():
            raise PrecisionError("number is 0 mod %d^%d" % (self.p, self.prec))
        return self._lead()

    def _check(self, other):
        if self.p != other.p:
            raise ValueError("numbers over Q_%d and Q_%d" % (self.p, other.p))

    def __add__(self, other):
        self._check(other)
        return _PadicRef(self.p, min(self.prec, other.prec),
                         self.value + other.value)

    def __neg__(self):
        return _PadicRef(self.p, self.prec, -self.value)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return _PadicRef(self.p, min(self.prec + other._lead(),
                                     other.prec + self._lead()),
                         self.value * other.value)

    def inverse(self):
        v = self.val()
        if self.prec - v <= v:
            raise PrecisionError("no room to invert at valuation %d" % v)
        return _PadicRef(self.p, self.prec - 2 * v, 1 / self.value)


def _fields(x):
    return (x._p, x._prec, x._v, x._x)


PRIMES = (2, 3, 5, 7, 10007, 1000000007)


@st.composite
def _series_input(draw, p=None):
    """(p, prec, items): a possibly negative precision and valuation, and
    coefficients beyond the digits, sometimes none or all beyond prec."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    prec = draw(st.integers(-5, 40))
    lo = draw(st.integers(-12, prec + 2))
    items = draw(st.lists(st.tuples(st.integers(lo, max(lo, prec + 2)),
                                    st.integers(-3 * p, 3 * p)), max_size=12))
    dense = draw(st.booleans())
    if dense:  # every digit up to prec, at most 40 of them
        items += [(e, draw(st.integers(0, p - 1)))
                  for e in range(lo, min(prec, lo + 40))]
    return p, prec, items


def _outcome(f):
    """terms and prec of f(), or the type and message of what it raised."""
    try:
        r = f()
    except (ArithmeticError, ValueError) as e:
        return type(e).__name__, str(e)
    if isinstance(r, (TruncSeries, _PadicRef)):
        return r.terms, r.prec
    return r


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_series_input(), st.data())
def test_packed_series_match_the_sparse_reference(a_in, data):
    # every operation against the Fraction reference, mixed primes too
    p = a_in[0]
    other_p = data.draw(st.sampled_from((p, p, p, 2 if p != 2 else 3)))
    b_in = data.draw(_series_input(other_p))
    a, b = TruncSeries.of(*a_in), TruncSeries.of(*b_in)
    ra, rb = _PadicRef.of(*a_in), _PadicRef.of(*b_in)
    for mine, ref in ((a, ra), (b, rb)):
        assert _fields(mine) == ref.fields()
        assert (mine.p, mine.prec, mine.terms) == (ref.p, ref.prec, ref.terms)
        assert mine.is_zero() == ref.is_zero()
        assert _outcome(mine.val) == _outcome(ref.val)
        assert _outcome(mine.inverse) == _outcome(ref.inverse)
        assert _outcome(lambda: -mine) == _outcome(lambda: -ref)
    for op in (operator.add, operator.sub, operator.mul):
        assert _outcome(lambda: op(a, b)) == _outcome(lambda: op(ra, rb))
        assert _outcome(lambda: op(b, a)) == _outcome(lambda: op(rb, ra))
    again = TruncSeries.of(*a_in)
    assert a == again and hash(a) == hash(again) and a is not again
    assert (a == b) == ((a.p, a.prec, a.terms) == (b.p, b.prec, b.terms))


@pytest.mark.parametrize("p, n", [(2, 300), (3, 70), (10007, 45),
                                  (1000000007, 17), (1000000007, 40)])
def test_long_products_widen_their_slots(p, n):
    # operands of n digits, random and all p - 1, against the reference
    rng = random.Random(n)
    a_in, b_in = ([(e, rng.randrange(p)) for e in range(-3, n - 3)]
                  for _ in range(2))
    mine = TruncSeries.of(p, n, a_in) * TruncSeries.of(p, n, b_in)
    ref = _PadicRef.of(p, n, a_in) * _PadicRef.of(p, n, b_in)
    assert _fields(mine) == ref.fields()
    full = [(e, p - 1) for e in range(n)]
    mine = TruncSeries.of(p, 2 * n, full) * TruncSeries.of(p, 2 * n, full)
    ref = _PadicRef.of(p, 2 * n, full) * _PadicRef.of(p, 2 * n, full)
    assert _fields(mine) == ref.fields()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PRIMES), st.data())
def test_packed_products_match_sympy(p, data):
    # the product of the operands' digit expansions, as sympy Rationals, is
    # the product's expansion mod p^prec
    sympy = pytest.importorskip("sympy")
    a, b = (TruncSeries.of(*data.draw(_series_input(p))) for _ in range(2))
    prod = a * b

    def value(s):
        return sum((sympy.Integer(c) * sympy.Rational(p) ** e
                    for e, c in s.terms), sympy.Integer(0))

    diff = value(prod) - value(a) * value(b)
    assert diff == 0 or sympy.multiplicity(p, diff) >= prod.prec
    if a.is_zero() or b.is_zero():
        assert prod.is_zero()
    else:
        assert prod.prec == min(a.prec + b.val(), b.prec + a.val())


@st.composite
def _padic_operand(draw, p):
    """(prec, items): a precision and a number known to it, zero a fifth of
    the time, with a valuation from below 0 to past the precision."""
    prec = draw(st.integers(-4, 24))
    if draw(st.integers(0, 4)) == 0:
        return prec, []
    v = draw(st.integers(prec - 30, prec + 1))
    return prec, [(v, draw(st.integers(1, p - 1))),
                  (v + 1, draw(st.integers(-p ** 3, p ** 3))),
                  (draw(st.integers(v, prec + 2)), draw(st.integers(0, p)))]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 5, 10007, 2 ** 61 - 1)), st.data())
def test_padic_arithmetic_matches_the_int_and_fraction_reference(p, data):
    # sums, products, negation, inverse and a dot with zero operands, each
    # with its precision, against exact Fractions read mod p^N
    import sphvar.oracle as oracle
    ins = [data.draw(_padic_operand(p)) for _ in range(2)]
    (a, b), (ra, rb) = ([cls.of(p, prec, items) for prec, items in ins]
                        for cls in (TruncSeries, _PadicRef))
    for mine, ref in ((a + b, ra + rb), (a * b, ra * rb), (-a, -ra),
                      (a - b, ra - rb)):
        assert _fields(mine) == ref.fields()
    assert _outcome(a.inverse) == _outcome(ra.inverse)
    if not a.is_zero() and 2 * a.val() < a.prec:
        assert _fields(a.inverse()) == ra.inverse().fields()
    pairs = [[data.draw(_padic_operand(p)) for _ in range(2)]
             for _ in range(data.draw(st.integers(1, 4)))]
    xs, ys = ([TruncSeries.of(p, *pair[i]) for pair in pairs] for i in (0, 1))
    rxs, rys = ([_PadicRef.of(p, *pair[i]) for pair in pairs] for i in (0, 1))
    want = rxs[0] * rys[0]
    for rx, ry in zip(rxs[1:], rys[1:]):
        want = want + rx * ry
    assert _fields(oracle._dot(xs, ys)) == want.fields()


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


def _leibniz(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i, j in itertools.combinations(range(n), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def test_integer_mat_det_matches_leibniz():
    # the sampler's residue matrices: many zero entries, whose minors the
    # expansion skips
    for n in (1, 2, 3):
        for r in itertools.product(range(3), repeat=n * n):
            m = [list(r[i:i + n]) for i in range(0, n * n, n)]
            assert mat_det(m) == _leibniz(m)
    rng = random.Random(4)
    for _ in range(200):
        m = [[rng.choice((0, 0, 1, -2, 7)) for _ in range(4)]
             for _ in range(4)]
        assert mat_det(m) == _leibniz(m)


def test_one_row_mat_mul():
    v = (tp(0), tp(1))
    m = [[ts({}), ts({0: 1})], [ts({0: 1}), ts({})]]
    w = mat_mul([v], m)[0]
    assert w[0].val() == 1 and w[1].val() == 0


# the translates as products of numbers, one _dot per entry: the reference
# for the oracle's int translates, kept here since the oracle takes every
# translate over ints

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("cannot multiply %dx%d by %dx%d"
                         % (n, len(a[0]), k, m))
    cols = list(zip(*b))
    return [[oracle._dot(row, col) for col in cols] for row in a]


def right_translate(x, g):
    """x g, and the scalar times det g on a twisted space."""
    m = oracle._MODELS[x.space]
    cols = list(zip(*g))
    if len(g) != m.n or len(cols) != m.n:
        raise ValueError("cannot multiply %dx%d by %dx%d"
                         % (m.k, m.n, len(g), len(cols)))
    c, n = x.coords, m.n
    v = tuple(oracle._dot(c[r:r + n], col) for r in range(0, m.k * n, n)
              for col in cols)
    if m.twisted:
        v += (c[m.k * n] * mat_det(g),)
    return LatticePoint(x.space, v)


# the label reader over numbers: the reference for the oracle's int reader,
# kept here since the oracle reads every label off ints; it labels the chain
# translates, whose coordinates may be known to different powers of p

def _ref_vec_val(entries):
    """The least entry valuation; no zero entry (_v = prec) may reach it."""
    v = min([e._v for e in entries])
    for e in entries:
        if e._prec == v:
            raise PrecisionError(("an entry is only known mod %d^%d"
                                  if any(e._x for e in entries)
                                  else "vector is 0 mod %d^%d") % (e._p, v))
    return v


def _ref_row_label(c, k, n):
    """The determinantal divisors of the k x n matrix of the numbers c, row
    by row: each the least valuation of the mat_det of its i x i minors."""
    label = (_ref_vec_val(c[:k * n]),)
    for i in range(2, k + 1):
        label += (_ref_vec_val([
            mat_det([[c[r * n + j] for j in cols] for r in rows])
            for rows in itertools.combinations(range(k), i)
            for cols in itertools.combinations(range(n), i)]),)
    return label


def ref_orbit_invariant(x):
    """orbit_invariant read off the numbers of x, each at its own power."""
    m = oracle._MODELS[x.space]
    c, k, n = x.coords, m.k, m.n
    label = _ref_row_label(c, k, n)
    return label + (c[k * n].val(),) if m.twisted else label


def _as_numbers(p, prec, v, ints):
    """p^v times each int known mod p^prec: numbers known mod p^(prec + v)."""
    return [TruncSeries._make(p, prec + v, v, e % p ** prec) for e in ints]


class _ReadBlocks:
    """While installed, records each block the int label reader gets from a
    translate, as (kind, the numbers _as_numbers makes of it): kind (k, n)
    for a k x n block of rows read by _row_label, and "number" for a scalar
    read by _val.  What orbit_invariant reads is left out."""

    def __init__(self, monkeypatch):
        self.blocks, inside = [], []
        row_label, val = oracle._row_label, oracle._val
        invariant = oracle.orbit_invariant

        def rows(p, prec, v, ints, k, n):
            if not inside:
                self.blocks.append(((k, n), _as_numbers(p, prec, v, ints)))
            return row_label(p, prec, v, ints, k, n)

        def scalar(p, prec, v, ints, what="vector"):
            if what == "number" and not inside:
                self.blocks.append(("number", _as_numbers(p, prec, v, ints)))
            return val(p, prec, v, ints, what)

        def label(x):
            inside.append(x)
            try:
                return invariant(x)
            finally:
                inside.pop()
        monkeypatch.setattr(oracle, "_row_label", rows)
        monkeypatch.setattr(oracle, "_val", scalar)
        monkeypatch.setattr(oracle, "orbit_invariant", label)

    def points(self, space):
        """The blocks as the points of space they stand for, one per rows
        block, its scalar appended on a twisted space."""
        m, out = oracle._MODELS[space], []
        for kind, numbers in self.blocks:
            if kind == "number":
                out[-1] += tuple(numbers)
            else:
                assert kind == (m.k, m.n)
                out.append(tuple(numbers))
        return out


def left_translate(x, g):
    """h x for h in GL_k on a two-sided space; the scalar stays."""
    m = oracle._MODELS[x.space]
    if m.k == 1:
        raise ValueError("a row space carries no left action")
    k, n = m.k, m.n
    if len(g) != k:
        raise ValueError("cannot multiply %dx%d by %dx%d"
                         % (len(g), len(g[0]), k, n))
    rows = mat_mul(g, [list(x.coords[r:r + n]) for r in range(0, k * n, n)])
    return LatticePoint(x.space, tuple(sum(rows, [])) + x.coords[k * n:])


# the matrix routines as chains of products and sums, the reference for the
# one-dot kernel; they run on TruncSeries and on the Fraction reference alike


def _chain_mat_mul(a, b):
    out = []
    for row in a:
        out.append([])
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for s in range(1, len(b)):
                acc = acc + row[s] * b[s][j]
            out[-1].append(acc)
    return out


def _chain_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for j in range(n):
        term = m[0][j] * _chain_det([row[:j] + row[j + 1:] for row in m[1:]])
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def _chain_inv(m):
    n = len(m)
    di = _chain_det(m).inverse()
    if n == 1:
        return [[di]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            c = _chain_det(minor) * di
            out[j][i] = c if (i + j) % 2 == 0 else -c
    return out


def _grid(f):
    """terms and prec of each entry of the matrix (or vector, or series)
    f() returns, or the type and message of what it raised."""
    def run():
        r = f()
        if isinstance(r, (TruncSeries, _PadicRef)):
            r = [[r]]
        elif isinstance(r, tuple):
            r = [r]
        return [[(e.terms, e.prec) for e in row] for row in r]
    return _outcome(run)


class _CountingMul:
    """Counts the calls of TruncSeries.__mul__ while installed."""

    def __init__(self, monkeypatch):
        self.calls, mul = 0, TruncSeries.__mul__

        def counted(a, b):
            self.calls += 1
            return mul(a, b)
        monkeypatch.setattr(TruncSeries, "__mul__", counted)


KERNEL_PRIMES = PRIMES + (47,)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(KERNEL_PRIMES), st.integers(1, 3), st.integers(1, 3),
       st.data())
def test_matrix_kernel_matches_the_chain(p, n, k, data):
    ins = [[[data.draw(_series_input(p)) for _ in range(cols)]
            for _ in range(rows)] for rows, cols in ((n, k), (k, n), (n, n))]
    if data.draw(st.integers(0, 3)) == 0:
        # one entry over another prime
        m = data.draw(st.sampled_from(ins))
        row = data.draw(st.sampled_from(m))
        row[data.draw(st.integers(0, len(row) - 1))] = data.draw(
            _series_input(2 if p != 2 else 3))
    (a, b, m), (ra, rb, rm) = (
        [[[cls.of(*e) for e in row] for row in x] for x in ins]
        for cls in (TruncSeries, _PadicRef))
    want = [_grid(lambda: _chain_mat_mul(ra, rb)),
            _grid(lambda: tuple(_chain_mat_mul([ra[0]], rb)[0])),
            _grid(lambda: _chain_det(rm)), _grid(lambda: _chain_inv(rm))]
    assert [_grid(lambda: _chain_mat_mul(a, b)),
            _grid(lambda: tuple(_chain_mat_mul([a[0]], b)[0])),
            _grid(lambda: _chain_det(m)), _grid(lambda: _chain_inv(m))] == want
    assert [_grid(lambda: mat_mul(a, b)), _grid(lambda: mat_mul([a[0]], b)),
            _grid(lambda: mat_det(m)), _grid(lambda: mat_inv(m))] == want


@pytest.mark.parametrize("p, slots", [(3, 16), (10007, 12), (2, 17), (3, 30),
                                      (1000000007, 20)])
def test_matrix_kernel_on_long_operands(p, slots):
    # entries of that many nonzero digits
    import sphvar.oracle as oracle
    rng = random.Random(p + slots)
    ins = [[[(p, 2 * slots, [(e, rng.randrange(1, p)) for e in range(slots)])
             for _ in range(3)] for _ in range(3)] for _ in range(2)]
    (a, b), (ra, rb) = ([[[cls.of(*e) for e in row] for row in m] for m in ins]
                        for cls in (TruncSeries, _PadicRef))
    want = _grid(lambda: _chain_mat_mul(ra, rb))
    assert _grid(lambda: mat_mul(a, b)) == want
    assert _grid(lambda: mat_det(a)) == _grid(lambda: _chain_det(ra))
    # one dot of three such products
    col = [row[0] for row in b]
    assert _grid(lambda: oracle._dot(a[0], col)) == [[want[0][0]]]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 5, 10007, 2 ** 61 - 1)), st.data())
def test_products_and_sums_match_the_reference_at_piece_boundaries(p, data):
    # operands of 15 to 33 digits: all p - 1, so that every digit carries,
    # nonzero everywhere, or nonzero only at both ends
    import sphvar.oracle as oracle

    def operand():
        n = data.draw(st.sampled_from((15, 16, 17, 32, 33)))
        lo = data.draw(st.integers(-3, 3))
        kind = data.draw(st.sampled_from(("full", "nonzero", "ends")))
        if kind == "full":
            coeffs = [p - 1] * n
        elif kind == "nonzero":
            coeffs = data.draw(st.lists(st.integers(1, p - 1), min_size=n,
                                        max_size=n))
        else:
            coeffs = [1] + [0] * (n - 2) + [p - 1]
        prec = data.draw(st.integers(lo + n - 1, lo + 2 * n + 1))
        items = [(lo + i, c) for i, c in enumerate(coeffs)]
        return [cls.of(p, prec, items) for cls in (TruncSeries, _PadicRef)]

    (a, ra), (b, rb), (c, rc), (d, rd) = (operand() for _ in range(4))
    for mine, ref in ((lambda: a * b, lambda: ra * rb),
                      (lambda: b * a, lambda: rb * ra),
                      (lambda: a + b, lambda: ra + rb),
                      (lambda: a - b, lambda: ra - rb),
                      (lambda: oracle._dot((a, c), (b, d)),
                       lambda: ra * rb + rc * rd)):
        assert _outcome(mine) == _outcome(ref)


def test_a_sum_is_one_dot(monkeypatch):
    import sphvar.oracle as oracle
    calls, dot = [], oracle._dot
    monkeypatch.setattr(oracle, "_dot",
                        lambda xs, ys: calls.append(xs) or dot(xs, ys))
    # 9 + 10 = 19 = 1 + 2 + 2^4, known mod 2^9
    a, b = ts({0: 1, 3: 1}), ts({1: 1, 3: 1}, prec=9)
    s = a + b
    assert len(calls) == 1
    assert (s.terms, s.prec) == (((0, 1), (1, 1), (4, 1)), 9)


def test_the_kernel_keeps_no_cell_variables():
    # a closure inside _dot over its locals would turn them into cells,
    # which slows every dot
    import sphvar.oracle as oracle
    assert oracle._dot.__code__.co_cellvars == ()


@pytest.mark.parametrize("p", (3, 47, 10007))
def test_matrix_kernel_on_full_slots(p):
    # every entry p^16 - 1, all 16 digits p - 1, so every product carries
    full = (p, 32, [(e, p - 1) for e in range(16)])
    m, rm = ([[cls.of(*full)] * 3 for _ in range(3)]
             for cls in (TruncSeries, _PadicRef))
    assert _grid(lambda: mat_mul(m, m)) == _grid(lambda: _chain_mat_mul(rm, rm))
    assert _grid(lambda: mat_det(m)) == _grid(lambda: _chain_det(rm))


def test_matrix_kernel_reports_mixed_primes_as_the_chain_does():
    # each product is over one field, the sum of the two is not
    two, three = ts({0: 1}, p=2), ts({0: 1}, p=3)
    for x, y in ((two, three), (three, two)):
        cases = [(mat_mul, _chain_mat_mul, ([[x, y]], [[x], [y]])),
                 (mat_det, _chain_det, ([[x, y], [y, x]],))]
        for f, chain, args in cases:
            want = _grid(lambda: chain(*args))
            assert want == ("ValueError", "numbers over Q_%d and Q_%d"
                            % (x.p, y.p))
            assert _grid(lambda: f(*args)) == want


def test_matrix_kernel_calls_no_series_product(monkeypatch):
    rng = random.Random(5)
    g = random_unimodular(rng, 5, 8, 3)
    v = (ts({}, p=5, prec=8), ts({}, p=5, prec=8), tp(2, p=5, prec=8))
    want = (_chain_mat_mul(g, g), _chain_mat_mul([list(v)], g), _chain_det(g))
    mul = _CountingMul(monkeypatch)
    assert (mat_mul(g, g), mat_mul([v], g), mat_det(g)) == want
    assert mul.calls == 0


def _bits(x):
    """The fields of a number: equal fields, equal numbers."""
    return (x._v, x._x, x._prec) if isinstance(x, TruncSeries) else x


@pytest.mark.parametrize("p", (2, 3, 5, 47))
def test_mat_det_is_the_chain_bit_for_bit(p):
    # zero entries, negative valuations and a precision per entry
    rng = random.Random(p)

    def entry():
        prec = rng.randrange(-2, 9)
        if rng.random() < 0.25:
            return TruncSeries.of(p, prec, {})
        return TruncSeries.of(p, prec, {rng.randrange(-3, prec):
                                        rng.randrange(p)
                                        for _ in range(rng.randrange(1, 5))})

    for n in (1, 2, 3, 4):
        for _ in range(100 if n < 4 else 25):
            m = [[entry() for _ in range(n)] for _ in range(n)]
            assert _bits(mat_det(m)) == _bits(_chain_det(m))
    for n in (1, 2, 3, 4, 5):
        for _ in range(100):
            m = [[rng.choice((0, 0, 1, -1, 2, -p, p + 1)) for _ in range(n)]
                 for _ in range(n)]
            assert mat_det(m) == _chain_det(m)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_negation_cancels(p):
    rng = random.Random(p)
    for _ in range(100):
        prec = rng.randrange(-2, 10)
        x = TruncSeries.of(p, prec, {rng.randrange(-3, prec): rng.randrange(p)
                                     for _ in range(rng.randrange(0, 5))})
        s = x + (-x)
        assert s.is_zero() and s.prec == x.prec
        assert -(-x) == x and (-x).prec == x.prec
        assert x.is_zero() or (-x).val() == x.val()


def test_random_unimodular_is_unimodular():
    rng = random.Random(0)
    for p in (2, 3, 5):
        g = random_unimodular(rng, p, 8, 2)
        assert mat_det(g).val() == 0


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (2, 3))
def test_random_unimodular_draws_have_unit_series_determinant(p, n):
    rng = random.Random(17 * p + n)
    for _ in range(200):
        d = mat_det(random_unimodular(rng, p, 6, n))
        assert not d.is_zero() and d.val() == 0


class _Scripted(random.Random):
    """randrange answers from a script and records its bounds."""

    def __init__(self, script):
        super().__init__(0)
        self.script, self.bounds = list(script), []

    def randrange(self, stop):
        self.bounds.append(stop)
        x = self.script.pop(0)
        assert 0 <= x < stop
        return x


def _digits(code, base, k):
    """The k digits of code in base, lowest first."""
    return [code // base ** i % base for i in range(k)]


def _entry(p, prec, r, d):
    """The series with residue r and the base-p digits of d above it."""
    return TruncSeries.of(p, prec, [(0, r)] + [
        (i, d // p ** (i - 1) % p) for i in range(1, prec)])


@pytest.mark.parametrize("p, n, prec, order", [(2, 2, 2, 96), (3, 2, 1, 48),
                                               (2, 3, 1, 168)])
def test_random_unimodular_hits_each_element_once(p, n, prec, order):
    # every accepted residue code and every digit code gives another
    # element of GL_n(o / t^prec), and together they give all of them
    cells, high = n * n, p ** (prec - 1)
    units = [c for c in range(p ** cells)
             if mat_det([_digits(c, p, cells)[i:i + n]
                         for i in range(0, cells, n)]) % p]
    seen = set()
    for res in units:
        for digits in range(high ** cells):
            rng = _Scripted([res, digits])
            g = random_unimodular(rng, p, prec, n)
            assert not rng.script
            assert rng.bounds == [p ** cells, high ** cells]
            assert mat_det(g).val() == 0
            # entry k, row-major: digit k of the residue code, then the
            # base-p digits of digit k of the digit code, lowest first
            assert [e for row in g for e in row] == [
                _entry(p, prec, r, d) for r, d in
                zip(_digits(res, p, cells), _digits(digits, high, cells))]
            seen.add(tuple(tuple(e.terms for e in row) for row in g))
    assert len(seen) == order


def test_random_unimodular_redraws_singular_residues():
    # residues (1, 1, 1, 1) and (1, 1, 0, 0) are singular, (1, 1, 0, 1) is not
    singular, unit = (15, 3), 11
    rng = _Scripted(singular + (unit, 2 + 1 * 16 + 3 * 64))
    g = random_unimodular(rng, 2, 3, 2)
    assert not rng.script and rng.bounds == [16, 16, 16, 256]
    assert [[e.terms for e in row] for row in g] == [
        [((0, 1), (2, 1)), ((0, 1),)], [((1, 1),), ((0, 1), (1, 1), (2, 1))]]


class _Bounds(random.Random):
    """Records the bound of every randrange call."""

    def __init__(self, seed):
        super().__init__(seed)
        self.bounds = []

    def randrange(self, stop):
        self.bounds.append(stop)
        return super().randrange(stop)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", (2, 3))
def test_random_unimodular_work(p, n):
    # one draw per residue attempt, below p^(n^2), plus one for all the
    # higher digits: the digits cost nothing on a rejected attempt
    import sphvar.oracle as oracle
    oracle._unit_residues.cache_clear()
    rng = _Bounds(17 * p + n)
    for _ in range(200):
        random_unimodular(rng, p, 6, n)
    attempts = rng.bounds.count(p ** (n * n))
    assert len(rng.bounds) == attempts + 200
    assert attempts < 200 * (4 if p == 2 else 2)


def test_random_unimodular_takes_each_residue_determinant_once(monkeypatch):
    # GL3 at p = 2 has 2^9 = 512 residue codes, all within the memo
    import sphvar.oracle as oracle
    oracle._unit_residues.cache_clear()
    dets = []
    det = oracle.mat_det
    monkeypatch.setattr(oracle, "mat_det", lambda m: dets.append(m) or det(m))
    rng = random.Random(3)
    for _ in range(2000):
        random_unimodular(rng, 2, 4, 3)
    assert 0 < len(dets) <= 512


def _unmemoized_random_unimodular(rng, p, prec, n):
    """The sampler as it was before its residue test was memoized, verbatim
    but for the residue determinant, taken here by Leibniz's formula."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if p < 2 or n < 1:
        raise ValueError("need p >= 2 and n >= 1, got p = %r, n = %r" % (p, n))
    cells = n * n
    while True:
        code, flat = rng.randrange(p ** cells), []
        for _ in range(cells):
            code, r = divmod(code, p)
            flat.append(r)
        residues = [flat[i:i + n] for i in range(0, cells, n)]
        if _leibniz(residues) % p:
            break
    # entry k is its residue plus p times base-p^(prec-1) digit k of the draw
    high = p ** (prec - 1)
    draw = rng.randrange(p ** ((prec - 1) * cells))
    entries = [TruncSeries.of(p, prec, [(0, r), (1, draw // high ** i % high)])
               for i, r in enumerate(flat)]
    return [entries[i:i + n] for i in range(0, cells, n)]


def test_random_unimodular_draws_what_the_unmemoized_sampler_draws():
    # draw for draw from one seed per (p, n); GL3 at p = 5 and 7 has more
    # residue codes than the memo holds, so codes are evicted and decided
    # again
    import sphvar.oracle as oracle
    memo = oracle._unit_residues
    memo.cache_clear()
    for p, n in itertools.product((2, 3, 5, 7), (1, 2, 3)):
        got, want = random.Random(p * n), random.Random(p * n)
        for i in range(300):
            prec = 1 + i % 7
            assert [[_fields(e) for e in row]
                    for row in random_unimodular(got, p, prec, n)] == [
                [_fields(e) for e in row]
                for row in _unmemoized_random_unimodular(want, p, prec, n)]
        assert got.getstate() == want.getstate()
    assert memo.cache_info().misses > memo.cache_info().maxsize


def test_random_unimodular_needs_a_residue():
    with pytest.raises(ValueError, match="precision"):
        random_unimodular(random.Random(0), 2, 0, 2)


@pytest.mark.parametrize("p, n", [(1, 3), (0, 2), (-3, 2), (2, 0), (3, -1)])
def test_random_unimodular_rejects_a_degenerate_ring_or_size(p, n):
    # at p = 1 every determinant is 0 mod 1, so no draw would be accepted
    start = time.perf_counter()
    with pytest.raises(ValueError, match="p >= 2 and n >= 1"):
        random_unimodular(random.Random(0), p, 3, n)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p", (2, 3, 5, 4099, 1000000007))
def test_random_unimodular_digits_match_the_digit_by_digit_draw(p):
    # the digits come in table lookups of several at a time; each entry must
    # still be the residue, then the base-p digits of its part of the draw,
    # lowest first
    rng = random.Random(p)
    script, want = [], []
    for prec in range(1, 41):
        high = p ** (prec - 1)
        res = [1, rng.randrange(p), 0, 1]
        digits = [0, high - 1] + [rng.randrange(high) for _ in range(2)]
        script += [sum(r * p ** k for k, r in enumerate(res)),
                   sum(d * high ** k for k, d in enumerate(digits))]
        want.append([_entry(p, prec, r, d) for r, d in zip(res, digits)])
    stream = _Scripted(script)
    for prec in range(1, 41):
        g = random_unimodular(stream, p, prec, 2)
        assert [e for row in g for e in row] == want[prec - 1]
    assert not stream.script
    assert stream.bounds == [b for prec in range(1, 41)
                             for b in (p ** 4, p ** (4 * (prec - 1)))]


def _digest(x):
    return hashlib.sha256(repr(x).encode()).hexdigest()


# sha256 of the repr of every entry's terms, recorded from the sampler that
# packed base-p coefficients into the slots of one int: for each p, over
# random_unimodular(random.Random(s), p, prec, n), s = 0..4 outermost, then
# n = 1, 2, 3, then prec = 1, 8, 14
SAMPLER_DIGESTS = {
    2: "c6c14b7a8056caec45e966cedb4c6a7d6b79f6d39e54eea654ce64b0d535c702",
    3: "35093b155740aec825bf87522f4adcf0493e702c6d9b4004a1a9aba2701d4da2",
    5: "018a918a2dc53bb5b9492f5fa17bf0c4182265b5387309bbefe0cd39a59191a1",
}


@pytest.mark.parametrize("p", SAMPLER_DIGESTS)
def test_random_unimodular_draws_the_recorded_matrices(p):
    # the same seed draws the same matrices, digit for digit, so the seeded
    # orbit-invariance check translates by the same elements
    rows = [[[e.terms for e in row]
             for row in random_unimodular(random.Random(s), p, prec, n)]
            for s in range(5) for n in (1, 2, 3) for prec in (1, 8, 14)]
    assert _digest(rows) == SAMPLER_DIGESTS[p]


# --- orbit labels ----------------------------------------------------------

def test_orbit_invariant_examples():
    assert orbit_invariant(LatticePoint("A2", (tp(2), tp(3)))) == (2,)
    one, z = ts({0: 1}), ts({})
    assert orbit_invariant(LatticePoint("MAT2", (one, z, z, tp(1)))) == (0, 1)
    assert orbit_invariant(LatticePoint("UGL2", (z, tp(2), tp(3)))) == (2, 3)
    assert orbit_invariant(
        LatticePoint("PPGL3", (z, z, tp(1), tp(4)))) == (1, 4)


def test_orbit_invariant_precision_guard():
    # a point is read at the least precision of its coordinates: 2^3 known
    # mod 2^12 beside a zero known mod 2^2 is a vector that is 0 mod 2^2
    shallow = TruncSeries.of(2, 2, {})
    with pytest.raises(PrecisionError, match="vector is 0 mod 2\\^2"):
        orbit_invariant(LatticePoint("A2", (shallow, tp(3))))
    with pytest.raises(PrecisionError, match="only known mod 2\\^2"):
        ref_orbit_invariant(LatticePoint("A2", (shallow, tp(3))))
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


def _chain_stratum_coords(space, label, p, prec):
    """stratum_point's coordinates as one TruncSeries.of zero series and
    one t_pow per label entry."""
    import sphvar.oracle as oracle
    m = oracle._MODELS[space]
    k, n = m.k, m.n
    coords = [TruncSeries.of(p, prec, {})] * (k * n) + [
        TruncSeries.t_pow(p, prec, s) for s in label[k:]]
    for i, a in enumerate(oracle._divisors(tuple(label[:k]))):
        coords[i * n + n - k + i] = TruncSeries.t_pow(p, prec, a)
    return coords


@pytest.mark.parametrize("space", SPACES)
@pytest.mark.parametrize("p", (2, 3, 5))
def test_stratum_point_builds_what_the_monomial_chain_builds(space, p):
    # every label of the height-3 window, negative entries too, and labels
    # with an entry at or above the precision, which is the zero series
    import sphvar.oracle as oracle
    height, prec = 3, 10
    m = oracle._MODELS[space]
    size = m.k + m.twisted
    high = [(prec,) * size, (0,) * (size - 1) + (prec,),
            (0,) * (size - 1) + (prec + 1,)]
    labels = [l for l in _window(height, size) + high
              if oracle._divisors(l[:m.k]) is not None]
    assert min(min(l) for l in labels) < 0
    assert sum(max(l) >= prec for l in labels) >= 2
    for l in labels:
        assert [_fields(c) for c in stratum_point(space, l, p, prec).coords] \
            == [_fields(c) for c in _chain_stratum_coords(space, l, p, prec)]


@pytest.mark.parametrize("space", SPACES)
def test_stratum_point_builds_each_label_part_alone(space):
    # transition_counts keys its memos by l[:k] and l[k:]: labels that
    # share a row part must get the same rows, and labels that share a
    # scalar part the same scalar
    import sphvar.oracle as oracle
    m = oracle._MODELS[space]
    k, kn = m.k, m.k * m.n
    labels = [l for l in _window(4, k + m.twisted)
              if oracle._divisors(l[:k]) is not None]
    assert min(min(l) for l in labels) < 0
    rows, scalars = {}, {}
    for l in labels:
        c = stratum_point(space, l, 3, 12).coords
        assert rows.setdefault(l[:k], c[:kn]) == c[:kn]
        assert scalars.setdefault(l[k:], c[kn:]) == c[kn:]


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


def test_stratum_labels_match_the_benchmark_copy(benchmark_ops):
    for space in SPACES:
        for h in range(7):
            assert stratum_labels(space, h) == \
                benchmark_ops.translate_labels(space, h)


def test_mismatched_inputs_raise():
    with pytest.raises(ValueError, match="Q_2 and Q_3"):
        ts({0: 1}, p=2) + ts({0: 1}, p=3)
    with pytest.raises(ValueError, match="Q_2 and Q_3"):
        ts({0: 1}, p=2) * ts({0: 1}, p=3)
    with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x3"):
        mat_mul(mat_id(P, PREC, 2), mat_id(P, PREC, 3))
    with pytest.raises(ValueError, match="cannot multiply 1x2 by 3x3"):
        mat_mul([mat_id(P, PREC, 2)[0]], mat_id(P, PREC, 3))
    # a coset of the wrong size is refused, not truncated to the space
    reps = [mat_id(P, PREC, 3)]
    with pytest.raises(ValueError, match="cannot multiply 1x2 by 3x3"):
        transition_counts("UGL2", reps, [(0, 0)], P, PREC)
    with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x3"):
        transition_counts("MAT2", reps, [(0, 0)], P, PREC)


def test_wrong_representative_is_an_internal_error(monkeypatch):
    import sphvar.oracle as oracle
    monkeypatch.setattr(oracle, "orbit_invariant", lambda x: (-1,))
    with pytest.raises(RuntimeError, match="representative"):
        integral_table("A2", 1, P, PREC)
    with pytest.raises(RuntimeError, match="representative"):
        transition_counts("A2", [mat_id(P, PREC, 2)], [(0,)], P, PREC)


def test_a_wrong_scalar_at_a_later_label_is_an_internal_error(monkeypatch):
    # the scalar is wrong only for b = 2, which first appears at the ninth
    # label of the UGL2 window, (-2, 2)
    import sphvar.oracle as oracle
    build = oracle.stratum_point

    def wrong_scalar(space, label, p, prec):
        x = build(space, label, p, prec)
        if label[1] != 2:
            return x
        return LatticePoint(space, x.coords[:-1] + (tp(3, p, prec),))

    monkeypatch.setattr(oracle, "stratum_point", wrong_scalar)
    height, q = 4, 3
    prec = 2 * height + 4
    window = _window(height, 2)
    assert [l[1] for l in window].index(2) == window.index((-2, 2)) == 8
    with pytest.raises(RuntimeError, match=r"representative of \(-2, 2\)"):
        transition_counts("UGL2", coset_reps("GL2", "t1", q, prec), window,
                          q, prec)


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

def mat_id(p, prec, n):
    one, zero = TruncSeries.t_pow(p, prec, 0), TruncSeries.of(p, prec, {})
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


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


def test_coset_lists_are_bounded():
    assert len(coset_reps("GL2", "t1", 4999, 4)) == MAX_COSETS == 5000
    assert len(coset_reps("GL3", "t1", 67, 4)) == 67 * 67 + 67 + 1
    for group, op, p in (("GL2", "t1", 5003), ("GL3", "t1", 71),
                         ("GL3", "wedge", 71), ("GL3", "t1", 1000000007)):
        with pytest.raises(ValueError, match="at most 5000"):
            coset_reps(group, op, p, 4)
    # small lists whatever the prime, and an unknown operator stays unknown
    assert len(coset_reps("GL3", "central", 1000000007, 4)) == 1
    with pytest.raises(ValueError, match="unknown operator"):
        coset_reps("GL2", "wedge", 1000000007, 4)


# the coweight of each operator, written out independently of the oracle
COWEIGHTS = {("GL2", "unit"): (0, 0), ("GL2", "t1"): (1, 0),
             ("GL2", "central"): (1, 1), ("GL3", "unit"): (0, 0, 0),
             ("GL3", "t1"): (1, 0, 0), ("GL3", "wedge"): (1, 1, 0),
             ("GL3", "central"): (1, 1, 1)}


def _is_integral(m):
    return all(e.is_zero() or e.val() >= 0 for row in m for e in row)


def _least_val(entries):
    return min(e.val() for e in entries if not e.is_zero())


@pytest.mark.parametrize("group, op", COWEIGHTS)
@pytest.mark.parametrize("p", [2, 3])
def test_coset_reps_lie_in_distinct_left_cosets(group, op, p):
    # g_i K = g_j K exactly when g_i^-1 g_j lies in K, i.e. is integral
    # (its determinant is then a unit, both having the same valuation)
    reps = coset_reps(group, op, p, 12)
    for g, h in itertools.combinations(reps, 2):
        assert not _is_integral(mat_mul(mat_inv(g), h))


@pytest.mark.parametrize("group, op", COWEIGHTS)
@pytest.mark.parametrize("p", [2, 3])
def test_coset_reps_have_the_elementary_divisors_of_mu(group, op, p):
    # the least valuation of an i x i minor is the sum of the i smallest
    # elementary divisors
    d = sorted(COWEIGHTS[group, op])
    n = len(d)
    for g in coset_reps(group, op, p, 12):
        assert _least_val([e for row in g for e in row]) == d[0]
        if n == 3:
            minors = [mat_det([[g[i][j] for j in cols] for i in rows])
                      for rows in itertools.combinations(range(3), 2)
                      for cols in itertools.combinations(range(3), 2)]
            assert _least_val(minors) == d[0] + d[1]
        assert mat_det(g).val() == sum(d)


@pytest.mark.parametrize("group, op", COWEIGHTS)
@pytest.mark.parametrize("p", [2, 3])
def test_coset_count_is_the_satake_transform_at_q_rho(group, op, p):
    # |K t^mu K / K| = sum over lambda of Sat_lambda q^<rho, lambda>:
    # q + 1, q^2 + q + 1 or 1
    rd = root_datum("GL", int(group[2:]))
    satake = minuscule_satake(rd, COWEIGHTS[group, op])
    want = sum((c * QLaurent.q_pow(sum(r * x for r, x in zip(rd.rho, lam))))
               .specialize(p) for lam, c in satake.items())
    assert len(coset_reps(group, op, p, 8)) == want


# sha256 of the repr of each representative's entries' terms, in list
# order, recorded from the coset lists over F_p((t)) at prec = 8
COSET_DIGESTS = {
    ("GL2", "t1", 2):
        "2916c9d0a64edbbe652eef4a06411c482c7ce2691b84804f2d416d73fc64baac",
    ("GL2", "t1", 3):
        "5837e84e1de76a4637c8e8ea76cf8f2eee3d9fd7e1e6f106200dc49673d761ef",
    ("GL3", "t1", 2):
        "e55ca0e74bee589895f02643c43660c4f87d0c5b58297a437806f1a2fcb99e47",
    ("GL3", "t1", 3):
        "11ad854dfe6b19d94a60ae846a3489d4642583da372aca0c97dc5d22b6269718",
    ("GL3", "wedge", 2):
        "abfd99fd383ae51fd676bfc7a486dfab0845cbe0a2389132ef93ab24cef88b15",
    ("GL3", "wedge", 3):
        "ae7a75590f296227fc00519dcdb28d2f4fdb4c2a6c147a0529795ca24fb8424a",
}


@pytest.mark.parametrize("group, op, p", COSET_DIGESTS)
def test_coset_reps_come_in_the_recorded_order(group, op, p):
    # each polynomial entry sum c_i p^i has the digits c_i, in the order
    # the Hermite forms were enumerated in over F_p((t))
    reps = [[[e.terms for e in row] for row in g]
            for g in coset_reps(group, op, p, 8)]
    assert _digest(reps) == COSET_DIGESTS[group, op, p]


def test_coset_reps_invert_nothing(monkeypatch):
    import sphvar.oracle as oracle

    def refuse(m):
        raise AssertionError("mat_inv called")
    monkeypatch.setattr(oracle, "mat_inv", refuse)
    for group, op in COWEIGHTS:
        coset_reps(group, op, 3, 8)


def test_transition_counts_take_one_determinant_per_coset(monkeypatch):
    import sphvar.oracle as oracle
    reps = coset_reps("GL3", "t1", 3, 10)
    labels = stratum_labels("PPGL3", 2)
    by_pair = {}
    for l in labels:
        x = stratum_point("PPGL3", l, 3, 10)
        for g in reps:
            key = (l, ref_orbit_invariant(right_translate(x, g)))
            by_pair[key] = by_pair.get(key, 0) + 1
    calls = []
    det = oracle.mat_det
    monkeypatch.setattr(oracle, "mat_det",
                        lambda m: calls.append(len(m) == 3) or det(m))
    assert transition_counts("PPGL3", reps, labels, 3, 10) == by_pair
    assert sum(calls) == len(reps) == 13


@pytest.mark.parametrize("space,group", [("A2", "GL2"), ("UGL2", "GL2"),
                                         ("PPGL3", "GL3")])
def test_inverse_cosets_are_refused_on_a_one_sided_space(space, group):
    # the inverses of left cosets are right cosets, and one-sided labels
    # are not invariant under the left action that tells them apart
    reps = coset_reps(group, "t1", 2, PREC)
    label = stratum_labels(space, 1)[0]
    with pytest.raises(ValueError, match="two-sided space, not on " + space):
        transition_counts(space, reps, [label], 2, PREC, inverse=True)
    assert transition_counts(space, reps, [label], 2, PREC)


def test_satake_mismatches_specialize_each_shift_once(monkeypatch):
    from sphvar import catalog
    route = catalog.load("borel-gl2").routes[0]
    shifts = pp_shifts(route, minuscule_satake(route.group, (1, 0)), 1)
    calls = []
    specialize = QLaurent.specialize
    monkeypatch.setattr(QLaurent, "specialize",
                        lambda c, q: calls.append(q) or specialize(c, q))
    assert satake_mismatches("t1", "UGL2", 8, 5) == []
    # once per shift, not once per (window label, shift)
    assert calls == [5] * len(shifts) and len(shifts) == 2


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


def _naive_counts(space, reps, labels, p, prec, inverse=False):
    """transition_counts as one reference label per label and coset."""
    gs = [mat_inv(g) for g in reps] if inverse else reps
    out = {}
    for l in labels:
        x = stratum_point(space, l, p, prec)
        for g in gs:
            key = (tuple(l), ref_orbit_invariant(right_translate(x, g)))
            out[key] = out.get(key, 0) + 1
    return out


def _window(height, rank):
    return [l for l in itertools.product(range(-height, height + 1),
                                         repeat=rank)
            if sum(map(abs, l)) <= height]


@pytest.mark.parametrize("space, group, op, rank", [
    ("A2", "GL2", "t1", 1), ("A2", "GL2", "central", 1),
    ("UGL2", "GL2", "t1", 2), ("UGL2", "GL2", "central", 2),
    ("PPGL3", "GL3", "t1", 2), ("PPGL3", "GL3", "wedge", 2)])
@pytest.mark.parametrize("as_lists", (False, True))
def test_transition_counts_equal_the_naive_count(space, group, op, rank,
                                                 as_lists):
    # the memo keys on the exact series of a point's rows and scalar, so
    # every label of the window, negative ones too, sees the naive count,
    # key for key in the same order
    height, q = 3, 3
    prec = 2 * height + 4
    reps = coset_reps(group, op, q, prec)
    labels = _window(height, rank)
    assert min(min(l) for l in labels) == -height
    if as_lists:
        labels = [list(l) for l in labels]
    got = transition_counts(space, reps, labels, q, prec)
    assert list(got.items()) == list(
        _naive_counts(space, reps, labels, q, prec).items())


def test_transition_counts_build_a_point_only_for_a_new_label_part(
        monkeypatch):
    # the memos are keyed by label part, so a label builds and checks its
    # point only when its row part l[:1] or scalar part l[1:] is new: 13 of
    # the 41 labels of the UGL2 window, 19 of the 85 of the PPGL3 one; no
    # series is hashed
    import sphvar.oracle as oracle
    builds, hashes = [], []
    build = oracle.stratum_point
    monkeypatch.setattr(oracle, "stratum_point",
                        lambda *a: builds.append(a[1]) or build(*a))
    series_hash = TruncSeries.__hash__
    monkeypatch.setattr(TruncSeries, "__hash__",
                        lambda s: hashes.append(1) or series_hash(s))
    for space, group, height, labels, points in (("UGL2", "GL2", 4, 41, 13),
                                                 ("PPGL3", "GL3", 6, 85, 19)):
        prec = 2 * height + 4
        reps = coset_reps(group, "t1", 3, prec)
        window = _window(height, 2)
        builds.clear()
        assert transition_counts(space, reps, window, 3, prec)
        assert (len(window), len(builds)) == (labels, points)
        assert builds == [l for i, l in enumerate(window)
                          if l[:1] not in {w[:1] for w in window[:i]}
                          or l[1:] not in {w[1:] for w in window[:i]}]
    assert hashes == []


@pytest.mark.parametrize("op", ("t1", "central"))
@pytest.mark.parametrize("as_lists", (False, True))
def test_inverse_transition_counts_equal_the_naive_count_on_mat2(op,
                                                                  as_lists):
    prec = 16
    reps = coset_reps("GL2", op, 3, prec)
    labels = stratum_labels("MAT2", 4)
    if as_lists:
        labels = [list(l) for l in labels]
    got = transition_counts("MAT2", reps, labels, 3, prec, inverse=True)
    assert list(got.items()) == list(
        _naive_counts("MAT2", reps, labels, 3, prec, inverse=True).items())


@pytest.mark.parametrize("q", (2, 3, 5))
@pytest.mark.parametrize("space", SPACES)
def test_int_transition_counts_are_the_chain_counts(space, q):
    # every operator of the space's group on the labels of a Satake window,
    # negative entries too, and on MAT2 the inverse cosets as well: the int
    # counts are one reference label per label and coset of right_translate,
    # after mat_inv for an inverse coset.  Coset by coset too: on MAT2 the
    # left cosets p^-1 G of K t^-1 K give the counts of the right cosets
    # g^-1, labels being invariant under the transpose, so only one coset
    # at a time tells adj(G) from G
    m = oracle._MODELS[space]
    group, height = "GL%d" % m.n, 5
    prec = 2 * height + 4
    labels = [l for l in _window(height, m.k + m.twisted)
              if oracle._divisors(l[:m.k]) is not None]
    assert min(min(l) for l in labels) == -height
    ops = [op for g, op in COWEIGHTS if g == group]
    for op in ops:
        reps = coset_reps(group, op, q, prec)
        for inverse in (False, True) if m.k > 1 else (False,):
            got = transition_counts(space, reps, labels, q, prec,
                                    inverse=inverse)
            assert list(got.items()) == list(_naive_counts(
                space, reps, labels, q, prec, inverse=inverse).items())
            for g in reps:
                assert transition_counts(space, [g], labels, q, prec,
                                         inverse=inverse) == _naive_counts(
                    space, [g], labels, q, prec, inverse=inverse)


def test_satake_window_translates_each_row_block_once(monkeypatch):
    # 13 distinct rows (0, 0, t^a), a in -6..6, times 13 cosets of GL3 t1
    # at q = 3; one translate per window label and coset would be 1,105.
    # The 13 distinct scalars t^b are read once per coset too
    read = _ReadBlocks(monkeypatch)
    assert satake_mismatches("t1", "PPGL3", 6, 3) == []
    kinds = [(kind, len(numbers)) for kind, numbers in read.blocks]
    assert kinds.count(((1, 3), 3)) == 169 == 13 * len(
        coset_reps("GL3", "t1", 3, 16))
    assert kinds.count(("number", 1)) == 169 and len(kinds) == 338


def _truncated(x, prec):
    """x known only mod p^prec."""
    return TruncSeries._make(x.p, prec, x._v, x._x)


def test_ppgl3_translates_match_the_chain_on_the_satake_window(monkeypatch):
    # every row block and scalar transition_counts reads, in the order it
    # reads them, against the chain of products and sums: the same number,
    # known mod p^(prec + v), v = min(0, least valuation of the part),
    # where the chain may know a coordinate to a higher power
    height, q = 4, 3
    prec = 2 * height + 4
    reps = coset_reps("GL3", "wedge", q, prec)
    window = [l for l in itertools.product(range(-height, height + 1),
                                           repeat=2)
              if abs(l[0]) + abs(l[1]) <= height]
    assert min(min(l) for l in window) == -height
    want, rows_seen, scalars_seen = [], set(), set()
    for l in window:
        x = stratum_point("PPGL3", l, q, prec).coords
        if l[0] not in rows_seen:
            rows_seen.add(l[0])
            want += [(min(0, l[0]), _chain_mat_mul([list(x[:3])], g)[0])
                     for g in reps]
        if l[1] not in scalars_seen:
            scalars_seen.add(l[1])
            want += [(min(0, l[1]), [x[3] * _chain_det(g)]) for g in reps]
    read = _ReadBlocks(monkeypatch)
    mul = _CountingMul(monkeypatch)
    assert transition_counts("PPGL3", reps, window, q, prec)
    assert mul.calls == 0
    got = [numbers for _, numbers in read.blocks]
    assert [kind for kind, _ in read.blocks] == [
        (1, 3) if len(chain) == 3 else "number" for _, chain in want]
    assert len(got) == len(want) == 2 * 9 * len(reps)
    for entries, (v, chain) in zip(got, want):
        assert all(e.prec == prec + v <= c.prec for e, c in zip(entries, chain))
        assert entries == [_truncated(c, prec + v) for c in chain]


# --- convolution -----------------------------------------------------------

def test_unit_operator_fixes_everything():
    reps = coset_reps("GL2", "unit", 2, PREC)
    f = {(0, 0): 1, (1, 1): Fraction(5, 3), (2, 3): -2}
    window = [(a, b) for a in range(4) for b in range(4)]
    counts = transition_counts("UGL2", reps, window, 2, PREC)
    assert hecke_convolve(counts, f) == f


def test_convolution_by_hand():
    reps = coset_reps("GL2", "t1", 2, PREC)
    f = {(0, 1): 1, (1, 1): 1}
    got = hecke_convolve(
        transition_counts("UGL2", reps, [(0, 0), (1, 0)], 2, PREC), f)
    # (0,0) sees (0,1) twice and (1,1) once; (1,0) sees (1,1) twice
    assert got == {(0, 0): 3, (1, 0): 2}


def test_convolution_is_associative():
    reps = coset_reps("GL2", "t1", 2, PREC)
    prod = [mat_mul(g, h) for g in reps for h in reps]
    f = {(1, 1): 1, (0, 2): 2}
    big = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    small = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    inner = hecke_convolve(transition_counts("UGL2", reps, big, 2, PREC), f)
    nested = hecke_convolve(transition_counts("UGL2", reps, small, 2, PREC),
                            inner)
    direct = hecke_convolve(transition_counts("UGL2", prod, small, 2, PREC), f)
    assert nested == direct


def test_gj_recursion_closes():
    assert gj_recursion_mismatches(2) == []
    assert gj_recursion_mismatches(3) == []


def test_gj_recursion_builds_each_transition_table_once(monkeypatch):
    # the counts do not depend on F_i: one table for t1 and one for the
    # central operator, at every degree; the inverse cosets act by their
    # int adjugates, and nothing is inverted
    calls = []
    for name in ("transition_counts", "mat_inv"):
        def counted(*args, _fn=getattr(oracle, name), _name=name, **kw):
            calls.append(_name)
            return _fn(*args, **kw)
        monkeypatch.setattr(oracle, name, counted)
    assert gj_recursion_mismatches(3) == []
    assert calls.count("transition_counts") == 2
    assert calls.count("mat_inv") == 0


# --- coset enumeration of the matrix strata --------------------------------

def test_hermite_label_counts():
    got = mat2_coset_label_counts(2, 14, 3)
    assert got == {(0, 0): 1, (0, 1): 3, (0, 2): 6, (1, 2): 1,
                   (0, 3): 12, (1, 3): 3}
    got = mat2_coset_label_counts(3, 14, 2)
    assert got == {(0, 0): 1, (0, 1): 4, (0, 2): 12, (1, 2): 1}


def test_det_valuation_counts_match_classical_formula():
    # the sublattices of index p^k in o^2 number 1 + p + ... + p^k
    for p in (2, 3):
        counts = mat2_coset_label_counts(p, 16, 4)
        series = [sum(c for (a, kk), c in counts.items() if kk == k)
                  for k in range(5)]
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


@pytest.mark.parametrize("space, label", [("MAT2", (1, 3)), ("PPGL3", (1, 2))])
def test_translates_replay_the_random_stream(space, label, monkeypatch):
    # the draws, by hand: g in GL_n(o) on the right, then, on MAT2 only,
    # h in GL_2(o) on the left; each translate is what the check labels
    import sphvar.oracle as oracle
    p, prec, trials, seed = 3, 12, 6, 11
    read = _ReadBlocks(monkeypatch)
    assert translate_invariance_mismatches(space, label, p, prec, trials,
                                           seed=seed) == []
    rng, x = random.Random(seed), stratum_point(space, label, p, prec).coords
    want = []
    for _ in range(trials):
        if space == "MAT2":
            g = random_unimodular(rng, p, prec, 2)
            h = random_unimodular(rng, p, prec, 2)
            m = mat_mul(h, mat_mul([list(x[:2]), list(x[2:])], g))
            want.append(tuple(m[0] + m[1]))
        else:
            g = random_unimodular(rng, p, prec, 3)
            want.append(tuple(mat_mul([x[:3]], g)[0])
                        + (x[3] * mat_det(g),))
    assert read.points(space) == want


def _chain_translates(space, label, p, prec, trials, seed):
    """The translates the check labels, replayed: right_translate by the
    drawn g, then, when k > 1, left_translate by the drawn h."""
    import sphvar.oracle as oracle
    m = oracle._MODELS[space]
    rng, x = random.Random(seed), stratum_point(space, label, p, prec)
    out = []
    for _ in range(trials):
        y = right_translate(x, random_unimodular(rng, p, prec, m.n))
        if m.k > 1:
            y = left_translate(y, random_unimodular(rng, p, prec, m.k))
        out.append(y)
    return out


# labels with negative entries, beside the integral ones: the int
# translates of a row space's rows and of a twisted scalar are exact on any
# point, those of MAT2's rows only on a point with integral rows
_OFF_INTEGRAL = {"A2": [(-3,), (-1,)], "UGL2": [(-2, -1), (1, -3)],
                 "PPGL3": [(1, -3), (-2, 0)]}


@pytest.mark.parametrize("p", (2, 3, 5, 10007))
@pytest.mark.parametrize("space", SPACES + ("MAT3",))
def test_int_translates_are_the_chain_translates(space, p, monkeypatch):
    # every block the check labels stands for, number for number and
    # power for power, the point right_translate and left_translate give
    # for the same draws
    import sphvar.oracle as oracle
    monkeypatch.setitem(oracle._MODELS, "MAT3", oracle._Model(3, 3))
    read = _ReadBlocks(monkeypatch)
    prec, trials = 10, 3 if p == 10007 else 8
    labels = stratum_labels(space, 3) + _OFF_INTEGRAL.get(space, [])
    assert len(labels) >= 4
    for seed, label in enumerate(labels):
        read.blocks.clear()
        assert translate_invariance_mismatches(space, label, p, prec, trials,
                                               seed=seed) == []
        want = _chain_translates(space, label, p, prec, trials, seed)
        assert [[_fields(e) for e in y] for y in read.points(space)] == [
            [_fields(e) for e in y.coords] for y in want]


# the trials of 60, at p = 2 and prec 10, on which a d_1 read off the last
# coordinate is reported
_LAST_COORDINATE_REPORTS = {("A2", (1,)): 22, ("UGL2", (1, 2)): 22,
                            ("PPGL3", (0, 1)): 27, ("MAT2", (1, 3)): 38}


def test_translate_check_reports_a_row_label_read_off_the_last_coordinate(
        monkeypatch):
    # d_1 must be the least coordinate valuation: a label that reads the
    # last coordinate's instead, as the number it stands for, is caught on
    # every space
    import sphvar.oracle as oracle
    row_label = oracle._row_label
    monkeypatch.setattr(oracle, "_row_label", lambda p, prec, v, ints, k, n: (
        (_as_numbers(p, prec, v, ints[-1:])[0]._v,)
        + row_label(p, prec, v, ints, k, n)[1:]))
    assert {(space, label): len(translate_invariance_mismatches(
                space, label, 2, 10, 60))
            for space, label in _LAST_COORDINATE_REPORTS} == \
        _LAST_COORDINATE_REPORTS


@pytest.mark.parametrize("p", (2, 3))
@pytest.mark.parametrize("space, label", [
    ("A2", (-3,)), ("UGL2", (-2, -1)), ("PPGL3", (1, -3)), ("MAT2", (-2, -2))])
def test_translate_check_passes_off_the_integral_points(space, label, p):
    assert translate_invariance_mismatches(space, label, p, 10, 60) == []


@pytest.mark.parametrize("args, match", [
    (("B7", (1,), 2, 8, 3), "unknown space 'B7'"),
    (("MAT2", (2, 1), 2, 8, 3), "not a label of MAT2"),
    (("A2", (1,), 2, 0, 3), "precision must be >= 1"),
    (("UGL2", (1, 0), 1, 8, 3), "need p >= 2")])
def test_translate_check_refuses_what_it_cannot_draw_or_label(args, match):
    with pytest.raises(ValueError, match=match):
        translate_invariance_mismatches(*args)


def _chain_invariance_mismatches(space, label, p, prec, trials, seed=0):
    """translate_invariance_mismatches on the replayed chain translates."""
    bad = []
    for i, y in enumerate(_chain_translates(space, label, p, prec, trials,
                                            seed)):
        got = ref_orbit_invariant(y)
        if got != tuple(label):
            bad.append((i, got))
    return bad


def test_translate_check_answers_as_the_chain_on_degenerate_labels():
    # every label with entries in -4..9 at prec 8 (1,204 cases, labels of
    # no stratum and points that vanish mod p^8 among them): the same
    # mismatches or the same error, but for the text of one: a MAT2 point
    # with d_1 < 0 has its whole left translate stated mod p^(8 + d_1),
    # where the chain knows some coordinates to a higher power, so a
    # vanishing minor is reported as 0 mod a power 1 or 2 lower
    import sphvar.oracle as oracle
    cases, differ = 0, []
    for space in SPACES:
        m = oracle._MODELS[space]
        for label in itertools.product(range(-4, 10), repeat=m.k + m.twisted):
            for p in (2, 3):
                cases += 1
                got, want = (_outcome(lambda: check(space, label, p, 8, 6))
                             for check in (translate_invariance_mismatches,
                                           _chain_invariance_mismatches))
                if got != want:
                    differ.append((space, label, p, got, want))
    assert cases == 1204 and len(differ) == 24
    for space, label, p, got, want in differ:
        assert space == "MAT2" and label[0] < 0
        assert got[0] == want[0] == "PrecisionError"
        lo, hi = (int(e[1].rsplit("^", 1)[1]) for e in (got, want))
        assert got[1] == "vector is 0 mod %d^%d" % (p, lo)
        assert want[1] == "vector is 0 mod %d^%d" % (p, hi)
        assert 1 <= hi - lo <= 2


# the blocks of the model spaces, MAT3 among them: (k, n, twisted)
_BLOCK_SHAPES = {"A2": (1, 2, False), "UGL2": (1, 2, True),
                 "PPGL3": (1, 3, True), "MAT2": (2, 2, False),
                 "MAT3": (3, 3, False)}


@st.composite
def _int_block(draw):
    """(p, prec, v, ints, k, n, scalar): a k x n block of ints known mod
    p^prec, zeros, a common power of p, multiples of p^prec and negative
    entries among them, sometimes with a row a multiple of the first plus a
    high power of p, and on a twisted shape a scalar (v, int)."""
    k, n, twisted = _BLOCK_SHAPES[draw(st.sampled_from(sorted(_BLOCK_SHAPES)))]
    p = draw(st.sampled_from((2, 3, 5, 10007)))
    prec, v = draw(st.integers(1, 12)), draw(st.integers(-4, 4))
    entry = st.one_of(st.just(0), st.builds(
        lambda a, u: p ** a * u, st.integers(0, prec + 1),
        st.integers(-p * p, p * p)))
    ints = draw(st.lists(entry, min_size=k * n, max_size=k * n))
    if k > 1 and draw(st.booleans()):
        c, e = draw(st.integers(-p, p)), draw(st.integers(0, prec + 1))
        r = draw(st.integers(1, k - 1))
        ints[r * n:r * n + n] = [c * a + p ** e * b for a, b in
                                 zip(ints[:n], ints[r * n:r * n + n])]
    common = p ** draw(st.integers(0, 3))
    ints = [common * e for e in ints]
    scalar = (draw(st.integers(-4, 4)), draw(entry)) if twisted else None
    return p, prec, v, ints, k, n, scalar


def _power(p, e):
    """The exponent of p in the int e, None for 0."""
    if not e:
        return None
    a = 0
    while not e % p:
        e //= p
        a += 1
    return a


def _stated_label(p, prec, v, ints, k, n):
    """The label the reader's contract states, off the exact minors: d_i is
    i v plus the least valuation of the i x i minors (Leibniz), each known
    mod p^(prec + (i - 1) w_1), w_1 = d_1 - v; the first vanishing part
    stated as the error it raises."""
    label, w = (), 0
    for i in range(1, k + 1):
        bound = prec + (i - 1) * w
        vals = [_power(p, _leibniz([[ints[r * n + j] for j in cols]
                                    for r in rows]))
                for rows in itertools.combinations(range(k), i)
                for cols in itertools.combinations(range(n), i)]
        least = min([a for a in vals if a is not None] + [bound])
        if least >= bound:
            return "PrecisionError", "vector is 0 mod %d^%d" % (p, i * v + bound)
        label += (i * v + least,)
        if i == 1:
            w = least
    return label


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_int_block())
def test_int_label_reader_answers_as_the_number_reader(block):
    # the int reader against the reference over the numbers the block
    # stands for: on k <= 2 the same label or the same error text; on
    # MAT3, whose chain knows some minors to a higher power than the int
    # bound, the same label wherever both answer.  Each answer is also the
    # one the reader's stated precision gives off the exact minors
    p, prec, v, ints, k, n, scalar = block
    numbers = _as_numbers(p, prec, v, ints)

    def int_label():
        label = oracle._row_label(p, prec, v, ints, k, n)
        if scalar is None:
            return label
        return label + (oracle._val(p, prec, scalar[0], [scalar[1]],
                                    "number"),)

    def ref_label():
        label = _ref_row_label(numbers, k, n)
        if scalar is None:
            return label
        return label + (_as_numbers(p, prec, *scalar[:1],
                                    scalar[1:])[0].val(),)

    got, want = _outcome(int_label), _outcome(ref_label)
    if k <= 2:
        assert got == want
    elif got[0] != "PrecisionError" and want[0] != "PrecisionError":
        assert got == want
    assert _outcome(lambda: oracle._row_label(p, prec, v, ints, k, n)) == \
        _stated_label(p, prec, v, ints, k, n)


# --- malformed shapes ------------------------------------------------------

def _rect(rows, cols):
    return [[tp(0) if i == j else ts({}) for j in range(cols)]
            for i in range(rows)]


def test_right_translate_refuses_a_wide_matrix_on_mat2():
    # the reference and transition_counts, either way round, refuse alike
    x = stratum_point("MAT2", (0, 1), P, PREC)
    with pytest.raises(ValueError, match="cannot multiply 2x2 by 2x3"):
        right_translate(x, _rect(2, 3))
    for inverse in (False, True):
        with pytest.raises(ValueError, match="cannot multiply 2x2 by 2x3"):
            transition_counts("MAT2", [_rect(2, 3)], [(0, 1)], P, PREC,
                              inverse=inverse)


def test_left_translate_refuses_a_tall_matrix_on_mat2():
    x = stratum_point("MAT2", (0, 1), P, PREC)
    with pytest.raises(ValueError, match="cannot multiply 3x2 by 2x2"):
        left_translate(x, _rect(3, 2))
    # transition_counts acts on the right only: a tall coset is x times a
    # 3 x 2 matrix
    for inverse in (False, True):
        with pytest.raises(ValueError, match="cannot multiply 2x2 by 3x2"):
            transition_counts("MAT2", [_rect(3, 2)], [(0, 1)], P, PREC,
                              inverse=inverse)


def test_right_translate_refuses_a_wide_matrix_on_ugl2():
    # refused before det(g) reads the leading 2 x 2 of g
    x = stratum_point("UGL2", (0, 1), P, PREC)
    with pytest.raises(ValueError, match="cannot multiply 1x2 by 2x3"):
        right_translate(x, _rect(2, 3))
    with pytest.raises(ValueError, match="cannot multiply 1x2 by 2x3"):
        transition_counts("UGL2", [_rect(2, 3)], [(0, 1)], P, PREC)


def test_orbit_invariant_refuses_a_long_a2_point():
    with pytest.raises(ValueError, match="4 coordinates for a 1x2 A2 point"):
        orbit_invariant(LatticePoint("A2", (tp(0),) * 4))


def test_orbit_invariant_refuses_a_short_mat2_point():
    with pytest.raises(ValueError, match="3 coordinates for a 2x2 MAT2 point"):
        orbit_invariant(LatticePoint("MAT2", (tp(0),) * 3))


# --- the labels against the engine -----------------------------------------

@pytest.mark.parametrize("key, space", [
    ("a1-gl1", "A2"), ("a2-sl2", "A2"), ("a2-sl2-nocenter", "A2"),
    ("borel-gl2", "UGL2"), ("pp-gl3", "PPGL3"), ("godement-jacquet-2", "MAT2")])
def test_integral_labels_are_the_engines_integral_strata(key, space):
    datum = catalog.load(key).datum
    for h in range(5):
        labels = stratum_labels(space, h, integral=True)
        assert len(set(labels)) == len(labels)
        assert set(labels) == set(enumerate_orbits(datum, h,
                                                   integral_only=True))


def test_a_negative_matrix_label_reads_back():
    x = stratum_point("MAT2", (-2, -1), P, PREC)
    assert orbit_invariant(x) == (-2, -1)


def test_one_table_row_is_a_new_space(monkeypatch):
    # the 3 x 3 matrices under GL_3(o) x GL_3(o), kept out of SPACES
    import sphvar.oracle as oracle
    monkeypatch.setitem(oracle._MODELS, "MAT3", oracle._Model(3, 3))
    datum = catalog.load("godement-jacquet-3").datum
    sizes = []
    for h in range(6):
        labels = stratum_labels("MAT3", h)
        assert set(labels) == set(enumerate_orbits(datum, h,
                                                   integral_only=True))
        sizes.append(len(labels))
    assert sizes == [1, 2, 3, 5, 7, 9]
    for q in (2, 3):
        for label in labels:
            x = stratum_point("MAT3", label, q, 18)
            assert orbit_invariant(x) == label
            assert translate_invariance_mismatches("MAT3", label, q, 18, 10,
                                                   seed=q) == []
    assert "MAT3" not in SPACES


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
    # any other kappa is refused by pp_shifts, on the Borel route too
    for space in ("PPGL3", "UGL2"):
        with pytest.raises(ValueError, match=r"kappa must be \+1 or -1"):
            satake_mismatches("t1", space, 2, 2, kappa=0)


@pytest.mark.parametrize("space,key", [("UGL2", "borel-gl2"),
                                       ("PPGL3", "pp-gl3")])
def test_satake_comparison_reads_the_catalog_route(monkeypatch, space, key):
    # swapping the label rows of the catalog's route breaks the comparison
    from sphvar import catalog
    entry = catalog.load(key)
    route = entry.routes[0]
    swapped = route.replace(label_map=LatticeMap.of(route.label_map.rows[::-1]))
    assert swapped.label_map.rows[0] == (1,) * route.group.rank
    monkeypatch.setitem(catalog._LOADED, key,
                        entry.replace(routes=(swapped,)))
    assert satake_mismatches("t1", space, 2, 2) != []


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


def test_satake_mismatches_lists_every_label_in_window_order(monkeypatch):
    import sphvar.oracle as oracle
    # doubling the Satake transform doubles every wanted count
    true_satake = oracle.minuscule_satake
    monkeypatch.setattr(oracle, "minuscule_satake", lambda rd, mu: {
        lam: c.scale(2) for lam, c in true_satake(rd, mu).items()})
    for space, op, height in (("UGL2", "t1", 2), ("PPGL3", "wedge", 1)):
        bad = satake_mismatches(op, space, height, 2)
        window = [l for l in itertools.product(range(-height, height + 1),
                                               repeat=2)
                  if abs(l[0]) + abs(l[1]) <= height]
        assert [l for l, _, _ in bad] == window
        for l, got, want in bad:
            assert got and want == [(m, 2 * c) for m, c in got]


def test_satake_mismatches_list_the_one_label_that_disagrees(monkeypatch):
    import sphvar.oracle as oracle
    height, q = 2, 2
    prec = 2 * height + 4
    true_counts = oracle.transition_counts
    agreed = true_counts("UGL2", coset_reps("GL2", "t1", q, prec),
                         _window(height, 2), q, prec)
    l, target = extra = list(agreed)[5]

    def one_extra(*args):
        out = true_counts(*args)
        out[extra] += 1
        return out
    monkeypatch.setattr(oracle, "transition_counts", one_extra)
    want = sorted((t, c) for (s, t), c in agreed.items() if s == l)
    got = [(t, c + (t == target)) for t, c in want]
    assert satake_mismatches("t1", "UGL2", height, q) == [(l, got, want)]


def test_satake_mismatches_keep_a_fractional_shift_coefficient(monkeypatch):
    # q^-1 at q = 2 is 1/2, which no count matches and nothing rounds; the
    # whole coefficient q at q = 2 is the int 2
    import sphvar.oracle as oracle
    monkeypatch.setattr(oracle, "pp_shifts", lambda route, satake, kappa: [
        ((0, 0), QLaurent.q_pow(-1)), ((1, 0), QLaurent.q_pow(1))])
    bad = satake_mismatches("unit", "UGL2", 1, 2)
    assert bad == [(l, [(l, 1)], [(l, Fraction(1, 2)), ((l[0] + 1, l[1]), 2)])
                   for l in _window(1, 2)]
    assert all(type(want[1][1]) is int for _, _, want in bad)
