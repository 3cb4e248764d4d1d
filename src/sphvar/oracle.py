"""Brute-force local models: p-adic numbers, stratum labels, coset sums.

Everything here is enumerated over F = Q_p for a prime p, with o = Z_p and
uniformizer t = p: "t^e" below is p^e.  Each model space is one k x n
matrix over F (_MODELS), labelled by the valuations of its minors; Hecke
operators, named by their coweight in _OPERATORS, act through lists of left
cosets g_i K in Hermite form, all built by one enumerator (_hermite_forms).
transition_counts translates each distinct row block of its stratum points,
and each distinct twisting scalar, once per coset: two dicts local to the
call, keyed by label part, the rows by l[:k] and the scalar by l[k:], hold
the row labels and scalar valuations of the translates.  That is exact
because stratum_point builds the rows from l[:k] alone and the scalar from
l[k:] alone.  The enumeration core is independent of the symbolic engine;
only the Satake comparison at the bottom uses it, and that comparison is the
point of the module: one flat dict of wanted counts over the whole window,
compared with the coset counts in one ==, and regrouped by label only when
they differ.

Precision policy: callers pass prec = 2 * height + 4 (plus the operator
degree when convolving repeatedly).  All valuations and elementary divisors
appearing at a given height are bounded by height + degree, so this leaves
room for one inversion by mat_inv, which costs twice the valuation.

A number, a TruncSeries, is p^v times a unit held as one int mod
p^(prec - v).  Every check reads only labels, coset counts and polynomial
fits in q, which F_p((t)) would give alike: it has the same residue field,
and the Hermite representatives, polynomials in t with digits 0 .. p-1,
serve both.  One multiply-accumulate, _dot, serves every sum and product of
numbers: the products of the units, shifted to their least valuation, are
summed, reduced once and stripped of factors of p.  A sum is the dot of its
operands against units.  One determinant routine serves numbers and ints; a
3 x 3 determinant is row 0 against the cross product of rows 1 and 2.

Every translate is taken over ints, by one path: a point, a coset or a
scalar is lifted to ints times p^v (_lift), multiplied as ints known mod
p^prec, and labelled as ints by the one label reader, _row_label, with _val
for the scalar: a valuation is v plus the exponent of one gcd with p^prec,
and no number is built in a translate loop.  Stratum points are monomials
p^a and Hermite cosets are int matrices with determinant p^k, so nothing is
lost; an inverse coset acts by its int adjugate, the valuation lowered by
v(det).  orbit_invariant lifts a point the same way and reads its rows and
its scalar each at the least precision of their coordinates.

A random unimodular matrix takes two draws once its residues are accepted:
whether a matrix is unimodular depends only on its residues, so all n^2 of
them are drawn at once and redrawn until their determinant is a unit, a
test memoized per draw, and only then are the higher digits of every entry
drawn at once, as ints.  The translate-invariance check keeps them as ints,
which on an integral point is exact: a unimodular matrix has a unit in
every row and every column.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from .geometry import _idot
from .record import Record
# the symbolic side, used only by the Satake comparison at the bottom
from . import catalog
from .engine import KAPPA, minuscule_satake, pp_shifts


class PrecisionError(ArithmeticError):
    """A valuation or coefficient was requested beyond the known precision."""


class TruncSeries:
    """A p-adic number known mod p^prec: p^_v times the unit _x.

    _x is an int in 0 .. p^(prec - _v) - 1 prime to p; the zero number has
    _v = prec and _x = 0.  A product is a one-term _dot, and a sum the
    two-term _dot of the operands against units.  p, prec and terms are
    read-only.
    """

    __slots__ = ("_p", "_prec", "_v", "_x")

    def __init__(self, p, prec, v, x):
        self._p, self._prec, self._v, self._x = p, prec, v, x

    @property
    def p(self):
        return self._p

    @property
    def prec(self):
        return self._prec

    @property
    def terms(self):
        """((exp, digit), ...) sorted: the nonzero base-p digits, 0 < digit
        < p, exp < prec."""
        out, x, p = [], self._x, self._p
        for e in itertools.count(self._v):
            if not x:
                return tuple(out)
            x, d = divmod(x, p)
            if d:
                out.append((e, d))

    def __eq__(self, other):
        if type(other) is not TruncSeries:
            return NotImplemented
        return (self._p == other._p and self._prec == other._prec
                and self._v == other._v and self._x == other._x)

    def __hash__(self):
        return hash((self._p, self._prec, self._v, self._x))

    def __repr__(self):
        return "TruncSeries(p=%r, prec=%r, terms=%r)" % (self._p, self._prec,
                                                          self.terms)

    @staticmethod
    def _make(p, prec, v, x):
        """p^v x for an int x, known mod p^prec."""
        if x:
            while not x % p:
                x //= p
                v += 1
            if v < prec:
                return TruncSeries(p, prec, v, x % p ** (prec - v))
        return TruncSeries(p, prec, prec, 0)

    @staticmethod
    def of(p, prec, items):
        """The number sum c p^e over the (e, c) of items, known mod p^prec."""
        prec = int(prec)
        items = [(int(e), int(c)) for e, c in
                 (items.items() if isinstance(items, dict) else items)]
        items = [(e, c) for e, c in items if e < prec]
        if not items:
            return TruncSeries(p, prec, prec, 0)
        lo = min(e for e, _ in items)
        return TruncSeries._make(p, prec, lo,
                                 sum(c * p ** (e - lo) for e, c in items))

    @staticmethod
    def t_pow(p, prec, e, c=1):
        return TruncSeries._make(p, int(prec), int(e), int(c))

    def is_zero(self):
        # zero to the stated precision; exact zeroness is not decidable
        return not self._x

    def val(self):
        if not self._x:
            raise PrecisionError("number is 0 mod %d^%d"
                                 % (self._p, self._prec))
        return self._v

    def __add__(self, other):
        # each operand times 1 known to prec - v, which keeps its precision
        return _dot((self, other), [TruncSeries(x._p, x._prec - x._v, 0, 1)
                                    for x in (self, other)])

    def __neg__(self):
        if not self._x:
            return self
        return TruncSeries(self._p, self._prec, self._v,
                           self._p ** (self._prec - self._v) - self._x)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return _dot((self,), (other,))

    def inverse(self):
        v = self.val()
        n = self._prec - v
        if n <= v:
            raise PrecisionError("no room to invert at valuation %d" % v)
        return TruncSeries(self._p, self._prec - 2 * v, -v,
                           pow(self._x, -1, self._p ** n))


# ---------------------------------------------------------------------------
# matrices with p-adic entries

def _dot(xs, ys):
    """sum x_i y_i, equal to the chain x_0 y_0 + x_1 y_1 + ... of products
    and sums, as one multiply-accumulate on the units.

    The precision is the least of the product precisions; an operand that
    is zero bounds only that.  The products of the other units, each times
    p^(v - v0) for its valuation v and the least one v0, are summed into
    one int, reduced once mod p^(prec - v0) and stripped of factors of p.
    Primes are checked in the order the chain would check them."""
    p, prec, v0, prods = xs[0]._p, None, None, []
    for x, y in zip(xs, ys):
        if x._p != y._p:
            raise ValueError("numbers over Q_%d and Q_%d" % (x._p, y._p))
        if x._p != p:
            raise ValueError("numbers over Q_%d and Q_%d" % (p, x._p))
        vx, vy = x._v, y._v
        pr = x._prec + vy
        if y._prec + vx < pr:
            pr = y._prec + vx
        if prec is None or pr < prec:
            prec = pr
        if x._x and y._x:
            v = vx + vy
            if v0 is None or v < v0:
                v0 = v
            prods.append((v, x._x * y._x))
    if v0 is None or v0 >= prec:
        return TruncSeries(p, prec, prec, 0)
    s = 0
    for v, c in prods:
        s += c * p ** (v - v0)
    s %= p ** (prec - v0)
    if not s:
        return TruncSeries(p, prec, prec, 0)
    while not s % p:
        s //= p
        v0 += 1
    return TruncSeries(p, prec, v0, s)


def mat_det(m):
    """The determinant, over numbers or over ints, by one algorithm: 2 x 2 as
    one dot, 3 x 3 as row 0 against the cross product of rows 1 and 2, and
    larger along the first row.  Over numbers each sign rides on a factor,
    -(a b) = a (-b), precision and all, so the products and precisions are
    those of the chain of products and sums along the first row."""
    n = len(m)
    if n == 1:
        return m[0][0]
    dot = _dot if type(m[0][0]) is TruncSeries else _idot
    if n == 2:
        (a, b), (c, d) = m
        return dot((a, b), (d, -c))
    if n == 3:
        # cofactor j reads columns j + 1 and j + 2 mod 3
        r0, r1, r2 = m
        return dot(r0, [dot((r1[j - 2], r1[j - 1]), (r2[j - 1], -r2[j - 2]))
                        for j in range(3)])
    return dot([-e if j % 2 else e for j, e in enumerate(m[0])],
               (mat_det([row[:j] + row[j + 1:] for row in m[1:]])
                for j in range(n)))


def mat_inv(m):
    n = len(m)
    di = mat_det(m).inverse()
    if n == 1:
        return [[di]]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
            c = mat_det(minor) * di
            out[j][i] = c if (i + j) % 2 == 0 else -c
    return out


# ---------------------------------------------------------------------------
# lattice points of the model spaces and their orbit labels

class _Model(Record):
    """One model space: k x n matrices over F, GL_n(o) acting on the right
    and, when k > 1, GL_k(o) on the left, then, if twisted, a scalar that g
    in GL_n multiplies by det g.  With a catalog entry key, the Satake
    comparison covers the operators of GL_n in _OPERATORS on the first route
    of that entry, whose labels read the last coordinate and det."""

    __slots__ = _fields = ("k", "n", "twisted", "key")

    def __init__(self, k: int, n: int, twisted: bool = False, key: str = None):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "twisted", twisted)
        object.__setattr__(self, "key", key)


_MODELS = {
    "A2": _Model(1, 2),
    "UGL2": _Model(1, 2, twisted=True, key="borel-gl2"),
    "MAT2": _Model(2, 2),
    "PPGL3": _Model(1, 3, twisted=True, key="pp-gl3"),
}
SPACES = tuple(_MODELS)


def _model(space, error="unknown space %r"):
    try:
        return _MODELS[space]
    except (KeyError, TypeError):
        raise ValueError(error % (space,)) from None


class LatticePoint(Record):
    """A point of a model space: its k x n matrix row-major, then its scalar."""

    __slots__ = _fields = ("space", "coords")

    def __init__(self, space: str, coords: tuple):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)


def _divisors(d):
    """d_i - d_(i-1) for determinantal divisors d; None where they decrease."""
    e = [b - a for a, b in zip((0,) + d, d)]
    return e if all(a <= b for a, b in zip(e, e[1:])) else None


def stratum_labels(space, height, integral=False):
    """The stratum labels with nonnegative entries summing to at most height
    and weakly increasing elementary divisors, in the order the checks visit
    them: lexicographic in (d_k, ..., d_1, scalar).  integral keeps those of
    the smooth integral model, where the twisting scalar is a unit."""
    m = _model(space, "no integral model for %r" if integral
               else "unknown space %r")
    k = m.k
    labels = [l for l in itertools.product(range(height + 1),
                                           repeat=k + m.twisted)
              if sum(l) <= height and _divisors(l[:k]) is not None
              and not (integral and any(l[k:]))]
    return sorted(labels, key=lambda l: l[k - 1::-1] + l[k:])


def stratum_point(space, label, p, prec):
    """An explicit representative of the stratum with the given label:
    t^(d_i - d_(i-1)) at row i, column n - k + i, then t^scalar."""
    m = _model(space)
    k, n = m.k, m.n
    e = _divisors(tuple(label[:k])) if len(label) == k + m.twisted else None
    if e is None:
        raise ValueError("%r is not a label of %s: it needs %d entries, each "
                         "elementary divisor at most the complementary divisor "
                         "after it" % (label, space, k + m.twisted))
    coords = [TruncSeries(p, prec, prec, 0)] * (k * n + m.twisted)
    # row i's monomial sits at i (n + 1) + n - k, the scalar's last; t^a is
    # zero from a = prec on
    for i, a in zip([*range(n - k, k * n, n + 1), k * n], e + list(label[k:])):
        if a < prec:
            coords[i] = TruncSeries(p, prec, a, 1)
    return LatticePoint(space, tuple(coords))


def orbit_invariant(x: LatticePoint):
    """The stratum label: valuation data separating hyperspecial orbits.

    The determinantal divisors (d_1, ..., d_k) of the matrix, d_i the least
    valuation of an i x i minor (d_1 of a row: its least coordinate
    valuation), then the valuation of the twisting scalar, if any.  The
    rows and the scalar are each lifted to ints (_lift) and read as known
    mod p^P, P the least precision of their coordinates.
    """
    m = _model(x.space)
    c, k, n = x.coords, m.k, m.n
    if len(c) != k * n + m.twisted:
        raise ValueError("%d coordinates for a %dx%d %s point"
                         % (len(c), k, n, x.space))
    rows, p = c[:k * n], c[0].p
    v, ints = _lift(rows)
    label = _row_label(p, min([e._prec for e in rows]) - v, v, ints, k, n)
    if m.twisted:
        v, ints = _lift(c[k * n:])
        label += (_val(p, c[k * n]._prec - v, v, ints, "number"),)
    return label


def _val(p, prec, v, ints, what="vector"):
    """The least valuation of p^v times ints, each known mod p^prec: v plus
    the exponent of gcd(p^prec, *ints), one gcd for the whole block."""
    mod = p ** prec
    g = math.gcd(mod, *ints)
    if g == mod:
        raise PrecisionError("%s is 0 mod %d^%d" % (what, p, prec + v))
    while g > 1:
        g //= p
        v += 1
    return v


def _row_label(p, prec, v, ints, k, n):
    """The determinantal divisors of the k x n block p^v ints, row by row,
    each int known mod p^prec.  d_1 = v + w_1 is _val of the entries; d_i is
    i v plus the valuation of the int i x i minors, each known mod
    p^(prec + (i - 1) w_1): an entry moved by p^prec moves a minor by p^prec
    times an (i - 1)-minor, of valuation at least (i - 1) w_1.  For i = 2
    that is the precision the chain of products and sums gives."""
    label = (_val(p, prec, v, ints),)
    w = label[0] - v
    for i, minors in enumerate(_minors(k, n), 2):
        label += (_val(p, prec + (i - 1) * w, i * v,
                       [mat_det([row(ints) for row in minor])
                        for minor in minors]),)
    return label


@functools.cache
def _minors(k, n):
    """For each size i = 2..k, the i x i minors of a k x n matrix kept row
    by row, in combinations order: each minor as one getter per row, which
    reads that row of the minor off the flat coordinates."""
    return tuple(tuple(tuple(operator.itemgetter(*[r * n + j for j in cols])
                             for r in rows)
                       for rows in itertools.combinations(range(k), i)
                       for cols in itertools.combinations(range(n), i))
                 for i in range(2, k + 1))


def _lift(coords):
    """v = min(0, least valuation of coords), and the coords times p^(-v)
    as ints."""
    v = min([0] + [c._v for c in coords])
    return v, [c._x * c._p ** (c._v - v) for c in coords]


# ---------------------------------------------------------------------------
# coset lists for the supported bi-invariant operators

# The longest coset list built: gj-recursion at q = 4999 (5,000 cosets) runs
# for about 10 s at its default height.
MAX_COSETS = 5000

# Each operator is the double coset K t^mu K of its coweight mu.
_OPERATORS = {
    "GL2": {"unit": (0, 0), "t1": (1, 0), "central": (1, 1)},
    "GL3": {"unit": (0, 0, 0), "t1": (1, 0, 0), "wedge": (1, 1, 0),
            "central": (1, 1, 1)},
}


def _hermite_forms(p, prec, e, degree):
    """The upper-triangular matrices with diagonal t^(e_i) whose (i, j)
    entry, for each cell (i, j) of degree, runs over the polynomials in t
    of degree < degree[i, j] with digits in 0 .. p-1, each the int
    sum c_i p^i; every other entry is 0.  With degree[i, j] = e_i for all i < j these are the Hermite forms
    of the left cosets g GL_n(o) with diagonal t^e: a column operation
    reduces entry (i, j) mod t^(e_i).  The cells vary lexicographically in
    the order of degree, each polynomial lowest coefficient first."""
    n = len(e)
    zero = TruncSeries.of(p, prec, {})
    polys = [[TruncSeries.of(p, prec, enumerate(c))
              for c in itertools.product(range(p), repeat=d)]
             for d in degree.values()]
    for entries in itertools.product(*polys):
        g = [[TruncSeries.t_pow(p, prec, e[i]) if i == j else zero
              for j in range(n)] for i in range(n)]
        for (i, j), u in zip(degree, entries):
            g[i][j] = u
        yield g


def coset_reps(group, op, p, prec):
    """Left-coset representatives g_i with K g K = union of g_i K, in
    Hermite form, for the operator op of _OPERATORS, named by its coweight
    mu (minuscule or central).  The cosets are the Schubert cells of mu: for
    each distinct permutation e of mu, in decreasing order, the Hermite
    forms with diagonal t^e whose (i, j) entry is a polynomial of degree
    < max(e_i - e_j, 0).  GL2 t1 has p + 1 cosets, GL3 t1 and wedge
    p^2 + p + 1, unit and central one."""
    mu = _OPERATORS.get(group, {}).get(op)
    if mu is None:
        raise ValueError("unknown operator %r for %s" % (op, group))
    cells = [(e, {(i, j): max(e[i] - e[j], 0)
                  for i, j in itertools.combinations(range(len(e)), 2)})
             for e in sorted(set(itertools.permutations(mu)), reverse=True)]
    count = sum(p ** sum(d.values()) for _, d in cells)
    if count > MAX_COSETS:
        raise ValueError("%s %s has %d cosets at p = %d; at most %d are "
                         "enumerated" % (group, op, count, p, MAX_COSETS))
    return [g for e, d in cells for g in _hermite_forms(p, prec, e, d)]


# ---------------------------------------------------------------------------
# convolution by coset sums

def transition_counts(space, reps, labels, p, prec, inverse=False):
    """{(source label, target label): multiplicity} under x -> x g_i,
    or x -> x g_i^{-1} with inverse set.  The inverses of a left-coset list
    are a right-coset list, so inverse is refused except on a two-sided
    space (k > 1), whose labels are invariant on both sides; on a row space
    the counts would depend on the choice of representatives.

    The translates are taken over ints (_lift) and labelled as ints: the
    rows by _row_label and the scalar by _val, each int known mod p^prec,
    so no number is built per coset.  A coset g = p^w G has
    g^{-1} = p^(-w - v(det G)) u^{-1} adj(G), u a unit, which changes no
    valuation of a minor: it acts by the int adjugate with that shift, and
    on a scalar by det(adj G) = det(G)^(n-1).

    stratum_point builds x's rows from l[:k] alone and its scalar from
    l[k:] alone, so the memos are keyed by label part: only a label with a
    new row or scalar part builds x, checks its label and translates that
    part once per coset.  Since orbit_invariant reads the rows and the
    scalar apart, that checks every label's representative."""
    m = _model(space)
    if inverse and m.k == 1:
        raise ValueError("inverse cosets act only on a two-sided space, "
                         "not on %s" % (space,))
    k, n = m.k, m.n
    # per coset, shared by every label: the int columns of G, or of adj(G),
    # its shift w and, if needed, one determinant
    cosets = []
    for g in reps:
        cols = list(zip(*g))
        if len(g) != n or len(cols) != n:
            raise ValueError("cannot multiply %dx%d by %dx%d"
                             % (k, n, len(g), len(cols)))
        w, a = _lift([e for row in g for e in row])
        a = [a[r:r + n] for r in range(0, n * n, n)]
        d = mat_det(a) if m.twisted or inverse else None
        if inverse:
            w = -w - _val(p, prec, 0, [d], "number")
            # column j of adj(G) is row j of the cofactor matrix
            cols = [[(-1) ** (i + j) * mat_det(
                        [r[:i] + r[i + 1:] for s, r in enumerate(a) if s != j])
                     for i in range(n)] for j in range(n)]
            d = d ** (n - 1)
        else:
            cols = list(zip(*a))
        cosets.append((cols, w, d))
    rows_seen, scalars_seen, out = {}, {}, {}
    for l in map(tuple, labels):
        heads, tails = rows_seen.get(l[:k]), scalars_seen.get(l[k:])
        if heads is None or tails is None:
            x = stratum_point(space, l, p, prec)
            if orbit_invariant(x) != l:
                raise RuntimeError("representative of %r has another label"
                                   % (l,))
            if heads is None:
                vr, xs = _lift(x.coords[:k * n])
                rows = [xs[r:r + n] for r in range(0, k * n, n)]
                heads = rows_seen[l[:k]] = [
                    _row_label(p, prec, vr + w, [
                        _idot(row, col) for row in rows for col in cols],
                        k, n)
                    for cols, w, _ in cosets]
            if tails is None:
                vs, ss = _lift(x.coords[k * n:])
                tails = scalars_seen[l[k:]] = [
                    tuple(_val(p, prec, vs + n * w, [s * d], "number")
                          for s in ss)
                    for _, w, d in cosets]
        for head, tail in zip(heads, tails):
            key = (l, head + tail)
            out[key] = out.get(key, 0) + 1
    return out


def hecke_convolve(counts, f):
    """(h * f) per stratum label, h given by its transition counts:
    (h * f)(x) = sum_i f(x g_i); values outside f count as zero."""
    out = {}
    for (l, mu), c in counts.items():
        if mu in f:
            out[l] = out.get(l, 0) + c * f[mu]
    return {l: v for l, v in out.items() if v}


def gj_recursion_mismatches(p, height=4, degree=4):
    """Standard-L recursion on the matrix space: F_0 = 1 at the unit
    stratum, F_i = T1 * F_{i-1} - p * (Z * F_{i-2}), with the inverse
    orientation so supports stay integral.  The local identity forces
    F_i == indicator of determinant valuation i; returns what breaks.

    height sets only the working precision, prec = 2 (height + degree) + 4;
    the labels checked, and the recursion's length, come from degree.

    The recursion cannot see the orientation of the inverse cosets: MAT2
    labels are invariant under the transpose, so the left cosets
    p^(-v(det G)) G of the same double coset give every (source, target)
    pair the same multiplicity as the g^{-1}.  The per-coset comparison of
    test_int_transition_counts_are_the_chain_counts is the check that
    does."""
    prec = 2 * (height + degree) + 4
    # every label with k <= degree has a <= degree // 2
    labels = [l for l in stratum_labels("MAT2", degree + degree // 2)
              if l[1] <= degree]
    # the transition counts do not depend on f: one table per operator
    t1, z = (transition_counts("MAT2", coset_reps("GL2", op, p, prec), labels,
                               p, prec, inverse=True)
             for op in ("t1", "central"))
    fs = [{(0, 0): 1}]
    bad = []
    for i in range(1, degree + 1):
        f = hecke_convolve(t1, fs[i - 1])
        if i >= 2:
            for l, v in hecke_convolve(z, fs[i - 2]).items():
                f[l] = f.get(l, 0) - p * v
        f = {l: v for l, v in f.items() if v}
        fs.append(f)
        for l in labels:
            want = 1 if l[1] == i else 0
            if f.get(l, 0) != want:
                bad.append((i, l, f.get(l, 0)))
    return bad


def mat2_coset_label_counts(p, prec, kmax):
    """The left cosets g K inside the integral nondegenerate 2 x 2 matrices
    with determinant valuation at most kmax, bucketed by label: their
    Hermite forms [[t^a, u], [0, t^c]], u mod t^a (_hermite_forms)."""
    out = {}
    for k in range(kmax + 1):
        for a in range(k + 1):
            for g in _hermite_forms(p, prec, (a, k - a), {(0, 1): a}):
                lab = orbit_invariant(LatticePoint("MAT2", tuple(g[0] + g[1])))
                out[lab] = out.get(lab, 0) + 1
    return out


def integral_table(space, height, p, prec):
    """All-ones table on the integral strata of a smooth closure, each
    stratum witnessed by an explicit representative."""
    out = {}
    for l in stratum_labels(space, height, integral=True):
        if orbit_invariant(stratum_point(space, l, p, prec)) != l:
            raise RuntimeError("representative of %r has another label" % (l,))
        out[l] = 1
    return out


# ---------------------------------------------------------------------------
# randomized well-definedness and interpolation checks

@functools.lru_cache(maxsize=1024)
def _unit_residues(p, n, code):
    """The n^2 base-p digits of code, lowest first, if the n x n matrix they
    fill row-major has a unit determinant mod p; None otherwise."""
    flat = []
    for _ in range(n * n):
        code, r = divmod(code, p)
        flat.append(r)
    if mat_det([flat[i:i + n] for i in range(0, n * n, n)]) % p:
        return tuple(flat)
    return None


def _unimodular_ints(rng, p, prec, n):
    """The n^2 entries, row-major, of a uniformly drawn element of GL_n(o)
    mod t^prec, as ints below p^prec, in two draws once the residues are
    accepted.  Each attempt draws the n^2 residues at once, below p^(n^2),
    entry k taking base-p digit k; they are redrawn until their determinant
    is a unit mod p, which is exactly when the matrix is unimodular.  That
    test depends on the draw alone, so its answers are memoized
    (_unit_residues).  Then one draw below p^((prec-1) n^2) gives entry k
    its residue r plus p times the draw's base-p^(prec-1) digit k."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    if p < 2 or n < 1:
        raise ValueError("need p >= 2 and n >= 1, got p = %r, n = %r" % (p, n))
    cells, high = n * n, p ** (prec - 1)
    flat = None
    while flat is None:
        flat = _unit_residues(p, n, rng.randrange(p ** cells))
    draw, entries = rng.randrange(high ** cells), []
    for r in flat:
        draw, d = divmod(draw, high)
        entries.append(r + p * d)
    return entries


def random_unimodular(rng, p, prec, n):
    """A uniformly drawn element of GL_n(o) mod t^prec: the entries of
    _unimodular_ints as numbers, row by row."""
    entries = [TruncSeries._make(p, prec, 0, e)
               for e in _unimodular_ints(rng, p, prec, n)]
    return [entries[i:i + n] for i in range(0, n * n, n)]


def translate_invariance_mismatches(space, label, p, prec, trials, seed=0):
    """The stratum label must be constant on random hyperspecial
    translates: x g for g in GL_n(o), then, when k > 1, h x g for h in
    GL_k(o).

    The translates are taken over ints: x's rows and scalar, each lifted
    by _lift, against the ints of g, h and det g, known mod p^prec, and
    labelled as ints by orbit_invariant's reader (_row_label, _val), with
    no number built per trial.  g has a unit in every column, h one in
    every row and det g is a unit, so on a point with integral rows (every
    label of stratum_labels) the ints are the numbers a chain of TruncSeries
    products and sums gives, each known mod p^(prec + v); so are the scalar
    and, on a row space (k = 1), the rows of any point.  For k <= 2 the
    reader gives the label, or the error, those numbers give."""
    rng = random.Random(seed)
    c = stratum_point(space, label, p, prec).coords
    m = _MODELS[space]
    k, n = m.k, m.n
    vr, x = _lift(c[:k * n])
    rows = [x[r:r + n] for r in range(0, k * n, n)]
    if m.twisted:
        vs, (s,) = _lift(c[k * n:])
    label, bad = tuple(label), []
    for i in range(trials):
        g = _unimodular_ints(rng, p, prec, n)
        cols = [g[j::n] for j in range(n)]
        y = [_idot(row, col) for row in rows for col in cols]
        if k > 1:
            h = _unimodular_ints(rng, p, prec, k)
            ycols = [y[j::n] for j in range(n)]
            y = [_idot(h[r:r + k], col) for r in range(0, k * k, k)
                 for col in ycols]
        got = _row_label(p, prec, vr, y, k, n)
        if m.twisted:
            # det g^T = det g
            got += (_val(p, prec, vs, [s * mat_det(cols)], "number"),)
        if got != label:
            bad.append((i, got))
    return bad


def interpolates(values, degree):
    """Counts at several q fit a single polynomial of the stated degree:
    Lagrange fit on the first degree+1 points, exact check on the rest."""
    qs = sorted(values)
    base = qs[:degree + 1]

    def predict(x):
        total = Fraction(0)
        for i, qi in enumerate(base):
            term = Fraction(values[qi])
            for j, qj in enumerate(base):
                if i != j:
                    term *= Fraction(x - qj, qi - qj)
            total += term
        return total

    return all(predict(q) == values[q] for q in qs)


# ---------------------------------------------------------------------------
# comparison against the symbolic engine

def hecke_operators(space):
    """The operators the Satake comparison covers on space."""
    m = _model(space)
    if not m.key:
        raise ValueError("unknown space %r" % (space,))
    return tuple(_OPERATORS["GL%d" % m.n])


def satake_mismatches(op, space, height, q, kappa=KAPPA):
    """Coset-sum counts vs the symbolic shift action on every stratum pair
    in the window (pp_shifts along the space's catalog route, under the sign
    kappa); an empty list means the two sides agree exactly.

    The wanted counts of the whole window are one dict keyed by (source,
    target), zeros dropped, compared with transition_counts' dict in one ==.
    Only when they differ are both regrouped by source label, and each label
    that disagrees is listed, in window order, as (label, sorted got, sorted
    want).  A shift coefficient specialized at q becomes an int only when it
    is whole; a fractional one is kept as it is, never rounded.

    The comparison cannot see the sign of kappa: on PPGL3 the Levi-Weyl
    orbit sums of the shifts are symmetric under kappa -> -kappa, so
    kappa = -1 passes too.  The sign is fixed by the catalog tables.
    """
    if op not in hecke_operators(space):
        raise ValueError("unknown operator %r for %s" % (op, space))
    m = _MODELS[space]
    group = "GL%d" % m.n
    prec = 2 * height + 4
    route = catalog.load(m.key).routes[0]
    satake = minuscule_satake(route.group, _OPERATORS[group][op])
    # each shift coefficient at q once, shared by every label; a whole one
    # as an int, which compares faster with the counts
    shifts = []
    for s, c in pp_shifts(route, satake, kappa):
        c = c.specialize(q)
        shifts.append((s, int(c) if c.denominator == 1 else c))
    reps = coset_reps(group, op, q, prec)

    window = [l for l in itertools.product(range(-height, height + 1), repeat=2)
              if abs(l[0]) + abs(l[1]) <= height]
    want = {}
    for l in window:
        a, b = l
        for s, c in shifts:
            key = (l, (a + s[0], b + s[1]))
            want[key] = want.get(key, 0) + c
    want = {k: v for k, v in want.items() if v}
    got = transition_counts(space, reps, window, q, prec)
    if got == want:
        return []
    # a mismatch: regroup both sides by source label, in window order
    by_label = {l: ([], []) for l in window}
    for side, counts in enumerate((got, want)):
        for (l, tgt), c in counts.items():
            by_label[l][side].append((tgt, c))
    return [(l, sorted(g), sorted(w)) for l, (g, w) in by_label.items()
            if dict(g) != dict(w)]


def satake_compatibility_check(op, space, height, q) -> bool:
    return not satake_mismatches(op, space, height, q)
