"""Brute-force local models: truncated series, stratum labels, coset sums.

Everything here is enumerated over F = F_p((t)) for a small prime p: matrices
have truncated-series entries, orbit labels are read off valuations, and
Hecke operators act through explicit left-coset lists.  The enumeration core
is independent of the symbolic engine; only the Satake comparison at the
bottom uses it, and that comparison is the point of the module.

Precision policy: callers pass prec = 2 * height + 4 (plus the operator
degree when convolving repeatedly).  All valuations and elementary divisors
appearing at a given height are bounded by height + degree, so this leaves
room for one inversion, which costs twice the valuation.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

# the symbolic side, used only by the Satake comparison at the bottom
from .engine import (KAPPA, BorelRoute, PPRoute, borel_shifts,
                     minuscule_satake, pp_shifts)
from .geometry import LatticeMap
from .rootdata import root_datum


class PrecisionError(ArithmeticError):
    """A valuation or coefficient was requested beyond the known precision."""


def _inv_mod(c, p):
    return pow(c, p - 2, p)


@dataclass(frozen=True)
class TruncSeries:
    """Laurent series over F_p with all coefficients known below t^prec."""

    p: int
    prec: int
    terms: tuple  # ((exp, coeff), ...) sorted, 0 < coeff < p, exp < prec

    @staticmethod
    def of(p, prec, items):
        acc = {}
        for e, c in (items.items() if isinstance(items, dict) else items):
            acc[int(e)] = (acc.get(int(e), 0) + int(c)) % p
        return TruncSeries(p, int(prec),
                           tuple(sorted((e, c) for e, c in acc.items()
                                        if c and e < prec)))

    @staticmethod
    def const(p, prec, c):
        return TruncSeries.of(p, prec, {0: c})

    @staticmethod
    def t_pow(p, prec, e, c=1):
        return TruncSeries.of(p, prec, {e: c})

    def is_zero(self):
        # zero to the stated precision; exact zeroness is not decidable
        return not self.terms

    def val(self):
        if not self.terms:
            raise PrecisionError("series is 0 mod t^%d" % self.prec)
        return self.terms[0][0]

    def _lead(self):
        return self.terms[0][0] if self.terms else self.prec

    def __add__(self, other):
        if self.p != other.p:
            raise ValueError("series over F_%d and F_%d" % (self.p, other.p))
        prec = min(self.prec, other.prec)
        return TruncSeries.of(self.p, prec,
                              list(self.terms) + list(other.terms))

    def __neg__(self):
        return TruncSeries(self.p, self.prec,
                           tuple((e, self.p - c) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.p != other.p:
            raise ValueError("series over F_%d and F_%d" % (self.p, other.p))
        prec = min(self.prec + other._lead(), other.prec + self._lead())
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                if e1 + e2 < prec:
                    acc[e1 + e2] = (acc.get(e1 + e2, 0) + c1 * c2) % self.p
        return TruncSeries(self.p, prec,
                           tuple(sorted((e, c) for e, c in acc.items() if c)))

    def inverse(self):
        v = self.val()
        n = self.prec - v
        if n <= v:
            raise PrecisionError("no room to invert at valuation %d" % v)
        c = {e - v: x for e, x in self.terms}
        u = _inv_mod(c[0], self.p)
        out = {0: u}
        for k in range(1, n):
            s = sum(c.get(i, 0) * out[k - i] for i in range(1, k + 1)) % self.p
            out[k] = (-u * s) % self.p
        return TruncSeries.of(self.p, self.prec - 2 * v,
                              {e - v: x for e, x in out.items()})


# ---------------------------------------------------------------------------
# matrices with series entries

def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError("cannot multiply %dx%d by %dx%d" % (n, len(a[0]), k, m))
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for s in range(1, k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def vec_mat(v, m):
    return tuple(mat_mul([list(v)], m)[0])


def mat_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * mat_det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


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


def mat_id(p, prec, n):
    one = TruncSeries.const(p, prec, 1)
    zero = TruncSeries.of(p, prec, {})
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# lattice points of the model spaces and their orbit labels

@dataclass(frozen=True)
class _Shape:
    """One model space: a row vector in F^n under GL_n on the right, then,
    if twisted, a scalar multiplied by det; or, if two_sided, the 2 x 2
    matrices under GL_2 x GL_2.  The Satake comparison covers the operators
    ops, the k-th with cocharacter (1^k, 0^(n-k)), on the PP route with this
    Levi (the Borel route if None)."""

    n: int
    twisted: bool = False
    two_sided: bool = False
    ops: tuple = ()
    levi: tuple = None


_SHAPES = {
    "A2": _Shape(2),
    "UGL2": _Shape(2, twisted=True, ops=("unit", "t1", "central")),
    "MAT2": _Shape(2, two_sided=True),
    "PPGL3": _Shape(3, twisted=True, ops=("unit", "t1", "wedge", "central"),
                    levi=(0,)),
}
SPACES = tuple(_SHAPES)


def _shape(space, error="unknown space %r"):
    try:
        return _SHAPES[space]
    except (KeyError, TypeError):
        raise ValueError(error % (space,)) from None


@dataclass(frozen=True)
class LatticePoint:
    """A point of one of the model spaces; MAT2 stores entries row-major."""

    space: str
    coords: tuple


def stratum_labels(space, height, integral=False):
    """The stratum labels with nonnegative entries summing to at most height,
    in the order the checks visit them; integral keeps those of the smooth
    integral model, where the twisting scalar is a unit.  A matrix label
    (a, k) also needs 2a <= k, and is counted at height a + k."""
    shape = _shape(space, "no integral model for %r" if integral
                   else "unknown space %r")
    if shape.two_sided:
        return [(a, k) for k in range(height + 1) for a in range(k // 2 + 1)
                if a + k <= height]
    if not shape.twisted:
        return [(v,) for v in range(height + 1)]
    return [(v, s) for v in range(height + 1)
            for s in range(1 if integral else height + 1 - v)]


def stratum_point(space, label, p, prec):
    """An explicit representative of the stratum with the given label."""
    shape = _shape(space)
    if len(label) != (2 if shape.twisted or shape.two_sided else 1):
        raise ValueError("%r is not a label of %s" % (label, space))
    zero = TruncSeries.of(p, prec, {})

    def t(e):
        return TruncSeries.t_pow(p, prec, e)

    if not shape.two_sided:
        return LatticePoint(space, (zero,) * (shape.n - 1)
                            + tuple(t(e) for e in label))
    a, k = label
    if 2 * a > k:
        raise ValueError("min valuation exceeds the complementary divisor")
    return LatticePoint(space, (t(a), zero, zero, t(k - a)))


def _vec_val(entries):
    vals = [e.val() for e in entries if e.terms]
    floor = min((e.prec for e in entries if not e.terms), default=None)
    if not vals:
        raise PrecisionError("vector is 0 mod t^%d" % floor)
    v = min(vals)
    if floor is not None and floor <= v:
        raise PrecisionError("an entry is only known mod t^%d" % floor)
    return v


def orbit_invariant(x: LatticePoint):
    """The stratum label: valuation data separating hyperspecial orbits.

    Row vectors: the minimal coordinate valuation, then the valuation of
    the twisting scalar, if any.  Matrices: (minimal entry valuation,
    determinant valuation), an equivalent encoding of the elementary
    divisors.
    """
    shape = _shape(x.space)
    c = x.coords
    if shape.two_sided:
        return (_vec_val(c), (c[0] * c[3] - c[1] * c[2]).val())
    v = _vec_val(c[:shape.n])
    return (v, c[shape.n].val()) if shape.twisted else (v,)


def right_translate(x: LatticePoint, g):
    shape = _shape(x.space)
    c = x.coords
    if shape.two_sided:
        m = mat_mul([list(c[:2]), list(c[2:])], g)
        return LatticePoint(x.space, tuple(m[0] + m[1]))
    v = vec_mat(c[:shape.n], g)
    if shape.twisted:
        v += (c[shape.n] * mat_det(g),)
    return LatticePoint(x.space, v)


def left_translate(x: LatticePoint, g):
    if not getattr(_SHAPES.get(x.space), "two_sided", False):
        raise ValueError("only the matrix space carries a left action")
    m = mat_mul(g, [list(x.coords[:2]), list(x.coords[2:])])
    return LatticePoint(x.space, tuple(m[0] + m[1]))


# ---------------------------------------------------------------------------
# coset lists for the supported bi-invariant operators

def coset_reps(group, op, p, prec):
    """Left-coset representatives g_i with K g K = union of g_i K.

    GL2: unit, t1 (degree one, p+1 cosets), central.
    GL3: unit, t1 (p^2+p+1 cosets, one per residue P^2 point), wedge (the
    (1,1,0) operator, inverses of the t1 list times the uniformizer),
    central.
    """
    n = {"GL2": 2, "GL3": 3}.get(group)
    one = TruncSeries.const(p, prec, 1)
    zero = TruncSeries.of(p, prec, {})
    pi = TruncSeries.t_pow(p, prec, 1)
    if n and op == "unit":
        return [mat_id(p, prec, n)]
    if n and op == "central":
        return [[[pi if i == j else zero for j in range(n)] for i in range(n)]]
    if n == 2 and op == "t1":
        return [[[pi, TruncSeries.const(p, prec, j)], [zero, one]]
                for j in range(p)] + [[[one, zero], [zero, pi]]]
    if n == 3 and op in ("t1", "wedge"):
        reps = []
        for phi in itertools.product(range(p), repeat=3):
            if next((c for c in phi if c), 0) != 1:
                continue  # not the normalized representative of a P^2 point
            # row piv is pi e_piv, every other row i is e_i - phi_i e_piv
            piv = phi.index(1)
            rows = mat_id(p, prec, 3)
            for i in range(3):
                rows[i][piv] = (pi if i == piv
                                else TruncSeries.const(p, prec, -phi[i]))
            reps.append(rows)
        if op == "t1":
            return reps
        return [[[pi * e for e in row] for row in mat_inv(b)] for b in reps]
    raise ValueError("unknown operator %r for %s" % (op, group))


# ---------------------------------------------------------------------------
# convolution by coset sums

def transition_counts(space, reps, labels, p, prec, inverse=False):
    """{(source label, target label): multiplicity} under x -> x g_i,
    or x -> x g_i^{-1} with inverse set."""
    gs = [mat_inv(g) for g in reps] if inverse else reps
    out = {}
    for l in labels:
        x = stratum_point(space, l, p, prec)
        if orbit_invariant(x) != tuple(l):
            raise RuntimeError("representative of %r has another label" % (l,))
        for g in gs:
            mu = orbit_invariant(right_translate(x, g))
            key = (tuple(l), mu)
            out[key] = out.get(key, 0) + 1
    return out


def hecke_convolve(reps, f, space, labels, p, prec, inverse=False):
    """(h * f) per stratum label, h given by its coset list:
    (h * f)(x) = sum_i f(x g_i); values outside f count as zero."""
    counts = transition_counts(space, reps, labels, p, prec, inverse)
    out = {}
    for (l, mu), c in counts.items():
        if mu in f:
            out[l] = out.get(l, 0) + c * f[mu]
    return {l: v for l, v in out.items() if v}


def gj_recursion_mismatches(p, height=4, degree=4):
    """Standard-L recursion on the matrix space: F_0 = 1 at the unit
    stratum, F_i = T1 * F_{i-1} - p * (Z * F_{i-2}), with the inverse
    orientation so supports stay integral.  The local identity forces
    F_i == indicator of determinant valuation i; returns what breaks."""
    prec = 2 * (height + degree) + 4
    t1 = coset_reps("GL2", "t1", p, prec)
    z = coset_reps("GL2", "central", p, prec)
    # every label with k <= degree has a <= degree // 2
    labels = [l for l in stratum_labels("MAT2", degree + degree // 2)
              if l[1] <= degree]
    fs = [{(0, 0): 1}]
    bad = []
    for i in range(1, degree + 1):
        f = hecke_convolve(t1, fs[i - 1], "MAT2", labels, p, prec, inverse=True)
        if i >= 2:
            g = hecke_convolve(z, fs[i - 2], "MAT2", labels, p, prec,
                               inverse=True)
            for l, v in g.items():
                f[l] = f.get(l, 0) - p * v
        f = {l: v for l, v in f.items() if v}
        fs.append(f)
        for l in labels:
            want = 1 if l[1] == i else 0
            if f.get(l, 0) != want:
                bad.append((i, l, f.get(l, 0)))
    return bad


def mat2_coset_label_counts(p, prec, kmax):
    """Hermite forms [[t^a, u], [0, t^c]], u mod t^c, enumerate the left
    cosets inside the integral nondegenerate matrices; bucketed by label."""
    out = {}
    zero = TruncSeries.of(p, prec, {})
    for k in range(kmax + 1):
        for a in range(k + 1):
            c = k - a
            for coeffs in itertools.product(range(p), repeat=c):
                u = TruncSeries.of(p, prec, dict(enumerate(coeffs)))
                x = LatticePoint("MAT2", (TruncSeries.t_pow(p, prec, a), u,
                                          zero, TruncSeries.t_pow(p, prec, c)))
                lab = orbit_invariant(x)
                out[lab] = out.get(lab, 0) + 1
    return out


def det_count_series(p, prec, kmax):
    """Number of lattice cosets with determinant valuation 0..kmax."""
    counts = mat2_coset_label_counts(p, prec, kmax)
    return [sum(c for (a, k), c in counts.items() if k == i)
            for i in range(kmax + 1)]


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

def random_unimodular(rng, p, prec, n):
    """A uniformly drawn element of GL_n(o) mod t^prec, by rejection: a
    matrix is unimodular iff its residue matrix is invertible mod p."""
    if prec < 1:
        raise ValueError("precision must be >= 1")
    while True:
        coeffs = [[[rng.randrange(p) for _ in range(prec)] for _ in range(n)]
                  for _ in range(n)]
        if mat_det([[c[0] for c in row] for row in coeffs]) % p:
            return [[TruncSeries.of(p, prec, enumerate(c)) for c in row]
                    for row in coeffs]


def translate_invariance_mismatches(space, label, p, prec, trials, seed=0):
    """orbit_invariant must be constant on random hyperspecial translates;
    the matrix space is checked on both sides."""
    rng = random.Random(seed)
    x = stratum_point(space, label, p, prec)
    shape = _SHAPES[space]
    bad = []
    for i in range(trials):
        y = right_translate(x, random_unimodular(rng, p, prec, shape.n))
        if shape.two_sided:
            y = left_translate(y, random_unimodular(rng, p, prec, shape.n))
        got = orbit_invariant(y)
        if got != tuple(label):
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
    ops = _shape(space).ops
    if not ops:
        raise ValueError("unknown space %r" % (space,))
    return ops


def satake_mismatches(op, space, height, q, kappa=KAPPA):
    """Coset-sum counts vs the symbolic shift action on every stratum pair
    in the window (PP route shifts under the sign kappa); an empty list
    means the two sides agree exactly.

    The comparison cannot see the sign of kappa: on PPGL3 the Levi-Weyl
    orbit sums of the shifts are symmetric under kappa -> -kappa, so
    kappa = -1 passes too.  The sign is fixed by the catalog tables.
    """
    ops = hecke_operators(space)
    if op not in ops:
        raise ValueError("unknown operator %r for %s" % (op, space))
    shape = _SHAPES[space]
    n, k = shape.n, ops.index(op)
    prec = 2 * height + 4
    group = root_datum("GL", n)
    # the label reads the last coordinate and the determinant
    functionals = LatticeMap.of([(0,) * (n - 1) + (1,), (1,) * n])
    satake = minuscule_satake(group, (1,) * k + (0,) * (n - k))
    if shape.levi is None:
        shifts = borel_shifts(BorelRoute(group, functionals), satake)
    else:
        shifts = pp_shifts(PPRoute(group, shape.levi, functionals), satake,
                           kappa)
    reps = coset_reps("GL%d" % n, op, q, prec)

    window = [l for l in itertools.product(range(-height, height + 1), repeat=2)
              if abs(l[0]) + abs(l[1]) <= height]
    counts = transition_counts(space, reps, window, q, prec)
    bad = []
    for l in window:
        want = {}
        for s, c in shifts:
            tgt = tuple(a + b for a, b in zip(l, s))
            want[tgt] = want.get(tgt, 0) + c.specialize(q)
        want = {k: v for k, v in want.items() if v}
        got = {m: c for (l2, m), c in counts.items() if l2 == l}
        if got != want:
            bad.append((l, sorted(got.items()), sorted(want.items())))
    return bad


def satake_compatibility_check(op, space, height, q) -> bool:
    return not satake_mismatches(op, space, height, q)
