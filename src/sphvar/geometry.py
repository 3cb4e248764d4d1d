"""Exact rational polyhedral geometry.

A cone vector is a primitive integer tuple: cones store their generators
and dual rows that way, so membership is an integer dot product, and a
rational point is first scaled by the positive lcm of its denominators,
which keeps every sign. Every decision procedure here is exact: no floating
point anywhere. Linear algebra runs on integer rows: one fraction-free
Gauss-Jordan elimination (Bareiss 1968) gives ranks, primitive integer
kernels, span coordinates (a common denominator d with integer rows, so a
coefficient is an integer dot product over d) and unimodular inverses.
These answers are integer; Fractions appear only in the public rational
API `row_echelon` and `solve_linear`. The facet description of a cone comes
from integer double description, which adds the constraint rows one at a
time (`_halfspace_gens`). Feasibility of a homogeneous system, given as
integer rows that must be >= 0 and strict rows that must be > 0, is a
question to the same engine: a relative-interior point of the cone of all
the rows (`feasible`).
Lattice points are enumerated depth first. Each coordinate runs over the
interval, inside the l1 budget, that the dual rows of the cone's projection
onto the coordinates so far leave it (`Cone.prefix_duals`), so a prefix is
kept exactly when some point of the cone extends it, and the work follows
the points kept rather than the size of the l1 ball.
"""
from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import gcd, lcm

from .record import Record

_ZERO = Fraction(0)


def vneg(u) -> tuple:
    return tuple(-a for a in u)


def vdot(u, v) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _idot(u, v):
    return sum(map(operator.mul, u, v))


def _int_row(row):
    """The row times the lcm of its denominators: a positive multiple in Z^n.
    A row of ints is its own multiple."""
    if {int}.issuperset(map(type, row)):
        return list(row)
    row = [a if isinstance(a, (int, Fraction)) else Fraction(a) for a in row]
    den = lcm(*(a.denominator for a in row))
    return [a.numerator * (den // a.denominator) for a in row]


def _exact_int(x) -> int:
    i = int(x)
    if i != x:
        raise ValueError("non-integral entry %r" % (x,))
    return i


def _int_vec(v) -> tuple:
    """v as an int tuple; ValueError on a non-integral entry."""
    v = tuple(v)
    return v if {int}.issuperset(map(type, v)) else tuple(map(_exact_int, v))


def _int_primitive(v):
    g = gcd(*v)
    return tuple(a // g for a in v) if g > 1 else tuple(v)


def primitive(v) -> tuple:
    """Scale by a positive rational so entries are coprime integers.

    Direction is preserved (rays must not flip). Zero maps to zero.
    """
    return _int_primitive(_int_row(v))


# ---------------------------------------------------------------------------
# Matrix routines: one fraction-free Gauss-Jordan core on integer rows

def _gauss_jordan(rows, ncols: int):
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss 1968).

    Returns (rows, pivot_columns, d): the nonzero rows of d * RREF in pivot
    order, where every pivot entry equals the same positive integer d (1 if
    there is no pivot). Each step replaces a row by
    (p * row - f * pivot_row) / prev, which is exact because every entry is
    a signed minor of the input (Sylvester's identity).
    """
    work = [list(r) for r in rows]
    m = len(work)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == m:
            break
        pr = next((i for i in range(r, m) if work[i][c]), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        prow = work[r]
        p = prow[c]
        for i in range(m):
            f = work[i][c]
            if i != r and (f or p != prev):  # otherwise the row is unchanged
                work[i] = [(p * x - f * y) // prev for x, y in zip(work[i], prow)]
        prev = p
        pivots.append(c)
    sign = -1 if prev < 0 else 1
    return [[sign * a for a in row] for row in work[:len(pivots)]], pivots, abs(prev)


def _int_kernel(ech, pivots, d, n: int):
    """Kernel basis from _gauss_jordan output, as integer vectors.

    Each vector is d > 0 times the RREF kernel vector of its free column
    (the one with a 1 there), in free-column order.
    """
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        x = [0] * n
        x[fc] = d
        for row, pc in zip(ech, pivots):
            x[pc] = -row[fc]
        basis.append(x)
    return basis


def row_echelon(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    if not rows:
        return [], []
    ints = [_int_row(r) for r in rows]
    ech, piv, d = _gauss_jordan(ints, len(ints[0]))
    return [tuple(Fraction(x, d) if x else _ZERO for x in row) for row in ech], piv


def matrix_rank(rows) -> int:
    ncols = len(rows[0]) if rows else 0
    return len(_gauss_jordan([_int_row(r) for r in rows], ncols)[1])


def kernel_basis(rows, n: int):
    """Basis of {x in Q^n : <row, x> = 0 for every row}, as primitive int
    tuples, one per free column of the RREF."""
    ints = [_int_row(r) for r in rows]
    return [_int_primitive(x) for x in _int_kernel(*_gauss_jordan(ints, n), n)]


def span_coordinates(basis, n: int):
    """(d, top, bottom) for linearly independent integer vectors in Z^n.

    One elimination of [B | I], B having the basis vectors as columns,
    gives E.[B | I] = [R | E] in RREF; independence makes R the identity
    over zero rows. top and bottom are the rows of d * E split there: v
    lies in the span iff bottom.v = 0, and then its coefficients are
    top.v / d. Raises ValueError if the vectors are dependent.
    """
    k = len(basis)
    aug = [[b[i] for b in basis] + [int(i == j) for j in range(n)]
           for i in range(n)]
    ech, piv, d = _gauss_jordan(aug, k + n)
    if piv[:k] != list(range(k)):
        raise ValueError("basis vectors are linearly dependent")
    inv = [tuple(row[k:]) for row in ech]
    return d, inv[:k], inv[k:]


def solve_linear(rows, rhs):
    """One exact solution x of rows . x = rhs, or None if inconsistent."""
    if not rows:
        return ()
    n = len(rows[0])
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    ech, piv = row_echelon(aug)
    x = [Fraction(0)] * n
    for r, pc in enumerate(piv):
        if pc == n:
            return None
        x[pc] = ech[r][n]
    return tuple(x)


# ---------------------------------------------------------------------------
# Cones

def _elim(s, u, t, v):
    """The primitive part of s*u - t*v."""
    return _int_primitive([s * x - t * y for x, y in zip(u, v)])


def _halfspace_gens(rows, n: int):
    """Generators of {y in Q^n : <a, y> >= 0 for all a in rows}.

    Returns (rays, lineality_basis), the rays sorted. Integer double
    description (Motzkin-Raiffa-Thompson-Thrall 1953; Fukuda-Prodon 1996):
    Q^n starts as n lines and no rays, and the rows a are added one at a
    time, each ray carrying the bitmask of the rows it lies on.
    - Line step: a line l with <a, l> = s > 0 (after a sign flip) is the
      pivot. Every other line and ray r becomes the primitive part of
      s*r - <a, r>*l, which lies on a, and l turns into a ray.
    - Otherwise the rays with <a, r> >= 0 stay, and each adjacent pair of
      opposite signs (p, q) adds <a, p>*q - <a, q>*p. Adjacency is the
      combinatorial test: no third ray lies on every row both p and q lie on.
    Every ray is then reduced modulo the RREF of the lineality by a positive
    integer combination, which makes it canonical.
    """
    arows = []
    seen = set()
    for r in rows:
        if len(r) != n:
            raise ValueError("inequality dimension %d != ambient %d" % (len(r), n))
        r = _int_row(r)
        if any(r):
            r = _int_primitive(r)
            if r not in seen:
                seen.add(r)
                arows.append(r)
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rays = []  # (zero set bitmask, primitive vector)
    for i, a in enumerate(arows):
        bit = 1 << i
        k = next((k for k, l in enumerate(lines) if _idot(a, l)), None)
        if k is not None:
            l = lines.pop(k)
            s = _idot(a, l)
            if s < 0:
                l, s = vneg(l), -s
            lines = [_elim(s, m, _idot(a, m), l) for m in lines]
            rays = [(z | bit, _elim(s, r, _idot(a, r), l)) for z, r in rays]
            rays.append((bit - 1, l))
            continue
        kept, pos, neg = [], [], []
        for z, r in rays:
            t = _idot(a, r)
            if t > 0:
                pos.append((t, z, r))
                kept.append((z, r))
            elif t < 0:
                neg.append((t, z, r))
            else:
                kept.append((z | bit, r))
        for tp, zp, p in pos:
            for tq, zq, q in neg:
                common = zp & zq
                if sum(common & ~z == 0 for z, _ in rays) == 2:
                    kept.append((common | bit, _elim(tp, q, tq, p)))
        rays = kept
    if not lines:  # the lines span the kernel of arows: it is 0
        return sorted({r for _, r in rays}), []
    lin = kernel_basis(arows, n)
    red, red_piv, e = _gauss_jordan(lin, n)
    out = set()
    for _, k in rays:
        # e > 0 times the remainder of k modulo the RREF of the lineality
        y = [e * a for a in k]
        for row, pc in zip(red, red_piv):
            f = k[pc]
            if f:
                y = [a - f * b for a, b in zip(y, row)]
        out.add(_int_primitive(y))
    return sorted(out), lin


def _generators(rows, n: int):
    """Sorted generators of {y : <a, y> >= 0 for all a in rows}: the rays
    and both signs of each lineality basis vector."""
    rays, lin = _halfspace_gens(rows, n)
    return tuple(sorted(rays + lin + [vneg(b) for b in lin]))


class Cone:
    """Rational polyhedral cone, stored by primitive integer generators."""

    __slots__ = ("n", "generators", "_dual_gens", "_prefix_duals")

    def __init__(self, n: int, generators=()):
        gens = []
        seen = set()
        for g in generators:
            p = primitive(g)
            if len(p) != n:
                raise ValueError("generator dimension %d != ambient %d" % (len(p), n))
            if not any(p) or p in seen:
                continue
            seen.add(p)
            gens.append(p)
        self.n = n
        self.generators = tuple(sorted(gens))
        self._dual_gens = None
        self._prefix_duals = None

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Cone":
        return Cone(n, ())

    @staticmethod
    def full(n: int) -> "Cone":
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            gens.append(tuple(e))
            e2 = list(e)
            e2[i] = -1
            gens.append(tuple(e2))
        return Cone(n, gens)

    @staticmethod
    def orthant(n: int) -> "Cone":
        gens = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            gens.append(tuple(e))
        return Cone(n, gens)

    @staticmethod
    def from_inequalities(rows, n: int) -> "Cone":
        return Cone(n, _generators(rows, n))

    # -- structure ----------------------------------------------------
    def dual_generators(self):
        if self._dual_gens is None:
            self._dual_gens = _generators(self.generators, self.n)
        return self._dual_gens

    def prefix_duals(self):
        """Level i: the dual generators y of the cone's projection onto its
        first i + 1 coordinates with y_i != 0 (a row with y_i = 0 is one of
        level i - 1's), so levels 0 ... i cut out that projection."""
        if self._prefix_duals is None:
            n = self.n
            self._prefix_duals = tuple(
                tuple(y for y in (self.dual_generators() if i == n - 1 else
                                  _generators([g[:i + 1] for g in self.generators], i + 1))
                      if y[i])
                for i in range(n))
        return self._prefix_duals

    def dual(self) -> "Cone":
        return Cone(self.n, self.dual_generators())

    def contains(self, v) -> bool:
        v = _int_row(v)
        if len(v) != self.n:
            raise ValueError("point dimension %d != ambient %d" % (len(v), self.n))
        return all(_idot(y, v) >= 0 for y in self.dual_generators())

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other):
        if not isinstance(other, Cone) or self.n != other.n:
            return NotImplemented
        return self.contains_cone(other) and other.contains_cone(self)

    def __repr__(self):
        return "Cone(%d, %s)" % (self.n, list(self.generators))

    def dim(self) -> int:
        if not self.generators:
            return 0
        return matrix_rank(self.generators)

    def lineality_basis(self):
        # lineality = orthogonal complement of the dual cone's span
        return kernel_basis(self.dual_generators(), self.n)

    def lineality_rank(self) -> int:
        return len(self.lineality_basis())

    def is_strictly_convex(self) -> bool:
        return self.lineality_rank() == 0

    def relative_interior_point(self) -> tuple:
        """The sum of the generators: a combination of all of them with
        positive weights, hence a point of the relative interior."""
        return tuple(map(sum, zip(*self.generators))) or (0,) * self.n

    def relative_interior_contains(self, v) -> bool:
        v = _int_row(v)
        if not self.contains(v):
            return False
        for y in self.dual_generators():
            if _idot(y, v) == 0:
                # a dual generator vanishing at v must vanish on the cone
                if any(_idot(y, g) for g in self.generators):
                    return False
        return True

    def intersect(self, other: "Cone") -> "Cone":
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        rows = list(self.dual_generators()) + list(other.dual_generators())
        return Cone.from_inequalities(rows, self.n)

    def rays_and_lineality(self):
        """Minimal description: extreme rays mod lineality, lineality basis."""
        return _halfspace_gens(self.dual_generators(), self.n)


def lattice_points(c: Cone, height: int):
    """All integer points of c with l1 norm <= height, lexicographic order.

    Depth-first over the coordinates. Coordinate i runs over the integers x
    in the l1 budget [-b, b] with <y, prefix> + y_i x >= 0 for every row y
    of level i of `Cone.prefix_duals`. The rows of levels 0 ... i cut out
    the projection of c onto its first i + 1 coordinates, so a prefix is
    kept exactly when some point of c extends it, and at the last
    coordinate the test is membership itself.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    n = c.n
    levels = c.prefix_duals()
    out = []
    point = [0] * n

    def rec(i, budget):
        if i == n:
            out.append(tuple(point))
            return
        lo, hi = -budget, budget
        for y in levels[i]:
            s, a = _idot(y, point), y[i]  # point[i] is 0 here
            if a > 0:
                lo = max(lo, -(s // a))
            else:
                hi = min(hi, s // -a)
        for x in range(lo, hi + 1):
            point[i] = x
            rec(i + 1, budget - abs(x))
        point[i] = 0

    rec(0, height)
    return out


# ---------------------------------------------------------------------------
# Linear systems

def feasible(rows, strict, n: int):
    """A primitive int tuple w in Z^n with <a, w> >= 0 for every row a and
    <b, w> > 0 for every strict row b, or None if there is none.

    The closed system (strict rows relaxed to >=) is a cone, and w is the
    primitive part of a point of its relative interior. A strict row that is
    positive anywhere on the cone is positive on its relative interior, so
    the system is feasible iff every strict row is positive at w. An
    equation <a, w> = 0 is the two rows a and -a.
    """
    strict = list(strict)
    rows = list(rows) + strict
    cone = Cone.from_inequalities(rows, n)
    w = _int_primitive(cone.relative_interior_point())
    for a in rows:
        if _idot(a, w) < 0:
            raise RuntimeError("witness %r fails %r" % (w, a))
    return None if any(_idot(b, w) == 0 for b in strict) else w


# ---------------------------------------------------------------------------
# Integer lattice algebra

def smith_normal_form(mat):
    """U, D, V with U*mat*V = D diagonal, U and V unimodular, ints only."""
    A = [list(map(_exact_int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_row(dst, src, c):
        A[dst] = [a + c * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def addmul_col(dst, src, c):
        for r in A:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    t = 0
    while t < min(m, n):
        # nonzero pivot of least absolute value in the corner submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        for i in range(t + 1, m):
            addmul_row(i, t, -(A[i][t] // A[t][t]))
        for j in range(t + 1, n):
            addmul_col(j, t, -(A[t][j] // A[t][t]))
        if any(A[i][t] != 0 for i in range(t + 1, m)) or \
           any(A[t][j] != 0 for j in range(t + 1, n)):
            # remainders are smaller than the pivot: reselect and repeat
            continue
        # enforce d_t | every entry of the remaining submatrix
        viol = None
        for i in range(t + 1, m):
            if any(A[i][j] % A[t][t] != 0 for j in range(t + 1, n)):
                viol = i
                break
        if viol is not None:
            addmul_row(t, viol, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
        t += 1
    return U, A, V


def elementary_divisors(mat):
    _, D, _ = smith_normal_form(mat)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i] != 0:
            out.append(abs(D[i][i]))
    return out


class LatticeMap(Record):
    """Integer matrix m x n as a map Z^n -> Z^m, v |-> rows . v."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple):
        object.__setattr__(self, "rows", rows)

    @staticmethod
    def of(rows) -> "LatticeMap":
        rows = tuple(map(_int_vec, rows))
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise ValueError("ragged matrix")
        return LatticeMap(rows)

    @staticmethod
    def identity(n: int) -> "LatticeMap":
        return LatticeMap.of([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def apply(self, v):
        # a 0-row map (projection onto the trivial lattice) accepts anything
        if self.rows and len(v) != self.n:
            raise ValueError("bad vector length")
        return tuple(_idot(r, v) for r in self.rows)

    def transpose(self) -> "LatticeMap":
        return LatticeMap.of(list(zip(*self.rows))) if self.rows else LatticeMap.of([])

    def compose(self, other: "LatticeMap") -> "LatticeMap":
        # self . other
        return LatticeMap.of([
            [sum(self.rows[i][k] * other.rows[k][j] for k in range(self.n))
             for j in range(other.n)]
            for i in range(self.m)])

    def rank(self) -> int:
        return matrix_rank(self.rows)

    def is_injective(self) -> bool:
        return self.rank() == self.n

    def image_cone(self, c: Cone) -> Cone:
        return Cone(self.m, [self.apply(g) for g in c.generators])


def torsion_order(m: LatticeMap) -> int:
    """Order of the torsion subgroup of coker(m); m must be injective."""
    if not m.is_injective():
        raise ValueError("lattice map is not injective")
    out = 1
    for d in elementary_divisors(m.rows):
        out *= d
    return out


def inverse_unimodular(mat):
    """Exact inverse of a square integer matrix with det +-1, as int rows."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    try:
        d, top, _ = span_coordinates(list(zip(*mat)), n)
    except ValueError:
        raise ValueError("matrix is singular") from None
    if any(x % d for row in top for x in row):
        raise ValueError("matrix is not unimodular")
    return [tuple(x // d for x in row) for row in top]


def saturation_quotient(vectors, n: int):
    """Projection of Z^n onto Z^n / saturation(span(vectors)).

    Returns (proj, section): proj is a LatticeMap Z^n -> Z^(n-r) whose kernel
    is the saturation of the integer span, and section is a right inverse.
    """
    vecs = [v for v in LatticeMap.of(vectors).rows if any(v)]
    if not vecs:
        return LatticeMap.identity(n), LatticeMap.identity(n)
    U, D, V = smith_normal_form(vecs)
    r = sum(1 for i in range(min(len(D), n)) if D[i][i] != 0)
    # x . V has support in the first r coordinates exactly on the saturation
    Vinv = inverse_unimodular(V)
    proj_rows = [[V[i][j] for i in range(n)] for j in range(r, n)]      # (x.V)[r:]
    sect_rows = [[Vinv[r + j][i] for j in range(n - r)] for i in range(n)]  # y.Vinv
    return LatticeMap.of(proj_rows), LatticeMap.of(sect_rows)


# ---------------------------------------------------------------------------
# Hilbert bases (pointed cones of small rank)

# Largest cone dimension hilbert_basis_pointed takes: the parallelepiped
# scan grows like (generator size)^dim.
HILBERT_MAX_RANK = 4


def hilbert_basis_pointed(c: Cone):
    """Minimal monoid generators of c cap Z^n for a pointed cone c.

    Candidates are the integer points of the parallelepipeds spanned by the
    maximal linearly independent subsets of the extreme rays (Caratheodory),
    pruned to irreducible elements.
    """
    rays, lin = c.rays_and_lineality()
    if lin:
        raise ValueError("cone has lineality; Hilbert basis undefined")
    d = c.dim()
    if d > HILBERT_MAX_RANK:
        raise ValueError("unsupported rank %d for Hilbert basis" % d)
    if not rays:
        return []
    n = c.n
    cands = set(rays)
    for sub in itertools.combinations(rays, d):
        try:
            e, top, bottom = span_coordinates(sub, n)
        except ValueError:
            continue
        # scan the bounding box of the parallelepiped of sub: a point is in
        # the parallelepiped iff it lies in the span (bottom.pt = 0) and
        # every coefficient top.pt / e lies in [0, 1]
        box = [range(sum(min(r[i], 0) for r in sub),
                     sum(max(r[i], 0) for r in sub) + 1) for i in range(n)]
        for pt in itertools.product(*box):
            if (any(pt) and not any(_idot(row, pt) for row in bottom)
                    and all(0 <= _idot(row, pt) <= e for row in top)):
                cands.add(pt)
    # x is reducible iff x - y lies in c for another candidate y
    cand_list = sorted(cands)
    return [x for x in cand_list
            if not any(y != x and c.contains(tuple(a - b for a, b in zip(x, y)))
                       for y in cand_list)]
