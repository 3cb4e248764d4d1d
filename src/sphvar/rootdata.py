"""Root data for split reductive groups, with exact lattice bookkeeping.

A root datum is given by simple roots inside the character lattice Z^rank
and simple coroots inside the cocharacter lattice, the pairing between the
two being the standard dot product. Everything else (positive roots, Weyl
group, dominance, parabolic quotients) is derived by reflection closure, so
custom ambient groups (products with tori, similitude groups) go through
the same code path as the classical families. The simple roots must give a
generalized Cartan matrix; the positive roots are then closed in their own
half, since a simple reflection s_a permutes the positive roots other than a.

A RootDatum answers Weyl questions about characters only. Cocharacters of
a datum are the characters of its dual, which swaps roots and coroots, so
a question about them is asked of `dual`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .geometry import (
    _exact_int, _idot, _int_vec, kernel_basis, matrix_rank, saturation_quotient,
    span_coordinates,
)
from .record import Record

# Largest root system (twice its positive roots, the half closed here), Weyl
# group or Weyl orbit. Every classical group of rank <= 5 fits
# (|W(B5)| = 3840); a datum that does not close stops at it.
_CLOSURE_CAP = 4096


class RootDatum(Record):
    """Simple roots / coroots of a split group in fixed lattice coordinates."""

    _fields = ("name", "rank", "simple_roots", "simple_coroots")

    def __init__(self, name: str, rank: int, simple_roots: tuple,
                 simple_coroots: tuple):
        roots = tuple(map(_int_vec, simple_roots))
        coroots = tuple(map(_int_vec, simple_coroots))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "simple_roots", roots)
        object.__setattr__(self, "simple_coroots", coroots)
        if rank < 0:
            raise ValueError("rank %d is negative; bad input data" % rank)
        if len(roots) != len(coroots):
            raise ValueError("simple roots and coroots must pair up")
        for a in roots + coroots:
            if len(a) != rank:
                raise ValueError("coordinate length != rank")
        for a, av in zip(roots, coroots):
            if _idot(a, av) != 2:
                raise ValueError("<alpha, alpha^> != 2 for %r / %r" % (a, av))
        if roots and matrix_rank(roots) != len(roots):
            raise ValueError("simple roots are linearly dependent")
        c = self.cartan
        for i, row in enumerate(c):
            for j, x in enumerate(row):
                if i != j and (x > 0 or (x == 0) != (c[j][i] == 0)):
                    raise ValueError(
                        "<alpha_%d, alpha_%d^> = %d, <alpha_%d, alpha_%d^> = %d: "
                        "not a generalized Cartan matrix; bad input data"
                        % (j, i, x, i, j, c[j][i]))

    @property
    def nsimple(self) -> int:
        return len(self.simple_roots)

    # -- roots ---------------------------------------------------------
    @cached_property
    def _char_pairs(self):
        """Simple (root, coroot) pairs: reflections v -> v - <v, av> a of X^*."""
        return tuple(zip(self.simple_roots, self.simple_coroots))

    @cached_property
    def dual(self) -> "RootDatum":
        """The dual datum: roots and coroots swapped, so that its characters
        are the cocharacters here."""
        return RootDatum(self.name + "v", self.rank, self.simple_coroots,
                         self.simple_roots)

    @cached_property
    def _expansion_rows(self):
        """geometry.span_coordinates of the simple roots: (d, top, bottom)."""
        return span_coordinates(self.simple_roots, self.rank)

    def simple_root_expansion(self, v):
        """Coefficients of v in the simple roots, or None if outside the span."""
        d, top, bottom = self._expansion_rows
        if any(_idot(row, v) for row in bottom):
            return None
        return tuple(Fraction(_idot(row, v), d) for row in top)

    @cached_property
    def positive_pairs(self):
        """The positive (root, coroot) pairs, sorted: the simple pairs closed
        under each simple reflection s_a applied to every pair but a's own,
        as s_a permutes the positive roots other than a. A datum with more
        than _CLOSURE_CAP roots, twice the positive ones, is refused."""
        def step(pair):
            b, bv = pair
            return ((_reflect(b, a, av), _reflect(bv, av, a))
                    for a, av in self._char_pairs if a != b)
        message = "root system does not close; bad input data"
        pairs = _closure(self._char_pairs, step, message)
        if 2 * len(pairs) > _CLOSURE_CAP:
            raise ValueError(message)
        return tuple(sorted(pairs))

    def positive_roots(self):
        return tuple(b for b, _ in self.positive_pairs)

    @cached_property
    def rho2(self):
        """2 rho, the sum of the positive roots, as an int tuple."""
        return tuple(map(sum, zip((0,) * self.rank, *self.positive_roots())))

    @property
    def rho(self):
        """Half sum of positive roots, as a Fraction tuple."""
        return tuple(Fraction(x, 2) for x in self.rho2)

    @cached_property
    def cartan(self):
        """cartan[i][j] = <alpha_j, alpha_i^>."""
        return tuple(tuple(_idot(aj, avi) for aj in self.simple_roots)
                     for avi in self.simple_coroots)

    @cached_property
    def weyl_denominator(self):
        """prod over positive roots a of (1 - x^(-a)), as {weight: coeff}."""
        out = {(0,) * self.rank: 1}
        for a, _ in self.positive_pairs:
            nxt = dict(out)
            for w, c in out.items():
                u = tuple(x - y for x, y in zip(w, a))
                nxt[u] = nxt.get(u, 0) - c
            out = {w: c for w, c in nxt.items() if c}
        return out

    # -- Weyl group ------------------------------------------------------
    @cached_property
    def weyl_char(self):
        """The Weyl group as matrices on X^*, closed from x -> x - <x, av> a.

        A matrix is closed as its tuple of columns, so a simple reflection
        acts on it column by column."""
        ident = tuple(tuple(int(i == j) for j in range(self.rank))
                      for i in range(self.rank))

        def step(cols):
            return (tuple(_reflect(c, a, av) for c in cols)
                    for a, av in self._char_pairs)
        group = _closure([ident], step, "Weyl group too large; bad input data")
        return tuple(sorted(tuple(zip(*cols)) for cols in group))

    def weyl_order(self) -> int:
        return len(self.weyl_char)

    def weyl_orbit_char(self, v):
        """Sorted Weyl orbit of the character v."""
        v = self._check_rank(_int_vec(v))
        return tuple(sorted(_closure(
            [v], lambda w: (_reflect(w, x, y) for x, y in self._char_pairs),
            "Weyl orbit too large; bad input data")))

    # -- dominance -------------------------------------------------------
    def _check_rank(self, v):
        """v itself, once its length is the rank: zip would truncate it."""
        if len(v) != self.rank:
            raise ValueError("dimension mismatch: %d vs %d"
                             % (len(v), self.rank))
        return v

    def is_dominant_char(self, v) -> bool:
        self._check_rank(v)
        return all(_idot(v, av) >= 0 for av in self.simple_coroots)

    def dominant_char(self, v):
        """Reflect v along the first simple pair (x, y) with <v, y> < 0 until
        there is none. Each step lowers by one the number of positive roots
        on which v is negative, so the fold stops within #positive roots
        steps; a datum that does not close raises instead."""
        v = self._check_rank(_int_vec(v))
        for _ in range(len(self.positive_pairs) + 1):
            for x, y in self._char_pairs:
                if _idot(v, y) < 0:
                    v = _reflect(v, x, y)
                    break
            else:
                return v
        raise ValueError("Weyl chamber fold does not stop; bad input data")

    def central_cochar_basis(self):
        """Basis of the cocharacters killed by every root (the center rank)."""
        return tuple(kernel_basis(self.simple_roots, self.rank))


def _reflect(v, x, y):
    """v - <v, y> x: with (x, y) a (root, coroot) pair this is the simple
    reflection of a character, with (coroot, root) that of a cocharacter."""
    c = _idot(v, y)
    return tuple(a - c * b for a, b in zip(v, x))


def _closure(seeds, step, message):
    """Breadth-first closure of seeds under step (element -> its images);
    ValueError(message) once it holds more than _CLOSURE_CAP elements."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for y in step(x):
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        if len(seen) > _CLOSURE_CAP:
            raise ValueError(message)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# builders

def _chain_cartan(m: int):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(m)]
            for i in range(m)]


def _chain(n, m):
    """The A-chain e_i - e_(i+1), i < m, in Z^n."""
    return [tuple(int(j == i) - int(j == i + 1) for j in range(n))
            for i in range(m)]


def _unit(n, i, c=1):
    e = [0] * n
    e[i] = c
    return tuple(e)


def root_datum(kind: str, n: int) -> RootDatum:
    """Standard split groups in their usual coordinates.

    T(n) torus; GL(n) and the similitude group GSp(n), n even, use the
    e-basis with an extra similitude coordinate for GSp; SL(n) lives in
    fundamental-weight coordinates (roots are Cartan columns, coroots are
    unit vectors) and PGL(n) in root coordinates (the transpose setup);
    B/C/D(n) are the odd orthogonal, symplectic and even orthogonal groups
    in the e-basis; G(2) is in fundamental-weight coordinates. A family
    with more roots than _CLOSURE_CAP is refused before it is built: its
    root system could not close.
    """
    k = kind.upper()
    roots = {"GL": n * (n - 1), "SL": n * (n - 1), "PGL": n * (n - 1),
             "B": 2 * n * n, "C": 2 * n * n, "D": 2 * n * (n - 1),
             "GSP": n * n // 2 if n % 2 == 0 else 0}.get(k, 0)
    if n > 0 and roots > _CLOSURE_CAP:
        raise ValueError("%s(%d) has %d roots, more than the closure cap %d; "
                         "bad input data" % (k, n, roots, _CLOSURE_CAP))
    if k == "T":
        return RootDatum("t%d" % n, n, (), ())
    if k == "GL":
        simples = _chain(n, n - 1)
        return RootDatum("gl%d" % n, n, tuple(simples), tuple(simples))
    if k == "SL":
        m = n - 1
        A = _chain_cartan(m)
        roots = [tuple(A[i][j] for i in range(m)) for j in range(m)]
        coroots = [_unit(m, j) for j in range(m)]
        return RootDatum("sl%d" % n, m, tuple(roots), tuple(coroots))
    if k == "PGL":
        m = n - 1
        A = _chain_cartan(m)
        roots = [_unit(m, j) for j in range(m)]
        coroots = [tuple(A[j][i] for i in range(m)) for j in range(m)]
        return RootDatum("pgl%d" % n, m, tuple(roots), tuple(coroots))
    if k in ("B", "C", "D"):
        simples = _chain(n, n - 1)
        if k == "B":
            if n < 2:
                raise ValueError("B needs rank >= 2")
            roots = simples + [_unit(n, n - 1)]
            coroots = simples + [_unit(n, n - 1, 2)]
        elif k == "C":
            if n < 2:
                raise ValueError("C needs rank >= 2")
            roots = simples + [_unit(n, n - 1, 2)]
            coroots = simples + [_unit(n, n - 1)]
        else:
            if n < 3:
                raise ValueError("D needs rank >= 3")
            last = tuple((1 if j in (n - 2, n - 1) else 0) for j in range(n))
            roots = simples + [last]
            coroots = simples + [last]
        return RootDatum("%s%d" % (k.lower(), n), n, tuple(roots), tuple(coroots))
    if k == "G":
        if n != 2:
            raise ValueError("G exists only in rank 2")
        roots = ((2, -3), (-1, 2))
        coroots = ((1, 0), (0, 1))
        return RootDatum("g2", 2, roots, coroots)
    if k == "GSP":
        if n % 2 != 0 or n < 2:
            raise ValueError("GSp needs an even size >= 2")
        p = n // 2
        rank = p + 1  # (x_1..x_p, similitude)
        simples = _chain(rank, p - 1)
        long_root = tuple((2 if j == p - 1 else (-1 if j == p else 0)) for j in range(rank))
        roots = simples + [long_root]
        coroots = simples + [_unit(rank, p - 1)]
        return RootDatum("gsp%d" % n, rank, tuple(roots), tuple(coroots))
    raise ValueError("unknown group kind %r" % (kind,))


def product_datum(*data: RootDatum) -> RootDatum:
    rank = sum(d.rank for d in data)
    roots, coroots = [], []
    off = 0
    for d in data:
        for a, av in zip(d.simple_roots, d.simple_coroots):
            roots.append((0,) * off + a + (0,) * (rank - off - d.rank))
            coroots.append((0,) * off + av + (0,) * (rank - off - d.rank))
        off += d.rank
    return RootDatum("x".join(d.name for d in data), rank, tuple(roots), tuple(coroots))


def levi_datum(d: RootDatum, indices) -> RootDatum:
    indices = tuple(sorted(set(map(_exact_int, indices))))
    for i in indices:
        if not 0 <= i < d.nsimple:
            raise ValueError("bad simple-root index %d" % i)
    return RootDatum(
        "%s[%s]" % (d.name, ",".join(str(i) for i in indices)), d.rank,
        tuple(d.simple_roots[i] for i in indices),
        tuple(d.simple_coroots[i] for i in indices))


# ---------------------------------------------------------------------------
# parabolic data

class ParabolicDatum(Record):
    """A standard parabolic P = M U inside the group of `datum`.

    Carries the coweight lattice of the Levi quotient Lambda = X_*(T) mod
    the saturated span of the M-coroots, together with a section, the
    rho-shifts, and the coroots of the unipotent radical with their
    2rho_M-grades.
    """

    _fields = ("datum", "levi_indices")

    def __init__(self, datum: RootDatum, levi_indices: tuple):
        idx = tuple(sorted(set(map(_exact_int, levi_indices))))
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "levi_indices", idx)
        for i in idx:
            if not 0 <= i < datum.nsimple:
                raise ValueError("bad Levi index %d" % i)

    @cached_property
    def levi(self) -> RootDatum:
        return levi_datum(self.datum, self.levi_indices)

    @cached_property
    def rho_m(self):
        return self.levi.rho

    @cached_property
    def rho_p(self):
        if any(map(self._rho_p_halves, self.levi.simple_coroots)):
            raise RuntimeError("rho_P not orthogonal to Levi coroots")
        return tuple(Fraction(a - b, 2)
                     for a, b in zip(self.datum.rho2, self.levi.rho2))

    @cached_property
    def radical_pairs(self):
        """Positive (root, coroot) pairs of G outside the Levi."""
        levi_roots = {b for b, _ in self.levi.positive_pairs}
        return tuple(p for p in self.datum.positive_pairs if p[0] not in levi_roots)

    @cached_property
    def quotient(self):
        """(proj, section) onto the Levi-quotient coweight lattice."""
        return saturation_quotient(list(self.levi.simple_coroots), self.datum.rank)

    def pi(self, v):
        return self.quotient[0].apply(_int_vec(v))

    def lift(self, theta):
        return self.quotient[1].apply(_int_vec(theta))

    def grade(self, coroot) -> int:
        """<2 rho_M, coroot>."""
        return _idot(self.levi.rho2, self.datum._check_rank(coroot))

    def _rho_p_halves(self, v) -> int:
        """<2 rho_P, v> = <2 rho, v> - <2 rho_M, v>."""
        return _idot(self.datum.rho2, v) - _idot(self.levi.rho2, v)

    def rho_p_pair(self, theta) -> Fraction:
        """<rho_P, lift(theta)>; independent of the choice of lift."""
        return Fraction(self._rho_p_halves(self.lift(theta)), 2)

    @cached_property
    def monoid_generators(self):
        """Images of the radical coroots, deduplicated, sorted."""
        return tuple(sorted({self.pi(bv) for _, bv in self.radical_pairs}))
