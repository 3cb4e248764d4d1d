"""Basic functions, unramified Hecke shifts, local L-factors, distance bounds.

Everything is exact.  Symbolic tables hold QLaurent values (Laurent
polynomials in q^(1/2)); specialization to a rational prime power goes
through Fraction; the routes pair with the int 2 rho (RootDatum.rho2) and
give QLaurent int exponents of q^(1/2).  Strata are addressed by integer
labels, and every computation route carries the lattice map from
cocharacter data to labels, so independent routes for the same space
produce tables that can be compared entry by entry.  A horospherical datum
determines its Borel and PP routes (derived_route), and one dispatcher
(route_table) computes a table along any route.  A PP table is read off
the symmetric powers of the f-fixed dual radical: every Sym^i weight names
its stratum and its q-exponent.

Conventions fixed by the test suite rather than by derivation:
  * delta_P^(1/2) at a cocharacter point contributes q^(-<rho_P, coweight>);
    the smooth plane case forces this sign.
  * evaluation of a residual character beta at the rho_M-shifted torus point
    contributes q^(KAPPA*<2 rho_M, beta>/2); KAPPA is the single global sign
    below, and the suite asserts that exactly one choice survives the
    brute-force coset checks.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .chars import (QLaurent, WeightChar, _symmetrize, decompose, kostant_counter,
                    sym_powers_upto)
from .geometry import (Cone, LatticeMap, _idot, _int_vec, feasible,
                       hilbert_basis_pointed, inverse_unimodular, lattice_points,
                       matrix_rank, saturation_quotient, vdot, vneg)
from .record import Record
from .rootdata import ParabolicDatum, RootDatum
from .spherical import enumerate_orbits

KAPPA = 1


# ---------------------------------------------------------------------------
# computation routes

class BorelRoute(Record):
    """Full-flag route: strata are cocharacters of the acting group.

    label_map sends cocharacter coordinates to stratum labels and must be
    square unimodular, so every label determines its cocharacter.
    """

    __slots__ = _fields = ("group", "label_map")

    def __init__(self, group: RootDatum, label_map: LatticeMap):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "label_map", label_map)

    def parabolic(self) -> ParabolicDatum:
        return ParabolicDatum(self.group, ())


class PPRoute(Record):
    """Derived-parabolic route: strata live in the Levi coweight quotient.

    label_map is defined on ambient cocharacter coordinates and must kill
    the Levi coroots, so labels are well defined on quotient classes.
    """

    # no __slots__: the cached parabolic lives in the instance __dict__
    _fields = ("group", "levi", "label_map")

    def __init__(self, group: RootDatum, levi: tuple, label_map: LatticeMap):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "levi", levi)
        object.__setattr__(self, "label_map", label_map)

    def parabolic(self) -> ParabolicDatum:
        return self._parabolic

    @cached_property
    def _parabolic(self):
        p = ParabolicDatum(self.group, self.levi)
        for bv in p.levi.simple_coroots:
            if any(x != 0 for x in self.label_map.apply(bv)):
                raise ValueError("label map does not kill Levi coroot %r" % (bv,))
        return p


class SmoothRoute(Record):
    """Smooth affine closure: the basic function is the indicator of X(o)."""

    __slots__ = ()


class TransportRoute(Record):
    """Reuse a partner entry's table through an identification of closures.

    iota maps labels of this space to labels of the partner space.
    """

    __slots__ = _fields = ("partner", "iota")

    def __init__(self, partner: str, iota: LatticeMap):
        object.__setattr__(self, "partner", partner)
        object.__setattr__(self, "iota", iota)


def derived_route(datum, kind: str):
    """The datum's Borel or PP route: the group is the non-torus block of the
    ambient group (all of it when there are no roots), the label functionals
    are the transposed lattice_map rows of that block, and the PP Levi is
    datum.levi_roots."""
    rd = datum.ambient
    coords = [j for j in range(rd.rank)
              if any(a[j] for a in rd.simple_roots)
              or any(av[j] for av in rd.simple_coroots)]
    if len(coords) in (0, rd.rank):
        group, coords = rd, range(rd.rank)
    else:
        group = RootDatum(
            rd.name + "-g", len(coords),
            tuple(tuple(a[j] for j in coords) for a in rd.simple_roots),
            tuple(tuple(av[j] for j in coords) for av in rd.simple_coroots))
    rows = [datum.lattice_map.rows[j] for j in coords]
    labels = LatticeMap.of([tuple(row[i] for row in rows)
                            for i in range(datum.rank)])
    if kind == "borel":
        return BorelRoute(group, labels)
    if kind == "pp":
        return PPRoute(group, tuple(datum.levi_roots), labels)
    raise ValueError("unknown route kind %r" % (kind,))


# ---------------------------------------------------------------------------
# the dual radical and its f-fixed subspace

class DualRadicalRep(Record):
    """Coroots outside the Levi, tagged with central image and grade.

    weights: tuple of (coroot, theta_bar, m) where theta_bar is the class in
    the Levi coweight quotient and m = <2 rho_M, coroot> is the principal
    grade.
    """

    __slots__ = _fields = ("parabolic", "weights")

    def __init__(self, parabolic: ParabolicDatum, weights: tuple):
        object.__setattr__(self, "parabolic", parabolic)
        object.__setattr__(self, "weights", weights)


class FFixedRep(Record):
    """Lowest-weight lines of the principal sl2-strings in the dual radical.

    entries: tuple of (theta_bar, m, multiplicity) with m <= 0 the lowest
    grade of the string; multiplicity is d_m - d_{m-2} for the grade counts
    d of the class.
    """

    __slots__ = _fields = ("parabolic", "entries")

    def __init__(self, parabolic: ParabolicDatum, entries: tuple):
        object.__setattr__(self, "parabolic", parabolic)
        object.__setattr__(self, "entries", entries)

    def total_multiplicity(self) -> int:
        return sum(mult for _, _, mult in self.entries)


def dual_radical(p: ParabolicDatum) -> DualRadicalRep:
    if not p.radical_pairs:
        raise ValueError("no radical: the Levi is the whole group")
    weights = []
    for _, bv in p.radical_pairs:
        tb = p.pi(bv)
        if all(x == 0 for x in tb):
            raise ValueError("radical coroot %r has trivial central image" % (bv,))
        weights.append((bv, tb, p.grade(bv)))
    return DualRadicalRep(p, tuple(sorted(weights)))


def f_fixed(r: DualRadicalRep) -> FFixedRep:
    by_class = {}
    for _, tb, m in r.weights:
        by_class.setdefault(tb, {})
        by_class[tb][m] = by_class[tb].get(m, 0) + 1
    entries = []
    for tb in sorted(by_class):
        d = by_class[tb]
        if any(d.get(m, 0) != d.get(-m, 0) for m in d):
            raise ValueError("not an sl2-character: asymmetric grades at %r" % (tb,))
        # string lowest weights by differencing along each parity chain
        for m in range(min(d), 1):
            mult = d.get(m, 0) - d.get(m - 2, 0)
            if mult < 0:
                raise ValueError("not an sl2-character: grade gap at %r" % (tb,))
            if mult:
                entries.append((tb, m, mult))
    return FFixedRep(r.parabolic, tuple(entries))


def _external_char(ff: FFixedRep) -> WeightChar:
    # quotient coordinates extended by one grade coordinate
    return WeightChar.of([(tb + (m,), mult) for tb, m, mult in ff.entries])


# ---------------------------------------------------------------------------
# basic function tables

class BasicFunctionTable(Record):
    """Finitely supported map from stratum labels to exact q-Laurent values."""

    __slots__ = _fields = ("datum_name", "case", "rank", "values",
                           "truncation", "height")

    def __init__(self, datum_name: str, case: str, rank: int,
                 values: tuple,  # ((label, QLaurent), ...) sorted by label
                 truncation: int, height: int):
        object.__setattr__(self, "datum_name", datum_name)
        object.__setattr__(self, "case", case)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "height", height)

    @staticmethod
    def of(datum_name, case, rank, mapping, truncation, height) -> "BasicFunctionTable":
        items = mapping.items() if isinstance(mapping, dict) else mapping
        vals = tuple(sorted((_int_vec(l), v) for l, v in items if not v.is_zero()))
        for l, _ in vals:
            if len(l) != rank:
                raise ValueError("label %r has wrong rank" % (l,))
        return BasicFunctionTable(datum_name, case, rank, vals, truncation, height)

    def value(self, label) -> QLaurent:
        return dict(self.values).get(_int_vec(label), QLaurent.zero())

    def support(self):
        return [l for l, _ in self.values]

    def specialize(self, q0):
        return {l: v.specialize(q0) for l, v in self.values}


def _truncation_default(group: RootDatum, lifted_gens, height: int) -> int:
    # height * max(1, ceil|<rho, g>|) + 2
    m = max([1] + [(abs(_idot(group.rho2, g)) + 1) // 2 for g in lifted_gens])
    return height * m + 2


def basic_function_borel(datum, route: BorelRoute, height: int) -> BasicFunctionTable:
    """Table over the labels of l1-norm <= height by the Kostant-count formula.

    Phi0(lam) = q^(-<rho,lam>) * sum_i q^(-i) * K_i(-lam), K_i the number of
    multisets of i positive coroots with the given sum; the series is finite
    per stratum and zero unless -lam lies in N(positive coroots), so only the
    labels M lam (M the label map) of that cone, which the simple coroots
    span, are scanned.
    """
    g = route.group
    if route.label_map.m != route.label_map.n or route.label_map.n != g.rank:
        raise ValueError("label map is not square of the group rank")
    minv = LatticeMap.of(inverse_unimodular(route.label_map.rows))
    coroots = [bv for _, bv in g.positive_pairs]
    # one memo for the whole table
    count = kostant_counter(g.simple_coroots, coroots)
    table = {}
    cone = Cone(g.rank, [vneg(route.label_map.apply(bv)) for bv in g.simple_coroots])
    for label in lattice_points(cone, height):
        lam = minv.apply(label)
        counts = count(tuple(-x for x in lam))
        if not counts:
            continue
        k = -_idot(g.rho2, lam)  # 2 * exponent, as QLaurent counts
        table[label] = QLaurent._of_halves({k - 2 * i: c for i, c in counts.items()})
    trunc = _truncation_default(g, coroots, height)
    return BasicFunctionTable.of(datum.name, "UP-Borel", g.rank, table, trunc, height)


def basic_function_pp(datum, route: PPRoute, height: int,
                      kappa: int = KAPPA) -> BasicFunctionTable:
    """Table over the antidominant stratum monoid for a derived parabolic.

    Phi0(theta) = q^(-<rho_P, lift(theta)>) * sum_i q^(-i) * c_i(-theta)
    where c_i collects the Sym^i coefficients of the f-fixed character with
    each grade-m line contributing q^(kappa*m/2).  Every Sym^i weight
    (-theta, m) names its stratum theta and its exponent kappa*m/2 - i, so
    the table is read off the symmetric powers in one pass.
    """
    if height < 0:
        raise ValueError("height must be >= 0")
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    p = route.parabolic()
    chi = _external_char(f_fixed(dual_radical(p)))
    gens = p.monoid_generators  # nonzero: dual_radical refuses a trivial image
    downs = []
    for g in gens:
        d = tuple(-x for x in route.label_map.apply(p.lift(g)))
        if all(x == 0 for x in d) or any(x < 0 for x in d):
            raise ValueError("stratum generator %r has non-monotone label shift %r"
                             % (g, d))
        downs.append(d)
    if matrix_rank(downs) != matrix_rank(gens):
        raise ValueError("label map is not injective on the strata")

    # each Sym step moves the label l1-norm by at least 1, so i <= height
    terms = {}  # theta -> {2 * exponent: coefficient}, as QLaurent counts
    for i, s in enumerate(sym_powers_upto(chi, height)):
        for w, mult in s.weights:
            d = terms.setdefault(tuple(-x for x in w[:-1]), {})
            k = kappa * w[-1] - 2 * i
            d[k] = d.get(k, 0) + mult
    table = {}
    for theta, d in terms.items():
        label = route.label_map.apply(p.lift(theta))
        if sum(map(abs, label)) <= height:
            k = p._rho_p_halves(p.lift(theta))
            table[label] = QLaurent._of_halves({e - k: c for e, c in d.items()})
    trunc = _truncation_default(p.datum, [p.lift(g) for g in gens], height)
    return BasicFunctionTable.of(datum.name, "PP-general", route.label_map.m,
                                 table, trunc, height)


def basic_function_smooth(datum, height: int) -> BasicFunctionTable:
    """Indicator of the integral strata: 1 on lattice points of V cap C(X)."""
    table = {l: QLaurent.one()
             for l in enumerate_orbits(datum, height, integral_only=True)}
    return BasicFunctionTable.of(datum.name, "smooth", datum.rank, table, 0, height)


def _transport_images(datum, route: TransportRoute, height: int):
    """([(label, iota(label))] over the integral strata up to the height,
    the partner height that tabulates every image)."""
    pairs = [(l, route.iota.apply(l))
             for l in enumerate_orbits(datum, height, integral_only=True)]
    return pairs, max((sum(abs(x) for x in m) for _, m in pairs), default=0)


def transport_height(datum, route: TransportRoute, height: int) -> int:
    """Partner height needed so every transported label is tabulated."""
    return _transport_images(datum, route, height)[1]


def basic_function_transport(datum, route: TransportRoute, partner,
                             height: int) -> BasicFunctionTable:
    """Pull the partner's table back along the label identification iota.

    partner(h) returns the partner's table at height h; it is called once,
    at the least height that tabulates every transported label.
    """
    pairs, need = _transport_images(datum, route, height)
    partner_table = partner(need)
    if need > partner_table.height:
        raise ValueError("partner table of %s is too short" % route.partner)
    values = dict(partner_table.values)
    table = {l: values[m] for l, m in pairs if m in values}
    return BasicFunctionTable.of(datum.name, "transport", datum.rank, table,
                                 partner_table.truncation, height)


def route_table(datum, route, height: int, partner=None) -> BasicFunctionTable:
    """The datum's basic-function table along route; partner(key, h) is the
    table of a transport route's partner entry at height h."""
    if isinstance(route, SmoothRoute):
        return basic_function_smooth(datum, height)
    if isinstance(route, BorelRoute):
        return basic_function_borel(datum, route, height)
    if isinstance(route, PPRoute):
        return basic_function_pp(datum, route, height)
    if isinstance(route, TransportRoute):
        return basic_function_transport(
            datum, route, lambda h: partner(route.partner, h), height)
    raise ValueError("unknown route %r" % (route,))


# ---------------------------------------------------------------------------
# Satake transforms and Hecke shifts

def satake_transform(rd: RootDatum, mu) -> dict:
    """Satake transform of the basis operator at mu by Macdonald's formula,
    q^<rho,lam> J(z^lam prod_(a>0, <a,lam> > 0) (1 - q^(-1) z^(-av))) with
    lam the dominant representative of the cocharacter mu, that is of a
    character of the dual datum, and J = chars._symmetrize on that dual
    datum, applied to the integer coefficient of each power q^(-k)."""
    lam = rd.dual.dominant_char(mu)
    prod = {(0, lam): 1}  # (k, weight) -> coefficient of q^(-k) z^weight
    for a, av in rd.positive_pairs:
        if _idot(a, lam) > 0:
            for (k, w), c in list(prod.items()):
                u = (k + 1, tuple(x - y for x, y in zip(w, av)))
                prod[u] = prod.get(u, 0) - c
    e, out = _idot(rd.rho2, lam), {}  # 2<rho, lam>: QLaurent counts halves
    for k in {k for k, _ in prod}:
        f = {w: c for (j, w), c in prod.items() if j == k}
        for w, c in _symmetrize(rd.dual, f).items():
            out.setdefault(w, {})[e - 2 * k] = c
    return {w: QLaurent._of_halves(d) for w, d in out.items()}


def minuscule_satake(rd: RootDatum, mu) -> dict:
    """satake_transform, refused off the minuscule and central coweights."""
    dom = rd.dual.dominant_char(mu)
    for a, _ in rd.positive_pairs:
        if _idot(a, dom) > 1:
            raise ValueError("coweight %r is neither minuscule nor central" % (mu,))
    return satake_transform(rd, mu)


def pp_shifts(route, satake: dict, kappa: int = KAPPA):
    """Shift list [(label shift, coefficient)] acting by
    (h*f)(l) = sum coeff * f(l + shift), on the labels of a PPRoute or, with
    an empty Levi, a BorelRoute.  The Satake polynomial is restricted by
    z^lam -> q^(kappa*<rho_M,lam>) z^(pi(lam)) and regrouped by class."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    p = route.parabolic()
    by = {}  # class -> {2 * exponent: coefficient}, as QLaurent counts
    for lam, c in satake.items():
        d, e = by.setdefault(p.pi(lam), {}), kappa * p.grade(lam)
        for k, v in c.terms:
            d[k + e] = d.get(k + e, 0) + v
    out = []
    for tb in sorted(by):
        e = p._rho_p_halves(p.lift(tb))
        coeff = QLaurent._of_halves({k + e: v for k, v in by[tb].items()})
        if not coeff.is_zero():
            out.append((route.label_map.apply(p.lift(tb)), coeff))
    return out


# ---------------------------------------------------------------------------
# graded multiplicity data for a general Levi

def basic_function_graded(p: ParabolicDatum, bound: int):
    """[(i, ((highest weight, mult), ...))] for Sym^i of the dual radical,
    decomposed under the dual group of the Levi, i <= bound.

    For a non-abelian Levi the pointwise stratum values are not derivable
    from this data alone; the graded decomposition is the exact content.
    """
    if bound < 0:
        raise ValueError("degree bound must be >= 0")
    if not p.radical_pairs:
        raise ValueError("no radical: the Levi is the whole group")
    rad = WeightChar.of([(bv, 1) for _, bv in p.radical_pairs])
    md = p.levi.dual
    return [(i, tuple(decompose(md, s)))
            for i, s in enumerate(sym_powers_upto(rad, bound))]


# ---------------------------------------------------------------------------
# local L-factors

class LFactor(Record):
    """Product over monomials of 1/(1 - c * q^e * T), T the formal variable.

    monomials: ((coefficient, q-exponent), ...) with repetition; coefficients
    are Fractions.
    """

    __slots__ = _fields = ("monomials",)

    def __init__(self, monomials: tuple):
        object.__setattr__(self, "monomials", monomials)

    def expand(self, bound: int, q0) -> list:
        """Coefficients of T^0..T^bound as Fractions, at q = q0."""
        if bound < 0:
            raise ValueError("expansion bound must be >= 0")
        out = [Fraction(1)] + [Fraction(0)] * bound
        for c, e in self.monomials:
            # exact value of c * q0^e, including half-integral e
            m = Fraction(c) * QLaurent.q_pow(e).specialize(q0)
            for k in range(1, bound + 1):
                out[k] = out[k] + m * out[k - 1]
        return out


def _omega_value(point: dict, tb) -> Fraction:
    val = Fraction(1)
    for i, x in enumerate(tb):
        key = "t%d" % (i + 1)
        if key not in point:
            raise ValueError("missing coordinate %s" % key)
        c = Fraction(point[key])
        if c == 0:
            raise ValueError("zero coordinate %s" % key)
        val *= c ** int(x)
    return val


def local_lfactor(rep, point: dict, kappa: int = KAPPA) -> LFactor:
    """L-factor of an FFixedRep or DualRadicalRep at the character omega given
    by coordinate values point['t1'], ..., with the rho_M shift."""
    if kappa not in (1, -1):
        raise ValueError("kappa must be +1 or -1")
    if isinstance(rep, FFixedRep):
        items = [(tb, m, mult) for tb, m, mult in rep.entries]
    elif isinstance(rep, DualRadicalRep):
        items = [(tb, m, 1) for _, tb, m in rep.weights]
    else:
        raise ValueError("unsupported representation %r" % (rep,))
    mons = []
    for tb, m, mult in items:
        c = _omega_value(point, tb)
        mons.extend([(c, Fraction(kappa * m, 2))] * mult)
    return LFactor(tuple(mons))


# ---------------------------------------------------------------------------
# growth certificates and toric distance

def growth_certificate(table: BasicFunctionTable, hints=()):
    """A rational chi with deg_q Phi0(l) <= <chi, l> on every tabulated
    stratum, or None when the linear program is infeasible (inconclusive
    at finite height)."""
    rows = [(l, v.degree()) for l, v in table.values]
    r = table.rank
    for chi in [(0,) * r] + [tuple(Fraction(x) for x in h) for h in hints]:
        if all(vdot(chi, l) >= d for l, d in rows):
            return tuple(Fraction(x) for x in chi)
    # homogenized: <chi, l> - d*t >= 0 with t > 0, then divide by t
    hom = [tuple(2 * x for x in l) + (-int(2 * d),) for l, d in rows]
    w = feasible(hom, [(0,) * r + (1,)], r + 1)
    if w is None:
        return None
    chi = tuple(Fraction(w[i], w[r]) for i in range(r))
    if not all(vdot(chi, l) >= d for l, d in rows):
        raise RuntimeError("growth certificate %r fails a tabulated stratum" % (chi,))
    return chi


def toric_distance(datum, label, q0) -> Fraction:
    """q0^(-min_i <chi_i, label>) over the ideal-generating characters of the
    boundary in the toric model: the Hilbert basis of the dual of C(X),
    taken modulo the characters vanishing identically on C(X)."""
    q0 = Fraction(q0)
    if q0 <= 0:
        raise ValueError("q must be positive")
    if datum.colored_cone is None:
        raise ValueError("no colored cone on %s" % datum.name)
    c = datum.colored_cone.cone
    lab = _int_vec(label)
    if not c.contains(lab):
        raise ValueError("label %r is outside the embedding cone" % (label,))
    dual = c.dual()
    proj, sect = saturation_quotient(dual.lineality_basis(), c.n)
    img = proj.image_cone(dual)
    basis = hilbert_basis_pointed(img)
    if not basis:
        return Fraction(1)
    best = None
    for h in basis:
        e = _idot(sect.apply(h), lab)
        if e < 0:
            raise RuntimeError("boundary character %r is negative on %r" % (h, label))
        best = e if best is None else min(best, e)
    return q0 ** (-best)
