"""Spherical-variety data and its combinatorial criteria.

A SphericalDatum is pure input data: the character lattice of X inside the
ambient torus character lattice, the valuation cone, the colors with their
images, the Levi roots and spherical roots, and optionally a colored cone;
its little Weyl group is derived from the roots and colors. All criteria
here (colored-cone validity, affineness, wavefront, induction, negligibility)
are exact rational computations on that data.
"""
from __future__ import annotations

import itertools
from functools import cached_property

from .geometry import (Cone, LatticeMap, _exact_int, _idot, _int_vec, feasible,
                       lattice_points, matrix_rank, torsion_order, vneg)
from .record import Record
from .rootdata import RootDatum, _closure


class ColoredCone(Record):
    """A cone in Lambda_X tensor Q together with a subset of color labels."""

    __slots__ = _fields = ("cone", "colors")

    def __init__(self, cone: Cone, colors: tuple):
        object.__setattr__(self, "cone", cone)
        object.__setattr__(self, "colors", tuple(colors))

    def same_as(self, other: "ColoredCone") -> bool:
        return self.cone == other.cone and set(self.colors) == set(other.colors)


class SphericalDatum(Record):
    _fields = ("name", "ambient", "rank", "lattice_map", "valuation_cone",
               "colors", "levi_roots", "spherical_roots", "colored_cone")

    def __init__(self, name: str, ambient: RootDatum, rank: int,
                 lattice_map: LatticeMap,     # X(X) -> X(A), columns are a basis of X(X)
                 valuation_cone: Cone,        # in Lambda_X tensor Q
                 colors: tuple = (),          # of (label, rho(D) in Lambda_X)
                 levi_roots: tuple = (),      # indices into ambient.simple_roots
                 spherical_roots: tuple = (),  # intrinsic vectors in X(X) coordinates
                 colored_cone: ColoredCone = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "lattice_map", lattice_map)
        object.__setattr__(self, "valuation_cone", valuation_cone)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "levi_roots", levi_roots)
        object.__setattr__(self, "spherical_roots", spherical_roots)
        object.__setattr__(self, "colored_cone", colored_cone)
        self.__post_init__()

    def __post_init__(self):
        colors = tuple((str(lbl), _int_vec(rho)) for lbl, rho in self.colors)
        object.__setattr__(self, "colors", colors)
        object.__setattr__(self, "levi_roots", tuple(sorted(map(_exact_int, self.levi_roots))))
        object.__setattr__(self, "spherical_roots", tuple(map(_int_vec, self.spherical_roots)))
        if self.lattice_map.m != self.ambient.rank or self.lattice_map.n != self.rank:
            raise ValueError("lattice map must be (ambient rank) x (rank)")
        if not self.lattice_map.is_injective():
            raise ValueError("lattice map must be injective")
        if self.valuation_cone.n != self.rank:
            raise ValueError("valuation cone lives in the wrong dimension")
        for lbl, rho in colors:
            if len(rho) != self.rank:
                raise ValueError("color %s has a bad coordinate length" % lbl)
        for i in self.levi_roots:
            if not 0 <= i < self.ambient.nsimple:
                raise ValueError("Levi root index %d out of range" % i)
        for g in self.spherical_roots:
            if len(g) != self.rank:
                raise ValueError("spherical root %r has a bad length" % (g,))
            for v in self.valuation_cone.generators:
                if _idot(g, v) > 0:
                    raise ValueError(
                        "spherical root %r pairs > 0 with a valuation generator" % (g,))
        if not self.valuation_cone.contains_cone(self.antidominant_image):
            raise ValueError("valuation cone misses the antidominant chamber image")
        if self.colored_cone is not None:
            if self.colored_cone.cone.n != self.rank:
                raise ValueError("colored cone lives in the wrong dimension")
            self.rho_image(self.colored_cone.colors)  # unknown labels raise

    @cached_property
    def little_datum(self):
        """The spherical roots with the coroots `_coroot` reads off the colors
        (Knop 1996), or None if a root gets none. W_X is the Weyl group of
        its dual on Lambda_X, and W_X = 1 without spherical roots."""
        coroots = tuple(_coroot(g, self.colors) for g in self.spherical_roots)
        if None in coroots:
            return None
        return RootDatum(self.name + "-little", self.rank, self.spherical_roots, coroots)

    @cached_property
    def antidominant_image(self) -> Cone:
        """Image in Lambda_X of the antidominant cocharacter chamber."""
        return self.lattice_map.transpose().image_cone(
            antidominant_cochar_chamber(self.ambient))

    def color_map(self):
        return dict(self.colors)

    def rho_image(self, labels):
        cmap = self.color_map()
        out = []
        for lbl in labels:
            if lbl not in cmap:
                raise ValueError("unknown color label %r" % (lbl,))
            out.append(cmap[lbl])
        return out

    def ambient_spherical_roots(self):
        return [self.lattice_map.apply(g) for g in self.spherical_roots]


def _coroot(gamma, colors):
    """gamma-check from the colors: rho(D+) + rho(D-) when exactly two colors
    pair to 1 with gamma, rho(D) when exactly one pairs to 2; None when
    neither rule or both rules apply."""
    ones = [rho for _, rho in colors if _idot(gamma, rho) == 1]
    twos = [rho for _, rho in colors if _idot(gamma, rho) == 2]
    if len(ones) == 2 and len(twos) != 1:
        return tuple(a + b for a, b in zip(*ones))
    if len(twos) == 1 and len(ones) != 2:
        return twos[0]
    return None


def check_little_weyl(d: SphericalDatum, matrices):
    """Refuse stated generators of W_X on Lambda_X unless each lies in W_X,
    tested first (so a matrix of the wrong shape fails too), and together
    they generate it."""
    if d.little_datum is None:
        raise ValueError("little Weyl generators given for roots without coroots")
    group = d.little_datum.dual.weyl_char
    for m in matrices:
        if m not in group:
            raise ValueError("little Weyl generator %r is not in W_X" % (m,))

    def step(w):  # w -> m w for each generator m
        return (tuple(tuple(_idot(r, c) for c in zip(*w)) for r in m) for m in matrices)
    # the coset H w of the generated group H has |H| elements
    if len(_closure([group[0]], step, "little Weyl group too large")) != len(group):
        raise ValueError("little Weyl generators do not generate W_X")


def antidominant_cochar_chamber(rd: RootDatum) -> Cone:
    """Cocharacters pairing <= 0 with every simple root."""
    return Cone.from_inequalities([tuple(-x for x in a) for a in rd.simple_roots],
                                  rd.rank)


# ---------------------------------------------------------------------------
# colored cones

def validate_colored_cone(d: SphericalDatum, cc: ColoredCone):
    """(valid, diagnostic). Diagnostic names the first failed condition."""
    if cc.cone.n != d.rank:
        raise ValueError("colored cone lives in the wrong dimension")
    rho_f = d.rho_image(cc.colors)
    if not cc.cone.is_strictly_convex():
        return False, "condition (i): cone contains a line"
    hull = Cone(d.rank, rho_f + list(d.valuation_cone.generators))
    for g in cc.cone.generators:
        if not hull.contains(g):
            return False, "condition (i): generator outside cone(rho(F) + V)"
    for v in rho_f:
        if not cc.cone.contains(v):
            return False, "condition (i): cone does not contain rho(F)"
    if not _relint_meets(cc.cone, d.valuation_cone):
        return False, "condition (ii): relative interior misses the valuation cone"
    for v in rho_f:
        if all(x == 0 for x in v):
            return False, "condition (iii): 0 in rho(F)"
    return True, "valid"


def _relint_meets(c: Cone, v: Cone) -> bool:
    """Does the relative interior of c meet v?

    A relative-interior point of c cap v lies in the relative interior of
    the least face of c containing c cap v, so it lies in relint(c) iff any
    point of c cap v does.
    """
    return c.relative_interior_contains(c.intersect(v).relative_interior_point())


def is_affine(d: SphericalDatum, cc: ColoredCone):
    """(affine, witness chi or None) for the embedding given by cc."""
    ok, diag = validate_colored_cone(d, cc)
    if not ok:
        raise ValueError("invalid colored cone: " + diag)
    # Knop: affine iff some chi >= 0 on V, = 0 on C and < 0 on the colors
    # outside F
    gens = cc.cone.generators
    rows = list(d.valuation_cone.generators) + list(gens) + [vneg(g) for g in gens]
    strict = [vneg(rho) for lbl, rho in d.colors if lbl not in cc.colors]
    wit = feasible(rows, strict, d.rank)
    return wit is not None, wit


def affine_closure_data(d: SphericalDatum) -> ColoredCone:
    """Colored cone of the affine closure of the open orbit: (cone(rho(F)), F),
    F the colors where a relative-interior chi0 of R = {chi >= 0 on V, <= 0
    on the colors} vanishes. It is valid: (i) and (iii) by the refusals, and
    (ii) since a chi >= 0 on V, <= 0 on rho(F) and nonzero there (Rockafellar
    1970, Thm 20.2) would put chi0 + eps chi in R, nonzero on rho(F)."""
    rhos = [rho for _, rho in d.colors]
    for rho in rhos:
        if all(x == 0 for x in rho):
            raise ValueError("not quasi-affine: a color maps to 0")
    if not Cone(d.rank, tuple(rhos)).is_strictly_convex():
        raise ValueError("not quasi-affine: color cone contains a line")
    ineqs = [tuple(g) for g in d.valuation_cone.generators] + \
            [tuple(-x for x in rho) for rho in rhos]
    R = Cone.from_inequalities(ineqs, d.rank)
    chi0 = R.relative_interior_point()
    F = tuple(lbl for lbl, rho in d.colors if _idot(rho, chi0) == 0)
    candidate = ColoredCone(Cone(d.rank, tuple(d.rho_image(F))), F)
    ok, diag = validate_colored_cone(d, candidate)
    if not ok:
        raise RuntimeError("affine closure data is not a valid colored cone: " + diag)
    return candidate


# ---------------------------------------------------------------------------
# criteria

def is_wavefront(d: SphericalDatum) -> bool:
    return d.antidominant_image == d.valuation_cone


def arithmetic_multiplicity(d: SphericalDatum) -> int:
    return torsion_order(d.lattice_map)


def enumerate_orbits(d: SphericalDatum, height: int, integral_only: bool = False):
    """Representatives lambda-check in Lambda_X of strata up to the height."""
    if integral_only:
        if d.colored_cone is None:
            raise ValueError("integral orbit enumeration needs a colored cone")
        region = d.valuation_cone.intersect(d.colored_cone.cone)
    else:
        region = d.valuation_cone
    return lattice_points(region, height)


def support(rd: RootDatum, weights) -> tuple:
    """Indices of the simple roots spanning the given ambient weights."""
    idx = set()
    for w in weights:
        exp = rd.simple_root_expansion(w)
        if exp is None:
            raise ValueError("weight %r lies outside the root span" % (w,))
        idx.update(i for i, c in enumerate(exp) if c != 0)
    return tuple(sorted(idx))


def parabolic_induction(d: SphericalDatum):
    """Delta_P = Delta(X) + support(spherical roots) when proper, else None."""
    idx = set(d.levi_roots)
    idx.update(support(d.ambient, d.ambient_spherical_roots()))
    if len(idx) >= d.ambient.nsimple:
        return None
    return tuple(sorted(idx))


def _central_image_rows(d: SphericalDatum):
    dual = d.lattice_map.transpose()
    return [dual.apply(z) for z in d.ambient.central_cochar_basis()]


def negligible_orbit_check(d: SphericalDatum):
    """(ok, certificate) for the boundary-degeneration orbit criterion.

    Hypothesis: wavefront, and the lineality of the valuation cone is
    central (comes from the center of the ambient group).
    """
    if not is_wavefront(d):
        raise ValueError("hypothesis not met: datum is not wavefront")
    central = _central_image_rows(d)
    lin = d.valuation_cone.lineality_basis()
    if matrix_rank(central + lin) != matrix_rank(central):
        raise ValueError("hypothesis not met: non-central lineality in V")
    gammas = d.ambient_spherical_roots()
    nroots = len(gammas)
    levi = set(d.levi_roots)
    outside = [i for i in range(d.ambient.nsimple) if i not in levi]
    cert = {}
    for size in range(nroots):  # proper subsets only
        for theta in itertools.combinations(range(nroots), size):
            supp = set(support(d.ambient, [gammas[i] for i in theta]))
            witness = next((a for a in outside if a not in supp), None)
            if witness is None:
                return False, {theta: None}
            cert[theta] = witness
    return True, cert


def aut_lineality(d: SphericalDatum):
    """(rank of the lineality lattice, lineality intersected with C(X))."""
    lin = d.valuation_cone.lineality_basis()
    rank = len(lin)
    if d.colored_cone is None:
        return rank, None
    lin_cone = Cone(d.rank, tuple(lin + [tuple(-x for x in g) for g in lin]))
    return rank, lin_cone.intersect(d.colored_cone.cone)
