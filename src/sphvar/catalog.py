"""Worked examples: spherical data with routes, flags, and expected L-values.

Each entry packages one affine spherical embedding over a split group: the
combinatorial datum, the routes by which its basic-function table is computed
(a horospherical entry names its Borel/PP route kinds, and the routes are
derived from the datum), classification flags that the criteria code must
reproduce, and the unramified L-value the table is expected to realize when
classical theory predicts one.  Each key is its datum's name; loading is cached.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .engine import (BasicFunctionTable, SmoothRoute, TransportRoute,
                     derived_route, route_table)
from .geometry import Cone, LatticeMap
from .rootdata import RootDatum, product_datum, root_datum
from .spherical import ColoredCone, SphericalDatum, antidominant_cochar_chamber


@dataclass(frozen=True)
class ExpectedLValue:
    """Named Euler factors with their shifts; purely descriptive unless a
    test elsewhere pins the realization."""

    numerator: tuple                 # ((rep name, shift as Fraction), ...)
    denominator: tuple = ()
    conjectural: bool = False


@dataclass(frozen=True)
class CatalogEntry:
    datum: SphericalDatum
    provenance: str
    reductive_stabilizer: bool
    wavefront_expected: bool
    smooth_expected: bool
    preflag_case: str                # U_P | PP | homogeneous | vector-space
    routes: tuple = ()               # empty means no table is defined yet
    expected_lvalue: ExpectedLValue = None
    growth_hint: tuple = ()

    @property
    def key(self) -> str:
        return self.datum.name


_CASES = ("U_P", "PP", "homogeneous", "vector-space")


def _cc(n, gens, colors):
    return ColoredCone(Cone(n, gens), colors)


def _derived(d, *kinds):
    return tuple(derived_route(d, kind) for kind in kinds)


def _entries():
    half = Fraction(1, 2)

    d = SphericalDatum(
        name="a1-gl1", ambient=root_datum("T", 1), rank=1,
        lattice_map=LatticeMap.of([(1,)]),
        valuation_cone=Cone(1, ((1,), (-1,))),
        colored_cone=_cc(1, ((1,),), ()))
    yield CatalogEntry(
        datum=d,
        provenance="standard representation of GL(1); the basic toric case",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))

    amb = product_datum(root_datum("T", 1), root_datum("SL", 2))
    d = SphericalDatum(
        name="a2-sl2", ambient=amb, rank=1,
        lattice_map=LatticeMap.of([(1,), (-1,)]),
        valuation_cone=Cone(1, ((1,), (-1,))),
        colors=(("D", (1,)),),
        colored_cone=_cc(1, ((1,),), ("D",)))
    yield CatalogEntry(
        datum=d,
        provenance="standard representation of SL(2) with a central torus",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel", "pp"))

    d = SphericalDatum(
        name="a2-sl2-nocenter", ambient=root_datum("SL", 2), rank=1,
        lattice_map=LatticeMap.of([(-1,)]),
        valuation_cone=Cone(1, ((1,), (-1,))),
        colors=(("D", (1,)),),
        colored_cone=_cc(1, ((1,),), ("D",)))
    yield CatalogEntry(
        datum=d,
        provenance="standard representation of SL(2), no central twist",
        reductive_stabilizer=False, wavefront_expected=False,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel"))

    amb = product_datum(root_datum("T", 2), root_datum("GL", 2))
    d = SphericalDatum(
        name="borel-gl2", ambient=amb, rank=2,
        lattice_map=LatticeMap.of([(0, -1), (-1, -1), (0, 1), (1, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("D", (1, 0)),),
        colored_cone=_cc(2, ((1, 0),), ("D",)))
    yield CatalogEntry(
        datum=d,
        provenance="horospherical closure of U\\GL(2)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel"))

    amb = product_datum(root_datum("T", 2), root_datum("SL", 3))
    d = SphericalDatum(
        name="borel-sl3", ambient=amb, rank=2,
        lattice_map=LatticeMap.of([(0, 1), (1, 0), (0, -1), (-1, 0)]),
        valuation_cone=Cone.full(2),
        colors=(("D1", (1, 0)), ("D2", (0, 1))),
        colored_cone=_cc(2, ((1, 0), (0, 1)), ("D1", "D2")))
    yield CatalogEntry(
        datum=d,
        provenance="horospherical closure of U\\SL(3)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=False, preflag_case="U_P",
        routes=_derived(d, "borel", "pp"),
        growth_hint=(1, 1))

    amb = product_datum(root_datum("T", 2), root_datum("GL", 3))
    d = SphericalDatum(
        name="pp-gl3", ambient=amb, rank=2,
        lattice_map=LatticeMap.of([(0, 1), (1, 1), (0, 1), (0, 1), (1, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("D", (1, 0)),),
        levi_roots=(0,),
        colored_cone=_cc(2, ((1, 0),), ("D",)))
    yield CatalogEntry(
        datum=d,
        provenance="derived-group quotient [P,P]\\GL(3), (2,1) parabolic",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="PP",
        routes=_derived(d, "pp"))

    amb = product_datum(root_datum("T", 1), root_datum("PGL", 2))
    d = SphericalDatum(
        name="hecke-gl2", ambient=amb, rank=2,
        lattice_map=LatticeMap.identity(2),
        valuation_cone=Cone(2, ((1, 0), (-1, 0), (0, -1))),
        colors=(("D1", (1, 1)), ("D2", (-1, 1))),
        spherical_roots=((0, 1),),
        little_weyl=(((1, 0), (0, -1)),),
        colored_cone=_cc(2, (), ()))
    yield CatalogEntry(
        datum=d,
        provenance="classical Hecke integral: torus period on GL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std", half), ("std-dual", -half)),
            denominator=(("Ad", Fraction(1)),)))

    amb = product_datum(root_datum("PGL", 2), root_datum("PGL", 2))
    d = SphericalDatum(
        name="pgl2-group", ambient=amb, rank=1,
        lattice_map=LatticeMap.of([(1,), (1,)]),
        valuation_cone=Cone(1, ((-1,),)),
        colors=(("D", (2,)),),
        spherical_roots=((1,),),
        little_weyl=(((-1,),),),
        colored_cone=_cc(1, (), ()))
    yield CatalogEntry(
        datum=d,
        provenance="group case: PGL(2) x PGL(2) over the diagonal",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),))

    amb = product_datum(root_datum("GL", 2), root_datum("GL", 2))
    d = SphericalDatum(
        name="godement-jacquet-2", ambient=amb, rank=2,
        lattice_map=LatticeMap.of([(0, -1), (-1, -1), (1, 1), (0, 1)]),
        valuation_cone=Cone(2, ((1, 2), (-1, -2), (-1, 0))),
        colors=(("D", (1, 0)),),
        spherical_roots=((2, -1),),
        colored_cone=_cc(2, ((1, 0), (0, 1)), ("D",)))
    yield CatalogEntry(
        datum=d,
        provenance="Godement-Jacquet matrix space for GL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(numerator=(("std", half),)))

    amb = product_datum(root_datum("GL", 3), root_datum("GL", 3))
    d = SphericalDatum(
        name="godement-jacquet-3", ambient=amb, rank=3,
        lattice_map=LatticeMap.of([(0, 0, -1), (0, -1, -1), (-1, -1, -1),
                                   (1, 1, 1), (0, 1, 1), (0, 0, 1)]),
        valuation_cone=Cone.from_inequalities([(-2, 1, 0), (1, -2, 1)], 3),
        colors=(("D1", (1, 0, 0)), ("D2", (0, 1, 0))),
        spherical_roots=((2, -1, 0), (-1, 2, -1)),
        colored_cone=_cc(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), ("D1", "D2")))
    yield CatalogEntry(
        datum=d,
        provenance="Godement-Jacquet matrix space for GL(3)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(numerator=(("std", Fraction(1)),)))

    amb = product_datum(root_datum("GL", 2), root_datum("GL", 2),
                        root_datum("T", 1))
    d = SphericalDatum(
        name="rankin-selberg", ambient=amb, rank=5,
        lattice_map=LatticeMap.identity(5),
        valuation_cone=Cone.from_inequalities(
            [(-1, 1, 0, 0, 0), (0, 0, -1, 1, 0)], 5),
        colors=(("D1", (1, 0, 0, 1, 1)), ("D2", (0, 1, 1, 1, 1)),
                ("D3", (0, -1, 0, -1, -1))),
        spherical_roots=((1, -1, 0, 0, 0), (0, 0, 1, -1, 0)),
        colored_cone=_cc(5, ((1, 0, 0, 1, 1), (0, 1, 1, 1, 1),
                             (0, -1, 0, -1, -1)), ("D1", "D2", "D3")))
    yield CatalogEntry(
        datum=d,
        provenance="Rankin-Selberg convolution for GL(2) x GL(2), "
                   "mirabolic model",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(numerator=(("std x std", half),)))

    d = SphericalDatum(
        name="bump-friedberg", ambient=root_datum("GL", 2), rank=2,
        lattice_map=LatticeMap.of([(1, 0), (0, -1)]),
        valuation_cone=Cone(2, ((1, -1), (-1, 1), (-1, -1))),
        colors=(("Dr", (1, 0)), ("Du", (0, 1))),
        spherical_roots=((1, 1),),
        colored_cone=_cc(2, (), ()))
    yield CatalogEntry(
        datum=d,
        provenance="Bump-Friedberg integral for GL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std", half), ("det", half))))

    a1triple = RootDatum(
        "a1triple", 5,
        ((1, -1, 0, 0, 0), (-1, -1, 2, 0, 0), (-1, -1, 0, 2, 0)),
        ((1, -1, 0, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 1, 0)))
    d = SphericalDatum(
        name="triple-product", ambient=a1triple, rank=5,
        lattice_map=LatticeMap.identity(5),
        valuation_cone=Cone.from_inequalities(
            [(-1, 1, 0, 0, 0), (1, 1, -2, 0, 0), (1, 1, 0, -2, 0)], 5),
        colors=(("D1", (1, 0, 0, 0, 1)), ("D2", (0, 1, 1, 0, 1)),
                ("D3", (0, 1, 0, 1, 1)), ("D4", (0, -1, 0, 0, -1))),
        spherical_roots=((1, -1, 0, 0, 0), (-1, -1, 2, 0, 0),
                         (-1, -1, 0, 2, 0)),
        colored_cone=_cc(5, ((1, 0, 0, 0, 1), (0, 1, 1, 0, 1),
                             (0, 1, 0, 1, 1), (0, -1, 0, 0, -1)),
                         ("D1", "D2", "D3", "D4")))
    yield CatalogEntry(
        datum=d,
        provenance="Garrett triple product for three copies of SL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=False, preflag_case="homogeneous",
        routes=(TransportRoute("siegel-gsp6",
                               LatticeMap.of([(1, 0, 1, 1, -1),
                                              (1, 1, 0, 0, -1)])),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std x std x std", half),)),
        growth_hint=(1, 0, 1, 1, -1))

    amb = product_datum(root_datum("T", 2), root_datum("GSP", 6))
    d = SphericalDatum(
        name="siegel-gsp6", ambient=amb, rank=2,
        lattice_map=LatticeMap.of([(0, 1), (1, 1), (-1, 0), (-1, 0),
                                   (-1, 0), (3, 1)]),
        valuation_cone=Cone.full(2),
        colors=(("DY", (1, 0)),),
        levi_roots=(0, 1),
        colored_cone=_cc(2, ((1, 0),), ("DY",)))
    yield CatalogEntry(
        datum=d,
        provenance="Siegel parabolic degeneration of GSp(6)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=False, preflag_case="PP",
        routes=_derived(d, "pp"),
        growth_hint=(1, 0))

    a1quad = RootDatum(
        "a1quad", 6,
        ((1, -1, 0, 0, 0, 0), (-1, -1, 2, 0, 0, 0), (-1, -1, 0, 2, 0, 0),
         (-1, -1, 0, 0, 2, 0)),
        ((1, -1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
         (0, 0, 0, 0, 1, 0)))
    d = SphericalDatum(
        name="tensor-4", ambient=a1quad, rank=6,
        lattice_map=LatticeMap.identity(6),
        valuation_cone=antidominant_cochar_chamber(a1quad),
        colors=(("D1", (1, 0, 0, 0, 0, 1)), ("D2", (0, 1, 1, 0, 0, 1)),
                ("D3", (0, 1, 0, 1, 0, 1)), ("D4", (0, 1, 0, 0, 1, 1)),
                ("De", (0, -1, 0, 0, 0, -1))),
        spherical_roots=((1, -1, 0, 0, 0, 0), (-1, -1, 2, 0, 0, 0),
                         (-1, -1, 0, 2, 0, 0), (-1, -1, 0, 0, 2, 0)),
        colored_cone=_cc(6, ((1, 0, 0, 0, 0, 1), (0, 1, 1, 0, 0, 1),
                             (0, 1, 0, 1, 0, 1), (0, 1, 0, 0, 1, 1),
                             (0, -1, 0, 0, 0, -1)),
                         ("D1", "D2", "D3", "D4", "De")))
    yield CatalogEntry(
        datum=d,
        provenance="fourfold tensor product period; the L-value is "
                   "conjectural and no computation route is defined",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=False, preflag_case="vector-space",
        routes=(),
        expected_lvalue=ExpectedLValue(
            numerator=(("std x std x std x std", half),), conjectural=True))

    d = SphericalDatum(
        name="kvs-1-15", ambient=root_datum("T", 2), rank=2,
        lattice_map=LatticeMap.of([(-1, 0), (1, 1)]),
        valuation_cone=Cone.full(2),
        colored_cone=_cc(2, ((1, 0), (0, 1)), ()))
    yield CatalogEntry(
        datum=d,
        provenance="smooth affine model I.15 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))

    amb = product_datum(root_datum("GL", 2), root_datum("GL", 1))
    d = SphericalDatum(
        name="kvs-2-3", ambient=amb, rank=3,
        lattice_map=LatticeMap.identity(3),
        valuation_cone=Cone.from_inequalities([(-1, 1, 0)], 3),
        colors=(("D1", (1, 0, 1)), ("D2", (0, -1, -1))),
        spherical_roots=((1, -1, 0),),
        colored_cone=_cc(3, ((1, 0, 1), (0, -1, -1), (0, 1, 0)),
                         ("D1", "D2")))
    yield CatalogEntry(
        datum=d,
        provenance="smooth affine model II.3 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))

    d = SphericalDatum(
        name="kvs-2-5", ambient=root_datum("T", 2), rank=2,
        lattice_map=LatticeMap.identity(2),
        valuation_cone=Cone.full(2),
        colored_cone=_cc(2, ((1, 0),), ()))
    yield CatalogEntry(
        datum=d,
        provenance="toric rank-two model II.5 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))


@cache
def _catalog():
    out = {entry.key: entry for entry in _entries()}
    for entry in out.values():
        if entry.preflag_case not in _CASES:
            raise RuntimeError("%s: unknown preflag case" % entry.key)
        # a reductive generic stabilizer leaves nothing to induce from
        if entry.reductive_stabilizer and entry.datum.levi_roots:
            raise RuntimeError("%s: reductive stabilizer with Levi roots" % entry.key)
    return out


def list_entries():
    return tuple(_catalog())


def load(key: str) -> CatalogEntry:
    cat = _catalog()
    if key not in cat:
        raise ValueError("unknown catalog key %r" % (key,))
    return cat[key]


def basic_table(entry, height: int) -> BasicFunctionTable:
    """The entry's basic-function table computed along its first route."""
    if isinstance(entry, str):
        entry = load(entry)
    if not entry.routes:
        raise ValueError("no route for %s" % entry.key)
    return route_table(entry.datum, entry.routes[0], height, basic_table)


def transport_coincidence(entry):
    """Whether the transport identification matches colored cones: the image
    of the cone must equal the partner's cone, and each non-collapsed color
    must land on a partner color."""
    if isinstance(entry, str):
        entry = load(entry)
    routes = [r for r in entry.routes if isinstance(r, TransportRoute)]
    if not routes:
        return False, "entry has no transport route"
    route = routes[0]
    partner = load(route.partner)
    img = route.iota.image_cone(entry.datum.colored_cone.cone)
    target = partner.datum.colored_cone.cone
    if not (img.contains_cone(target) and target.contains_cone(img)):
        return False, "cone image differs from the partner cone"
    want = {tuple(rho) for _, rho in partner.datum.colors}
    got = set()
    cmap = entry.datum.color_map()
    for lbl in entry.datum.colored_cone.colors:
        v = route.iota.apply(cmap[lbl])
        if any(v):
            got.add(tuple(v))
    if got != want:
        return False, "color images %r differ from partner colors %r" % (
            sorted(got), sorted(want))
    return True, "cone and colors match"
