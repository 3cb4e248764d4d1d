"""Worked examples: spherical data with routes, flags, and expected L-values.

Each entry packages one affine spherical embedding over a split group: the
combinatorial datum, the routes by which its basic-function table is computed
(a horospherical entry names its Borel/PP route kinds, and the routes are
derived from the datum), classification flags that the criteria code must
reproduce, and the unramified L-value the table is expected to realize when
classical theory predicts one.  Each key is its datum's name.

One table, _BUILDERS, maps each key, in catalog order, to the function that
builds its entry.  An entry is built and checked on its first load and kept;
listing the catalog builds none.  So a process pays only for the entries it
uses (a transport entry also loads its partner): building all 18 with their
double descriptions was the largest part of set-up that the code controls.

An entry states only the free data of its datum: the ambient group, the
lattice map, the colors, the spherical roots, the Levi roots, and the colors
F of its colored cone with any extra rays.  The rest is derived: the rank is
the lattice map's width, the valuation cone is {v : <sigma, v> <= 0 for every
spherical root sigma}, the colored cone is spanned by rho(F) and the extra
rays, and the little Weyl group comes from the roots and colors.  So
`catalog show --json` prints canonical valuation cones and little_weyl null.
The Godement-Jacquet matrix spaces and the tensor products of copies of
SL(2) are each built by one constructor, for any size.
"""
from __future__ import annotations

from fractions import Fraction

from .engine import (BasicFunctionTable, SmoothRoute, TransportRoute,
                     derived_route, route_table)
from .geometry import Cone, LatticeMap, vneg
from .record import Record
from .rootdata import RootDatum, product_datum, root_datum
from .spherical import ColoredCone, SphericalDatum


class ExpectedLValue(Record):
    """Named Euler factors with their shifts; purely descriptive unless a
    test elsewhere pins the realization."""

    __slots__ = _fields = ("numerator", "denominator", "conjectural")

    def __init__(self,
                 numerator: tuple,  # ((rep name, shift as Fraction), ...)
                 denominator: tuple = (), conjectural: bool = False):
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "conjectural", conjectural)


class CatalogEntry(Record):
    __slots__ = _fields = ("datum", "provenance", "reductive_stabilizer",
                           "wavefront_expected", "smooth_expected",
                           "preflag_case", "routes", "expected_lvalue",
                           "growth_hint")

    def __init__(self, datum: SphericalDatum, provenance: str,
                 reductive_stabilizer: bool, wavefront_expected: bool,
                 smooth_expected: bool,
                 preflag_case: str,   # U_P | PP | homogeneous | vector-space
                 routes: tuple = (),  # empty means no table is defined yet
                 expected_lvalue: ExpectedLValue = None,
                 growth_hint: tuple = ()):
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "reductive_stabilizer", reductive_stabilizer)
        object.__setattr__(self, "wavefront_expected", wavefront_expected)
        object.__setattr__(self, "smooth_expected", smooth_expected)
        object.__setattr__(self, "preflag_case", preflag_case)
        object.__setattr__(self, "routes", routes)
        object.__setattr__(self, "expected_lvalue", expected_lvalue)
        object.__setattr__(self, "growth_hint", growth_hint)

    @property
    def key(self) -> str:
        return self.datum.name


_CASES = ("U_P", "PP", "homogeneous", "vector-space")
_HALF = Fraction(1, 2)


def _vec(n, coeffs):
    """The sum of c * e_i over the items {i: c}, with 1-based i, in Z^n."""
    return tuple(coeffs.get(i, 0) for i in range(1, n + 1))


def _datum(name, ambient, lattice_map, colors=(), spherical_roots=(),
           levi_roots=(), cone_colors=None, rays=()):
    """The datum from its free data. The rank is the lattice map's width,
    the valuation cone is {v : <sigma, v> <= 0 for each spherical root
    sigma}, and the colored cone is spanned by rho of cone_colors (F, all
    colors unless given) and the extra rays."""
    n = lattice_map.n
    rho = dict(colors)
    if cone_colors is None:
        cone_colors = tuple(rho)
    return SphericalDatum(
        name=name, ambient=ambient, rank=n, lattice_map=lattice_map,
        valuation_cone=Cone.from_inequalities(
            [vneg(s) for s in spherical_roots], n),
        colors=colors, levi_roots=levi_roots, spherical_roots=spherical_roots,
        colored_cone=ColoredCone(
            Cone(n, [rho[c] for c in cone_colors] + list(rays)), cone_colors))


def _godement_jacquet(n):
    """The Godement-Jacquet matrix space of n x n matrices under
    GL(n) x GL(n). Its lattice rows are -/+ the indicators of the last j
    coordinates, its spherical roots the first n - 1 rows of the chain
    (2, -1, 0, ...), its colors e_i for i < n, and its colored cone the
    orthant. Its table realizes L(s + (n - 1)/2, std)."""
    tails = [_vec(n, {i: 1 for i in range(n - j + 1, n + 1)})
             for j in range(1, n + 1)]
    chain = [tuple(2 if j == i else -int(abs(j - i) == 1) for j in range(n))
             for i in range(n - 1)]
    colors = [("D" if n == 2 else "D%d" % i, _vec(n, {i: 1}))
              for i in range(1, n)]
    d = _datum("godement-jacquet-%d" % n,
               product_datum(root_datum("GL", n), root_datum("GL", n)),
               LatticeMap.of([vneg(t) for t in tails] + tails[::-1]),
               colors, spherical_roots=chain, rays=(_vec(n, {n: 1}),))
    return CatalogEntry(
        datum=d,
        provenance="Godement-Jacquet matrix space for GL(%d)" % n,
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std", Fraction(n - 1, 2)),)))


def _sl2_tensor(name, group_name, k, last_label):
    """The datum of the tensor product of k copies of SL(2), in rank k + 2.
    The group's simple roots e1 - e2 and 2e_(i+2) - e1 - e2 (i < k), with
    coroots e1 - e2 and e_(i+2), are also the spherical roots. The colors
    are D1 = e1 + e_last, D_i = e2 + e_(i+1) + e_last for 2 <= i <= k, and
    last_label = -e2 - e_last; the colored cone is spanned by all of them."""
    n = k + 2
    roots = [_vec(n, {1: 1, 2: -1})] + [_vec(n, {1: -1, 2: -1, i + 2: 2})
                                        for i in range(1, k)]
    coroots = [_vec(n, {1: 1, 2: -1})] + [_vec(n, {i + 2: 1})
                                          for i in range(1, k)]
    colors = ([("D1", _vec(n, {1: 1, n: 1}))]
              + [("D%d" % i, _vec(n, {2: 1, i + 1: 1, n: 1}))
                 for i in range(2, k + 1)]
              + [(last_label, _vec(n, {2: -1, n: -1}))])
    return _datum(name, RootDatum(group_name, n, roots, coroots),
                  LatticeMap.identity(n), colors, spherical_roots=roots)


def _derived(d, *kinds):
    return tuple(derived_route(d, kind) for kind in kinds)


def _a1_gl1():
    d = _datum("a1-gl1", root_datum("T", 1), LatticeMap.of([(1,)]),
               rays=((1,),))
    return CatalogEntry(
        datum=d,
        provenance="standard representation of GL(1); the basic toric case",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))


def _a2_sl2():
    d = _datum("a2-sl2",
               product_datum(root_datum("T", 1), root_datum("SL", 2)),
               LatticeMap.of([(1,), (-1,)]), colors=(("D", (1,)),))
    return CatalogEntry(
        datum=d,
        provenance="standard representation of SL(2) with a central torus",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel", "pp"))


def _a2_sl2_nocenter():
    d = _datum("a2-sl2-nocenter", root_datum("SL", 2),
               LatticeMap.of([(-1,)]), colors=(("D", (1,)),))
    return CatalogEntry(
        datum=d,
        provenance="standard representation of SL(2), no central twist",
        reductive_stabilizer=False, wavefront_expected=False,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel"))


def _borel_gl2():
    d = _datum("borel-gl2",
               product_datum(root_datum("T", 2), root_datum("GL", 2)),
               LatticeMap.of([(0, -1), (-1, -1), (0, 1), (1, 1)]),
               colors=(("D", (1, 0)),))
    return CatalogEntry(
        datum=d,
        provenance="horospherical closure of U\\GL(2)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="U_P",
        routes=_derived(d, "borel"))


def _borel_sl3():
    d = _datum("borel-sl3",
               product_datum(root_datum("T", 2), root_datum("SL", 3)),
               LatticeMap.of([(0, 1), (1, 0), (0, -1), (-1, 0)]),
               colors=(("D1", (1, 0)), ("D2", (0, 1))))
    return CatalogEntry(
        datum=d,
        provenance="horospherical closure of U\\SL(3)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=False, preflag_case="U_P",
        routes=_derived(d, "borel", "pp"),
        growth_hint=(1, 1))


def _pp_gl3():
    d = _datum("pp-gl3",
               product_datum(root_datum("T", 2), root_datum("GL", 3)),
               LatticeMap.of([(0, 1), (1, 1), (0, 1), (0, 1), (1, 1)]),
               colors=(("D", (1, 0)),), levi_roots=(0,))
    return CatalogEntry(
        datum=d,
        provenance="derived-group quotient [P,P]\\GL(3), (2,1) parabolic",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="PP",
        routes=_derived(d, "pp"))


def _hecke_gl2():
    d = _datum("hecke-gl2",
               product_datum(root_datum("T", 1), root_datum("PGL", 2)),
               LatticeMap.identity(2),
               colors=(("D1", (1, 1)), ("D2", (-1, 1))),
               spherical_roots=((0, 1),), cone_colors=())
    return CatalogEntry(
        datum=d,
        provenance="classical Hecke integral: torus period on GL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std", _HALF), ("std-dual", -_HALF)),
            denominator=(("Ad", Fraction(1)),)))


def _pgl2_group():
    d = _datum("pgl2-group",
               product_datum(root_datum("PGL", 2), root_datum("PGL", 2)),
               LatticeMap.of([(1,), (1,)]), colors=(("D", (2,)),),
               spherical_roots=((1,),), cone_colors=())
    return CatalogEntry(
        datum=d,
        provenance="group case: PGL(2) x PGL(2) over the diagonal",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),))


def _rankin_selberg():
    d = _datum("rankin-selberg",
               product_datum(root_datum("GL", 2), root_datum("GL", 2),
                             root_datum("T", 1)),
               LatticeMap.identity(5),
               colors=(("D1", (1, 0, 0, 1, 1)), ("D2", (0, 1, 1, 1, 1)),
                       ("D3", (0, -1, 0, -1, -1))),
               spherical_roots=((1, -1, 0, 0, 0), (0, 0, 1, -1, 0)))
    return CatalogEntry(
        datum=d,
        provenance="Rankin-Selberg convolution for GL(2) x GL(2), "
                   "mirabolic model",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(numerator=(("std x std", _HALF),)))


def _bump_friedberg():
    d = _datum("bump-friedberg", root_datum("GL", 2),
               LatticeMap.of([(1, 0), (0, -1)]),
               colors=(("Dr", (1, 0)), ("Du", (0, 1))),
               spherical_roots=((1, 1),), cone_colors=())
    return CatalogEntry(
        datum=d,
        provenance="Bump-Friedberg integral for GL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="homogeneous",
        routes=(SmoothRoute(),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std", _HALF), ("det", _HALF))))


def _triple_product():
    return CatalogEntry(
        datum=_sl2_tensor("triple-product", "a1triple", 3, "D4"),
        provenance="Garrett triple product for three copies of SL(2)",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=False, preflag_case="homogeneous",
        routes=(TransportRoute("siegel-gsp6",
                               LatticeMap.of([(1, 0, 1, 1, -1),
                                              (1, 1, 0, 0, -1)])),),
        expected_lvalue=ExpectedLValue(
            numerator=(("std x std x std", _HALF),)),
        growth_hint=(1, 0, 1, 1, -1))


def _siegel_gsp6():
    d = _datum("siegel-gsp6",
               product_datum(root_datum("T", 2), root_datum("GSP", 6)),
               LatticeMap.of([(0, 1), (1, 1), (-1, 0), (-1, 0),
                              (-1, 0), (3, 1)]),
               colors=(("DY", (1, 0)),), levi_roots=(0, 1))
    return CatalogEntry(
        datum=d,
        provenance="Siegel parabolic degeneration of GSp(6)",
        reductive_stabilizer=False, wavefront_expected=True,
        smooth_expected=False, preflag_case="PP",
        routes=_derived(d, "pp"),
        growth_hint=(1, 0))


def _tensor_4():
    return CatalogEntry(
        datum=_sl2_tensor("tensor-4", "a1quad", 4, "De"),
        provenance="fourfold tensor product period; the L-value is "
                   "conjectural and no computation route is defined",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=False, preflag_case="vector-space",
        routes=(),
        expected_lvalue=ExpectedLValue(
            numerator=(("std x std x std x std", _HALF),), conjectural=True))


def _kvs_1_15():
    d = _datum("kvs-1-15", root_datum("T", 2),
               LatticeMap.of([(-1, 0), (1, 1)]), rays=((1, 0), (0, 1)))
    return CatalogEntry(
        datum=d,
        provenance="smooth affine model I.15 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))


def _kvs_2_3():
    d = _datum("kvs-2-3",
               product_datum(root_datum("GL", 2), root_datum("GL", 1)),
               LatticeMap.identity(3),
               colors=(("D1", (1, 0, 1)), ("D2", (0, -1, -1))),
               spherical_roots=((1, -1, 0),), rays=((0, 1, 0),))
    return CatalogEntry(
        datum=d,
        provenance="smooth affine model II.3 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))


def _kvs_2_5():
    d = _datum("kvs-2-5", root_datum("T", 2), LatticeMap.identity(2),
               rays=((1, 0),))
    return CatalogEntry(
        datum=d,
        provenance="toric rank-two model II.5 from the "
                   "Knop-Van Steirteghem list",
        reductive_stabilizer=True, wavefront_expected=True,
        smooth_expected=True, preflag_case="vector-space",
        routes=(SmoothRoute(),))


_BUILDERS = {
    "a1-gl1": _a1_gl1,
    "a2-sl2": _a2_sl2,
    "a2-sl2-nocenter": _a2_sl2_nocenter,
    "borel-gl2": _borel_gl2,
    "borel-sl3": _borel_sl3,
    "pp-gl3": _pp_gl3,
    "hecke-gl2": _hecke_gl2,
    "pgl2-group": _pgl2_group,
    "godement-jacquet-2": lambda: _godement_jacquet(2),
    "godement-jacquet-3": lambda: _godement_jacquet(3),
    "rankin-selberg": _rankin_selberg,
    "bump-friedberg": _bump_friedberg,
    "triple-product": _triple_product,
    "siegel-gsp6": _siegel_gsp6,
    "tensor-4": _tensor_4,
    "kvs-1-15": _kvs_1_15,
    "kvs-2-3": _kvs_2_3,
    "kvs-2-5": _kvs_2_5,
}


# key -> entry, filled by load
_LOADED = {}


def list_entries():
    return tuple(_BUILDERS)


def load(key: str) -> CatalogEntry:
    """The entry named key, built and checked on its first load."""
    if key not in _BUILDERS:
        raise ValueError("unknown catalog key %r" % (key,))
    if key not in _LOADED:
        entry = _BUILDERS[key]()
        if entry.key != key:
            raise RuntimeError("%s: builder made entry %s" % (key, entry.key))
        if entry.preflag_case not in _CASES:
            raise RuntimeError("%s: unknown preflag case" % key)
        # a reductive generic stabilizer leaves nothing to induce from
        if entry.reductive_stabilizer and entry.datum.levi_roots:
            raise RuntimeError("%s: reductive stabilizer with Levi roots" % key)
        _LOADED[key] = entry
    return _LOADED[key]


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
