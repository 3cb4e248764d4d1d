"""The contract of sphvar's frozen records: the constructors, equality, hash,
repr and frozenness they had as frozen dataclasses, and `replace`."""
import copy
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from sphvar import catalog, chars, engine, geometry, oracle, rootdata, spherical
from sphvar.chars import QLaurent, WeightChar
from sphvar.geometry import Cone, LatticeMap
from sphvar.record import Record
from sphvar.rootdata import ParabolicDatum, root_datum

_ = inspect.Parameter.empty

# every record's constructor parameters, in order, with their defaults as
# the frozen dataclasses had them; _ marks a parameter without a default
SIGNATURES = {
    (catalog, "ExpectedLValue"): [("numerator", _), ("denominator", ()),
                                  ("conjectural", False)],
    (catalog, "CatalogEntry"): [
        ("datum", _), ("provenance", _), ("reductive_stabilizer", _),
        ("wavefront_expected", _), ("smooth_expected", _), ("preflag_case", _),
        ("routes", ()), ("expected_lvalue", None), ("growth_hint", ())],
    (chars, "QLaurent"): [("terms", _)],
    (chars, "WeightChar"): [("weights", _)],
    (engine, "BorelRoute"): [("group", _), ("label_map", _)],
    (engine, "PPRoute"): [("group", _), ("levi", _), ("label_map", _)],
    (engine, "SmoothRoute"): [],
    (engine, "TransportRoute"): [("partner", _), ("iota", _)],
    (engine, "DualRadicalRep"): [("parabolic", _), ("weights", _)],
    (engine, "FFixedRep"): [("parabolic", _), ("entries", _)],
    (engine, "BasicFunctionTable"): [
        ("datum_name", _), ("case", _), ("rank", _), ("values", _),
        ("truncation", _), ("height", _)],
    (engine, "LFactor"): [("monomials", _)],
    (geometry, "LatticeMap"): [("rows", _)],
    (rootdata, "RootDatum"): [("name", _), ("rank", _), ("simple_roots", _),
                              ("simple_coroots", _)],
    (rootdata, "ParabolicDatum"): [("datum", _), ("levi_indices", _)],
    (spherical, "ColoredCone"): [("cone", _), ("colors", _)],
    (spherical, "SphericalDatum"): [
        ("name", _), ("ambient", _), ("rank", _), ("lattice_map", _),
        ("valuation_cone", _), ("colors", ()), ("levi_roots", ()),
        ("spherical_roots", ()), ("colored_cone", None)],
    (oracle, "_Model"): [("k", _), ("n", _), ("twisted", False), ("key", None)],
    (oracle, "LatticePoint"): [("space", _), ("coords", _)],
}
RECORDS = [getattr(mod, name) for mod, name in SIGNATURES]


def _example(cls):
    """One instance of cls, built as sphvar builds them."""
    p = ParabolicDatum(root_datum("GL", 3), (0,))
    return {
        "ExpectedLValue": lambda: catalog.load("godement-jacquet-3").expected_lvalue,
        "CatalogEntry": lambda: catalog.load("pp-gl3"),
        "QLaurent": lambda: QLaurent.of({Fraction(1, 2): 2, -1: 1}),
        "WeightChar": lambda: WeightChar.of({(1, 0): 2, (0, 1): 1}),
        "BorelRoute": lambda: catalog.load("borel-sl3").routes[0],
        "PPRoute": lambda: catalog.load("pp-gl3").routes[0],
        "SmoothRoute": lambda: catalog.load("a1-gl1").routes[0],
        "TransportRoute": lambda: catalog.load("triple-product").routes[0],
        "DualRadicalRep": lambda: engine.dual_radical(p),
        "FFixedRep": lambda: engine.f_fixed(engine.dual_radical(p)),
        "BasicFunctionTable": lambda: catalog.basic_table(catalog.load("pp-gl3"), 2),
        "LFactor": lambda: engine.LFactor(((Fraction(1), Fraction(1, 2)),)),
        "LatticeMap": lambda: LatticeMap.of([(1, 2), (0, 1)]),
        "RootDatum": lambda: root_datum("GSp", 4),
        "ParabolicDatum": lambda: p,
        "ColoredCone": lambda: catalog.load("pp-gl3").datum.colored_cone,
        "SphericalDatum": lambda: catalog.load("hecke-gl2").datum,
        "_Model": lambda: oracle._MODELS["PPGL3"],
        "LatticePoint": lambda: oracle.stratum_point("A2", (1,), 3, 4),
    }[cls.__name__]()


def _fields(x):
    return tuple(getattr(x, f) for f in x._fields)


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError:  # a Cone field is unhashable, as it was before
        return TypeError


def test_every_record_is_a_plain_class_on_the_base():
    assert len(RECORDS) == 19
    for cls in RECORDS:
        assert issubclass(cls, Record) and type(cls) is type, cls


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_signature_is_kept(cls):
    expected = SIGNATURES[sys.modules[cls.__module__], cls.__name__]
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == expected
    assert cls._fields == tuple(name for name, _ in expected)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_value_equality_and_hash(cls):
    x = _example(cls)
    y = x.replace()
    assert type(y) is cls and y is not x
    assert x == y and not x != y
    assert _fields(y) == _fields(x)
    assert _hash_or_error(x) == _hash_or_error(y) == _hash_or_error(_fields(x))
    assert x != _fields(x) and x.__eq__(_fields(x)) is NotImplemented
    assert x != object()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    x = _example(cls)
    before = _fields(x)
    for name in x._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert all(a is b for a, b in zip(_fields(x), before))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    x = _example(cls)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is cls and y == x


def test_records_of_different_classes_are_unequal():
    one_field = [QLaurent(()), WeightChar(()), engine.LFactor(()), LatticeMap(())]
    for a in one_field:
        assert hash(a) == hash(((),))
        assert [b for b in one_field if b == a] == [a]
    p = ParabolicDatum(root_datum("GL", 2), ())
    assert engine.DualRadicalRep(p, ()) != engine.FFixedRep(p, ())
    assert engine.SmoothRoute() == engine.SmoothRoute()
    assert hash(engine.SmoothRoute()) == hash(())


def test_repr_is_the_field_listing():
    assert repr(catalog.load("pp-gl3").routes[0]) == (
        "PPRoute(group=RootDatum(name='t2xgl3-g', rank=3, simple_roots=((1, -1, 0), "
        "(0, 1, -1)), simple_coroots=((1, -1, 0), (0, 1, -1))), levi=(0,), "
        "label_map=LatticeMap(rows=((0, 0, 1), (1, 1, 1))))")
    assert repr(engine.SmoothRoute()) == "SmoothRoute()"


def test_replace_runs_the_constructor():
    d = catalog.load("hecke-gl2").datum
    assert d.spherical_roots
    with pytest.raises(ValueError, match="pairs > 0"):
        d.replace(valuation_cone=Cone.full(d.rank))
    with pytest.raises(TypeError):
        d.replace(no_such_field=1)
    # inputs are normalized again, as the constructor does
    assert root_datum("GL", 2).replace(simple_roots=[[1, -1]]).simple_roots == ((1, -1),)


def test_one_spherical_datum_is_one_post_init_call(monkeypatch):
    # perfbench/spans.py wraps SphericalDatum.__post_init__ by name
    cls = spherical.SphericalDatum
    raw = vars(cls)["__post_init__"]
    calls = []

    def counting(self):
        calls.append(self)
        return raw(self)
    monkeypatch.setattr(cls, "__post_init__", counting)
    d = catalog.load("pp-gl3").datum
    e = cls(d.name, d.ambient, d.rank, d.lattice_map, d.valuation_cone,
            d.colors, d.levi_roots, d.spherical_roots, d.colored_cone)
    assert calls == [e] and e == d


def test_importing_sphvar_loads_no_dataclasses():
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    code = ("import sys, sphvar, sphvar.catalog, sphvar.cli, sphvar.oracle; "
            "sphvar.catalog.list_entries(); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
