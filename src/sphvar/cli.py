"""Command line around the lattice, table, and enumeration layers.

Input documents are JSON (schema 1) describing one spherical datum:

    {"schema": 1, "name": "...",
     "group": {"name", "rank", "simple_roots", "simple_coroots"}
              | {"type": "GL", "rank": 3} | {"factors": [group, ...]},
     "rank": r, "lattice_map": [[...], ...],
     "valuation_cone": {"generators": [[...], ...]}
                       | {"inequalities": [[...], ...]},
     "colors": [{"label": "D", "rho": [...]}, ...],
     "levi_roots": [...], "spherical_roots": [[...], ...],
     "little_weyl": [[[...]]] | null, "colored_cone": {...} | null}

"little_weyl" is input only: W_X is derived, stated matrices must generate it
(spherical.check_little_weyl), and render_document writes null.

Table commands take their route from engine.derived_route, the derivation
the catalog uses: the group is the non-torus coordinate block of the ambient
group, the lattice_map rows sitting in that block, transposed, are the label
functionals on its cocharacters, and the PP Levi is levi_roots.  Borel
tables additionally need this block square and unimodular; both table cases
need a horospherical datum (no spherical roots) and are computed by the
dispatcher engine.route_table.  --case graded and lf read the block and
Levi of the PP route.

Output is tab-separated; labels print as comma-joined integers and values as
canonical q-Laurent strings unless a numeric --q (or SPH_Q_DEFAULT) asks for
specialization.  Exit codes: 0 pass, 1 mathematical failure, 2 bad input,
141 stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from . import catalog as _catalog
from .engine import (KAPPA, TransportRoute, basic_function_graded,
                     derived_route, dual_radical, f_fixed, growth_certificate,
                     local_lfactor, route_table)
from .geometry import Cone, LatticeMap
from .rootdata import ParabolicDatum, RootDatum, product_datum, root_datum
from .spherical import (ColoredCone, SphericalDatum, arithmetic_multiplicity,
                        aut_lineality, check_little_weyl, enumerate_orbits,
                        is_affine, is_wavefront, negligible_orbit_check,
                        parabolic_induction, validate_colored_cone)

SCHEMA = 1


class InputError(ValueError):
    """Bad document or bad request. main turns it, like any ValueError, into
    one error line and exit code 2."""


@contextlib.contextmanager
def _prefixed(prefix, kinds=(ValueError,)):
    """Re-raise an error of kinds as InputError(prefix + message); an
    InputError, already phrased for the user, passes unchanged."""
    try:
        yield
    except InputError:
        raise
    except kinds as e:
        raise InputError(prefix + str(e))


# ---------------------------------------------------------------------------
# documents

def _ivec(v, what):
    # int() would truncate floats and accept booleans
    try:
        if not any(isinstance(x, (bool, float)) for x in v):
            return tuple(int(x) for x in v)
    except (TypeError, ValueError):
        pass
    raise InputError("%s must be a list of integers, got %r" % (what, v))


def _imat(m, what):
    if not isinstance(m, (list, tuple)):
        raise InputError("%s must be a list of rows" % what)
    return tuple(_ivec(r, what + " row") for r in m)


def _int(x, what):
    try:
        if not isinstance(x, (bool, float)):
            return int(x)
    except (TypeError, ValueError):
        pass
    raise InputError("%s must be an integer, got %r" % (what, x))


def _list(v, what):
    if not isinstance(v, (list, tuple)):
        raise InputError("%s must be a list, got %r" % (what, v))
    return v


def parse_group(obj) -> RootDatum:
    if not isinstance(obj, dict):
        raise InputError("group must be an object")
    if "factors" in obj:
        factors = _list(obj["factors"], "group.factors")
        if not factors:
            raise InputError("group.factors must be nonempty")
        return product_datum(*(parse_group(f) for f in factors))
    with _prefixed("bad group: ", (KeyError, TypeError, ValueError)):
        if "simple_roots" in obj:
            rd = RootDatum(str(obj.get("name", "custom")),
                           _int(obj["rank"], "group.rank"),
                           _imat(obj["simple_roots"], "simple_roots"),
                           _imat(obj["simple_coroots"], "simple_coroots"))
            rd.positive_pairs  # an infinite Weyl group is bad input
            return rd
        return root_datum(str(obj["type"]), _int(obj["rank"], "group.rank"))


def render_group(rd: RootDatum) -> dict:
    return {"name": rd.name, "rank": rd.rank,
            "simple_roots": [list(a) for a in rd.simple_roots],
            "simple_coroots": [list(a) for a in rd.simple_coroots]}


def _parse_cone(obj, rank, what) -> Cone:
    if not isinstance(obj, dict):
        raise InputError("%s must be an object" % what)
    n = _int(obj.get("dim", rank), what + ".dim")
    with _prefixed("bad %s: " % what):
        if "inequalities" in obj:
            return Cone.from_inequalities(
                _imat(obj["inequalities"], what + ".inequalities"), n)
        return Cone(n, _imat(obj.get("generators", ()), what + ".generators"))


def parse_document(obj) -> SphericalDatum:
    if not isinstance(obj, dict):
        raise InputError("document must be a JSON object")
    if obj.get("schema") != SCHEMA:
        raise InputError("unsupported schema %r (want %d)"
                         % (obj.get("schema"), SCHEMA))
    for key in ("name", "group", "rank", "lattice_map", "valuation_cone"):
        if key not in obj:
            raise InputError("document is missing %r" % key)
    rank = _int(obj["rank"], "rank")
    colors = []
    for c in _list(obj.get("colors", ()), "colors"):
        if not isinstance(c, dict) or "label" not in c or "rho" not in c:
            raise InputError("colors entries need label and rho")
        colors.append((str(c["label"]), _ivec(c["rho"], "rho")))
    lw = obj.get("little_weyl")
    if lw is not None:
        lw = [_imat(m, "little_weyl matrix") for m in _list(lw, "little_weyl")]
    cc = obj.get("colored_cone")
    if cc is not None:
        cc = ColoredCone(_parse_cone(cc, rank, "colored_cone"),
                         tuple(str(x) for x in _list(cc.get("colors", ()),
                                                     "colored_cone.colors")))
    with _prefixed("inconsistent document: "):
        d = SphericalDatum(
            name=str(obj["name"]),
            ambient=parse_group(obj["group"]),
            rank=rank,
            lattice_map=LatticeMap.of(_imat(obj["lattice_map"],
                                            "lattice_map")),
            valuation_cone=_parse_cone(obj["valuation_cone"], rank,
                                       "valuation_cone"),
            colors=tuple(colors),
            levi_roots=_ivec(obj.get("levi_roots", ()), "levi_roots"),
            spherical_roots=_imat(obj.get("spherical_roots", ()),
                                  "spherical_roots"),
            colored_cone=cc)
        if lw is not None:
            check_little_weyl(d, lw)
        return d


def render_document(d: SphericalDatum) -> dict:
    cc = None
    if d.colored_cone is not None:
        cc = {"generators": [list(g) for g in d.colored_cone.cone.generators],
              "colors": list(d.colored_cone.colors)}
    return {
        "schema": SCHEMA,
        "name": d.name,
        "group": render_group(d.ambient),
        "rank": d.rank,
        "lattice_map": [list(r) for r in d.lattice_map.rows],
        "valuation_cone": {"generators": [list(g) for g in d.valuation_cone.generators]},
        "colors": [{"label": lbl, "rho": list(rho)} for lbl, rho in d.colors],
        "levi_roots": list(d.levi_roots),
        "spherical_roots": [list(g) for g in d.spherical_roots],
        "little_weyl": None,
        "colored_cone": cc,
    }


def load_document(path) -> SphericalDatum:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as e:
        raise InputError("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise InputError("%s is not JSON: %s" % (path, e))
    return parse_document(obj)


# ---------------------------------------------------------------------------
# route requirements

def _require_horospherical(d: SphericalDatum, what):
    if d.spherical_roots:
        raise InputError("%s needs a horospherical datum; %s has %d "
                         "spherical roots" % (what, d.name,
                                              len(d.spherical_roots)))


# ---------------------------------------------------------------------------
# formatting

def _fmt_label(l):
    return ",".join(str(x) for x in l)


# Fraction raises 10 to a decimal exponent, so a rational argument may carry
# one of at most this size, the digit count int() accepts from a string
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _rational(text, error):
    """Fraction(text), or InputError(error % text) if text is no rational
    or its decimal exponent is larger than MAX_EXPONENT either way."""
    exp = _EXPONENT.search(text)
    if exp:
        digits = exp[1].replace("_", "").lstrip("0")
        if (len(digits) > len(str(MAX_EXPONENT))
                or int(digits or 0) > MAX_EXPONENT):
            raise InputError("%s: its decimal exponent is larger than %d"
                             % (error % (text,), MAX_EXPONENT))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(error % (text,)) from None


def _parse_q(text):
    if text is None:
        text = os.environ.get("SPH_Q_DEFAULT", "sym")
    if text == "sym":
        return None
    q0 = _rational(text, "--q must be 'sym' or a rational, got %r")
    if q0 <= 0:
        raise InputError("--q must be positive, got %r" % text)
    return q0


# ---------------------------------------------------------------------------
# commands

def cmd_describe(args) -> int:
    d = load_document(args.file)
    print("name\t%s" % d.name)
    print("ambient\t%s" % d.ambient.name)
    print("rank\t%d" % d.rank)
    print("colors\t%d" % len(d.colors))
    print("spherical-roots\t%d" % len(d.spherical_roots))
    print("wavefront\t%s" % str(is_wavefront(d)).lower())
    print("arithmetic-multiplicity\t%d" % arithmetic_multiplicity(d))
    lin_rank, lin_cone = aut_lineality(d)
    print("aut-lineality-rank\t%d" % lin_rank)
    if lin_cone is not None:
        print("aut-lineality-in-cone\t%s"
              % (" ".join(_fmt_label(g) for g in lin_cone.generators) or "-"))
    ind = parabolic_induction(d)
    print("parabolic-induction\t%s"
          % ("-" if ind is None else (_fmt_label(ind) or "B")))
    if d.colored_cone is not None:
        pts = enumerate_orbits(d, 2, integral_only=True)
        print("integral-strata-h2\t%s"
              % " ".join(_fmt_label(l) for l in pts))
    return 0


def cmd_check(args) -> int:
    d = load_document(args.file)
    which = args.which
    if which in ("colored-cone", "affine") and d.colored_cone is None:
        raise InputError("document has no colored cone")
    if which == "colored-cone":
        ok, diag = validate_colored_cone(d, d.colored_cone)
        print("colored-cone\t%s\t%s" % ("pass" if ok else "fail", diag))
        return 0 if ok else 1
    if which == "affine":
        ok, wit = is_affine(d, d.colored_cone)
        detail = _fmt_label(wit) if ok else "-"
        print("affine\t%s\t%s" % ("pass" if ok else "fail", detail))
        return 0 if ok else 1
    if which == "wavefront":
        ok = is_wavefront(d)
        print("wavefront\t%s" % ("pass" if ok else "fail"))
        return 0 if ok else 1
    if which == "induced":
        ind = parabolic_induction(d)
        if ind is None:
            print("induced\tfail\tnot parabolically induced")
            return 1
        print("induced\tpass\t%s" % (_fmt_label(ind) or "B"))
        return 0
    if which == "negligible":
        ok, cert = negligible_orbit_check(d)
        print("negligible\t%s\t%d subsets" % ("pass" if ok else "fail",
                                              len(cert)))
        return 0 if ok else 1
    raise InputError("unknown check %r" % which)


def cmd_orbits(args) -> int:
    d = load_document(args.file)
    for l in enumerate_orbits(d, args.height, integral_only=args.integral):
        print(_fmt_label(l))
    return 0


def _specialized_rows(table, q0):
    return [(l, str(v) if q0 is None else str(v.specialize(q0)))
            for l, v in table.values]


def cmd_basicfn(args) -> int:
    d = load_document(args.file)
    if args.case == "graded":
        flag = "--q" if args.q is not None else "--json" if args.json else None
        if flag:
            raise InputError("%s is not supported with --case graded" % flag)
        route = derived_route(d, "pp")
        graded = basic_function_graded(
            ParabolicDatum(route.group, route.levi), args.height)
        for i, parts in graded:
            for hw, mult in parts:
                print("%d\t%s\t%d" % (i, _fmt_label(hw), mult))
        return 0
    q0 = _parse_q(args.q)
    _require_horospherical(d, "a basic-function table")
    if d.colored_cone is None:
        raise InputError("basicfn needs a colored cone")
    table = route_table(d, derived_route(d, args.case), args.height)
    if args.json:
        doc = {"schema": SCHEMA, "datum": table.datum_name,
               "case": table.case, "rank": table.rank,
               "height": table.height, "truncation": table.truncation,
               "q": "sym" if q0 is None else str(q0),
               "rows": [{"label": list(l), "value": v}
                        for l, v in _specialized_rows(table, q0)]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for l, v in _specialized_rows(table, q0):
            print("%s\t%s" % (_fmt_label(l), v))
    return 0


def _parse_point(text) -> dict:
    point = {}
    if not text:
        return point
    for item in text.split(","):
        if "=" not in item:
            raise InputError("--point items look like t1=2, got %r" % item)
        key, _, val = item.partition("=")
        point[key.strip()] = _rational(val, "bad coordinate value %r")
    return point


def cmd_lf(args) -> int:
    d = load_document(args.file)
    _require_horospherical(d, "a local L-factor")
    route = derived_route(d, "pp")
    point = _parse_point(args.point)
    rep = dual_radical(ParabolicDatum(route.group, route.levi))
    if args.rep == "u_P_f":
        rep = f_fixed(rep)
    lf = local_lfactor(rep, point, kappa=args.kappa)
    series = ()
    if args.expand is not None:
        q0 = _parse_q(args.q)
        if q0 is None:
            raise InputError("--expand needs a numeric --q")
        series = lf.expand(args.expand, q0)
    for c, e in lf.monomials:
        print("monomial\t%s\t%s" % (c, e))
    for k, c in enumerate(series):
        print("T^%d\t%s" % (k, c))
    return 0


def _catalog_checks(entry, height=4):
    """[(check, status, detail)] with status pass/fail/skip."""
    rows = []
    d = entry.datum
    ok, diag = validate_colored_cone(d, d.colored_cone)
    rows.append(("colored-cone", "pass" if ok else "fail", diag))
    wf = is_wavefront(d)
    rows.append(("wavefront-flag", "pass" if wf == entry.wavefront_expected
                 else "fail", "computed %s" % wf))
    mult = arithmetic_multiplicity(d)
    rows.append(("multiplicity", "pass" if mult == 1 else "fail", str(mult)))
    try:
        neg, _ = negligible_orbit_check(d)
        rows.append(("negligible", "pass" if neg else "fail", ""))
    except ValueError as e:
        rows.append(("negligible", "skip", str(e)))
    ind = parabolic_induction(d)
    if entry.reductive_stabilizer:
        rows.append(("induction", "pass" if ind is None else "fail",
                     "reductive stabilizer"))
    elif entry.preflag_case in ("U_P", "PP"):
        rows.append(("induction", "pass" if ind == d.levi_roots else "fail",
                     "want Levi %s" % (d.levi_roots,)))
    else:
        rows.append(("induction", "skip", "no contract for %s"
                     % entry.preflag_case))
    if not entry.routes:
        rows.append(("table", "skip", "no route"))
        return rows
    table = _catalog.basic_table(entry, height)
    rows.append(("table", "pass" if table.values else "fail",
                 "%d rows" % len(table.values)))
    if entry.smooth_expected:
        trivial = all(str(v) == "1" for _, v in table.values)
        rows.append(("smooth-values", "pass" if trivial else "fail", ""))
    if any(isinstance(r, TransportRoute) for r in entry.routes):
        ok, diag = _catalog.transport_coincidence(entry)
        rows.append(("transport-cones", "pass" if ok else "fail", diag))
    hints = (entry.growth_hint,) if entry.growth_hint else ()
    cert = growth_certificate(table, hints=hints)
    rows.append(("growth", "pass" if cert is not None else "fail",
                 "" if cert is None else _fmt_label(cert)))
    return rows


def cmd_catalog(args) -> int:
    if args.action == "list":
        for key in _catalog.list_entries():
            e = _catalog.load(key)
            print("%s\t%s\t%s" % (key, e.preflag_case, e.provenance))
        return 0
    entry = _catalog.load(args.key)
    if args.action == "show":
        if args.json:
            print(json.dumps(render_document(entry.datum), indent=2,
                             sort_keys=True))
            return 0
        print("key\t%s" % entry.key)
        print("provenance\t%s" % entry.provenance)
        print("case\t%s" % entry.preflag_case)
        print("reductive-stabilizer\t%s"
              % str(entry.reductive_stabilizer).lower())
        print("wavefront\t%s" % str(entry.wavefront_expected).lower())
        print("smooth\t%s" % str(entry.smooth_expected).lower())
        print("routes\t%s" % (",".join(type(r).__name__
                                       for r in entry.routes) or "-"))
        lv = entry.expected_lvalue
        if lv is None:
            print("l-value\t-")
        else:
            num = " ".join("%s@%s" % (name, shift)
                           for name, shift in lv.numerator)
            den = " ".join("%s@%s" % (name, shift)
                           for name, shift in lv.denominator)
            print("l-value\t%s%s%s" % (num, (" / " + den) if den else "",
                                       " (conjectural)" if lv.conjectural
                                       else ""))
        return 0
    if args.action == "test":
        if args.height < 0:
            raise InputError("--height must be >= 0")
        rows = _catalog_checks(entry, height=args.height)
        for name, status, detail in rows:
            print("%s\t%s\t%s" % (name, status, detail))
        return 1 if any(s == "fail" for _, s, _ in rows) else 0
    raise InputError("unknown catalog action %r" % args.action)


# ---------------------------------------------------------------------------
# oracle checks: each takes the oracle module, which cmd_oracle imports only
# when a check runs, and returns (unit, mismatches) rows

def _check_orbit_invariance(oracle, qs, height, trials):
    h = min(height, 3)
    out = []
    for q in qs:
        prec = 2 * h + 8
        mism = []
        for space in oracle.SPACES:
            for i, lab in enumerate(oracle.stratum_labels(space, h)):
                bad = oracle.translate_invariance_mismatches(
                    space, lab, q, prec, trials, seed=31 * i + q)
                mism.extend((space, lab, got) for _, got in bad)
        out.append(("q=%d" % q, mism))
    return out


def _check_representatives(oracle, qs, height, trials):
    out = []
    for q in qs:
        prec = 2 * height + 4
        mism = []
        for space in oracle.SPACES:
            for lab in oracle.stratum_labels(space, height):
                got = oracle.orbit_invariant(
                    oracle.stratum_point(space, lab, q, prec))
                if got != lab:
                    mism.append((space, lab, got))
        out.append(("q=%d" % q, mism))
    return out


def _check_satake(space):
    def run(oracle, qs, height, trials):
        return [("q=%d op=%s" % (q, op),
                 oracle.satake_mismatches(op, space, height, q))
                for q in qs for op in oracle.hecke_operators(space)]
    return run


def _check_gj(oracle, qs, height, trials):
    return [("q=%d" % q, oracle.gj_recursion_mismatches(q, height=height))
            for q in qs]


def _check_interpolation(oracle, qs, height, trials):
    panel = (2, 3, 5, 7)

    def counts(space, group, op):
        return {q: oracle.transition_counts(
            space, oracle.coset_reps(group, op, q, 10), [(0, 0)], q, 10)
            for q in panel}

    wedge = counts("PPGL3", "GL3", "wedge")
    herm = {q: oracle.mat2_coset_label_counts(q, 12, 2) for q in panel}
    mism = []
    for name, table, key, deg in (
            ("gl2-t1", counts("UGL2", "GL2", "t1"), ((0, 0), (0, 1)), 1),
            ("gl3-t1", counts("PPGL3", "GL3", "t1"), ((0, 0), (0, 1)), 2),
            ("gl3-wedge-long", wedge, ((0, 0), (0, 2)), 2),
            ("gl3-wedge-short", wedge, ((0, 0), (1, 2)), 1),
            ("mat2-cosets", herm, (0, 2), 2)):
        values = {q: c[key] for q, c in table.items()}
        if not oracle.interpolates(values, deg):
            mism.append((name, values, deg))
    return [("q=%s" % ",".join(str(q) for q in panel), mism)]


ORACLE_CHECKS = {
    "orbit-invariance": (_check_orbit_invariance, 3),
    "representatives": (_check_representatives, 4),
    "satake-ugl2": (_check_satake("UGL2"), 4),
    "satake-ppgl3": (_check_satake("PPGL3"), 2),
    "gj-recursion": (_check_gj, 4),
    "interpolation": (_check_interpolation, 4),
}


# Miller-Rabin on the primes up to 41 decides primality below PRIME_BOUND
# (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether n < PRIME_BOUND is prime: n - 1 = d 2^r with d odd, and
    each witness a has a^d = 1 or a^(d 2^i) = -1 mod n for some i < r."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def cmd_oracle(args) -> int:
    if args.name not in ORACLE_CHECKS:
        raise InputError("unknown oracle check %r; available: %s"
                         % (args.name, ", ".join(sorted(ORACLE_CHECKS))))
    try:
        qs = tuple(int(x) for x in args.q.split(","))
    except ValueError:
        raise InputError("--q must be comma-joined primes, got %r" % args.q)
    for q in qs:
        if q >= PRIME_BOUND:
            raise InputError("--q entries must be below %d, got %d"
                             % (PRIME_BOUND, q))
        if not _is_prime(q):
            raise InputError("--q entries must be primes, got %d" % q)
    fn, default_height = ORACLE_CHECKS[args.name]
    height = args.height if args.height is not None else default_height
    if height < 0:
        raise InputError("--height must be >= 0")
    if args.trials < 1:
        raise InputError("--trials must be >= 1")
    from . import oracle  # only oracle runs compile the oracle module
    results = fn(oracle, qs, height, args.trials)
    failed = False
    for unit, mism in results:
        status = "pass" if not mism else "fail"
        failed = failed or bool(mism)
        print("%s\t%s\t%s" % (args.name, unit, status))
        for row in mism:
            print("mismatch\t%s" % (row,))
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# wiring

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sphvar",
        description="exact invariants and unramified tables of spherical "
                    "varieties")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="summarize a datum document")
    p.add_argument("file")
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("check", help="run one classification check")
    p.add_argument("file")
    p.add_argument("--which", required=True,
                   choices=("colored-cone", "affine", "wavefront", "induced",
                            "negligible"))
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("orbits", help="enumerate stratum labels by height")
    p.add_argument("file")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--integral", action="store_true",
                   help="restrict to the colored-cone window")
    p.set_defaults(fn=cmd_orbits)

    p = sub.add_parser("basicfn", help="tabulate the basic function")
    p.add_argument("file")
    p.add_argument("--case", required=True, choices=("borel", "pp", "graded"))
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--q", default=None,
                   help="'sym' or a rational; default SPH_Q_DEFAULT or sym")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_basicfn)

    p = sub.add_parser("lf", help="local L-factor of the dual radical")
    p.add_argument("file")
    p.add_argument("--rep", required=True, choices=("u_P", "u_P_f"))
    p.add_argument("--point", default="",
                   help="comma-joined coordinates, e.g. t1=2,t2=1/3")
    p.add_argument("--kappa", type=int, default=KAPPA)
    p.add_argument("--expand", type=int, default=None,
                   help="print the series through T^N (needs numeric --q)")
    p.add_argument("--q", default=None)
    p.set_defaults(fn=cmd_lf)

    p = sub.add_parser("catalog", help="worked examples")
    p.add_argument("action", choices=("list", "show", "test"))
    p.add_argument("key", nargs="?")
    p.add_argument("--json", action="store_true",
                   help="with show: emit the datum as an input document")
    p.add_argument("--height", type=int, default=4)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("oracle", help="brute-force double checks")
    p.add_argument("run", choices=("run",))
    p.add_argument("name")
    p.add_argument("--q", default="2,3")
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--trials", type=int, default=500,
                   help="random translates per tested point")
    p.set_defaults(fn=cmd_oracle)

    return ap


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    if args.command == "catalog" and args.action in ("show", "test") \
            and not args.key:
        print("error: catalog %s needs a key" % args.action, file=sys.stderr)
        return 2
    if args.command == "catalog" and args.action == "list" \
            and args.key is not None:
        print("error: catalog list takes no key", file=sys.stderr)
        return 2
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered write meets a closed pipe here
        return code
    except BrokenPipeError:
        # the reader has gone: say nothing, and point stdout at devnull so
        # that the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except MemoryError:
        # the input asked for more than memory holds, e.g. a huge --height
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
