"""One benchmark pass: the op lists of the four workloads and the runner that
times them in a fresh interpreter.

Run by ``run.py`` as a child process, one pass per process, so no cache inside
``sphvar`` carries over from one pass to the next:

    python3 perfbench/ops.py --workload tables --seed 1 [--trace] [--limit K]
                             [--refs DIR] [--record] [--setup-only]

It writes one JSON object per line on stdout: the set-up time, one line per
op as soon as the op ends (so a killed pass still reports what it finished),
and a closing line with the pass totals.  Only public functions of ``sphvar``
are called, and ``sphvar`` is imported inside the timed set-up, not here.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
REFS = os.path.join(HERE, "refs")

WORKLOADS = ("tables", "classify", "hecke", "translates")

# A hang or a pathological slowdown fails the op instead of stalling the pass;
# the slowest op of the seed commit takes about 3 s.
OP_BUDGET_S = 30.0

# Height 10 (a 10 s pass) is left out: on a noisy two-core host a run must fit
# several passes to report a steady median.
TABLE_HEIGHTS = (6, 8)
CHECKS = ("colored-cone", "affine", "wavefront", "induced", "negligible")
# Sized so that a translates pass takes about as long as a hecke pass, some
# 3 s at the reference host speed.
TRANSLATE_TRIALS = 120
TRANSLATE_HEIGHT = 3


# The host's speed drifts by a third within minutes and jitters within a
# second, alike for every CPU-bound loop.  A fixed builtins-only loop, timed
# before set-up and between ops, measures it; run.py scales every time to the
# speed at which this loop takes ``run.CALIB_REF_S``.  It imports nothing, so
# timing it before set-up moves no import out of set-up.
CALIB_LOOPS = 20000


def calibrate():
    """Seconds one run of the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    x, acc = 1, {}
    for i in range(1, CALIB_LOOPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (i % 31, x % 29)
        acc[key] = acc.get(key, 0) + x // i
    return time.perf_counter() - t0


class OpBudgetExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so library handlers let it pass."""


def _on_alarm(signum, frame):
    raise OpBudgetExceeded()


class Op:
    """A named call into sphvar.  ``call`` is the timed part; ``canon`` turns
    its result into the JSON value compared with the reference, untimed.
    Oracle ops pass when their mismatch list is empty and need no reference."""

    __slots__ = ("id", "call", "canon", "oracle")

    def __init__(self, op_id, call, canon=None, oracle=False):
        self.id = op_id
        self.call = call
        self.canon = canon
        self.oracle = oracle


def _rows(table):
    return [[list(label), str(value)] for label, value in table.values]


def _tables_ops():
    from sphvar import catalog
    keys = [k for k in catalog.list_entries() if catalog.load(k).routes]
    return [Op("%s@h%d" % (k, h),
               lambda k=k, h=h: catalog.basic_table(k, h), _rows)
            for k in keys for h in TABLE_HEIGHTS]


def _run_cli(argv):
    from sphvar import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return out.getvalue(), rc


def _cli_canon(res):
    stdout, rc = res
    return {"stdout": stdout, "rc": rc}


def _colored_cone_canon(cc):
    return {"generators": [[str(x) for x in g] for g in cc.cone.generators],
            "colors": list(cc.colors)}


def _classify_ops():
    from sphvar import catalog, cli, spherical
    docs = os.path.join(WORK, "docs")
    os.makedirs(docs, exist_ok=True)
    ops = []
    for key in catalog.list_entries():
        datum = catalog.load(key).datum
        path = os.path.join(docs, key + ".json")
        with open(path, "w") as fh:
            json.dump(cli.render_document(datum), fh, indent=2, sort_keys=True)
        ops.append(Op("describe:" + key,
                      lambda p=path: _run_cli(["describe", p]), _cli_canon))
        for w in CHECKS:
            ops.append(Op("check-%s:%s" % (w, key),
                          lambda p=path, w=w: _run_cli(
                              ["check", p, "--which", w]), _cli_canon))
        ops.append(Op("affine-closure:" + key,
                      lambda d=datum: spherical.affine_closure_data(d),
                      _colored_cone_canon))
    return ops


GRADED = (("GL", 4, (0,), 4), ("GL", 4, (0, 2), 5), ("GSP", 6, (0, 1), 5),
          ("B", 3, (0,), 3), ("G", 2, (0,), 4))
KOSTANT = (("SL", 3, 12), ("SL", 4, 6), ("B", 2, 10), ("G", 2, 8), ("C", 3, 4))
LFACTORS = (("GL", 3, (0,), {"t1": 2, "t2": 3}),
            ("GSP", 6, (0, 1), {"t1": 2, "t2": 5}),
            ("GL", 4, (0, 2), {"t1": 2, "t2": 3}))
SATAKE = (("UGL2", ("unit", "t1", "central"), 8, (5, 7)),
          ("PPGL3", ("unit", "t1", "wedge", "central"), 6, (3, 5)))
GJ = (3, 5)


def _graded_canon(graded):
    return [[i, [[list(hw), mult] for hw, mult in parts]]
            for i, parts in graded]


def _hecke_ops():
    from sphvar import catalog, engine, oracle
    from sphvar.geometry import LatticeMap
    from sphvar.rootdata import ParabolicDatum, root_datum

    ops = []
    for kind, n, levi, bound in GRADED:
        ops.append(Op("graded:%s%d:%s:%d" % (kind, n, levi, bound),
                      lambda kind=kind, n=n, levi=levi, bound=bound:
                      engine.basic_function_graded(
                          ParabolicDatum(root_datum(kind, n), levi), bound),
                      _graded_canon))
    # the datum only names the table
    named = catalog.load("borel-sl3").datum
    for kind, n, h in KOSTANT:
        def borel(kind=kind, n=n, h=h):
            rd = root_datum(kind, n)
            route = engine.BorelRoute(rd, LatticeMap.identity(rd.rank))
            return engine.basic_function_borel(named, route, h)
        ops.append(Op("kostant:%s%d:h%d" % (kind, n, h), borel, _rows))
    for kind, n, levi, point in LFACTORS:
        def lfactor(kind=kind, n=n, levi=levi, point=point):
            p = ParabolicDatum(root_datum(kind, n), levi)
            rep = engine.f_fixed(engine.dual_radical(p))
            return engine.local_lfactor(rep, point).expand(40, 9)
        ops.append(Op("lfactor:%s%d:%s" % (kind, n, levi), lfactor,
                      lambda series: [str(c) for c in series]))
    for space, names, height, qs in SATAKE:
        for q in qs:
            for name in names:
                ops.append(Op("satake:%s:%s:q%d" % (space, name, q),
                              lambda name=name, space=space, height=height,
                              q=q: oracle.satake_mismatches(
                                  name, space, height, q), oracle=True))
    for q in GJ:
        ops.append(Op("gj-recursion:q%d" % q,
                      lambda q=q: oracle.gj_recursion_mismatches(q, height=6),
                      oracle=True))
    return ops


def translate_labels(space, height):
    """The stratum labels the ``sphvar oracle run orbit-invariance`` command
    samples, kept here so the workload does not depend on CLI internals."""
    if space == "A2":
        return [(n,) for n in range(height + 1)]
    if space in ("UGL2", "PPGL3"):
        return [(a, b) for a in range(height + 1)
                for b in range(height + 1 - a)]
    if space == "MAT2":
        return [(a, k) for k in range(height + 1)
                for a in range(k // 2 + 1) if a + k <= height]
    raise ValueError("unknown space %r" % (space,))


def _translates_ops(seed):
    from sphvar import oracle
    rng = random.Random("translates:%d" % seed)
    h = TRANSLATE_HEIGHT
    ops = []
    for q in (2, 3):
        for space in oracle.SPACES:
            for label in translate_labels(space, h):
                ops.append(Op("%s:%s:q%d" % (space, ",".join(map(str, label)),
                                             q),
                              lambda space=space, label=label, q=q,
                              s=rng.getrandbits(32):
                              oracle.translate_invariance_mismatches(
                                  space, label, q, 2 * h + 8,
                                  TRANSLATE_TRIALS, seed=s),
                              oracle=True))
    return ops


def build_ops(workload, seed):
    """The workload's ops in the order the seed gives; the seed also derives
    the oracle RNG seeds but never changes what an op should return."""
    if workload == "tables":
        ops = _tables_ops()
    elif workload == "classify":
        ops = _classify_ops()
    elif workload == "hecke":
        ops = _hecke_ops()
    elif workload == "translates":
        ops = _translates_ops(seed)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    random.Random(seed).shuffle(ops)
    return ops


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _load_refs(refs_dir, workload):
    path = os.path.join(refs_dir, workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def run_op(op, refs, record):
    """(seconds, failure kind or None, canonical result or None)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_BUDGET_S)
        try:
            res = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpBudgetExceeded:
        return time.perf_counter() - t0, "budget", None
    except Exception:
        sys.stderr.write("op %s raised:\n%s" % (op.id, traceback.format_exc()))
        return time.perf_counter() - t0, "error", None
    dt = time.perf_counter() - t0
    if dt > OP_BUDGET_S:
        return dt, "budget", None
    if op.oracle:
        if res:
            sys.stderr.write("op %s: oracle mismatches %r\n" % (op.id, res[:3]))
            return dt, "oracle", None
        return dt, None, None
    try:
        canon = json.loads(json.dumps(op.canon(res)))
    except (TypeError, ValueError, AttributeError):
        sys.stderr.write("op %s returned an unexpected shape:\n%s"
                         % (op.id, traceback.format_exc()))
        return dt, "mismatch", None
    if record:
        return dt, None, canon
    if op.id not in refs or refs[op.id] != canon:
        sys.stderr.write("op %s: result differs from the reference\n" % op.id)
        return dt, "mismatch", None
    return dt, None, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first K ops of the shuffled list")
    ap.add_argument("--refs", default=REFS)
    ap.add_argument("--record", action="store_true",
                    help="write the results as the workload's references")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = None
    calib = [calibrate() for _ in range(3)]
    t0 = time.perf_counter()
    import sphvar  # noqa: F401  (import cost is part of set-up)
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from sphvar import catalog
    catalog.list_entries()
    setup_s = time.perf_counter() - t0
    calib += [calibrate() for _ in range(3)]
    _emit({"setup_s": setup_s, "calib": calib})
    if args.setup_only:
        return 0

    ops = build_ops(args.workload, args.seed)
    if args.limit is not None:
        ops = ops[:args.limit]
    refs = _load_refs(args.refs, args.workload)
    _emit({"ops": [op.id for op in ops]})
    if tracer is not None:
        tracer.mark_ops_start()
    signal.signal(signal.SIGALRM, _on_alarm)
    recorded = {}
    wall = 0.0
    calib = []
    for op in ops:
        calib.append(calibrate())
        dt, fail, canon = run_op(op, refs, args.record)
        wall += dt
        if canon is not None:
            recorded[op.id] = canon
        _emit({"op": op.id, "s": dt, "fail": fail})
    calib.append(calibrate())
    end = {"wall_s": wall, "calib": calib,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        end["layers"] = tracer.summary(wall)
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, "spans-%s.tsv" % args.workload))
    if args.record and recorded:
        os.makedirs(args.refs, exist_ok=True)
        with open(os.path.join(args.refs, args.workload + ".json"), "w") as fh:
            json.dump(dict(sorted(recorded.items())), fh, indent=1)
            fh.write("\n")
    _emit({"end": end})
    return 0


if __name__ == "__main__":
    sys.exit(main())
