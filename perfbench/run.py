"""sphvar benchmark: times four workloads end to end, one pass per fresh
interpreter, and checks every result against exact references.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # all four, one table
    python3 perfbench/run.py --regenerate                 # rewrite refs/

Run from anywhere inside a checkout; the package is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Times are scaled to a reference host
speed measured by a calibration loop.  See README.md for what each means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ops as _ops  # noqa: E402  (stdlib only; sphvar is imported by passes)
import spans as _spans  # noqa: E402

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("slowest_op_s", "s"),
              ("ok_frac", "frac"), ("peak_rss_mb", "MB"))
# Time of one ops.calibrate() loop at the reference host speed, about the
# fastest it ran on a two-core Xeon host under Python 3.11.7.  Reported times
# are measured times scaled to this speed.
CALIB_REF_S = 0.0075
# set-up is sampled this many times in fresh interpreters besides the passes
SETUP_SAMPLES = 7
# a run must exit within 180 s; passes still running at this point are killed
# and their unfinished ops count as failed
RUN_DEADLINE_S = 160.0


def slowness(calib):
    """How many times slower than the reference the host ran, from the
    calibration loops timed around the measured work."""
    return statistics.mean(calib) / CALIB_REF_S


class Pass:
    """What one child pass reported.  Times ending in ``_ref`` are scaled to
    the reference host speed."""

    def __init__(self, traced):
        self.traced = traced
        self.setup_s = None
        self.setup_ref = None
        self.op_ids = None
        self.times = {}
        self.fails = {}
        self.end = None
        self.elapsed = 0.0

    @property
    def attempted(self):
        return len(self.op_ids) if self.op_ids is not None else 1

    @property
    def failed(self):
        """Failed ops, counting each op the pass never finished."""
        if self.op_ids is None:
            return 1
        lost = len(self.op_ids) - len(self.times)
        return sum(1 for f in self.fails.values() if f) + lost

    def kinds(self):
        out = {}
        for f in self.fails.values():
            if f:
                out[f] = out.get(f, 0) + 1
        if self.op_ids is None:
            out["no-op-list"] = 1
        elif len(self.times) < len(self.op_ids):
            out["unfinished"] = len(self.op_ids) - len(self.times)
        return out

    # the rest is read only from passes that ended
    @property
    def slowness(self):
        return slowness(self.end["calib"])

    @property
    def wall_ref(self):
        return self.end["wall_s"] / self.slowness

    @property
    def slowest_ref(self):
        """(seconds, op id) of the slowest op."""
        op = max(self.times, key=self.times.get)
        return self.times[op] / self.slowness, op


def _text(data):
    if isinstance(data, bytes):
        return data.decode("utf-8", "replace")
    return data or ""


def child_env(seed):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # string hashing, and so set order inside sphvar, follows the seed
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    return env


def run_pass(workload, seed, traced, timeout, extra=()):
    """Run one ops.py process and collect what it reported; its stderr is
    passed on."""
    p = Pass(traced)
    cmd = [sys.executable, os.path.join(HERE, "ops.py"), "--workload",
           workload, "--seed", str(seed)] + list(extra)
    if traced:
        cmd.append("--trace")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(seed),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
        out, err = proc.stdout, proc.stderr
        if proc.returncode != 0:
            err += "pass exited with code %d\n" % proc.returncode
    except subprocess.TimeoutExpired as e:
        out, err = _text(e.stdout), _text(e.stderr) + (
            "pass killed after %.1f s\n" % timeout)
    p.elapsed = time.monotonic() - t0
    if err:
        sys.stderr.write(err)
    for line in out.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if "setup_s" in msg:
            p.setup_s = msg["setup_s"]
            p.setup_ref = msg["setup_s"] / slowness(msg["calib"])
        elif "ops" in msg:
            p.op_ids = msg["ops"]
        elif "op" in msg:
            p.times[msg["op"]] = msg["s"]
            p.fails[msg["op"]] = msg["fail"]
        elif "end" in msg:
            p.end = msg["end"]
    return p


def measure(workload, seed, seconds, trace, extra=()):
    """Run passes of one workload for about ``seconds``; return the result
    object and a list of human-readable lines."""
    start = time.monotonic()

    def remaining():
        return RUN_DEADLINE_S - (time.monotonic() - start)

    # the first interpreter byte-compiles sphvar and is not counted
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        p = run_pass(workload, seed, False, remaining(), ["--setup-only"])
        if i and p.setup_s is not None:
            setups.append(p)

    passes = []
    t_passes = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        p = run_pass(workload, seed, traced, remaining(), extra)
        passes.append(p)
        if not traced and p.setup_s is not None:
            setups.append(p)
        if p.end is None:
            break
        used = time.monotonic() - t_passes
        have_both = not trace or len(passes) >= 2
        # start another pass only if it should end within the run's time
        if have_both and used + p.elapsed > seconds:
            break
        if 1.5 * p.elapsed > remaining():
            break

    plain = [p for p in passes if not p.traced and p.end is not None]
    traced = [p for p in passes if p.traced and p.end is not None]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    kinds = {}
    for p in passes:
        for k, v in p.kinds().items():
            kinds[k] = kinds.get(k, 0) + v

    if not plain or not setups or (trace and not traced):
        raise SystemExit("error: no %s pass completed; see the messages above"
                         % workload)
    med = statistics.median
    wall = med(p.wall_ref for p in plain)
    slow = sorted(p.slowest_ref for p in plain)[(len(plain) - 1) // 2]
    e2e = {
        "setup_s": med(p.setup_ref for p in setups),
        "wall_s": wall,
        "slowest_op_s": med(p.slowest_ref[0] for p in plain),
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": med(p.end["peak_rss_kb"] for p in plain) / 1024.0,
    }
    nops = plain[0].attempted
    lines = [
        "workload %s: seed %d, %d untraced pass(es) of %d ops%s"
        % (workload, seed, len(plain), nops,
           ", %d traced" % len(traced) if trace else ""),
        "  times are scaled to the reference host speed; the host ran %.2fx "
        "slower, measured times in brackets" % med(p.slowness for p in plain),
        "  setup_s       %.4f s   [%.4f s] (median of %d set-ups)"
        % (e2e["setup_s"], med(p.setup_s for p in setups), len(setups)),
        "  wall_s        %.4f s   [%.4f s] (%d ops)"
        % (wall, med(p.end["wall_s"] for p in plain), nops),
        "  slowest_op_s  %.4f s   (%s)" % (e2e["slowest_op_s"], slow[1]),
        "  fail_frac     %.4f     (%d of %d ops failed%s)"
        % (failed / attempted, failed, attempted,
           "".join(", %s %d" % kv for kv in sorted(kinds.items()))),
        "  peak_rss_mb   %.2f MB" % e2e["peak_rss_mb"],
    ]
    if not trace:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    else:
        layer_names = _spans.metric_names()
        merged = {}
        for name in layer_names:
            if name == "trace.overhead":
                continue
            # seconds are scaled like the end-to-end times
            merged[name] = med(
                p.end["layers"][name] / (p.slowness if layer_unit(name)
                                         in ("s", "us") else 1)
                for p in traced)
        merged["trace.overhead"] = med(p.wall_ref for p in traced) / wall
        metrics = {name: {"value": merged[name], "unit": layer_unit(name)}
                   for name in layer_names}
        lines.append("  trace.overhead %.3f (traced wall_s / untraced wall_s)"
                     % merged["trace.overhead"])
        lines.append("  trace.coverage %.4f (top-level span time / traced "
                     "wall_s)" % merged["trace.coverage"])
        shares = sorted(((v, k) for k, v in merged.items()
                         if k.endswith("_share")), reverse=True)
        lines += ["  %-36s %.4f" % (k, v) for v, k in shares]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, lines


def layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    return {"calls": "count", "self_s": "s", "first_s": "s",
            "points_out": "count", "us_per_point": "us",
            "spans": "count"}.get(stat, "ratio")


def regenerate():
    """Record every reference from the current tree; run only on request."""
    for w in _ops.WORKLOADS:
        p = run_pass(w, 0, False, 600, ["--record"])
        print("%s: %d ops, %d failed" % (w, p.attempted, p.failed))
        if p.failed:
            return 1
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=_ops.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=None,
                    help="run only the first K ops of each pass (self-test)")
    ap.add_argument("--refs", default=None,
                    help="reference directory (default perfbench/refs)")
    ap.add_argument("--regenerate", action="store_true",
                    help="rewrite perfbench/refs from the current tree")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sphvar", "__init__.py")):
        print("error: no src/sphvar package next to %s" % HERE,
              file=sys.stderr)
        return 2
    if args.regenerate:
        return regenerate()
    if args.workload is None:
        ap.error("--workload is required")
    os.makedirs(_ops.WORK, exist_ok=True)
    extra = []
    if args.limit is not None:
        extra += ["--limit", str(args.limit)]
    if args.refs is not None:
        extra += ["--refs", os.path.abspath(args.refs)]

    workloads = _ops.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        results[w], lines = measure(w, args.seed, args.seconds,
                                    bool(args.trace), extra)
        print("\n".join(lines), flush=True)
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
