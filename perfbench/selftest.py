"""Self-test of the benchmark itself, on a reduced op list.

    python3 perfbench/selftest.py

Checks that every end-to-end metric prints for all four workloads with no
failed op, that the traced mode prints every per-layer metric, and that a
deliberately corrupted copy of one reference makes the benchmark report
failures.  Takes under a minute; exits 0 on success.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ops  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

LIMIT = 3


def bench(*args):
    """The final JSON line of one benchmark run, with its human lines."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "1",
           "--limit", str(LIMIT)] + list(args)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (cmd, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def first_op(workload, seed):
    """Id of the first op a pass with this seed runs."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return ops.build_ops(workload, seed)[0].id


def main():
    problems = []

    res, lines = bench("--workload", "all", "--seed", "3")
    for w in ops.WORKLOADS:
        got = res[w]
        names = sorted(got["metrics"])
        want = sorted(name for name, _ in run.END_TO_END)
        if names != want:
            problems.append("%s prints %s, want %s" % (w, names, want))
        if got["failed"] or not got["correct"] or got["attempted"] < LIMIT:
            problems.append("%s: %d of %d ops failed"
                            % (w, got["failed"], got["attempted"]))
        if got["metrics"]["ok_frac"]["value"] != 1.0:
            problems.append("%s: ok_frac is not 1" % w)
        if not any(line.startswith("workload " + w) for line in lines):
            problems.append("%s: no human-readable block" % w)

    res, _ = bench("--workload", "hecke", "--seed", "3", "--trace", "1")
    if sorted(res["metrics"]) != sorted(spans.metric_names()):
        problems.append("traced run misses per-layer metrics")
    if res["failed"]:
        problems.append("traced hecke pass failed %d ops" % res["failed"])

    # a corrupted copy of the reference of the op that runs first
    seed = 5
    victim = first_op("tables", seed)
    bad = os.path.join(ops.WORK, "refs-corrupted")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(ops.REFS, bad)
    path = os.path.join(bad, "tables.json")
    with open(path) as fh:
        refs = json.load(fh)
    refs[victim][0][1] += " + 1"
    with open(path, "w") as fh:
        json.dump(refs, fh)
    res, _ = bench("--workload", "tables", "--seed", str(seed),
                   "--refs", bad)
    shutil.rmtree(bad)
    fail_frac = res["failed"] / res["attempted"]
    if not (fail_frac > 0 and not res["correct"]
            and res["metrics"]["ok_frac"]["value"] < 1.0):
        problems.append("corrupted reference for %s was not detected" % victim)

    for p in problems:
        print("FAIL", p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
