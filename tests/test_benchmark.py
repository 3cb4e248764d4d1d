"""The benchmark's span tracer wraps sphvar functions by name; a rename or a
move out of a class body would silently drop a per-layer metric."""
from __future__ import annotations

import importlib
import inspect
import json
import os


def test_every_span_target_resolves(benchmark_spans):
    for mod_name, quals in benchmark_spans.TARGETS.items():
        mod = importlib.import_module("sphvar." + mod_name)
        for qual in quals:
            if "." in qual:
                # install() wraps the entry of the class __dict__ itself
                cls_name, attr = qual.split(".")
                raw = vars(getattr(mod, cls_name)).get(attr)
                if isinstance(raw, staticmethod):
                    raw = raw.__func__
            else:
                raw = getattr(mod, qual, None)
            assert inspect.isfunction(raw), "%s.%s" % (mod_name, qual)


def test_tables_match_the_benchmark_references(benchmark_ops):
    with open(os.path.join(benchmark_ops.REFS, "tables.json")) as f:
        refs = json.load(f)
    ops = benchmark_ops._tables_ops()
    assert sorted(op.id for op in ops) == sorted(refs)
    for op in ops:
        assert benchmark_ops._rows(op.call()) == refs[op.id], op.id


def test_oracle_workloads_match_the_benchmark_references(benchmark_ops):
    # one pass of the hecke and translates op lists: the reference ops
    # reproduce refs/hecke.json, and every oracle op finds no mismatch
    with open(os.path.join(benchmark_ops.REFS, "hecke.json")) as f:
        refs = json.load(f)
    ops = benchmark_ops._hecke_ops() + benchmark_ops._translates_ops(1)
    assert sorted(op.id for op in ops if not op.oracle) == sorted(refs)
    for op in ops:
        res = op.call()
        if op.oracle:
            assert res == [], op.id
        else:
            assert json.loads(json.dumps(op.canon(res))) == refs[op.id], op.id
