import importlib.util
import os

import pytest


def _perfbench_module(name):
    """perfbench/<name>.py, loaded without putting perfbench on sys.path."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", name + ".py")
    spec = importlib.util.spec_from_file_location("_perfbench_" + name, path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="session")
def benchmark_ops():
    """perfbench/ops.py: the benchmark keeps its own copies of labels, op
    parameters and references."""
    return _perfbench_module("ops")


@pytest.fixture(scope="session")
def benchmark_spans():
    """perfbench/spans.py: the span tracer and the names it wraps."""
    return _perfbench_module("spans")
