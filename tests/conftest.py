import importlib.util
import os

import pytest


@pytest.fixture(scope="session")
def benchmark_ops():
    """perfbench/ops.py, loaded without putting perfbench on sys.path: the
    benchmark keeps its own copies of labels, op parameters and references."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "ops.py")
    spec = importlib.util.spec_from_file_location("_perfbench_ops", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
