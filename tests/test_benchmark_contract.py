"""What the benchmark uses of the package: its configs build and its kernel calls run.

A package change that breaks any of these would otherwise show only as a
failed benchmark run. The benchmark's sources are imported, never edited.
"""

import importlib
import sys
from pathlib import Path

import pytest

from plrlab.core import Rng
from plrlab.datagen import DatasetSpec
from plrlab.trainer import TrainConfig

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def workloads():
    """benchmarks/workloads.py, imported beside its sibling modules; sys.path and
    sys.modules are left as they were found."""
    path, loaded = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - loaded:
            del sys.modules[name]


def test_configs_build_and_kernel_calls_match_the_reference(workloads):
    TrainConfig(**workloads.ACCEPTANCE_TRAIN)
    DatasetSpec(seed=1, **workloads.ACCEPTANCE_SPEC)
    grid = workloads._Grid(workloads.WORKLOADS["kernel-grid"].plan, {})
    x = workloads.kernel_instance(16, 10, Rng(0))
    for method, call in workloads._kernel_calls(grid.h, grid.cfg).items():
        expected = workloads._reference(method, x, grid.h, grid.cfg)
        assert workloads._check_kernel(method, call(x), x, expected, grid.cfg) == [], method
