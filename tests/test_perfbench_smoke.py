"""The benchmark's package calls still run: each perfbench workload, built
as ``perfbench/run.py`` builds it, makes one operation per input and its
traced layer sweep with no problem reported.

The sweep is the only caller of some package functions outside the
tests, and only the benchmark's traced run makes it, so a change that
breaks it shows here.  ``perfbench/workloads.py`` and
``perfbench/tracing.py`` are loaded from their files and only read.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import bertrand_kit
import bertrand_kit.cli  # noqa: F401  (the workloads call bk.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's ``workloads`` and ``tracing`` modules, loaded without
    writing bytecode beside them."""
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return _load("workloads"), _load("tracing")
    finally:
        sys.dont_write_bytecode = writes


@pytest.mark.parametrize("name", ["pair-verify", "frenet-table", "cli-files"])
def test_workload_ops_and_layer_sweep_report_no_problem(perfbench, name, tmp_path):
    workloads, tracing = perfbench
    workload = workloads.WORKLOADS[name](bertrand_kit, random.Random(1))
    assert len(workload.items) == 4
    for item in workload.items:
        result = workload.op(item, tracing.NullTracer(), str(tmp_path))
        assert result.problems == [], item[:2]
        assert result.digest
    counts, written, problems = workloads.layer_sweep(bertrand_kit, tracing.Tracer(),
                                                      workload, str(tmp_path))
    assert problems == []
    assert written > 0
    assert any(counts.values())
