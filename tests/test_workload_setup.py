"""The benchmark's workloads, at their tiny size, against the current API.

perfbench/workloads.py builds its inputs through the package's public
names (QuadratureConfig fields, KernelSpec constructors, CLI options).
Running every workload here in-process makes a change to one of those
names fail the tests, not only the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["census", "spectra", "ladder", "relax"])
def test_workload_runs_and_passes_its_checks_at_tiny_size(monkeypatch, tmp_path, name):
    workloads = load_workloads(monkeypatch)
    assert set(workloads) == {"census", "spectra", "ladder", "relax"}
    ops = workloads[name]("tiny", 7, tmp_path)
    assert ops
    results = {op.name: op.run() for op in ops}
    failures = {op.name: op.check(results) for op in ops}
    assert failures == {op.name: None for op in ops}
