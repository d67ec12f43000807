"""The benchmark tracer wraps functions by name; each name must still exist."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
BENCHMARK = ROOT / "BENCHMARK.json"


def traced_functions() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS assignment in {TRACER}")


def test_traced_functions_resolve():
    table = traced_functions()
    assert table
    for mod_name, fn_names in table.items():
        module = importlib.import_module(mod_name)
        for fn_name in fn_names:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"


def test_operator_spans_are_benchmark_metrics():
    """Outside TRACED_FUNCTIONS the tracer wraps FastCollisionOperator's
    __init__ and apply_grid and names each apply span by kernel.kind.  In a
    fresh process (install patches the package), both kernel families must
    give spans that are per-layer metrics of the benchmark."""
    script = (
        "import json, sys\n"
        "import numpy as np\n"
        "sys.path.insert(0, 'perfbench')\n"
        "import tracer\n"
        "from dvm2d import collision as co\n"
        "t = tracer.Tracer()\n"
        "tracer.install(t)\n"
        "for kernel in (co.KernelSpec.maxwell(), co.KernelSpec.product_power(0.5, (1, 0, 0.5))):\n"
        "    co.FastCollisionOperator(0.5, 1.0, kernel, 2).apply_grid(np.ones((5, 5)))\n"
        "print(json.dumps(t.summary()['calls']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    fast = "collision.FastCollisionOperator"
    calls = {k: n for k, n in json.loads(run.stdout).items() if k.startswith(fast)}
    assert calls == {
        f"{fast}.init": 2,
        f"{fast}.apply_grid.maxwell": 1,
        f"{fast}.apply_grid.product_power": 1,
    }
    metrics = {m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]}
    assert {f"{name}.calls" for name in calls} <= metrics
