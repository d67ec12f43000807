"""Smoke check of the benchmark itself, at the tiny size (about a minute).

    python3 perfbench/smoke.py

For every workload it runs ``run.py --size tiny`` untraced and traced
and checks that the result line has exactly the contract's keys, that
the metric names and units are those of ``BENCHMARK.json``, and that
every output check passed.  It then copies only ``BENCHMARK.json`` and
the benchmark's files into an empty directory and checks that the
benchmark fails there (exit code not 0, no result line).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), *(["--size", "tiny"] if cwd == ROOT else [])],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{workload}/trace{trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"checks failed: {proc.stdout.splitlines()[-2][:500]}")
    if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
        problems.append("non-numeric metric value")
    return [f"{workload}/trace{trace}: {p}" for p in problems]


def check_fails_without_program() -> list[str]:
    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return ["benchmark did not fail in a directory without the program"]
    return []


def main() -> int:
    problems = check_fails_without_program()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_result(w["name"], trace)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
