"""dvm2d benchmark: time one workload end to end, or per layer when traced.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Every repetition is a fresh ``worker.py`` process, one at a time, with
OpenBLAS pinned to one thread, so each pays the cold caches a CLI user
pays.  ``--trace 0`` reports the medians of the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones plus the tracing overhead.

A shared 2-vCPU host's speed drifts by +-20% over minutes, more than any
bound worth having.  So every time is reported at reference speed: each
worker times a fixed probe (``worker.reference_s``) right after set-up
and right after the job, and a time t becomes t * REFERENCE_S / probe.
The raw times are kept in the report.  The last line of stdout is the
JSON result; the environment, every repetition and its quartiles (raw
and scaled) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import ROOT as ROOT_SPAN

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("census", "spectra", "ladder", "relax")
BLAS_THREADS = 1
SETUP_PROBES = 3  # set-up-only processes per untraced run, for the setup_s median
RUN_LIMIT_S = 170.0  # a run must end within 180 s
REFERENCE_S = 0.35  # the speed probe's time on a quiet 2.1 GHz Xeon vCPU

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

NT, CI, CO, HA = "numtheory", "circles", "collision", "harness"
FAST = f"{CO}.FastCollisionOperator"
# Span names whose call count / self time are reported.
CALLS = [f"{NT}.factorize", f"{NT}.gaussian_factorize", f"{NT}.two_squares_prime",
         f"{CI}.circle_points", f"{CI}.smallest_prime_factor_sieve",
         f"{CI}.abs_S_closed_range", f"{FAST}.init", f"{FAST}.apply_grid.maxwell",
         f"{FAST}.apply_grid.product_power", f"{CO}.q_discrete_detailed",
         f"{CO}.collision_invariants", f"{HA}.relax_simulate", "cli"]
SELF = CALLS + [f"{CI}.prime_angles", f"{CO}.q_reference", f"{HA}.figure_data",
                f"{HA}.converge_study"]
LATENCY = [f"{FAST}.apply_grid.maxwell", f"{FAST}.apply_grid.product_power"]
TRACE_SUMMARY = {
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s", "trace.dominant_share": "ratio", "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {f"{n}.calls": "count" for n in CALLS}
    units.update({f"{n}.self_s": "s" for n in SELF})
    for n in LATENCY:
        units[f"{n}.p50_ms"] = units[f"{n}.p90_ms"] = "ms"
    units[f"{CI}.circle_points.distinct_ratio"] = "ratio"
    units[f"{CI}.points_enumerated"] = "count"
    units[f"{HA}.figure_data.kept_ratio"] = "ratio"
    units.update(TRACE_SUMMARY)
    return units


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to the program failing a check)."""


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q2, q3]


def layer_metrics(summary: dict, job_s: float, speed: float) -> tuple[dict[str, float], str]:
    """Per-layer metrics of one traced repetition, times at reference speed,
    and the layer with the most self time."""
    calls, counters = summary["calls"], summary["counters"]
    self_s = {n: speed * s for n, s in summary["self_s"].items()}
    job_s *= speed
    m = {f"{n}.calls": calls.get(n, 0) for n in CALLS}
    m.update({f"{n}.self_s": self_s.get(n, 0.0) for n in SELF})
    for n in LATENCY:
        m[f"{n}.p50_ms"] = 1e3 * speed * summary["p50_s"].get(n, 0.0)
        m[f"{n}.p90_ms"] = 1e3 * speed * summary["p90_s"].get(n, 0.0)
    n_circle = calls.get(f"{CI}.circle_points", 0)
    enumerated = counters.get(f"{CI}.points_enumerated", 0)
    m[f"{CI}.circle_points.distinct_ratio"] = (
        counters[f"{CI}.circle_points.distinct"] / n_circle if n_circle else 0.0)
    m[f"{CI}.points_enumerated"] = enumerated
    m[f"{HA}.figure_data.kept_ratio"] = (
        counters.get(f"{HA}.figure_data.kept", 0) / enumerated
        if calls.get(f"{HA}.figure_data") and enumerated else 0.0)
    layers = {n: s for n, s in self_s.items() if n != ROOT_SPAN}
    dominant = max(layers, key=layers.get)
    m["trace.wall_s"] = job_s
    m["trace.unattributed_s"] = self_s[ROOT_SPAN]
    m["trace.dominant_share"] = layers[dominant] / job_s
    m["trace.spans"] = summary["spans"]
    return m, dominant


def at_reference_speed(rep: dict) -> None:
    """Add ``rep["scaled"]``: the worker's times at reference speed.

    Set-up is scaled by the probe taken right after it; the job by the
    mean of that probe and the one taken right after the job.
    """
    probe = rep["reference_s"]
    scaled = {"setup_s": rep["setup_s"] * REFERENCE_S / probe[0]}
    if "wall_s" in rep:
        speed = REFERENCE_S / statistics.fmean(probe)
        scaled.update(wall_s=rep["wall_s"] * speed, cpu_s=rep["cpu_s"] * speed,
                      peak_rss_mb=rep["peak_rss_mb"], speed=speed)
    rep["scaled"] = scaled


def spawn(args, *, trace: int, setup_only: int, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    t_spawn = time.perf_counter()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--trace", str(trace),
           "--setup-only", str(setup_only), "--t-spawn", repr(t_spawn),
           "--out-dir", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run(args) -> dict:
    start = time.perf_counter()
    hard_deadline = start + RUN_LIMIT_S
    load_start = os.getloadavg()
    reps: list[dict] = []
    probes: list[dict] = []

    def room_for_another() -> bool:
        # Start another repetition if a typical one ends by --seconds plus half
        # a repetition, so a 14 s job still gets two repetitions in 30 s.
        typical = statistics.median(r["elapsed_s"] for r in reps)
        return time.perf_counter() - start + typical / 2 <= args.seconds

    def repeat(trace: int) -> None:
        t = time.perf_counter()
        rep = spawn(args, trace=trace, setup_only=0, deadline=hard_deadline)
        rep["elapsed_s"] = time.perf_counter() - t
        rep["traced"] = trace
        reps.append(rep)

    if args.trace:
        repeat(0)
        repeat(1)
        while room_for_another():
            repeat(1 - reps[-1]["traced"])
    else:
        for _ in range(SETUP_PROBES):
            probes.append(spawn(args, trace=0, setup_only=1, deadline=hard_deadline))
        repeat(0)
        while room_for_another():
            repeat(0)

    for r in reps + probes:
        at_reference_speed(r)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    outcomes = [op for r in reps for op in r["ops"]]
    failed = sum(1 for _, ok, _ in outcomes if not ok)
    spread, raw = {}, {}
    for k in ("wall_s", "cpu_s", "peak_rss_mb"):
        spread[k] = quartiles([r["scaled"][k] for r in plain])
        raw[k] = quartiles([r[k] for r in plain])
    spread["setup_s"] = quartiles([r["scaled"]["setup_s"] for r in plain + probes])
    raw["setup_s"] = quartiles([r["setup_s"] for r in plain + probes])

    if args.trace:
        per_rep = [layer_metrics(r["trace"], r["wall_s"], r["scaled"]["speed"])
                   for r in traced]
        units = per_layer_units()
        metrics = {name: statistics.median(m[name] for m, _ in per_rep)
                   for name in per_rep[0][0]}
        metrics["trace.untraced_wall_s"] = spread["wall_s"][1]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - spread["wall_s"][1]
        dominant = statistics.mode(d for _, d in per_rep)
    else:
        units = END_TO_END
        metrics = {k: spread[k][1] for k in units}
        dominant = None

    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "report": {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "seconds": args.seconds,
            "repetitions": len(plain), "traced_repetitions": len(traced),
            "quartiles": spread, "raw_quartiles": raw,
            "failed_frac": failed / len(outcomes),
            "failures": [op for op in outcomes if not op[1]],
            "dominant_layer": dominant,
            "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                    "blas_threads_requested": BLAS_THREADS, "platform": platform.platform(),
                    **reps[0]["env"], "loadavg_start": load_start,
                    "loadavg_end": os.getloadavg()},
            "reps": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                        "reference_s", "scaled", "traced")}
                     for r in reps],
            "setup_probes": [{k: p[k] for k in ("setup_s", "reference_s", "scaled")}
                             for p in probes],
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny is the smoke-test size")
    args = ap.parse_args()

    OUT.mkdir(exist_ok=True)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1
    report = result.pop("report")
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "report": report}, indent=1) + "\n")
    print(json.dumps({k: report[k] for k in
                      ("workload", "repetitions", "traced_repetitions", "failed_frac",
                       "dominant_layer", "quartiles", "raw_quartiles", "failures")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
