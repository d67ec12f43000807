"""One repetition of a workload in a fresh process.

Run by ``run.py``; prints one JSON object as its last line of stdout:
set-up time (from the parent's spawn clock to the first timed call),
the speed probe after set-up and after the job, wall and CPU time of
the job, peak RSS, per-op outcomes and, with ``--trace 1``, the
per-layer span summary.  ``--setup-only 1`` stops after set-up and its
probe, so a run can sample set-up time cheaply.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import CLI, ROOT, Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """Seconds taken by a fixed pure-Python loop plus numpy streaming passes.

    The machine's speed drifts by +-20% over minutes; ``run.py`` divides
    every time by this probe, measured next to it in the same process.
    """
    import numpy as np

    t = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += (i * i) % 7
    a = np.arange(200_000, dtype=np.int64)
    for _ in range(180):
        a = (a * 3 + 1) % 1_000_003
    return time.perf_counter() - t


def _blas_info() -> dict:
    """OpenBLAS version and thread count as loaded by numpy in this process."""
    import numpy as np

    info = {"blas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version")}
    with open("/proc/self/maps") as fp:
        libs = {line.split()[-1] for line in fp if "openblas" in line and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["blas_threads"] = fn()
                info["blas_lib"] = os.path.basename(path)
                return info
    return info


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", type=int, default=0, choices=(0, 1))
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir))
    try:
        ops = WORKLOADS[args.workload](args.size, args.seed, work)
        setup_s = time.perf_counter() - args.t_spawn
        result = {"setup_s": setup_s, "reference_s": [reference_s()]}
        if args.setup_only:
            print(json.dumps(result))
            return 0
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            install(tracer)

        results: dict[str, object] = {}
        errors: dict[str, str] = {}
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        root = tracer.open(ROOT) if tracer else None
        for op in ops:
            try:
                if tracer is not None and op.cli:
                    results[op.name] = tracer.span(CLI, op.run)
                else:
                    results[op.name] = op.run()
            except (Exception, SystemExit):
                errors[op.name] = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.close(root)
        t1 = time.perf_counter()
        cpu1 = _cpu_s()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["reference_s"].append(reference_s())

        outcomes = []
        for op in ops:
            detail = errors.get(op.name)
            if detail is None:
                try:
                    detail = op.check(results)
                except Exception:
                    detail = traceback.format_exc(limit=3)
            outcomes.append([op.name, detail is None, detail])

        result.update(
            wall_s=t1 - t0,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=peak_kb / 1024.0,
            ops=outcomes,
            env={"python": platform.python_version(),
                 "numpy": sys.modules["numpy"].__version__,
                 **_blas_info()},
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
            with open(args.out_dir / f"{args.workload}.spans.json", "w") as fp:
                json.dump(tracer.dump(), fp)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
