"""In-memory span tracer installed around dvm2d's public functions.

The tracer changes nothing in the package: it replaces, in the worker
process only, every module attribute that binds one of the traced
functions (for example both ``dvm2d.circles.circle_points`` and
``dvm2d.collision.circle_points``) with a wrapper that records a span
(name, start, end, parent).  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# Functions traced, by defining module.  Span names are <module>.<function>
# with the ``dvm2d.`` prefix dropped.
TRACED_FUNCTIONS = {
    "dvm2d.numtheory": ("factorize", "gaussian_factorize", "two_squares_prime"),
    "dvm2d.circles": (
        "circle_points",
        "smallest_prime_factor_sieve",
        "prime_angles",
        "abs_S_closed_range",
    ),
    "dvm2d.collision": ("q_discrete_detailed", "q_reference", "collision_invariants"),
    "dvm2d.harness": ("figure_data", "relax_simulate", "converge_study"),
}

ROOT = "job"
CLI = "cli"


class Tracer:
    """Spans as parallel lists; ``open`` / ``close`` keep a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.circle_ns: set[int] = set()

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict:
        """Per-name calls, self seconds and span durations, plus counters."""
        own = self.self_times()
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for i, name in enumerate(self.names):
            calls[name] += 1
            self_s[name] += own[i]
            durations[name].append(self.ends[i] - self.starts[i])
        p50 = {}
        p90 = {}
        for name, ds in durations.items():
            if len(ds) >= 2:
                qs = statistics.quantiles(ds, n=10, method="inclusive")
                p50[name], p90[name] = statistics.median(ds), qs[8]
            else:
                p50[name] = p90[name] = ds[0]
        counters = dict(self.counters)
        counters["circles.circle_points.distinct"] = len(self.circle_ns)
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "p50_s": p50,
            "p90_s": p90,
            "counters": counters,
            "spans": len(self.names),
        }

    def dump(self) -> dict:
        """All spans, names interned, for writing out after the run."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        return {
            "names": table,
            "spans": [
                [index[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.span(name, fn, *args, **kwargs)
        if after is not None:
            after(args, result)
        return result

    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each dvm2d module attribute binding it."""
    import dvm2d.cli  # noqa: F401  -- loads every module that binds a traced name
    from dvm2d import collision

    def count_circle(args, pts):
        tracer.counters["circles.points_enumerated"] += pts.count
        tracer.circle_ns.add(int(args[0]))

    def count_figure(args, data):
        tracer.counters["harness.figure_data.kept"] += data.count

    after = {
        "circles.circle_points": count_circle,
        "harness.figure_data": count_figure,
    }
    modules = [m for n, m in sys.modules.items() if n == "dvm2d" or n.startswith("dvm2d.")]
    for mod_name, fn_names in TRACED_FUNCTIONS.items():
        home = sys.modules[mod_name]
        for fn_name in fn_names:
            original = getattr(home, fn_name)
            name = f"{mod_name.removeprefix('dvm2d.')}.{fn_name}"
            wrapper = _wrap(tracer, name, original, after.get(name))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    op = collision.FastCollisionOperator
    op.__init__ = _wrap(tracer, "collision.FastCollisionOperator.init", op.__init__)
    apply_grid = op.apply_grid

    @functools.wraps(apply_grid)
    def traced_apply_grid(self, *args, **kwargs):
        return tracer.span(
            f"collision.FastCollisionOperator.apply_grid.{self.kernel.kind}",
            apply_grid, self, *args, **kwargs,
        )

    op.apply_grid = traced_apply_grid
