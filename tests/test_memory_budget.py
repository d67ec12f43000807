"""The one memory budget, errors.MEMORY_BUDGET, on every capped entry point.

REGISTRY lists the CLI commands and API calls that size an allocation
against the budget, each with the *_BYTES_PER_* constant of its binding
check and the number of those units it needs.  With the budget one byte
short of that need an entry refuses before it allocates; with exactly
that need it runs.  Every *_BYTES_PER_* constant in src/ needs an entry,
and the budget's value is written once.
"""

import importlib
import re
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dvm2d import circles, errors, harness
from dvm2d import collision as co
from dvm2d.cli import main
from dvm2d.errors import PreconditionError, check_memory

SRC = Path(__file__).parents[1] / "src" / "dvm2d"
MAXWELL = co.KernelSpec.maxwell()
# collision_invariants' states: bound 20, and simulate's first refused
# bound at R = support = B h and its last accepted one.
STATE_B20 = co.LatticeDistribution.zeros(0.25, 5.0)
STATE_B283, STATE_B282 = (co.LatticeDistribution.zeros(1.0, b) for b in (283.0, 282.0))


@dataclass(frozen=True)
class Capped:
    id: str
    unit: str  # "module.NAME" of the bytes-per-unit constant that binds
    count: int  # units the call needs
    call: object  # CLI arguments, or a zero-argument API call
    lattice_file: str | None = None  # its header, for an argument "FILE"

    @property
    def need(self) -> int:
        module, name = self.unit.split(".")
        return self.count * getattr(importlib.import_module(f"dvm2d.{module}"), name)


REGISTRY = [
    Capped("circle_table", "circles.CIRCLE_TABLE_BYTES_PER_POINT", 4 * 50000,
           lambda: circles.circle_table(50000)),
    Capped("r2_range", "circles.R2_RANGE_BYTES_PER_ROW", 100001,  # ceil(sqrt(10**10 + 1))
           lambda: next(circles.r2_range(10**10 + 1, 10**10 + 1))),
    Capped("FastCollisionOperator", "collision.RELAX_BYTES_PER_FRAME_POINT", 161**2,
           lambda: co.FastCollisionOperator(0.25, 5.0, MAXWELL, 60)),
    Capped("collide-grid-frame", "collision.RELAX_BYTES_PER_FRAME_POINT",
           305**2,  # the state has 285^2 points, and R/h = 10
           ["collide", "--f", "maxwellian", "--h", "0.05", "--R", "0.5", "--v", "6,0", "--grid"]),
    Capped("collide-pointwise-state", "collision.CONVERGE_BYTES_PER_POINT", 305**2,
           ["collide", "--f", "maxwellian", "--h", "0.04", "--R", "3"]),
    Capped("collide-grid-state", "collision.RELAX_BYTES_PER_FRAME_POINT",
           355**2,  # the state has 345^2 points, and R/h = 5
           ["collide", "--f", "maxwellian", "--h", "0.05", "--R", "0.25", "--v", "8,0", "--grid"]),
    Capped("collide-lattice-file-state", "collision.CONVERGE_BYTES_PER_POINT", 201**2,
           ["collide", "--f", "file", "--file", "FILE", "--R", "0.02"],
           '{"h": 0.01, "R_support": 1.0}'),
    Capped("converge-state", "collision.CONVERGE_BYTES_PER_POINT", 155**2,
           ["converge", "--h-list", "0.5,0.08", "--R", "3", "--M", "8"]),
    Capped("converge-M", "harness.FOURIER_BYTES_PER_NODE", 4 * 4000,
           ["converge", "--h-list", "0.5", "--R", "2", "--M", "4000"]),
    Capped("figure", "harness.FIGURE_BYTES_PER_POINT", 101**2 - 1,
           ["figure", "--min", "0", "--max", "100", "--threshold", "4"]),
    Capped("collision_invariants-frame", "collision.RELAX_BYTES_PER_FRAME_POINT",
           101**2,  # the widened bound is 30, and R/h = 20
           lambda: co.collision_invariants(STATE_B20, MAXWELL, 5.0)),
    Capped("simulate-frame", "collision.RELAX_BYTES_PER_FRAME_POINT", 101**2,
           ["simulate", "--f", "maxwellian", "--h", "0.25", "--support", "5", "--R", "5",
            "--dt", "1e-3", "--steps", "1"]),
    Capped("simulate-lattice-file-frame", "collision.RELAX_BYTES_PER_FRAME_POINT", 101**2,
           ["simulate", "--f", "file", "--file", "FILE", "--R", "5", "--dt", "1e-3",
            "--steps", "1"],
           '{"h": 0.25, "R_support": 5.0}'),
]


def run(entry, tmp_path):
    """(refused, message, traced peak) of one call of the entry."""
    call = entry.call
    if entry.lattice_file:
        path = tmp_path / "f.csv"
        path.write_text(f"# {entry.lattice_file}\nzeta_x,zeta_y,value\n0,0,1.0\n")
        call = [str(path) if a == "FILE" else a for a in call]
    tracemalloc.start()
    try:
        if callable(call):
            try:
                call()
                refused, message = False, ""
            except PreconditionError as exc:
                refused, message = True, str(exc)
        else:
            result = CliRunner().invoke(main, call)
            assert result.exit_code in (0, 2), result.output
            refused, message = result.exit_code == 2, result.output
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return refused, message, peak


@pytest.mark.parametrize("entry", REGISTRY, ids=[e.id for e in REGISTRY])
def test_capped_entry_point_refuses_past_the_budget(monkeypatch, tmp_path, entry):
    """One byte short of the entry's need refuses before allocating, and
    names the count, the bytes per unit and the budget; the need itself runs."""
    bytes_each = entry.need // entry.count
    monkeypatch.setattr(errors, "MEMORY_BUDGET", entry.need - 1)
    refused, message, peak = run(entry, tmp_path)
    assert refused, message
    assert f": {entry.count} x {bytes_each} bytes = {entry.need} bytes" in message
    assert f"MEMORY_BUDGET = {entry.need - 1} bytes" in message
    assert peak < 1 << 20
    monkeypatch.setattr(errors, "MEMORY_BUDGET", entry.need)
    refused, message, _ = run(entry, tmp_path)
    assert not refused, message


class Accepted(Exception):
    """Raised by a stub where an accepted call would start allocating."""


def stop(*args, **kwargs):
    raise Accepted


# Each cap at the full budget: (refused call, accepted call).  A cap whose
# input is a count is checked with check_memory; circle_table, r2_range and
# converge_study take a limit, an n_hi and an M, and run until the stubbed
# first allocation.
FULL_BUDGET = {
    "circle_table-limit-5592405": (lambda: circles.circle_table(5592406),
                                   lambda: circles.circle_table(5592405)),
    "r2_range-n_hi-222399955086400": (
        lambda: next(circles.r2_range(222399955086401, 222399955086401)),
        lambda: next(circles.r2_range(222399955086400, 222399955086400))),
    "state-16777216-points": (
        lambda: check_memory("state", 16777217, co.CONVERGE_BYTES_PER_POINT),
        lambda: check_memory("state", 16777216, co.CONVERGE_BYTES_PER_POINT)),
    "converge-M-2033601": tuple(
        lambda M=M: harness.converge_study(
            co.bimaxwellian(), MAXWELL, np.zeros(2), [0.5], R=2.0, M_diag=M)
        for M in (2033602, 2033601)),
    "figure-16777216-points": (
        lambda: check_memory("figure", 16777217, harness.FIGURE_BYTES_PER_POINT),
        lambda: check_memory("figure", 16777216, harness.FIGURE_BYTES_PER_POINT)),
    "relax-frame-1864135-points": (
        lambda: check_memory("frame", 1864136, co.RELAX_BYTES_PER_FRAME_POINT),
        lambda: check_memory("frame", 1864135, co.RELAX_BYTES_PER_FRAME_POINT)),
    # Closed-form collide --grid at h = 1, R = K reads a state of bound
    # 2K + 2: its frame, 6K + 5 on a side, is first refused at K = 227.
    "collide-grid-frame-K-227": (lambda: co.check_frame(1.0, 227.0, 456),
                                 lambda: co.check_frame(1.0, 226.0, 454)),
    # simulate at R = support = B h: the frame of the widened state, first
    # refused at B = 283 (1371^2 points; B = 282 has 1365^2).
    "simulate-frame-B-283": (lambda: harness.check_relax_size(1.0, 283.0, 283.0),
                             lambda: harness.check_relax_size(1.0, 282.0, 282.0)),
    # collision_invariants sums over the same widened state, and checks the
    # frame about it before it widens the state (5.1 MB at B = 283).
    "collision_invariants-B-283": (
        lambda: co.collision_invariants(STATE_B283, MAXWELL, 283.0),
        lambda: co.collision_invariants(STATE_B282, MAXWELL, 282.0)),
}


@pytest.mark.parametrize("refused, accepted", FULL_BUDGET.values(), ids=FULL_BUDGET.keys())
def test_every_cap_refuses_past_its_threshold_at_the_full_budget(monkeypatch, refused, accepted):
    assert errors.MEMORY_BUDGET == 1 << 30
    monkeypatch.setattr(circles, "_circle_cache", {})
    for name in ("_build_circle_table", "annulus_points"):
        monkeypatch.setattr(circles, name, stop)
    monkeypatch.setattr(harness, "q_reference", stop)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="MEMORY_BUDGET = 1073741824 bytes"):
            refused()
        try:
            accepted()
        except Accepted:
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_every_bytes_per_unit_constant_has_a_registry_entry():
    constants = {
        f"{path.stem}.{name}"
        for path in SRC.glob("*.py")
        for name in re.findall(r"^(\w+_BYTES_PER_\w+) = ", path.read_text(), flags=re.M)
    }
    assert len(constants) == 6 and "collision.RELAX_BYTES_PER_FRAME_POINT" in constants
    assert constants - {entry.unit for entry in REGISTRY} == set()
    assert sum(path.read_text().count("1 << 30") for path in SRC.glob("*.py")) == 1
