"""The four benchmark workloads: inputs, the timed operations and their checks.

A workload's ``setup`` returns a list of ``Op``.  Building that list is
the set-up (imports, seeded states, lattice sampling); calling each
op's ``run`` in order is the timed job; ``check`` runs after timing on
the results of all ops and returns ``None`` or a failure message.
CLI ops go through ``dvm2d.cli.main`` in-process and write their CSV
with ``--out`` into the worker's scratch directory.

Sizes: ``full`` is what the benchmark measures; ``tiny`` is the smoke
size that exercises the same code paths in a few seconds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[dict], str | None]
    cli: bool = False


def _cli(args: list[str]) -> Callable[[], object]:
    from dvm2d import cli

    def run():
        return cli.main.main(args=args, prog_name="dvm2d", standalone_mode=False)

    return run


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fp:
        return list(csv.DictReader(fp))


def _r2_brute(n_max: int) -> np.ndarray:
    """r2(n) for 0 <= n <= n_max by counting every (x, y) in the disk."""
    s = math.isqrt(n_max)
    xs = np.arange(-s, s + 1)
    norms = (xs[:, None] ** 2 + xs[None, :] ** 2).ravel()
    return np.bincount(norms[norms <= n_max], minlength=n_max + 1)


# ---------------------------------------------------------------------------
# census: r2 range sieve, box filtering, max-r search, one rich circle
# ---------------------------------------------------------------------------

CENSUS = {
    "full": {"max": 1999, "threshold": 72, "bound": 20000, "circle": 243061325,
             "count": 36163, "best": (243061325, 384)},
    # Expected values at the tiny size come from a brute-force r2 table.
    "tiny": {"max": 99, "threshold": 16, "bound": 150, "circle": 5525,
             "count": None, "best": None},
}


def census(size: str, seed: int, work: Path) -> list[Op]:
    p = CENSUS[size]
    fig_csv, maxr_csv, circ_csv = work / "figure.csv", work / "max_r.csv", work / "circle.csv"
    count, best, r_circle = p["count"], p["best"], 384 if size == "full" else None
    if size == "tiny":
        r2 = _r2_brute(max(2 * p["max"] ** 2, p["bound"] ** 2, p["circle"]))
        box = np.arange(p["max"] + 1)
        count = int((r2[(box[:, None] ** 2 + box[None, :] ** 2)] > p["threshold"]).sum())
        n_best = int(np.argmax(r2[: p["bound"] ** 2 + 1]))
        best, r_circle = (n_best, int(r2[n_best])), int(r2[p["circle"]])

    def check_figure(_):
        rows = _rows(fig_csv)
        if len(rows) != count:
            return f"figure count {len(rows)} != {count}"
        if any(int(r["r2"]) <= p["threshold"] for r in rows):
            return "figure row below threshold"
        return None

    def check_max_r(_):
        got = [(int(r["n_best"]), int(r["r_best"])) for r in _rows(maxr_csv)]
        return None if got == [best] else f"max-r {got} != {best}"

    def check_circle(_):
        rows = _rows(circ_csv)
        pts = {(int(r["x"]), int(r["y"])) for r in rows}
        if len(rows) != r_circle or len(pts) != r_circle:
            return f"circle has {len(rows)} rows, {len(pts)} distinct, expected {r_circle}"
        if any(x * x + y * y != p["circle"] for x, y in pts):
            return "circle point off the circle"
        return None

    return [
        Op("figure", _cli(["figure", "--min", "0", "--max", str(p["max"]),
                           "--threshold", str(p["threshold"]), "--cmp", "gt",
                           "--out", str(fig_csv)]), check_figure, cli=True),
        Op("max-r", _cli(["max-r", "--bound", str(p["bound"]), "--out", str(maxr_csv)]),
           check_max_r, cli=True),
        Op("circle", _cli(["circle", str(p["circle"]), "--out", str(circ_csv)]),
           check_circle, cli=True),
    ]


# ---------------------------------------------------------------------------
# spectra: decade means of |S(m, 4)| from a cold process
# ---------------------------------------------------------------------------

# Decade means of |S(m, 4)|; they do not depend on X, so both sizes use them.
DECADE_MEANS = {
    10**3: 1.3965713549757153,
    10**4: 1.2483876561070852,
    10**5: 1.1466466548715688,
    10**6: 1.0690771560640455,
}
SPECTRA = {"full": 4_000_000, "tiny": 10_000}


def spectra(size: str, seed: int, work: Path) -> list[Op]:
    x = SPECTRA[size]
    out = work / "avg_s.csv"

    def check(_):
        means = {int(r["X"]): float(r["mean_abs_S"]) for r in _rows(out)}
        if x not in means or not 0 < means[x] < 2:
            return f"no sane mean for X = {x}"
        for d, want in DECADE_MEANS.items():
            if d > x:
                continue
            got = means.get(d)
            if got is None or abs(got - want) > 1e-12 * want:
                return f"decade mean at {d}: {got!r} != {want!r}"
        return None

    return [Op("avg-s", _cli(["avg-s", str(x), "4", "--out", str(out)]), check, cli=True)]


# ---------------------------------------------------------------------------
# ladder: pointwise Q^h ladder, quadrature reference, converge, conservation
# ---------------------------------------------------------------------------

LADDER = {
    "full": {"hs": (0.5, 0.25, 0.125, 0.0625), "R": 6.6, "n_quad": 96,
             "converge": ["--h-list", "0.5,0.25,0.125", "--R", "3", "--M", "16"],
             "h_inv": 0.25, "b_inv": 20},
    "tiny": {"hs": (0.5, 0.25), "R": 3.0, "n_quad": 64,
             "converge": ["--h-list", "0.5,0.25", "--R", "2", "--M", "8"],
             "h_inv": 0.25, "b_inv": 5},
}


def _ladder_ok(values: list[float], inversion_tol: float) -> bool:
    """Non-increasing within at most one adjacent inversion <= tol."""
    inversions = [
        (b - a) / a for a, b in zip(values, values[1:]) if b > a
    ]
    return len(inversions) <= 1 and all(d <= inversion_tol for d in inversions)


def ladder(size: str, seed: int, work: Path) -> list[Op]:
    from dvm2d import collision as co

    p = LADDER[size]
    R, v0 = p["R"], np.zeros(2)
    maxwell = co.KernelSpec.maxwell()
    states = {
        "maxwellian": co.Maxwellian(1.0, 0.0, 0.0, 1.0),
        "bimaxwellian": co.bimaxwellian(),
    }
    rng = np.random.default_rng(seed)
    b, h = p["b_inv"], p["h_inv"]
    kernels = {"maxwell": maxwell,
               "product_power": co.KernelSpec.product_power(0.5, (1, 0, 0.5))}
    randoms = {k: co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
               for k in kernels}
    conv_csv = work / "converge.csv"
    ops: list[Op] = []

    def check_annihilation(name):
        def check(results):
            val, gross = results[name]
            return None if abs(val) <= 1e-12 * gross else f"|Q^h| {abs(val):.3e} > 1e-12 x {gross:.3e}"
        return check

    def check_bimax_ladder(results):
        ref = results["q_reference"].value
        errs = [abs(results[f"q_discrete/bimaxwellian/h={h_}"][0] - ref) for h_ in p["hs"]]
        return None if _ladder_ok(errs, 0.10) else f"bimaxwellian errors not a ladder: {errs}"

    for state, spec in states.items():
        for h_ in p["hs"]:
            f = co.sample_on_lattice(spec, h_, 2 * R + 2 * h_)
            name = f"q_discrete/{state}/h={h_}"
            fn = (lambda f=f: co.q_discrete_detailed(f, v0, maxwell, R))
            if state == "maxwellian":
                ops.append(Op(name, fn, check_annihilation(name)))
            elif h_ == p["hs"][-1]:
                ops.append(Op(name, fn, check_bimax_ladder))
            else:
                ops.append(Op(name, fn, lambda _: None))

    quad = co.QuadratureConfig(r_quad=R, n_w=p["n_quad"], n_theta=p["n_quad"])
    ops.insert(len(p["hs"]), Op(
        "q_reference",
        lambda: co.q_reference(states["bimaxwellian"], v0, maxwell, quad),
        lambda r: None if math.isfinite(r["q_reference"].value) else "non-finite Qref",
    ))

    hs_conv = [float(t) for t in p["converge"][1].split(",")]

    def check_converge(_):
        rows = _rows(conv_csv)
        got = [float(r["h"]) for r in rows]
        if got != hs_conv:
            return f"converge rows for h = {got}, expected {hs_conv}"
        for r in rows:
            if abs(abs(float(r["Qh"]) - float(r["Qref"])) - float(r["abs_err"])) > 1e-15:
                return "converge abs_err does not match |Qh - Qref|"
        return None

    ops.append(Op("converge", _cli(["converge", *p["converge"], "--out", str(conv_csv)]),
                  check_converge, cli=True))

    def check_conservation(name):
        def check(results):
            inv = results[name]
            worst = max(abs(inv.mass_rate), abs(inv.momentum_rate[0]),
                        abs(inv.momentum_rate[1]), abs(inv.energy_rate))
            return None if worst <= 1e-10 * inv.normalization else (
                f"rate {worst:.3e} > 1e-10 x {inv.normalization:.3e}")
        return check

    for kname, kernel in kernels.items():
        name = f"collision_invariants/{kname}"
        ops.append(Op(name,
                      lambda f=randoms[kname], k=kernel: co.collision_invariants(f, k, R=b * h),
                      check_conservation(name)))
    return ops


# ---------------------------------------------------------------------------
# relax: RK4 relaxation, Maxwell through the CLI, product-power through the API
# ---------------------------------------------------------------------------

RELAX = {
    "full": {"h": 0.25, "support": 5.0, "R": 5.0, "steps_cli": 40, "steps_lib": 10},
    "tiny": {"h": 0.5, "support": 3.0, "R": 3.0, "steps_cli": 5, "steps_lib": 3},
}
DT = 1e-3


def _relax_defect(rows: list[tuple[float, float, float, float, float]]) -> str | None:
    """Moment drift <= 1e-8 and per-step dH <= 1e-10 over (mass, mx, my, E, H) rows."""
    mass0, mx0, my0, e0, _ = rows[0]
    mom_scale = mass0 * math.sqrt(2 * e0 / mass0)
    drift = max(
        max(abs(m - mass0) / mass0, abs(x - mx0) / mom_scale,
            abs(y - my0) / mom_scale, abs(e - e0) / e0)
        for m, x, y, e, _ in rows[1:]
    )
    dh = max(b[4] - a[4] for a, b in zip(rows, rows[1:]))
    if drift > 1e-8:
        return f"moment drift {drift:.3e} > 1e-8"
    if dh > 1e-10:
        return f"per-step dH {dh:.3e} > 1e-10"
    return None


def relax(size: str, seed: int, work: Path) -> list[Op]:
    from dvm2d import collision as co
    from dvm2d import harness

    p = RELAX[size]
    out = work / "simulate.csv"
    f0 = co.sample_on_lattice(co.bimaxwellian(), p["h"], p["support"])
    kernel = co.KernelSpec.product_power(0.5, (1, 0, 0.5))

    def check_cli(_):
        rows = _rows(out)
        if len(rows) != p["steps_cli"] + 1:
            return f"{len(rows)} trajectory rows, expected {p['steps_cli'] + 1}"
        cols = ("mass", "momentum_x", "momentum_y", "energy", "H")
        return _relax_defect([tuple(float(r[c]) for c in cols) for r in rows])

    def check_lib(results):
        traj = results["relax_simulate/product_power"]
        if len(traj) != p["steps_lib"] + 1:
            return f"{len(traj)} snapshots, expected {p['steps_lib'] + 1}"
        return _relax_defect([(s.mass, *s.momentum, s.energy, s.H) for s in traj])

    cli_args = ["simulate", "--f", "bimaxwellian", "--h", str(p["h"]),
                "--support", str(p["support"]), "--R", str(p["R"]), "--dt", str(DT),
                "--steps", str(p["steps_cli"]), "--out", str(out)]
    return [
        Op("simulate/maxwell", _cli(cli_args), check_cli, cli=True),
        Op("relax_simulate/product_power",
           lambda: harness.relax_simulate(f0, kernel, R=p["R"], dt=DT, steps=p["steps_lib"]),
           check_lib),
    ]


WORKLOADS = {"census": census, "spectra": spectra, "ladder": ladder, "relax": relax}
