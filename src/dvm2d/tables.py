"""Every on-disk format: the CSV tables the CLI writes and the lattice file.

Each table writer names a header and its columns; write_csv formats them
with one %-format per chunk of rows, into the bytes csv.writer writes.
"""

from __future__ import annotations

import csv
import json
from typing import IO, TYPE_CHECKING, Sequence

import numpy as np

from .collision import LatticeDistribution
from .errors import PreconditionError

if TYPE_CHECKING:
    from .circles import AngleStatistics, CirclePointSet
    from .harness import ConvergenceStudy, FigureData, RelaxState

# write_csv formats this many rows per write, so the format string and the
# tuple of row values stay about 10 MB whatever the row count.
CSV_CHUNK_ROWS = 1 << 16


def write_csv(fp: IO[str], header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The header, then row i of the equal-length columns for each i; float
    columns in %.17g, the rest (int64, or object arrays of Python ints) in %d."""
    fp.write(",".join(header) + "\r\n")
    width = len(columns)
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%d" for c in columns) + "\r\n"
    count = len(columns[0])
    for i in range(0, count, CSV_CHUNK_ROWS):
        j = min(i + CSV_CHUNK_ROWS, count)
        values = [None] * (width * (j - i))
        for k, c in enumerate(columns):
            values[k::width] = c[i:j].tolist()
        fp.write((row * (j - i)) % tuple(values))


def write_circle_csv(pts: CirclePointSet, fp: IO[str]) -> None:
    """Rows (n, x, y, theta) in angle order."""
    ns = np.full(pts.count, pts.n, dtype=object)  # n may exceed int64
    write_csv(fp, ["n", "x", "y", "theta"], [ns, pts.xs, pts.ys, pts.angles])


def write_angle_stats_csv(stats: AngleStatistics, fp: IO[str]) -> None:
    """Rows (X, k, mean_abs_S), one per decade."""
    xs, means = zip(*stats.decades)
    ks = np.full(len(xs), stats.k, dtype=object)
    write_csv(fp, ["X", "k", "mean_abs_S"], [np.array(xs), ks, np.array(means)])


def write_figure_csv(data: FigureData, fp: IO[str]) -> None:
    """Rows (zeta1, zeta2, n, r2) in the figure's point order."""
    columns = [data.points[:, 0], data.points[:, 1], data.n_values, data.r_values]
    write_csv(fp, ["zeta1", "zeta2", "n", "r2"], columns)


def write_convergence_csv(study: ConvergenceStudy, fp: IO[str]) -> None:
    """One row per h: Q^h, the reference, their gap and the error budget."""
    rows = [(r.h, r.qh, r.qref, r.abs_err, r.budget.tail_R, r.budget.riemann_h,
             r.budget.fourier_tail_M, r.budget.equid) for r in study.rows]
    header = ["h", "Qh", "Qref", "abs_err", "tail_R", "riemann_h", "fourier_tail_M", "equid"]
    write_csv(fp, header, np.array(rows, dtype=np.float64).reshape(-1, 8).T)


def write_relax_csv(trajectory: list[RelaxState], fp: IO[str]) -> None:
    """One row per snapshot: t, the moments and H."""
    rows = [(s.t, s.mass, *s.momentum, s.energy, s.H) for s in trajectory]
    header = ["t", "mass", "momentum_x", "momentum_y", "energy", "H"]
    write_csv(fp, header, np.array(rows, dtype=np.float64).reshape(-1, 6).T)


def write_qh_csv(q: np.ndarray, h: float, fp: IO[str]) -> None:
    """JSON header line, then rows (zeta_x, zeta_y, Qh_value) for Q^h on
    the square [-B, B]^2 of q."""
    b = len(q) // 2
    if q.shape != (2 * b + 1, 2 * b + 1):
        raise PreconditionError(f"Q^h grid shape {q.shape} is not an odd square")
    fp.write("# " + json.dumps({"h": h}) + "\n")
    z = np.arange(-b, b + 1)
    columns = [np.repeat(z, len(z)), np.tile(z, len(z)), q.ravel()]
    write_csv(fp, ["zeta_x", "zeta_y", "Qh_value"], columns)


def write_lattice_csv(f: LatticeDistribution, fp: IO[str]) -> None:
    """JSON header line, then rows (zeta_x, zeta_y, value) inside the disk."""
    fp.write("# " + json.dumps({"h": f.h, "R_support": f.support_radius}) + "\n")
    ix, iy = np.nonzero(f.disk)
    write_csv(fp, ["zeta_x", "zeta_y", "value"], [ix - f.bound, iy - f.bound, f.grid[ix, iy]])


def read_lattice_csv(fp: IO[str]) -> LatticeDistribution:
    """Inverse of write_lattice_csv; malformed input, a repeated point
    included, raises PreconditionError."""
    header = fp.readline()
    if not header.startswith("#"):
        raise PreconditionError("missing JSON header line")
    try:
        meta = json.loads(header[1:].strip())
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"header is not JSON: {exc}") from None
    if not isinstance(meta, dict) or not {"h", "R_support"} <= meta.keys():
        raise PreconditionError("header must give h and R_support")
    rows = [r for r in csv.reader(fp) if r]
    if rows and rows[0] == ["zeta_x", "zeta_y", "value"]:
        rows = rows[1:]
    try:
        h, support = float(meta["h"]), float(meta["R_support"])
        values = {}
        for r in rows:
            zx, zy, val = r  # ValueError unless exactly three fields
            point = int(zx), int(zy)
            if point in values:
                raise PreconditionError(f"lattice CSV repeats the row of point {point}")
            values[point] = float(val)
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"malformed lattice CSV: {exc}") from None
    return LatticeDistribution.from_values(h, support, values)
