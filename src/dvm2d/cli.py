"""Command line interface.

Every subcommand computes its result first, then streams it as CSV to
stdout or, with --out, to a file; a file is followed, once it is
written, by <out>.manifest.json recording the full configuration and
library versions.  Exit codes: 0 on
success, 2 on precondition violations, 3 on numerical failures
(positivity loss, quadrature non-convergence).
"""

from __future__ import annotations

import contextlib
import functools
import json
import platform
import sys
from pathlib import Path
from typing import IO, Iterator

import click
import numpy as np

from . import __version__, circles, harness, tables
from . import collision as co
from .errors import NumericalError, PreconditionError

EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


@contextlib.contextmanager
def _sink(out: Path | None, command: str, config: dict) -> Iterator[IO[str]]:
    """The stream a command writes its result into, opened only once that
    result is computed: stdout, or the --out file, which is followed by its
    manifest only when the body has written it without error."""
    if out is None:
        stdout = click.get_text_stream("stdout")
        yield stdout
        stdout.flush()
        return
    with out.open("w") as fp:
        yield fp
    versions = {"dvm2d": __version__, "numpy": np.__version__, "python": platform.python_version()}
    manifest = {"command": command, "config": config, "versions": versions}
    Path(f"{out}.manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    click.echo(f"wrote {out}", err=True)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PreconditionError as exc:
            click.echo(f"precondition violation: {exc}", err=True)
            sys.exit(EXIT_PRECONDITION)
        except NumericalError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)

    return wrapper


def _parse_floats(text: str) -> list[float]:
    """Comma-separated finite floats; empty fields are skipped."""
    try:
        values = [float(t) for t in text.split(",") if t]
    except ValueError:
        raise PreconditionError(f"expected comma-separated numbers, got {text!r}") from None
    if not all(np.isfinite(values)):
        raise PreconditionError(f"values must be finite, got {text!r}")
    return values


def _parse_v(text: str) -> np.ndarray:
    values = _parse_floats(text)
    if len(values) != 2 or text.count(",") != 1:
        raise PreconditionError(f"expected 'vx,vy', got {text!r}")
    return np.array(values)


def _make_f(name: str, file: Path | None):
    if name == "maxwellian":
        return co.Maxwellian()
    if name == "bimaxwellian":
        return co.bimaxwellian()
    if name == "file":
        if file is None:
            raise PreconditionError("--file is required with --f file")
        with open(file) as fp:
            return tables.read_lattice_csv(fp)
    raise PreconditionError(f"unknown distribution {name!r}")


out_option = click.option(
    "--out", type=click.Path(path_type=Path), default=None, help="Write CSV here."
)


@click.group()
@click.version_option(__version__)
def main():
    """Lattice discrete-velocity collision operator experiments."""


@main.command()
@click.argument("n", type=int)
@out_option
@_guarded
def circle(n: int, out: Path | None):
    """All integer points on the circle of squared radius N."""
    pts = circles.circle_points(n)
    with _sink(out, "circle", {"n": n, "count": pts.count}) as fp:
        tables.write_circle_csv(pts, fp)


# K may be negative: "-8" is a value, not an unknown option.
NEGATIVE_K = {"ignore_unknown_options": True}


@main.command(context_settings=NEGATIVE_K)
@click.argument("n", type=int)
@click.argument("k", type=int)
@out_option
@_guarded
def expsum(n: int, k: int, out: Path | None):
    """Exponential sum S(N, K), direct and closed form."""
    direct = circles.exp_sum_direct(n, k)
    closed = circles.exp_sum_closed(n, k)
    z = direct.value
    with _sink(out, "expsum", {"n": n, "k": k}) as fp:
        fp.write(f"n,k,re,im,abs,closed_abs\n{n},{k},{z.real:.17g},{z.imag:.17g},"
                 f"{abs(z):.17g},{closed:.17g}\n")


@main.command(name="avg-s", context_settings=NEGATIVE_K)
@click.argument("x", type=int)
@click.argument("k", type=int)
@out_option
@_guarded
def avg_s(x: int, k: int, out: Path | None):
    """Mean of |S(m, K)| over m <= X, with per-decade sub-means."""
    stats = circles.avg_abs_S(x, k)
    config = {"X": x, "k": k, "vanishing_k": stats.vanishing_k}
    with _sink(out, "avg-s", config) as fp:
        tables.write_angle_stats_csv(stats, fp)
    if stats.vanishing_k:
        click.echo("note: 4 does not divide k, mean is identically 0", err=True)


@main.command()
@click.option("--f", "f_name", type=click.Choice(["maxwellian", "bimaxwellian", "file"]),
              default="maxwellian", show_default=True)
@click.option("--file", type=click.Path(path_type=Path, exists=True), default=None,
              help="Lattice CSV when --f file.")
@click.option("--h", "h", type=float, default=0.25, show_default=True)
@click.option("--R", "R", type=float, required=True, help="Truncation radius.")
@click.option("--v", "v_text", default="0,0", show_default=True, help="Velocity vx,vy.")
@click.option("--grid", is_flag=True, help="Emit Q^h on the whole support grid.")
@out_option
@_guarded
def collide(f_name, file, h, R, v_text, grid, out):
    """Evaluate the lattice collision operator Q^h."""
    v = _parse_v(v_text)
    f = _make_f(f_name, file)
    kernel = co.KernelSpec.maxwell()
    lattice = isinstance(f, co.LatticeDistribution)
    if lattice:
        h = f.h
    if grid:
        support = f.support_radius if lattice else float(np.hypot(v[0], v[1])) + 2 * R + 2 * h
        if not lattice:
            harness.check_state_points(h, support)
        # Built first, so that its checks refuse before anything is sampled.
        op = co.FastCollisionOperator(h, R, kernel, co.lattice_bound(h, support))
        f_h = f if lattice else co.sample_on_lattice(f, h, support)
        q = op.apply(f_h)
    else:
        f_h, at = (f, v) if lattice else (harness.sample_about(f, v, h, R), np.zeros(2))
        zx, zy = f_h.lattice_coords(v)
        qh = co.q_discrete(f_h, at, kernel, R)
    config = {"f": f_name, "h": h, "R": R, "v": v.tolist(), "grid": grid}
    with _sink(out, "collide", config) as fp:
        if grid:
            tables.write_qh_csv(q, h, fp)
        else:
            fp.write(f"zeta_x,zeta_y,Qh_value\n{zx},{zy},{qh:.17g}\n")


@main.command()
@click.option("--f", "f_name", type=click.Choice(["maxwellian", "bimaxwellian"]),
              default="bimaxwellian", show_default=True)
@click.option("--h-list", default="0.5,0.25,0.125", show_default=True)
@click.option("--R", "R", type=float, required=True)
@click.option("--M", "M", type=int, default=64, show_default=True)
@click.option("--v", "v_text", default="0,0", show_default=True)
@out_option
@_guarded
def converge(f_name, h_list, R, M, v_text, out):
    """Consistency study: Q^h vs the quadrature reference, with budgets."""
    hs = _parse_floats(h_list)
    f = _make_f(f_name, None)
    study = harness.converge_study(f, co.KernelSpec.maxwell(), _parse_v(v_text), hs, R, M)
    config = {"f": f_name, "h_list": hs, "R": R, "M": M, "v": v_text,
              "qref_self_convergence": study.qref_self_convergence}
    with _sink(out, "converge", config) as fp:
        tables.write_convergence_csv(study, fp)


@main.command()
@click.option("--min", "coord_min", type=int, required=True)
@click.option("--max", "coord_max", type=int, required=True)
@click.option("--threshold", type=int, required=True)
@click.option("--cmp", "comparison", type=click.Choice(["ge", "gt"]), default="ge",
              show_default=True)
@out_option
@_guarded
def figure(coord_min, coord_max, threshold, comparison, out):
    """Box points on circles meeting a point-count threshold."""
    data = harness.figure_data(
        harness.FigureQuery(coord_min, coord_max, threshold, comparison)
    )
    config = {"min": coord_min, "max": coord_max, "threshold": threshold,
              "cmp": comparison, "count": data.count}
    with _sink(out, "figure", config) as fp:
        tables.write_figure_csv(data, fp)
    click.echo(f"count: {data.count}", err=True)


@main.command(name="max-r")
@click.option("--bound", type=float, required=True)
@out_option
@_guarded
def max_r(bound, out):
    """Largest point count on circles with radius up to BOUND."""
    n_best, r_best = harness.max_r_search(bound)
    with _sink(out, "max-r", {"bound": bound}) as fp:
        fp.write(f"n_best,r_best\n{n_best},{r_best}\n")


@main.command()
@click.option("--f", "f_name", type=click.Choice(["maxwellian", "bimaxwellian", "file"]),
              default="bimaxwellian", show_default=True)
@click.option("--file", type=click.Path(path_type=Path, exists=True), default=None)
@click.option("--h", "h", type=float, default=0.25, show_default=True)
@click.option("--support", type=float, default=5.0, show_default=True,
              help="Support radius of the sampled initial state.")
@click.option("--R", "R", type=float, required=True)
@click.option("--dt", type=float, required=True)
@click.option("--steps", type=int, required=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@out_option
@_guarded
def simulate(f_name, file, h, support, R, dt, steps, record_every, out):
    """Space-homogeneous relaxation df/dt = Q^h(f, f) by RK4."""
    f = _make_f(f_name, file)
    if not isinstance(f, co.LatticeDistribution):
        harness.check_relax_size(h, support, R)  # before anything is sampled
        f = co.sample_on_lattice(f, h, support)
    traj = harness.relax_simulate(
        f, co.KernelSpec.maxwell(), R=R, dt=dt, steps=steps, record_every=record_every
    )
    config = {"f": f_name, "h": f.h, "support": f.support_radius, "R": R,
              "dt": dt, "steps": steps, "record_every": record_every}
    with _sink(out, "simulate", config) as fp:
        tables.write_relax_csv(traj, fp)


if __name__ == "__main__":
    main()
