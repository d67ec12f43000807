"""Command line interface.

Every subcommand writes CSV to stdout or, with --out, to a file; file
output is accompanied by <out>.manifest.json recording the full
configuration and library versions.  Exit codes: 0 on
success, 2 on precondition violations, 3 on numerical failures
(positivity loss, quadrature non-convergence).
"""

from __future__ import annotations

import functools
import io
import json
import platform
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__, circles, harness
from . import collision as co
from .errors import NumericalError, PreconditionError

EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3


def _manifest(command: str, config: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "versions": {
            "dvm2d": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }


def _emit(text: str, out: Path | None, manifest: dict) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    out.write_text(text)
    Path(str(out) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
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
            return co.read_lattice_csv(fp)
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
    buf = io.StringIO()
    circles.write_circle_csv(pts, buf)
    _emit(buf.getvalue(), out, _manifest("circle", {"n": n, "count": pts.count}))


@main.command()
@click.argument("n", type=int)
@click.argument("k", type=int)
@out_option
@_guarded
def expsum(n: int, k: int, out: Path | None):
    """Exponential sum S(N, K), direct and closed form."""
    direct = circles.exp_sum_direct(n, k)
    closed = circles.exp_sum_closed(n, k)
    buf = io.StringIO()
    buf.write("n,k,re,im,abs,closed_abs\n")
    buf.write(
        f"{n},{k},{direct.value.real:.17g},{direct.value.imag:.17g},"
        f"{abs(direct.value):.17g},{closed:.17g}\n"
    )
    _emit(buf.getvalue(), out, _manifest("expsum", {"n": n, "k": k}))


@main.command(name="avg-s")
@click.argument("x", type=int)
@click.argument("k", type=int)
@out_option
@_guarded
def avg_s(x: int, k: int, out: Path | None):
    """Mean of |S(m, K)| over m <= X, with per-decade sub-means."""
    stats = circles.avg_abs_S(x, k)
    buf = io.StringIO()
    circles.write_angle_stats_csv(stats, buf)
    config = {"X": x, "k": k, "vanishing_k": stats.vanishing_k}
    _emit(buf.getvalue(), out, _manifest("avg-s", config))
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
    buf = io.StringIO()
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
        co.write_qh_csv(op.apply(f_h), h, buf)
    else:
        f_h, at = (f, v) if lattice else (harness.sample_about(f, v, h, R), np.zeros(2))
        zx, zy = f_h.lattice_coords(v)
        qh = co.q_discrete(f_h, at, kernel, R)
        buf.write("zeta_x,zeta_y,Qh_value\n")
        buf.write(f"{zx},{zy},{qh:.17g}\n")
    config = {"f": f_name, "h": h, "R": R, "v": v.tolist(), "grid": grid}
    _emit(buf.getvalue(), out, _manifest("collide", config))


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
    buf = io.StringIO()
    harness.write_convergence_csv(study, buf)
    config = {"f": f_name, "h_list": hs, "R": R, "M": M, "v": v_text,
              "qref_self_convergence": study.qref_self_convergence}
    _emit(buf.getvalue(), out, _manifest("converge", config))


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
    buf = io.StringIO()
    harness.write_figure_csv(data, buf)
    config = {"min": coord_min, "max": coord_max, "threshold": threshold,
              "cmp": comparison, "count": data.count}
    _emit(buf.getvalue(), out, _manifest("figure", config))
    click.echo(f"count: {data.count}", err=True)


@main.command(name="max-r")
@click.option("--bound", type=float, required=True)
@out_option
@_guarded
def max_r(bound, out):
    """Largest point count on circles with radius up to BOUND."""
    n_best, r_best = harness.max_r_search(bound)
    text = f"n_best,r_best\n{n_best},{r_best}\n"
    _emit(text, out, _manifest("max-r", {"bound": bound}))


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
        f = co.sample_on_lattice(f, h, support)
    traj = harness.relax_simulate(
        f, co.KernelSpec.maxwell(), R=R, dt=dt, steps=steps, record_every=record_every
    )
    buf = io.StringIO()
    harness.write_relax_csv(traj, buf)
    config = {"f": f_name, "h": f.h, "support": f.support_radius, "R": R,
              "dt": dt, "steps": steps, "record_every": record_every}
    _emit(buf.getvalue(), out, _manifest("simulate", config))


if __name__ == "__main__":
    main()
