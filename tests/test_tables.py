"""dvm2d.tables writes every table byte for byte as the csv.writer code it
replaced (tests/oracles.py), whatever the rows per chunk."""

import csv
import dataclasses
import io
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dvm2d import circles, harness, tables
from dvm2d import collision as co

MAXWELL = co.KernelSpec.maxwell()


def text(write, *args):
    buf = io.StringIO()
    write(*args, buf)
    return buf.getvalue()


@lru_cache(maxsize=None)
def study():
    return harness.converge_study(co.bimaxwellian(), MAXWELL, np.zeros(2), [0.5, 0.25], R=2.0,
                                  M_diag=8)


def signed_zero_study():
    row = study().rows[0]
    budget = dataclasses.replace(row.budget, riemann_h=-0.0, equid=5e-324)
    return dataclasses.replace(
        study(), rows=(dataclasses.replace(row, qh=-0.0, abs_err=0.0, budget=budget),)
    )


def trajectory():
    f0 = co.sample_on_lattice(co.Maxwellian(1.0, 0.0, 0.0, 0.4), 0.25, 2.0)
    return harness.relax_simulate(f0, MAXWELL, R=1.0, dt=0.01, steps=3)


def qh_grid(b, signed_zero=False):
    h = 0.5
    f = co.LatticeDistribution(h, b * h, np.random.default_rng(3).random((2 * b + 1,) * 2))
    q = co.FastCollisionOperator(h, 1.5, MAXWELL, b).apply_grid(f.grid)
    if signed_zero:
        q[0, 0], q[-1, -1] = -0.0, 0.0
    return q, h


# name: (writer, oracle, arguments before the stream)
CASES = {
    "circle-25": (tables.write_circle_csv, oracles.csv_writer_circle,
                  lambda: (circles.circle_points(25),)),
    "circle-empty": (tables.write_circle_csv, oracles.csv_writer_circle,
                     lambda: (circles.circle_points(3),)),
    "circle-2^64+1": (tables.write_circle_csv, oracles.csv_writer_circle,
                      lambda: (circles.circle_points(2**64 + 1),)),
    "avg-s": (tables.write_angle_stats_csv, oracles.csv_writer_angle_stats,
              lambda: (circles.avg_abs_S(12345, 4),)),
    "avg-s-vanishing": (tables.write_angle_stats_csv, oracles.csv_writer_angle_stats,
                        lambda: (circles.avg_abs_S(1000, -6),)),
    "figure-empty": (tables.write_figure_csv, oracles.csv_writer_figure,
                     lambda: (harness.figure_data(harness.FigureQuery(0, 0, 4, "ge")),)),
    "figure-point": (tables.write_figure_csv, oracles.csv_writer_figure,
                     lambda: (harness.figure_data(harness.FigureQuery(5, 5, 4, "ge")),)),
    "figure": (tables.write_figure_csv, oracles.csv_writer_figure,
               lambda: (harness.figure_data(harness.FigureQuery(40, 120, 8, "gt")),)),
    "converge": (tables.write_convergence_csv, oracles.csv_writer_convergence,
                 lambda: (study(),)),
    "converge-signed-zero": (tables.write_convergence_csv, oracles.csv_writer_convergence,
                             lambda: (signed_zero_study(),)),
    "simulate": (tables.write_relax_csv, oracles.csv_writer_relax, lambda: (trajectory(),)),
    "simulate-signed-zero": (
        tables.write_relax_csv, oracles.csv_writer_relax,
        lambda: ([harness.RelaxState(-0.0, None, -0.0, 1e-300, (-0.0, 5e-324), 1.5)],),
    ),
    "qh": (tables.write_qh_csv, oracles.csv_writer_qh, lambda: qh_grid(4)),
    "qh-one-point": (tables.write_qh_csv, oracles.csv_writer_qh, lambda: qh_grid(0)),
    "qh-signed-zero": (tables.write_qh_csv, oracles.csv_writer_qh, lambda: qh_grid(4, True)),
    "lattice": (tables.write_lattice_csv, oracles.csv_writer_lattice,
                lambda: (co.sample_on_lattice(co.Maxwellian(1.0, 0.0, 0.0, 0.7), 0.5, 2.0),)),
    "lattice-signed-zero": (
        tables.write_lattice_csv, oracles.csv_writer_lattice,
        lambda: (co.LatticeDistribution.from_values(0.5, 1.0, {(0, 0): -0.0, (1, 0): 2.5}.items()),),
    ),
}


@pytest.mark.parametrize("rows", [1, 7, 1 << 16])
@pytest.mark.parametrize("case", CASES)
def test_tables_write_the_csv_writer_bytes(monkeypatch, case, rows):
    write, oracle, make = CASES[case]
    args = make()
    monkeypatch.setattr(tables, "CSV_CHUNK_ROWS", rows)
    got = text(write, *args)
    assert got == text(oracle, *args)
    if case.endswith("signed-zero"):
        assert ",-0\r\n" in got or ",-0," in got
    if case.endswith("empty"):
        assert got.count("\r\n") == 1 and got.endswith("\r\n")


def test_circle_beyond_int64_writes_its_n_exactly():
    """n = 2^64 + 1 has 16 points; its n column does not fit int64."""
    lines = text(tables.write_circle_csv, circles.circle_points(2**64 + 1)).splitlines()
    assert len(lines) == 17
    assert all(line.startswith("18446744073709551617,") for line in lines[1:])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(), st.floats(), st.integers(-(2**63), 2**63 - 1)), max_size=30
    ),
    st.integers(1, 8),
)
def test_write_csv_matches_csv_writer(rows, chunk):
    """Any ints (int64 or beyond) and any floats (signed zeros, subnormals,
    inf and nan included) come out as csv.writer writes them."""
    want = io.StringIO()
    w = csv.writer(want)
    w.writerow(["a", "b", "c"])
    for a, b, c in rows:
        w.writerow([a, f"{b:.17g}", c])
    a, b, c = zip(*rows) if rows else ((), (), ())
    columns = [np.array(a, dtype=object), np.array(b, dtype=np.float64),
               np.array(c, dtype=np.int64)]
    got = io.StringIO()
    saved, tables.CSV_CHUNK_ROWS = tables.CSV_CHUNK_ROWS, chunk
    try:
        tables.write_csv(got, ["a", "b", "c"], columns)
    finally:
        tables.CSV_CHUNK_ROWS = saved
    assert got.getvalue() == want.getvalue()
