import json
import math
import re
import shlex
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dvm2d import harness
from dvm2d.cli import main
from oracles import full_circle_q_discrete_detailed


def test_circle_command_stdout():
    runner = CliRunner()
    result = runner.invoke(main, ["circle", "25"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "n,x,y,theta"
    assert len(lines) == 13


def test_circle_command_unproven_primality_exits_2():
    # 318665857834031151167461 = psi_12, beyond the proven Miller-Rabin range.
    result = CliRunner().invoke(main, ["circle", "318665857834031151167461"])
    assert result.exit_code == 2
    assert "precondition violation" in result.output


def test_circle_command_writes_manifest(tmp_path):
    runner = CliRunner()
    out = tmp_path / "points.csv"
    result = runner.invoke(main, ["circle", "25", "--out", str(out)])
    assert result.exit_code == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "points.csv.manifest.json").read_text())
    assert manifest["command"] == "circle"
    assert manifest["config"] == {"n": 25, "count": 12}
    assert "numpy" in manifest["versions"]


def test_expsum_command():
    runner = CliRunner()
    result = runner.invoke(main, ["expsum", "5", "4"])
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    vals = row.split(",")
    assert abs(float(vals[4]) - 56 / 25) < 1e-12
    assert abs(float(vals[5]) - 56 / 25) < 1e-12


def test_avg_s_flags_bad_k():
    runner = CliRunner()
    result = runner.invoke(main, ["avg-s", "1000", "2"])
    assert result.exit_code == 0
    assert "identically 0" in result.output


def test_avg_s_beyond_memory_bound_exits_2():
    result = CliRunner().invoke(main, ["avg-s", "1000000000000", "4"])
    assert result.exit_code == 2
    assert "precondition violation" in result.output
    assert "MAX_RANGE_X" in result.output


def test_avg_s_output(tmp_path):
    runner = CliRunner()
    out = tmp_path / "avg.csv"
    result = runner.invoke(main, ["avg-s", "1000", "4", "--out", str(out)])
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "avg.csv.manifest.json").read_text())
    assert manifest["config"] == {"X": 1000, "k": 4, "vanishing_k": False}
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "X,k,mean_abs_S"


def test_avg_s_k0_is_mean_r2(tmp_path):
    out = tmp_path / "avg.csv"
    result = CliRunner().invoke(main, ["avg-s", "1000", "0", "--out", str(out)])
    assert result.exit_code == 0
    manifest = json.loads((tmp_path / "avg.csv.manifest.json").read_text())
    assert manifest["config"] == {"X": 1000, "k": 0, "vanishing_k": False}
    assert out.read_text().strip().splitlines()[-1] == "1000,0,3.1480000000000001"


def test_collide_single_value():
    runner = CliRunner()
    result = runner.invoke(
        main, ["collide", "--f", "bimaxwellian", "--h", "0.5", "--R", "2.0", "--v", "0,0"]
    )
    assert result.exit_code == 0
    header, row = result.output.strip().splitlines()
    assert header == "zeta_x,zeta_y,Qh_value"
    zx, zy, q = row.split(",")
    assert (zx, zy) == ("0", "0")
    assert math.isfinite(float(q))


def test_collide_off_lattice_v_exits_2():
    runner = CliRunner()
    result = runner.invoke(
        main, ["collide", "--h", "0.5", "--R", "2.0", "--v", "0.3,0"]
    )
    assert result.exit_code == 2


def test_collide_file_roundtrip(tmp_path):
    import dvm2d.collision as co

    f = co.sample_on_lattice(co.Maxwellian(1.0, 0.0, 0.0, 0.5), 0.5, 2.0)
    path = tmp_path / "f.csv"
    with open(path, "w") as fp:
        co.write_lattice_csv(f, fp)
    runner = CliRunner()
    result = runner.invoke(
        main, ["collide", "--f", "file", "--file", str(path), "--R", "1.5", "--grid"]
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[1] == "zeta_x,zeta_y,Qh_value"


def test_collide_grid_matches_pointwise(tmp_path):
    import dvm2d.collision as co

    rng = np.random.default_rng(11)
    h, b = 0.5, 5
    f = co.LatticeDistribution(h, b * h, rng.random((2 * b + 1, 2 * b + 1)))
    path = tmp_path / "f.csv"
    with open(path, "w") as fp:
        co.write_lattice_csv(f, fp)
    result = CliRunner().invoke(
        main, ["collide", "--f", "file", "--file", str(path), "--R", "1.5", "--grid"]
    )
    assert result.exit_code == 0
    rows = {
        (int(zx), int(zy)): float(q)
        for zx, zy, q in (line.split(",") for line in result.output.splitlines()[2:])
    }
    assert len(rows) == (2 * b + 1) ** 2
    for zx, zy in ((0, 0), (2, -3), (-4, 1)):
        v = np.array([zx * h, zy * h])
        qp = full_circle_q_discrete_detailed(f, v, co.KernelSpec.maxwell(), 1.5)[0]
        assert rows[zx, zy] == pytest.approx(qp, rel=1e-12, abs=1e-30)


def test_converge_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "conv.csv"
    result = runner.invoke(
        main,
        ["converge", "--f", "bimaxwellian", "--h-list", "0.5,0.25", "--R", "2.0",
         "--M", "8", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "conv.csv.manifest.json").read_text())
    assert manifest["config"]["h_list"] == [0.5, 0.25]


def test_converge_empty_h_list_exits_2():
    result = CliRunner().invoke(main, ["converge", "--h-list", "", "--R", "2", "--M", "8"])
    assert result.exit_code == 2
    assert "h_list must not be empty" in result.output


def test_converge_unaffordable_h_exits_2():
    result = CliRunner().invoke(main, ["converge", "--h-list", "0.001", "--R", "3"])
    assert result.exit_code == 2, result.output
    assert "MAX_CIRCLE_TABLE_LIMIT" in result.output


@pytest.mark.parametrize("M", ["4", str(harness.MAX_CONVERGE_M + 1)])
def test_converge_M_out_of_range_exits_2_before_any_work(monkeypatch, M):
    calls = []
    monkeypatch.setattr(harness, "q_reference", lambda *args: calls.append(args))
    result = CliRunner().invoke(main, ["converge", "--h-list", "0.5", "--R", "2", "--M", M])
    assert result.exit_code == 2, result.output
    assert "MAX_CONVERGE_M" in result.output
    assert calls == []


def test_converge_far_v_samples_only_the_reach():
    # About the origin this state would have 20125^2 points, past the cap;
    # about v it has 61^2.
    result = CliRunner().invoke(
        main, ["converge", "--v", "1000,0", "--h-list", "0.1", "--R", "3", "--M", "8"]
    )
    assert result.exit_code == 0, result.output
    assert result.output.splitlines()[1].startswith("0.10000000000000001,0,0,0,")


@pytest.mark.parametrize(
    "args, match",
    [
        (["--h", "0.04", "--R", "3"], "305^2 points"),
        (["--h", "0.04", "--R", "3", "--grid"], "305^2 points"),
        (["--h", "0.05", "--R", "0.5", "--v", "6,0", "--grid"], "MAX_LOSS_BAND_BYTES"),
    ],
    ids=["pointwise-state", "grid-state", "grid-loss-band"],
)
def test_collide_unaffordable_size_exits_2_allocating_nothing(monkeypatch, args, match):
    import dvm2d.collision as co

    # Small caps, so that a check that failed to fire, or fired after
    # sampling, would sample a few MB (305^2 or 285^2 points), not gigabytes.
    monkeypatch.setattr(harness, "MAX_CONVERGE_STATE_POINTS", 300**2)
    monkeypatch.setattr(co, "MAX_LOSS_BAND_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        result = CliRunner().invoke(main, ["collide", "--f", "maxwellian", *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert match in result.output
    assert peak < 1 << 20


@pytest.mark.parametrize("h_list", ["0.5,abc", "0.5,nan", "inf,0.5"])
def test_converge_malformed_h_list_exits_2(h_list):
    result = CliRunner().invoke(main, ["converge", "--h-list", h_list, "--R", "2", "--M", "8"])
    assert result.exit_code == 2, result.output
    assert "precondition violation" in result.output


@pytest.mark.parametrize("v", ["a,b", "1,", "nan,0"])
def test_collide_malformed_v_exits_2(v):
    result = CliRunner().invoke(main, ["collide", "--f", "maxwellian", "--R", "2", "--v", v])
    assert result.exit_code == 2, result.output
    assert "precondition violation" in result.output


@pytest.mark.parametrize(
    "args, match",
    [
        (["--h", "0.5", "--R", "nan"], "radius must be nonnegative and finite"),
        (["--h", "nan", "--R", "2"], "h must be positive and finite"),
        (["--h", "inf", "--R", "2"], "h must be positive and finite"),
    ],
    ids=["R-nan", "h-nan", "h-inf"],
)
@pytest.mark.parametrize("grid", [[], ["--grid"]], ids=["pointwise", "grid"])
def test_collide_non_finite_step_or_radius_exits_2(args, match, grid):
    result = CliRunner().invoke(main, ["collide", "--f", "maxwellian", *args, *grid])
    assert result.exit_code == 2, result.output
    assert match in result.output


@pytest.mark.parametrize(
    "text, match",
    [
        ("# {}\n0,0,1.0\n", "header must give h and R_support"),
        ("# not json\n0,0,1.0\n", "header is not JSON"),
        ('# {"h": 0.5, "R_support": 1.0}\nzeta_x,zeta_y,value\n0,0,abc\n',
         "malformed lattice CSV"),
        ('# {"h": 0.5, "R_support": 1.0}\nzeta_x,zeta_y,value\n0,0,1.0\n0,0,2.0\n',
         "repeats the row of point (0, 0)"),
    ],
    ids=["no-keys", "not-json", "non-numeric", "repeated-point"],
)
def test_collide_malformed_lattice_csv_exits_2(tmp_path, text, match):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    result = CliRunner().invoke(main, ["collide", "--f", "file", "--file", str(path), "--R", "1"])
    assert result.exit_code == 2, result.output
    assert match in result.output


@pytest.mark.parametrize("grid", [[], ["--grid"]], ids=["pointwise", "grid"])
@pytest.mark.parametrize("R", ["-2", "-0.5", "0"])
def test_collide_nonpositive_R_exits_2(tmp_path, grid, R):
    import dvm2d.collision as co

    result = CliRunner().invoke(main, ["collide", "--f", "maxwellian", "--h", "0.5", "--R", R, *grid])
    assert result.exit_code == 2, result.output
    assert "precondition violation" in result.output
    path = tmp_path / "f.csv"
    with open(path, "w") as fp:
        co.write_lattice_csv(co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0), fp)
    result = CliRunner().invoke(
        main, ["collide", "--f", "file", "--file", str(path), "--R", R, *grid]
    )
    assert result.exit_code == 2, result.output
    assert "h and R must be positive" in result.output


def test_readme_cli_examples_parse(tmp_path, monkeypatch):
    """Every dvm2d line of the README's CLI block parses; none is run."""
    import dvm2d.collision as co

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    examples = [
        shlex.split(line.split("#")[0])[1:]
        for block in re.findall(r"^```\n(.*?)^```", readme, re.S | re.M)
        for line in block.splitlines()
        if line.startswith("dvm2d ")
    ]
    assert examples
    monkeypatch.chdir(tmp_path)  # --file f.csv must name an existing file
    with open("f.csv", "w") as fp:
        co.write_lattice_csv(co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0), fp)
    for args in examples:
        main.commands[args[0]].make_context(args[0], args[1:])


def test_figure_command():
    runner = CliRunner()
    result = runner.invoke(main, ["figure", "--min", "1", "--max", "9", "--threshold", "8"])
    assert result.exit_code == 0
    assert "count: 73" in result.output


def test_figure_bad_threshold_exits_2():
    runner = CliRunner()
    result = runner.invoke(main, ["figure", "--min", "1", "--max", "9", "--threshold", "70"])
    assert result.exit_code == 2


def test_figure_single_point_box_writes_header_only(tmp_path):
    # r2(0) = 1 is below any threshold, so the box {(0, 0)} keeps nothing.
    out = tmp_path / "fig.csv"
    result = CliRunner().invoke(
        main, ["figure", "--min", "0", "--max", "0", "--threshold", "4", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert out.read_text() == "zeta1,zeta2,n,r2\n"
    assert json.loads((tmp_path / "fig.csv.manifest.json").read_text())["config"]["count"] == 0


def test_figure_beyond_memory_bound_exits_2(monkeypatch):
    monkeypatch.setattr(harness, "MAX_FIGURE_POINTS", 100)
    result = CliRunner().invoke(
        main, ["figure", "--min", "0", "--max", "20000", "--threshold", "4"]
    )
    assert result.exit_code == 2
    assert "MAX_FIGURE_POINTS = 100" in result.output


def test_max_r_command():
    runner = CliRunner()
    result = runner.invoke(main, ["max-r", "--bound", "100"])
    assert result.exit_code == 0
    assert result.output.strip().splitlines()[1] == "5525,48"


def test_simulate_command(tmp_path):
    runner = CliRunner()
    out = tmp_path / "relax.csv"
    result = runner.invoke(
        main,
        ["simulate", "--f", "maxwellian", "--h", "0.25", "--support", "2.0",
         "--R", "1.0", "--dt", "0.01", "--steps", "3", "--out", str(out)],
    )
    assert result.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,mass,momentum_x,momentum_y,energy,H"
    assert len(lines) == 5


def test_simulate_record_every_below_one_exits_2():
    result = CliRunner().invoke(
        main,
        ["simulate", "--f", "maxwellian", "--h", "0.5", "--support", "2.0",
         "--R", "1.0", "--dt", "0.01", "--steps", "3", "--record-every", "0"],
    )
    assert result.exit_code == 2
    assert "record_every" in result.output


def test_simulate_positivity_loss_exits_3():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["simulate", "--f", "bimaxwellian", "--h", "0.25", "--support", "4.0",
         "--R", "3.0", "--dt", "100.0", "--steps", "10"],
    )
    assert result.exit_code == 3
