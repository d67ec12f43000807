import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dvm2d import harness, tables
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


@pytest.mark.parametrize(
    "command, args", [("avg-s", ["1000", "-8"]), ("expsum", ["25", "-3"]), ("expsum", ["5", "-4"])]
)
def test_negative_k_parses_without_double_dash(command, args):
    runner = CliRunner()
    plain = runner.invoke(main, [command, *args])
    dashed = runner.invoke(main, [command, "--", *args])
    assert plain.exit_code == dashed.exit_code == 0, plain.output
    assert plain.output == dashed.output
    assert f",{args[1]}," in plain.output


def test_negative_k_keeps_out_and_rejects_unknown_options(tmp_path):
    out = tmp_path / "avg.csv"
    result = CliRunner().invoke(main, ["avg-s", "1000", "-8", "--out", str(out)])
    assert result.exit_code == 0
    dashed = CliRunner().invoke(main, ["avg-s", "--", "1000", "-8"])
    assert out.read_text() == dashed.output
    bogus = CliRunner().invoke(main, ["avg-s", "1000", "--bogus"])
    assert bogus.exit_code == 2 and "not a valid integer" in bogus.output


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
        tables.write_lattice_csv(f, fp)
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
        tables.write_lattice_csv(f, fp)
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
        tables.write_lattice_csv(co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0), fp)
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
        tables.write_lattice_csv(co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0), fp)
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


# sha256 and length of the census outputs, each written with --out.
CENSUS_OUTPUTS = [
    (["figure", "--min", "0", "--max", "1999", "--threshold", "72", "--cmp", "gt"],
     "91cfba640856a1e9ba10c15ceccb16cd4defe415628a7a64f36e1496606ce8c8", 767534),
    (["max-r", "--bound", "20000"],
     "b8f8ec00c6ce71ff896abee4817a869441536fe3992c0bb3a3f4741d4bdc30da", 28),
    (["circle", "243061325"],
     "741b4405d104575bf2119027e5c43dad9ea9564b8df728539ecad1dd55aca209", 16427),
]


@pytest.mark.parametrize(
    "args, sha256, size", CENSUS_OUTPUTS, ids=[args[0] for args, _, _ in CENSUS_OUTPUTS]
)
def test_census_outputs_are_byte_identical(tmp_path, args, sha256, size):
    """The census CSVs, CRLF line ends included, byte for byte as the
    quarter-plane sweep and csv.writer wrote them."""
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    data = out.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == sha256


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


@pytest.mark.parametrize(
    "args, match",
    [
        (["--h", "0.04", "--support", "5", "--R", "5"], "357^2 points"),
        (["--h", "0.05", "--support", "5", "--R", "0.5"], "MAX_LOSS_BAND_BYTES"),
    ],
    ids=["widened-state", "loss-band"],
)
def test_simulate_unaffordable_size_exits_2_allocating_nothing(monkeypatch, args, match):
    import dvm2d.collision as co

    # Small caps, so that a check that failed to fire, or fired after
    # sampling and widening, would allocate a few MB (251^2 or 201^2
    # points sampled, widened to 357^2 or 287^2), not gigabytes.
    monkeypatch.setattr(harness, "MAX_CONVERGE_STATE_POINTS", 300**2)
    monkeypatch.setattr(co, "MAX_LOSS_BAND_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        result = CliRunner().invoke(
            main, ["simulate", "--f", "maxwellian", *args, "--dt", "1e-3", "--steps", "1"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert match in result.output
    assert peak < 1 << 20


def test_simulate_just_over_the_relax_frame_cap_exits_2_before_sampling(monkeypatch):
    """h = 0.25, support 5, R = 5: the widened state has bound 30 and the
    operator reaches R/h = 20 past it, a frame of 101^2 points.  One point
    over the cap refuses before anything is sampled; at the cap it runs."""
    import dvm2d.collision as co

    sampled = []
    sample_on_lattice = co.sample_on_lattice
    monkeypatch.setattr(co, "sample_on_lattice", lambda *a: sampled.append(a) or sample_on_lattice(*a))
    args = ["simulate", "--f", "maxwellian", "--h", "0.25", "--support", "5", "--R", "5",
            "--dt", "1e-3", "--steps", "1"]
    monkeypatch.setattr(harness, "MAX_RELAX_FRAME_POINTS", 101**2 - 1)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "frame has 101^2 points" in result.output and "MAX_RELAX_FRAME_POINTS" in result.output
    assert sampled == []
    monkeypatch.setattr(harness, "MAX_RELAX_FRAME_POINTS", 101**2)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert len(sampled) == 1


@pytest.mark.parametrize(
    "h, match", [("0.001", "14147^2 points"), ("0.01", "MAX_LOSS_BAND_BYTES")], ids=["h0.001", "h0.01"]
)
def test_simulate_fine_h_exits_2_before_sampling(h, match):
    """At h = 0.001 the widened state is too large, at h = 0.01 its loss band."""
    tracemalloc.start()
    try:
        result = CliRunner().invoke(
            main, ["simulate", "--h", h, "--support", "5", "--R", "5", "--dt", "1e-3", "--steps", "1"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 2, result.output
    assert match in result.output
    assert peak < 1 << 20


def test_simulate_positivity_loss_exits_3():
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["simulate", "--f", "bimaxwellian", "--h", "0.25", "--support", "4.0",
         "--R", "3.0", "--dt", "100.0", "--steps", "10"],
    )
    assert result.exit_code == 3


# Every subcommand at a small size; "FILE" stands for a lattice CSV.
SUBCOMMANDS = {
    "circle": ["circle", "25"],
    "circle-2^64+1": ["circle", "18446744073709551617"],
    "expsum": ["expsum", "25", "4"],
    "avg-s": ["avg-s", "1000", "4"],
    "collide": ["collide", "--f", "bimaxwellian", "--h", "0.5", "--R", "2", "--v", "0.5,0"],
    "collide-grid": ["collide", "--h", "0.5", "--R", "1", "--grid"],
    "collide-file": ["collide", "--f", "file", "--file", "FILE", "--R", "1", "--grid"],
    "converge": ["converge", "--h-list", "0.5", "--R", "2", "--M", "8"],
    "figure": ["figure", "--min", "0", "--max", "30", "--threshold", "8"],
    "max-r": ["max-r", "--bound", "100"],
    "simulate": ["simulate", "--h", "0.5", "--support", "2", "--R", "1", "--dt", "0.01",
                 "--steps", "3"],
}
# Lines ending in a bare LF: the one-line results, and the Q^h grid's JSON
# line; every other line ends in CRLF.
LF_LINES = {"expsum": 2, "collide": 2, "max-r": 2, "collide-grid": 1, "collide-file": 1}


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_stdout_bytes_equal_out_bytes(tmp_path, name):
    """In a real process, a command's stdout and its --out file hold the same
    bytes, CRLF line ends of the tables included (CliRunner's output folds
    CRLF to LF, so it cannot show this)."""
    import dvm2d.collision as co

    with open(tmp_path / "f.csv", "w") as fp:
        tables.write_lattice_csv(co.sample_on_lattice(co.Maxwellian(), 0.5, 2.0), fp)
    args = [str(tmp_path / "f.csv") if a == "FILE" else a for a in SUBCOMMANDS[name]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}

    def run(*extra):
        return subprocess.run([sys.executable, "-m", "dvm2d.cli", *args, *extra], env=env,
                              capture_output=True, timeout=120, check=True)

    out = tmp_path / "out.csv"
    stdout = run().stdout
    assert run("--out", str(out)).stdout == b""
    assert stdout == out.read_bytes()
    assert json.loads(Path(f"{out}.manifest.json").read_text())["command"] == args[0]
    assert stdout.count(b"\n") - stdout.count(b"\r\n") == LF_LINES.get(name, 0)
    assert stdout.count(b"\n") > 1


@pytest.mark.parametrize(
    "args, code",
    [
        (["figure", "--min", "0", "--max", "20000", "--threshold", "4"], 2),
        (["simulate", "--f", "bimaxwellian", "--h", "0.25", "--support", "4.0", "--R", "3.0",
          "--dt", "100.0", "--steps", "10"], 3),
    ],
    ids=["figure-refused", "simulate-positivity-loss"],
)
def test_failed_command_leaves_no_output_file(monkeypatch, tmp_path, args, code):
    """The --out file is opened only once the result is computed, and the
    manifest written only after it."""
    monkeypatch.setattr(harness, "MAX_FIGURE_POINTS", 100)
    out = tmp_path / "out.csv"
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == code, result.output
    assert list(tmp_path.iterdir()) == []


def test_figure_output_stage_holds_one_chunk(monkeypatch, tmp_path):
    """Once figure_data returns, writing the CSV holds one chunk of rows on
    top of the FigureData, not the table's text.  The (0, 400, 4) box keeps
    160800 points (5.1 MB of FigureData, 2.5 MB of CSV text); a chunk of
    1024 rows takes about 0.2 MB."""
    monkeypatch.setattr(tables, "CSV_CHUNK_ROWS", 1024)
    figure_data = harness.figure_data
    held = {}

    def traced(query):
        data = figure_data(query)
        tracemalloc.reset_peak()
        held["current"] = tracemalloc.get_traced_memory()[0]
        held["count"] = data.count
        return data

    monkeypatch.setattr(harness, "figure_data", traced)
    out = tmp_path / "fig.csv"
    tracemalloc.start()
    try:
        result = CliRunner().invoke(
            main, ["figure", "--min", "0", "--max", "400", "--threshold", "4", "--out", str(out)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert held["count"] == 401 * 401 - 1
    assert peak - held["current"] <= 1 << 20
