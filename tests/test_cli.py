"""End-to-end command-line checks: parsing, output formats, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from chordal.cli import parse_complex, run
from chordal.errors import InvalidInputError
from chordal.loewner import DriverFamily, transition_grid
from chordal.measures import point_mass

EPS_LADDER_ARG = ",".join(str(0.4 / 2**k) for k in range(8))


@pytest.fixture
def semi_path(tmp_path):
    p = tmp_path / "semi.json"
    p.write_text(json.dumps({
        "segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": 64}],
    }))
    return str(p)


@pytest.fixture
def atom_path(tmp_path):
    p = tmp_path / "atom.json"
    p.write_text(json.dumps({"atoms": [[0.0, 1.0]]}))
    return str(p)


@pytest.fixture
def driver_path(tmp_path):
    p = tmp_path / "driver.json"
    p.write_text(json.dumps({
        "horizon": 2.0,
        "driver": {"type": "piecewise_constant", "breaks": [0.0],
                   "measures": [{"atoms": [[0.0, 1.0]]}]},
    }))
    return str(p)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


# ---------------------------------------------------------------------------
# complex literals


def test_parse_complex_accepts_the_documented_forms():
    assert parse_complex("0+1i") == 1j
    assert parse_complex("-1.5-0.25i") == complex(-1.5, -0.25)
    assert parse_complex("2i") == 2j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("2.5+i") == 2.5 + 1j
    assert parse_complex("3") == 3 + 0j
    assert parse_complex("1e-3+2e2i") == complex(1e-3, 200.0)


@pytest.mark.parametrize("bad", ["", "1 + 2i", "abc", "1+2x", "--", "i2",
                                 "nan+1i", "inf+1i", "1+nani"])
def test_parse_complex_rejects_garbage(bad):
    with pytest.raises(InvalidInputError):
        parse_complex(bad)


# ---------------------------------------------------------------------------
# transform


def test_transform_cauchy_point_mass(capsys, atom_path):
    out = run_json(capsys, ["transform", "--measure", atom_path, "--z", "2i"])
    assert out["op"] == "cauchy" and out["z"] == [0.0, 2.0]
    # G(2i) for a unit atom at 0 is 1/(2i) = -i/2
    assert abs(complex(*out["value"]) - (-0.5j)) < 1e-15
    assert 0.0 < out["roundoff_bound"] < 1e-12


def test_transform_reciprocal_semicircle(capsys, semi_path):
    out = run_json(capsys, ["transform", "--measure", semi_path,
                            "--z", "2i", "--op", "reciprocal"])
    want = 1j * (1.0 + math.sqrt(2.0))
    assert abs(complex(*out["value"]) - want) < 5e-9


def test_transform_nevanlinna_semicircle(capsys, semi_path):
    out = run_json(capsys, ["transform", "--measure", semi_path, "--op", "nevanlinna"])
    assert abs(out["b"]) < 1e-3
    assert abs(out["c"] - 1.0) < 1e-3
    assert abs(out["nu_mass"] - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-3
    assert out["ladder_settle_tol"] == 1e-3


def test_transform_cauchy_requires_z(capsys, atom_path):
    assert run(["transform", "--measure", atom_path]) == 2
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# invert


def test_invert_semicircle_full_support(capsys, semi_path):
    # the negative interval token must survive argparse
    out = run_json(capsys, ["invert", "--measure", semi_path,
                            "--interval", "-2,2", "--eps-ladder", EPS_LADDER_ARG])
    assert out["interval"] == [-2.0, 2.0]
    assert len(out["eps_ladder"]) == 8
    # open + closed sum convention: a clean interior unit mass reads as 2
    assert abs(out["value"] - 2.0) < 2e-3


def test_invert_short_ladder_fails_with_code_1(capsys, semi_path):
    code = run(["invert", "--measure", semi_path,
                "--interval", "-2,2", "--eps-ladder", "0.4,0.2,0.1,0.05"])
    assert code == 1
    assert capsys.readouterr().err.startswith("non-convergence:")


def test_invert_interval_parse_error(capsys, semi_path):
    assert run(["invert", "--measure", semi_path,
                "--interval", "-2;2", "--eps-ladder", "0.4,0.2"]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evolve


def test_evolve_single_point_csv(capsys, driver_path):
    code = run(["evolve", "--driver", driver_path, "--t", "1.0", "--z", "0+1i"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,re_z,im_z,re_f,im_f,err_bound"
    assert len(lines) == 2
    t, re_z, im_z, re_f, im_f, err = (float(v) for v in lines[1].split(","))
    assert (t, re_z, im_z) == (1.0, 0.0, 1.0)
    assert abs(complex(re_f, im_f) - 1j * math.sqrt(3.0)) < 1e-8
    assert 0.0 < err < 1e-6


def test_evolve_grid_matches_library(capsys, tmp_path, driver_path):
    zs = [(0.0, 1.0), (1.0, 1.0), (-1.0, 2.0)]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([list(p) for p in zs]))
    code = run(["evolve", "--driver", driver_path, "--t", "0.5",
                "--grid", str(grid)])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3
    fam = DriverFamily.constant(point_mass(0.0), horizon=2.0)
    want, bounds = transition_grid(fam, 0.0, 0.5, np.array([complex(*p) for p in zs]))
    for row, w, b in zip(rows, want, bounds):
        vals = [float(v) for v in row.split(",")]
        # %.17g round-trips doubles exactly
        assert complex(vals[3], vals[4]) == w
        assert vals[5] == b


def test_evolve_needs_exactly_one_input(capsys, tmp_path, driver_path):
    grid = tmp_path / "grid.json"
    grid.write_text("[[0.0, 1.0]]")
    assert run(["evolve", "--driver", driver_path, "--t", "1.0"]) == 2
    capsys.readouterr()
    assert run(["evolve", "--driver", driver_path, "--t", "1.0",
                "--z", "i", "--grid", str(grid)]) == 2
    capsys.readouterr()


def test_evolve_beyond_horizon(capsys, driver_path):
    assert run(["evolve", "--driver", driver_path, "--t", "3.0", "--z", "i"]) == 2
    assert "error:" in capsys.readouterr().err


def test_evolve_rejects_bad_tol(capsys, driver_path):
    assert run(["evolve", "--driver", driver_path, "--t", "1.0",
                "--z", "i", "--tol", "-1e-9"]) == 2
    assert "positive" in capsys.readouterr().err


def test_evolve_rejects_malformed_grid(capsys, tmp_path, driver_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": [[0.0, 1.0]]}))
    assert run(["evolve", "--driver", driver_path, "--t", "1.0",
                "--grid", str(grid)]) == 2
    assert "pairs" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# grunsky


def test_grunsky_moments_flag(capsys):
    out = run_json(capsys, ["grunsky", "--moments", "1,0,1,0,2,0,5,0,14",
                            "--order", "4"])
    assert out["order"] == 4 and out["verdict"] == "pass"
    assert out["max_abs_eigenvalue"] < 1e-10
    assert len(out["eigenvalues"]) == 4
    assert len(out["c_matrix"]) == 4 and len(out["c_matrix"][0]) == 4


def test_grunsky_measure_matches_moments(capsys, semi_path):
    from_measure = run_json(capsys, ["grunsky", "--measure", semi_path, "--order", "4"])
    from_moments = run_json(capsys, ["grunsky", "--moments", "1,0,1,0,2,0,5,0,14",
                                     "--order", "4"])
    assert from_measure["verdict"] == from_moments["verdict"]
    diff = np.abs(np.array(from_measure["eigenvalues"])
                  - np.array(from_moments["eigenvalues"]))
    assert diff.max() < 1e-9


def test_grunsky_boundary_case(capsys):
    # arcsine moments 1, 0, 2, 0, 6: largest eigenvalue sits on the circle
    out = run_json(capsys, ["grunsky", "--moments", "1,0,2,0,6", "--order", "2"])
    assert out["verdict"] == "boundary"
    assert abs(out["max_abs_eigenvalue"] - 1.0) <= out["boundary_tol"]


def test_grunsky_numerical_breakdown_exits_1(capsys):
    # +-1 atom pair at order 24: rounding in the pipeline, not bad input
    moments = ",".join(["1,0"] * 24 + ["1"])
    assert run(["grunsky", "--moments", moments, "--order", "24"]) == 1
    assert capsys.readouterr().err.startswith("non-convergence: ")


def test_grunsky_huge_moments_refuse_on_one_line():
    # run as a process so that a leaked numpy warning would reach stderr
    proc = subprocess.run(
        [sys.executable, "-m", "chordal.cli", "grunsky",
         "--moments", "1,1e200,1,0,2", "--order", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "non-convergence: Grunsky matrix overflowed\n"


def test_grunsky_needs_exactly_one_source(capsys, semi_path):
    assert run(["grunsky", "--order", "4"]) == 2
    capsys.readouterr()
    assert run(["grunsky", "--order", "4", "--moments", "1,0,1",
                "--measure", semi_path]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# hayman


def test_hayman_json_and_curve_csv(capsys, tmp_path, semi_path):
    curve = tmp_path / "curve.csv"
    out = run_json(capsys, ["hayman", "--measure", semi_path, "--n", "48",
                            "--resolution", "512", "--curve-csv", str(curve)])
    assert out["verdict"] == "consistent_with_univalence"
    assert abs(out["ratio"] - 1.0) <= out["ratio_band"] == 0.05
    assert out["n_points"] == 48
    assert out["d_image"] > 0 and out["d_interval"] > 0
    lines = curve.read_text().strip().split("\n")
    assert lines[0] == "re,im"
    assert len(lines) == 1 + 2 * 512


def test_hayman_output_is_deterministic(capsys, semi_path):
    argv = ["hayman", "--measure", semi_path, "--n", "32", "--resolution", "256"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


# ---------------------------------------------------------------------------
# failure plumbing


def test_missing_file_is_an_input_error(capsys):
    assert run(["transform", "--measure", "/nonexistent.json", "--z", "i"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_malformed_json_is_an_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["transform", "--measure", str(bad), "--z", "i"]) == 2
    assert "malformed JSON" in capsys.readouterr().err


@pytest.mark.parametrize("measure", [
    {"atoms": [[None, 1]]},
    {"atoms": 5},
    {"atoms": [[0.0]]},
    {"segments": 3},
    {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": None}]},
    {"atoms": [[0.0, 1.0]], "mass": [1.0]},
    {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": 2.5}]},
])
def test_malformed_measure_is_an_input_error(capsys, tmp_path, measure):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(measure))
    assert run(["transform", "--measure", str(path), "--z", "i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_malformed_z_is_an_input_error(capsys, atom_path):
    assert run(["transform", "--measure", atom_path, "--z", "1 + 2i"]) == 2
    assert "malformed complex" in capsys.readouterr().err


def test_argparse_failures_exit_2(capsys):
    assert run(["no-such-command"]) == 2
    capsys.readouterr()
    assert run(["transform", "--bogus-flag", "x"]) == 2
    capsys.readouterr()
    assert run([]) == 2
    capsys.readouterr()


def test_module_entry_point(atom_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chordal.cli", "transform",
         "--measure", atom_path, "--z", "0.5+0.5i"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    # G(z) = 1/(z - 0) for the unit atom at the origin
    want = 1.0 / complex(0.5, 0.5)
    assert abs(complex(*payload["value"]) - want) < 1e-15
