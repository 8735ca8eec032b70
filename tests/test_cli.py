"""Command-line checks through ``run`` in this process: parsing, output
formats, exit codes.  What a call prints as its own process is the table in
``test_cli_contract.py``."""

import json
import math

import mpmath
import numpy as np
import pytest

from chordal.capacity import RATIO_BAND
from chordal.cli import parse_complex, run
from chordal.errors import InvalidInputError
from chordal.loewner import DriverFamily, transition_grid
from chordal.measures import point_mass
from chordal.numerics import SETTLE_TOL

from oracles import semicircle_transition

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


@pytest.mark.parametrize("z", ["-i", "-2-1i", "-inf+1i", "-"])
def test_dash_leading_value_reads_as_its_equals_form(capsys, semi_path, z):
    # argparse took "-i" for an option string and printed its usage message
    assert run(["transform", "--measure", semi_path, "--z", z]) == 2
    spaced = capsys.readouterr()
    assert run(["transform", "--measure", semi_path, f"--z={z}"]) == 2
    assert capsys.readouterr() == spaced
    assert spaced.err.startswith("error:") and spaced.err.count("\n") == 1


def test_an_option_after_a_valued_option_is_not_its_value(capsys, semi_path):
    assert run(["transform", "--measure", semi_path, "--z", "--op", "cauchy"]) == 2
    assert "argument --z: expected one argument" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, message", [
    (["invert", "--interval", "0,1", "--eps-ladder", "0.1,x"],
     "--eps-ladder expects comma-separated floats"),
    (["grunsky", "--moments", "1,0,x", "--order", "1"],
     "--moments expects comma-separated floats"),
], ids=["eps-ladder", "moments"])
def test_malformed_float_list_exits_2_on_one_line(capsys, semi_path, argv, message):
    if argv[0] == "invert":
        argv = [*argv, "--measure", semi_path]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_evolve_grid_entry_that_is_not_a_number_exits_2(capsys, tmp_path, driver_path):
    grid = tmp_path / "grid.json"
    grid.write_text('[[0.0, 1.0], ["a", 1.0]]')
    assert run(["evolve", "--driver", driver_path, "--t", "0.5", "--grid", str(grid)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --grid entries must hold numbers, "
                            "not strings, booleans or objects\n")


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


def test_evolve_semicircle_driver_near_the_support_within_bound(capsys, tmp_path):
    # ROADMAP D1 through the JSON driver path: the 64-node sum missed this
    # point by 1.6e-2 against a bound of 4e-10
    driver = tmp_path / "semi_driver.json"
    driver.write_text(json.dumps({"horizon": 1.0, "driver": {
        "type": "piecewise_constant", "breaks": [0.0],
        "measures": [{"segments": [{"interval": [-2.0, 2.0], "density": "semicircle"}]}]}}))
    assert run(["evolve", "--driver", str(driver), "--t", "0.5", "--z", "0.5+0.02i"]) == 0
    vals = [float(v) for v in capsys.readouterr().out.strip().split("\n")[1].split(",")]
    err = abs(complex(vals[3], vals[4]) - semicircle_transition(0.5, 0.5 + 0.02j))
    assert 0.0 < vals[5] <= 1e-9
    assert err <= vals[5]


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
    # arcsine moments at order 24: max |eigenvalue| 58 +- 3.5e3, rounding in
    # the pipeline, not bad input
    moments = ",".join(str(math.comb(n, n // 2) * (1 - n % 2)) for n in range(49))
    assert run(["grunsky", "--moments", moments, "--order", "24"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("non-convergence: moment rounding could change the verdict")


def test_grunsky_exact_integer_moments_read_boundary(capsys):
    # the central binomials through a_32 are exact: no rounding to charge
    moments = ",".join(str(math.comb(n, n // 2) * (1 - n % 2)) for n in range(33))
    assert run(["grunsky", "--moments", moments, "--order", "16"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == "boundary" and captured.err == ""


def test_grunsky_pm1_pair_fails_at_order_24(capsys):
    moments = ",".join(["1,0"] * 24 + ["1"])
    assert run_json(capsys, ["grunsky", "--moments", moments, "--order", "24"])["verdict"] == "fail"


def test_grunsky_semicircle_order_24_refuses(capsys, semi_path):
    assert run(["grunsky", "--measure", semi_path, "--order", "24"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("non-convergence: moment rounding could change the verdict")


def test_grunsky_measure_order_beyond_cap_is_rejected_at_once(capsys, semi_path):
    # no moments up to 2e8 are integrated (nor overflow) before the rejection
    assert run(["grunsky", "--measure", semi_path, "--order", "100000000"]) == 2
    assert capsys.readouterr().err == "error: order must lie in 1..32\n"


@pytest.mark.parametrize("tol", ["inf", "1", "2"])
def test_grunsky_boundary_tol_outside_the_unit_interval_exits_2(capsys, tol):
    # inf printed "boundary_tol": Infinity; at 1 or above "pass" is unreachable
    assert run(["grunsky", "--moments", "1,0,1,0,2", "--order", "2",
                "--boundary-tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boundary_tol must lie in (0, 1)\n"


def test_grunsky_boundary_tol_half_still_passes(capsys):
    out = run_json(capsys, ["grunsky", "--moments", "1,0,1,0,2", "--order", "2",
                            "--boundary-tol", "0.5"])
    assert out["verdict"] == "pass" and out["boundary_tol"] == 0.5


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


def test_reported_tolerances_are_the_library_constants(capsys, semi_path):
    nev = run_json(capsys, ["transform", "--measure", semi_path, "--op", "nevanlinna"])
    assert nev["ladder_settle_tol"] == SETTLE_TOL
    inv = run_json(capsys, ["invert", "--measure", semi_path,
                            "--interval", "-2,2", "--eps-ladder", EPS_LADDER_ARG])
    assert inv["extrapolation_settle_tol"] == SETTLE_TOL * max(1.0, abs(inv["value"]))
    hay = run_json(capsys, ["hayman", "--measure", semi_path, "--n", "16",
                            "--resolution", "128"])
    assert hay["ratio_band"] == RATIO_BAND


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


BIG = 10**400  # a valid JSON integer past the float range


@pytest.mark.parametrize("measure", [
    {"atoms": [[None, 1]]},
    {"atoms": 5},
    {"atoms": [[0.0]]},
    {"segments": 3},
    {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": None}]},
    {"atoms": [[0.0, 1.0]], "mass": [1.0]},
    {"segments": [{"interval": [-2.0, 2.0], "density": "semicircle", "order": 2.5}]},
    {"atoms": [[BIG, 1.0]]},
    {"atoms": [[0.0, 1.0]], "mass": BIG},
    {"segments": [{"interval": [0.0, BIG], "density": "uniform"}]},
    {"segments": [{"interval": [-1e308, 1e308], "density": "uniform"}]},
    {"atoms": [[0.0, 1e308], [1.0, 1e308]]},
])
def test_malformed_measure_is_an_input_error(capsys, tmp_path, measure):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(measure))
    assert run(["transform", "--measure", str(path), "--z", "i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


BERNOULLI_1 = {"atoms": [[-1.0, 0.5], [1.0, 0.5]]}
D0_ATOM = {"atoms": [[0.0, 1.0]]}


@pytest.mark.parametrize("measure, op, exact", [
    (D0_ATOM, "cauchy", lambda z: 1 / z),
    (BERNOULLI_1, "cauchy", lambda z: z / (z * z - 1)),
    (D0_ATOM, "reciprocal", lambda z: z),
    (BERNOULLI_1, "reciprocal", lambda z: z - 1 / z),
], ids=["d0", "bernoulli", "d0-reciprocal", "bernoulli-reciprocal"])
def test_transform_near_the_float_limit_within_its_bound(capsys, tmp_path, measure, op, exact):
    # G = 1/z ~ 5e-309 (1 - i) is subnormal here; numpy's complex division
    # overflowed and printed 0 with bound 0 (and the reciprocal refused).
    # Within the subnormals the bound counts ulps of 0, not eps |G|.
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(measure))
    out = run_json(capsys, ["transform", "--measure", str(path), "--z", "1e308+1e308i",
                            "--op", op])
    with mpmath.workdps(60):
        want = exact(mpmath.mpc(1e308, 1e308))
        err = abs(mpmath.mpc(*out["value"]) - want)
    assert 0.0 < out["roundoff_bound"] and err <= out["roundoff_bound"]
    # G to a few ulps of 0; F = 1/G inherits the relative error of those ulps
    assert err <= (4 * math.ulp(0.0) if op == "cauchy" else 1e-14 * abs(want))


@pytest.mark.parametrize("raw", [
    b"\xff\xfe{}",                                  # not UTF-8
    '{"atoms": [[0, "\xe9"]]}'.encode("latin-1"),    # Latin-1, not UTF-8
    b'{"atoms": [[0, 1' + b"0" * 5000 + b"]]}",        # past the int digit limit
    b"[" * 100_000 + b"]" * 100_000,                  # past the recursion limit
], ids=["bom", "latin1", "digits", "nesting"])
def test_undecodable_measure_file_is_an_input_error(capsys, tmp_path, raw):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert run(["transform", "--measure", str(path), "--z", "i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


_ATOM_PIECES = {"type": "piecewise_constant", "breaks": [0.0],
                "measures": [{"atoms": [[0.0, 1.0]]}]}
_MOVING = {"type": "moving_atom", "samples": [[0.0, 0.0], [2.0, 1.0]]}


@pytest.mark.parametrize("driver", [
    {"horizon": "x", "driver": _ATOM_PIECES},
    {"horizon": [2.0], "driver": _MOVING},
    {"horizon": {}, "driver": _MOVING},
    {"driver": {**_ATOM_PIECES, "breaks": ["a"]}},
    {"driver": {**_ATOM_PIECES, "breaks": {"a": 0}}},
    {"driver": {**_ATOM_PIECES, "breaks": [[0.0], [1.0, 2.0]]}},
    {"driver": {**_ATOM_PIECES, "measures": 5}},
    {"driver": {**_MOVING, "samples": [[0.0, 0.0], [1.0]]}},
    {"driver": {**_MOVING, "samples": [["a", 0.0], [2.0, 1.0]]}},
    {"driver": {**_MOVING, "samples": {"a": 1}}},
    {"horizon": BIG, "driver": _MOVING},
    {"driver": {**_MOVING, "samples": [[0.0, 0.0], [BIG, 1.0]]}},
])
def test_malformed_driver_is_an_input_error(capsys, tmp_path, driver):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(driver))
    assert run(["evolve", "--driver", str(path), "--t", "0.5", "--z", "i"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_curve_csv_is_an_input_error(capsys, tmp_path, semi_path):
    curve = tmp_path / "missing-dir" / "curve.csv"
    assert run(["hayman", "--measure", semi_path, "--n", "8", "--resolution", "64",
                "--curve-csv", str(curve)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write")


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


def test_internal_fault_is_not_reported_as_bad_input(monkeypatch, capsys, atom_path):
    # numpy's LinAlgError subclasses ValueError; only InvalidInputError means exit 2
    def broken(mu, z):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr("chordal.measures.cauchy_transform", broken)
    with pytest.raises(np.linalg.LinAlgError):
        run(["transform", "--measure", atom_path, "--z", "2i"])
    assert capsys.readouterr().err == ""
