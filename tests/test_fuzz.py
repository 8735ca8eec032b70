"""Property tests over the command line: every input ends in exit code 0, 1
or 2, with strict JSON or CSV on stdout for 0 and one message line on
stderr otherwise, and never an uncaught exception or a numpy warning.
Also over the solver: random moving-atom paths keep every error within the
reported bound, and one point drawn from good and malformed input gets one
answer, or one refusal, through every library entry point."""

import contextlib
import io
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordal.cli import run
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.loewner import (
    DriverFamily, SolverConfig, TransitionMap, evaluate_map, solve_transition, transition_grid,
)
from chordal.measures import point_mass

from oracles import moving_atom_transition

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
ODD_FLOATS = st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-5, 1e200, -1e200,
                              math.inf, -math.inf, math.nan])


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == "", (argv, err)
    else:
        assert out == "", (argv, out)
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
        assert err.startswith("non-convergence: " if code == 1 else "error: "), (argv, err)
    return code, out


# ---------------------------------------------------------------------------
# grunsky --moments


def _atom_moments(atoms, count):
    xs = np.array([x for x, _ in atoms])
    ws = np.array([w for _, w in atoms])
    ws = ws / ws.sum()
    return [float((ws * xs**n).sum()) for n in range(count)]


@st.composite
def moment_lists(draw):
    # mostly well-formed lists, so that most draws reach the certificate
    order = draw(st.integers(-1, 33))
    count = max(1, 2 * order + 1 + draw(st.sampled_from([0, 0, 0, 1, -1])))
    kind = draw(st.sampled_from(["atoms", "small", "any"]))
    if kind == "atoms":
        atoms = draw(st.lists(st.tuples(st.floats(-2.2, 2.2), st.floats(0.01, 1.0)),
                              min_size=1, max_size=4))
        return order, _atom_moments(atoms, count)
    values = st.floats(-1.0, 1.0) if kind == "small" else ANY_FLOAT | ODD_FLOATS
    moments = draw(st.lists(values, min_size=count, max_size=count))
    if draw(st.integers(0, 3)):
        moments[0] = 1.0
    return order, moments


@settings(max_examples=150, deadline=None)
@given(moment_lists())
def test_grunsky_moments_fuzz(case):
    order, moments = case
    text = ",".join(repr(float(m)) for m in moments)
    code, out = run_captured(["grunsky", f"--moments={text}", "--order", str(order)])
    if code == 0:
        report = json.loads(out, parse_constant=_reject_constant)
        assert report["verdict"] in ("pass", "boundary", "fail")
        assert len(report["eigenvalues"]) == order


# ---------------------------------------------------------------------------
# measure files through transform, invert, grunsky and hayman


COORDS = [0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, 5e-324]
COORD = st.sampled_from(COORDS) | st.floats(-4.0, 4.0)
WIDTHS = [1e-300, 1e-150, 1e-3, 1.0, 4.0, 1e300]
WEIGHTS = [0.0, 1e-300, 0.5, 1.0, 1e300]
DENSITIES = ["semicircle", "arcsine", "uniform"]


@st.composite
def segments(draw, odd=True):
    # a named or poly: density on [lo, lo + width], or an odd segment: a
    # reversed or empty interval, one with a missing, infinite or extra end,
    # an unknown or malformed name, or an order outside [2, 2048]
    lo, width = draw(COORD), draw(st.sampled_from(WIDTHS))
    interval = [lo, lo + width]
    if not odd:
        return {"interval": interval, "density": draw(st.sampled_from(DENSITIES))}
    coeffs = draw(st.lists(COORD, min_size=1, max_size=3))
    density = draw(st.sampled_from(DENSITIES) | st.just("poly:" + ",".join(map(repr, coeffs))))
    seg = {"interval": interval, "density": density}
    kind = draw(st.sampled_from([None] * 6 + ["reversed", "empty", "short", "long", "inf",
                                              "null", "name", "poly", "order"]))
    if kind == "reversed":
        seg["interval"] = interval[::-1]
    elif kind == "empty":
        seg["interval"] = [lo, lo]
    elif kind in ("short", "long"):
        seg["interval"] = interval[:1] if kind == "short" else [*interval, lo]
    elif kind in ("inf", "null"):
        seg["interval"] = [lo, math.inf if kind == "inf" else None]
    elif kind in ("name", "poly"):
        seg["density"] = "cauchy" if kind == "name" else "poly:1,x"
    elif kind == "order" or draw(st.booleans()):
        seg["order"] = draw(st.sampled_from([0, 1, 2, 3, 8, 2.5, 2049]))
    return seg


@st.composite
def measure_files(draw):
    # half of them probability measures, which every subcommand takes: one
    # named density, or one or two atoms of weight 1 or 1/2 each
    if draw(st.booleans()):
        if draw(st.booleans()):
            return {"segments": [draw(segments(odd=False))]}
        xs = draw(st.lists(COORD, min_size=1, max_size=2))
        return {"atoms": [[x, 1.0 / len(xs)] for x in xs]}
    obj = {}
    atoms = draw(st.lists(st.tuples(COORD, st.sampled_from(WEIGHTS)), max_size=3))
    if atoms:
        obj["atoms"] = [list(a) for a in atoms]
    segs = draw(st.lists(segments(), max_size=2))
    if segs or not atoms:
        obj["segments"] = segs
    if draw(st.booleans()):
        obj["mass"] = draw(st.sampled_from([1.0, 0.5, 1e300]))
    return obj


MEASURE_CALLS = [
    ["transform", "--z", "1i"],
    ["transform", "--z", "0.5+0.001i", "--op", "reciprocal"],
    ["transform", "--op", "nevanlinna"],
    ["invert", "--interval", "-1,1", "--eps-ladder", "0.4,0.2"],
    ["grunsky", "--order", "2"],
    ["hayman", "--n", "4", "--resolution", "16"],
]


# derandomized, so that every run draws the same 100 measures and a failure
# reproduces. A random draw costs about the same: invert's Simpson tolerance
# scales with the mass, so an atom of weight 1e300 no longer refines to the
# evaluation cap (ten seeded random runs took 1.1-1.3 s on 2 cores, where
# that cap stretched them to 1.4-20 s)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(measure=measure_files())
def test_measure_file_fuzz(tmp_path_factory, measure):
    # json.dumps writes math.inf as Infinity, which the CLI's reader takes
    path = tmp_path_factory.getbasetemp() / "fuzzed-measure.json"
    path.write_text(json.dumps(measure))
    for call in MEASURE_CALLS:
        code, out = run_captured([*call, "--measure", str(path)])
        if code == 0:
            report = json.loads(out, parse_constant=_reject_constant)
        if code == 0 and call == MEASURE_CALLS[0] and not measure.get("segments"):
            # atoms alone: G(i) within its roundoff bound of the exact sum
            with mpmath.workdps(40):
                exact = mpmath.fsum(mpmath.mpf(w) / (1j - mpmath.mpf(x))
                                    for x, w in measure.get("atoms", []))
                assert abs(exact - mpmath.mpc(*report["value"])) <= report["roundoff_bound"]


# ---------------------------------------------------------------------------
# evolve --z --t


DRIVERS = {
    "d0": {"type": "piecewise_constant", "breaks": [0.0], "measures": [{"atoms": [[0.0, 1.0]]}]},
    "atom": {"type": "moving_atom", "samples": [[0.0, 0.0], [1.0, 0.5], [2.0, -0.3], [4.0, 1.0]]},
}


@pytest.fixture(scope="module")
def driver_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("drivers")
    paths = {}
    for name, inner in DRIVERS.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps({"horizon": 4.0, "driver": inner}))
    return {k: str(v) for k, v in paths.items()}


# Im z between the solver floor (3.2e-4 at the default tol) and 0.1, off
# the support, can take over a minute to refuse, so heights are drawn from
# [0.1, 4] plus odd values that are rejected at once.
HEIGHTS = st.floats(0.1, 4.0) | ODD_FLOATS
TIMES = st.floats(-1.0, 4.0) | ODD_FLOATS


@settings(max_examples=40, deadline=None)
@given(driver=st.sampled_from(sorted(DRIVERS)), re=st.floats(-4.0, 4.0) | ODD_FLOATS,
       im=HEIGHTS, t=TIMES)
def test_evolve_fuzz(driver_paths, driver, re, im, t):
    argv = ["evolve", "--driver", driver_paths[driver], f"--t={t!r}",
            f"--z={re:.17g}{im:+.17g}i"]
    code, out = run_captured(argv)
    if code == 0:
        header, *rows = out.strip().split("\n")
        assert header == "t,re_z,im_z,re_f,im_f,err_bound"
        assert len(rows) == 1
        vals = [float(v) for v in rows[0].split(",")]
        assert len(vals) == 6 and all(math.isfinite(v) for v in vals)
        assert vals[4] > 0 and vals[5] >= 0


# ---------------------------------------------------------------------------
# moving atom: error <= bound on random piecewise-linear paths


@st.composite
def atom_paths(draw):
    # 2-5 samples, each piece 0.1-1 long with a slope in [-50, 50]
    pieces = draw(st.lists(st.tuples(st.floats(0.1, 1.0), st.floats(-50.0, 50.0)),
                           min_size=1, max_size=4))
    samples = [(0.0, draw(st.floats(-2.0, 2.0)))]
    for dt, slope in pieces:
        t, u = samples[-1]
        samples.append((t + dt, u + slope * dt))
    return samples


@settings(max_examples=25, deadline=None)
@given(samples=atom_paths(),
       zs=st.lists(st.builds(complex, st.floats(-4.0, 4.0), st.floats(0.2, 4.0)),
                   min_size=1, max_size=4))
def test_moving_atom_error_within_bound(samples, zs):
    t = samples[-1][0]
    fam = DriverFamily.moving_atom(samples)
    vals, errs = transition_grid(fam, 0.0, t, np.array(zs))
    ref = np.array([moving_atom_transition(samples, 0.0, t, z) for z in zs])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= SolverConfig().tol
    # one substep rule serves a lane alone (on floats) and beside its twin
    # (on arrays): both rows of the twins are the lone lane bit for bit
    alone = transition_grid(fam, 0.0, t, [zs[0]])
    twins = transition_grid(fam, 0.0, t, [zs[0], zs[0]])
    for one, two in zip(alone, twins):
        assert one.tobytes() * 2 == two.tobytes()


# ---------------------------------------------------------------------------
# one point through every library entry point


# (values a one-point solve answers at, values it refuses) for a, b and z
STARTS = ([0.0, 0.25], [-0.5, math.nan, -math.inf])
ENDS = ([0.25, 1.0], [9.0, math.inf, math.nan])
POINTS = ([1j, 0.5 + 1.0j, -1.0 + 0.3j, 2.0 + 0.5j],
          [1.0, 1.0 - 1.0j, 1e-5j, complex(math.nan, 1.0), complex(0.0, math.inf)])
NOT_NUMBERS = [None, "x", "abc", "", [1j, [2j]]]  # a ragged list is neither times nor points


def one_point_inputs(values):
    # a good value three times in five, plain, as a string or as a 0-d
    # array; else any value as a 2-element array, or a bad value or no
    # number at all
    good, bad = values
    good, any_value = st.sampled_from(good), st.sampled_from(good + bad)
    return st.one_of(good, good.map(str), good.map(np.array),
                     any_value.map(lambda v: np.array([v, v])), st.sampled_from(bad + NOT_NUMBERS))


def _outcome(call):
    # the value and bound (None for a bare value) that a call answers, or
    # the class and message it refuses with
    try:
        w, e = call()
    except (InvalidInputError, NonConvergenceError) as exc:
        return type(exc), str(exc)
    return complex(np.asarray(w).item()), None if e is None else float(np.asarray(e).item())


@settings(max_examples=150, deadline=None)
@given(fam=st.sampled_from([DriverFamily.constant(point_mass(0.0), horizon=4.0),
                            DriverFamily.moving_atom(DRIVERS["atom"]["samples"])]),
       a=one_point_inputs(STARTS), b=one_point_inputs(ENDS), z=one_point_inputs(POINTS))
def test_one_point_entry_points_agree(fam, a, b, z):
    # every pointwise door and a one-point grid answer alike, or refuse with
    # one class and one message; a 2-element array makes a grid of two
    # lanes, which only the pointwise doors refuse
    calls = [lambda: (solve_transition(fam, a, b, z), None),
             lambda: TransitionMap(fam, a, b).evaluate(z)]
    if type(a) is float and a == 0.0:
        calls.append(lambda: (evaluate_map(fam, b, z), None))
    if not any(isinstance(x, np.ndarray) and x.size == 2 for x in (a, b, z)):
        calls.append(lambda: transition_grid(fam, a, b, z))
    outcomes = [_outcome(call) for call in calls]
    assert len({value for value, _ in outcomes}) == 1, outcomes
    assert len({bound for _, bound in outcomes} - {None}) == 1, outcomes
