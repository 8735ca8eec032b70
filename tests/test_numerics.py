"""Level-synchronous adaptive Simpson, alone and behind Stieltjes inversion.

Oracles used here:
  unit atom at p (p = 0 below): the rung -(2/pi) * integral over (a, b) of
      Im G(x + i*eps) dx equals (2/pi) [arctan((b-p)/eps) - arctan((a-p)/eps)]
  `recursive_simpson`: the classic depth-first routine, written out below,
      whose accept/split decisions the level-synchronous one must repeat
"""

import math
import warnings

import numpy as np
import pytest

from chordal import measures, numerics
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.measures import cauchy_transform, point_mass, stieltjes_invert

EPS_LADDER = [0.4 / 2**k for k in range(8)]


def recursive_simpson(f, a, b, tol, max_depth=48):
    """Depth-first adaptive Simpson on a scalar f; returns (value, points)."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    def simp(lo, hi, flo, fmid, fhi):
        return (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        fl, fr = g(0.5 * (lo + mid)), g(0.5 * (mid + hi))
        left, right = simp(lo, mid, flo, fl, fmid), simp(mid, hi, fmid, fr, fhi)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        assert depth < max_depth
        return (recurse(lo, mid, flo, fl, fmid, left, 0.5 * tol, depth + 1)
                + recurse(mid, hi, fmid, fr, fhi, right, 0.5 * tol, depth + 1))

    fa, fm, fb = g(a), g(0.5 * (a + b)), g(b)
    return recurse(a, b, fa, fm, fb, simp(a, b, fa, fm, fb), tol, 0), points


def recording(f, calls):
    def wrapped(x):
        calls.append(x)
        return f(x)
    return wrapped


@pytest.fixture
def rungs(monkeypatch):
    """Rung values of every stieltjes_invert call, through the module global."""
    seen = []
    inner = measures.adaptive_simpson

    def counting(f, a, b, tol, **kw):
        value = inner(f, a, b, tol, **kw)
        seen.append(-(2.0 / math.pi) * value)
        return value

    monkeypatch.setattr(measures, "adaptive_simpson", counting)
    return seen


# ---------------------------------------------------------------------------
# same decisions as the recursive routine


@pytest.mark.parametrize("f, a, b, tol", [
    (lambda x: -0.0125 / (x * x + 0.0125**2), -1.0, 1.0, 1e-10),
    (lambda x: np.sqrt(np.maximum(4.0 - x * x, 0.0)), 0.0, 2.0, 1e-6),
    (lambda x: np.cos(7.0 * x) * np.exp(-x), 0.0, 3.0, 1e-10),
])
def test_partition_and_value_match_the_recursive_routine(f, a, b, tol):
    want, points = recursive_simpson(lambda x: float(f(np.float64(x))), a, b, tol)
    calls = []
    got = numerics.adaptive_simpson(recording(f, calls), a, b, tol)
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(points))
    assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Stieltjes inversion


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.0, 1.0), (1.0, 2.0)])
def test_atom_rungs_match_the_arctan_closed_form(rungs, a, b):
    stieltjes_invert(lambda z: cauchy_transform(point_mass(0.0), z), (a, b), EPS_LADDER)
    assert len(rungs) == len(EPS_LADDER)
    for eps, got in zip(EPS_LADDER, rungs):
        want = (2.0 / math.pi) * (math.atan(b / eps) - math.atan(a / eps))
        assert abs(got - want) <= 1e-10 * max(1.0, b - a), eps


def test_one_adaptive_simpson_call_per_rung(rungs):
    # the traced benchmark run rebinds measures.adaptive_simpson by name
    g = lambda z: cauchy_transform(point_mass(0.0), z)
    stieltjes_invert(g, (1.0, 2.0), EPS_LADDER)
    assert len(rungs) == len(EPS_LADDER)
    stieltjes_invert(g, (1.0, 2.0), EPS_LADDER[2:])
    assert len(rungs) == 2 * len(EPS_LADDER) - 2


def test_g_is_called_on_arrays_once_per_level_and_slice():
    mu = point_mass(0.0)
    shapes = []

    def g(z):
        shapes.append(np.shape(z))
        return cauchy_transform(mu, z)

    stieltjes_invert(g, (-1.0, 1.0), EPS_LADDER)
    assert all(len(s) == 1 for s in shapes)
    assert max(s[0] for s in shapes) <= numerics._SLICE
    # 27600 Simpson points in all, after the one point iy that scales the
    # tolerance; at most _MAX_DEPTH + 2 calls per rung
    assert shapes[0] == (1,)
    assert sum(s[0] for s in shapes) == 1 + 27600
    assert len(shapes) <= 1 + len(EPS_LADDER) * 50


def test_scalar_only_g_matches_the_vectorised_call():
    mu = point_mass(0.3)

    def scalar_only(z):
        return complex(cauchy_transform(mu, complex(z)))  # TypeError on arrays

    def wrong_shape(z):
        return cauchy_transform(mu, np.ravel(z)[0])  # one value for any input

    for interval, ladder in (((-1.0, 1.0), EPS_LADDER[:5]), ((1.0, 2.0), EPS_LADDER)):
        want = stieltjes_invert(lambda z: cauchy_transform(mu, z), interval, ladder)
        for g in (scalar_only, wrong_shape):
            assert abs(stieltjes_invert(g, interval, ladder) - want) <= 1e-15


# ---------------------------------------------------------------------------
# bounded resources and fast refusals


def test_nan_integrand_is_refused_after_one_level():
    calls = []
    with pytest.raises(NonConvergenceError, match="non-finite"):
        numerics.adaptive_simpson(recording(lambda x: np.full(x.size, np.nan), calls),
                                  0.0, 1.0, 1e-10)
    assert [x.size for x in calls] == [3, 2]


def test_overflowing_simpson_sum_is_refused_without_warnings():
    with pytest.raises(NonConvergenceError, match="non-finite"):
        numerics.adaptive_simpson(lambda x: np.full(x.size, 1e308), 0.0, 1.0, 1e-10)


def test_unsettled_integrand_stops_at_the_evaluation_cap():
    sizes = []

    def unsettled(x):
        sizes.append(x.size)
        return np.sin(1e12 * x)

    with pytest.raises(NonConvergenceError, match="evaluation cap"):
        numerics.adaptive_simpson(unsettled, 0.0, 1.0, 1e-10)
    assert sum(sizes) <= numerics._MAX_EVALS
    assert max(sizes) <= numerics._SLICE


def test_depth_limit_is_kept(monkeypatch):
    # a jump at an irrational point never settles; depth 4 stops it first
    monkeypatch.setattr(numerics, "_MAX_DEPTH", 4)
    with pytest.raises(NonConvergenceError, match="depth"):
        numerics.adaptive_simpson(lambda x: (x > 1 / math.pi).astype(float), 0.0, 1.0, 1e-10)


def test_empty_interval_is_rejected():
    with pytest.raises(ValueError):
        numerics.adaptive_simpson(np.cos, 1.0, 1.0, 1e-10)


def test_bad_arguments_raise_the_package_error():
    # the CLI maps InvalidInputError, and only it, to exit 2
    with pytest.raises(InvalidInputError):
        numerics.cheb_grid(2)
    with pytest.raises(InvalidInputError):
        numerics.adaptive_simpson(np.cos, 1.0, 0.0, 1e-10)
    with pytest.raises(InvalidInputError):
        numerics.neville_zero([1.0, 0.5], [1.0])
    with pytest.raises(InvalidInputError):
        numerics.neville_zero([0.5, 1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# ladder limits


def richardson_y_limit(values, ys):
    """The former y_limit, verbatim: two Richardson levels on a doubling ladder."""
    v = np.asarray(values)
    ys = np.asarray(ys, dtype=float)
    if v.size < 4:
        raise InvalidInputError("ladder too short for order-2 extrapolation")
    if not np.allclose(ys[1:] / ys[:-1], 2.0, rtol=1e-12):
        raise InvalidInputError("ladder must double")
    t1 = 2.0 * v[1:] - v[:-1]
    t2 = (4.0 * t1[1:] - t1[:-1]) / 3.0
    return t2[-1], abs(t2[-1] - t2[-2])


def test_y_ladder_shape():
    ys = numerics.Y_LADDER
    assert ys[0] == 8.0 and ys.size == 11
    assert np.all(ys[1:] / ys[:-1] == 2.0)
    with pytest.raises(ValueError):
        ys[0] = 1.0


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_y_limit_equals_the_richardson_limit_exactly(monkeypatch, kind):
    # every h = 1/y is a power of two, so Neville's rule on the last three
    # rungs (and one rung earlier) rounds exactly as the two Richardson levels
    monkeypatch.setattr(numerics, "settled", lambda limit, move, ladder: (limit, move))
    rng = np.random.default_rng(18)
    ys = numerics.Y_LADDER
    powers = ys[:, None] ** -np.arange(5.0)
    for _ in range(10_000):
        coef = rng.standard_normal((2, 5)) * 10.0 ** rng.uniform(-6, 6, (2, 5))
        coef = coef[0] + 1j * coef[1] if kind == "complex" else coef[0]
        vals = powers @ coef
        if rng.random() < 0.3:  # ladders that do not settle too
            vals = vals + rng.standard_normal(vals.shape) * 10.0 ** rng.uniform(-12, 3)
        assert numerics.y_limit(vals, "test") == richardson_y_limit(vals, ys)


def test_y_limit_refuses_a_limit_below_the_rounding_of_its_rungs():
    # values 1 + A/y^2: Neville's rule removes the A h^2 term, but the last
    # three rungs carry 5 eps max|rung| of rounding into the limit
    ys = numerics.Y_LADDER
    top = 1.0 + 4e17 / ys[-3] ** 2  # ~1e11: 1.1e-4 of rounding, accepted
    assert abs(numerics.y_limit(1.0 + 4e17 / ys ** 2, "test") - 1.0) <= 5 * np.spacing(top)
    with pytest.raises(NonConvergenceError, match="^test did not settle$"):
        numerics.y_limit(1.0 + 4e18 / ys ** 2, "test")  # ~1e12: 1.1e-3
    # 1 lies below one ulp of every rung, and the last-rung move is 0
    with pytest.raises(NonConvergenceError, match="^test did not settle$"):
        numerics.y_limit(1.0 + 1e300 / ys ** 2, "test")


def test_settle_rule_is_relative_past_one():
    assert numerics.settle_tol(0.5) == numerics.SETTLE_TOL
    assert numerics.settle_tol(-1e4) == 1e4 * numerics.SETTLE_TOL
    assert numerics.settle_tol(3e4j) == 3e4 * numerics.SETTLE_TOL
    assert numerics.settled(1e4, 10.0, "test") == 1e4
    with pytest.raises(NonConvergenceError, match="test ladder did not settle"):
        numerics.settled(1e4, 10.000001, "test ladder")
    with pytest.raises(NonConvergenceError, match="did not settle"):
        numerics.settled(1.0, math.nan, "test")
    for limit in (math.nan, math.inf, complex(1.0, math.inf)):
        with pytest.raises(NonConvergenceError, match="test extrapolated to a non-finite value"):
            numerics.settled(limit, 0.0, "test")


def test_y_limit_refuses_overflowing_rungs_without_warnings():
    vals = np.full(numerics.Y_LADDER.size, 1e308)
    vals[-1] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="non-finite"):
            numerics.y_limit(vals, "test")


# ---------------------------------------------------------------------------
# argument readers


@pytest.mark.parametrize("value", [8, 8.0, np.int64(8), np.float32(8.0)])
def test_count_reads_any_integral_number(value):
    got = numerics.count(value, "n")
    assert got == 8 and type(got) is int


@pytest.mark.parametrize("value", [8.5, math.inf, math.nan, "8", None, 8j])
def test_count_refuses_what_is_not_integral(value):
    with pytest.raises(InvalidInputError, match="^n must be an integer$"):
        numerics.count(value, "n")


def test_floats_reads_pairs_and_refuses_other_shapes():
    assert numerics.floats([], "bad", pairs=True).shape == (0, 2)
    assert numerics.floats([[0, 1], [2, 3]], "bad", pairs=True).tolist() == [[0, 1], [2, 3]]
    for values in ([[]], [[0, 1, 5]], [0, 1], ["12"], [[0, 1], [2]], [["a", 1]], [[10**400, 1]]):
        with pytest.raises(InvalidInputError, match="^bad$"):
            numerics.floats(values, "bad", pairs=True)
    assert numerics.floats([1, "2.5"], "bad").tolist() == [1.0, 2.5]


def test_floats_reads_complex_points_flat_lists_and_generators():
    assert numerics.floats([1j, "2+1j"], "bad", dtype=complex).tolist() == [1j, 2 + 1j]
    assert numerics.floats((x for x in (1, 2)), "bad", ndim=1).tolist() == [1.0, 2.0]
    for values, ndim in ((None, None), (1.0, 1), ([[1.0]], 1), ([1.0], 0), ({"a": 1}, None)):
        with pytest.raises(InvalidInputError, match="^bad$"):
            numerics.floats(values, "bad", ndim=ndim)


def test_number_reads_one_float():
    for value in (2, 2.0, np.float32(2.0), np.array(2.0), "2"):
        got = numerics.number(value, "bad")
        assert got == 2.0 and type(got) is float
    for value in (None, "x", [2.0], np.array([2.0]), 2j, 10**400):
        with pytest.raises(InvalidInputError, match="^bad$"):
            numerics.number(value, "bad")


@pytest.mark.parametrize("lo, hi, message", [
    (-math.inf, 1.0, "x endpoints must be finite"),
    (0.0, math.nan, "x endpoints must be finite"),
    (1.0, 1.0, "x needs lo < hi"),
    (2.0, 1.0, "x needs lo < hi"),
    (-1e308, 1e308, "x width hi - lo overflows"),
])
def test_finite_interval_refusals(lo, hi, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        numerics.finite_interval(lo, hi, "x")


def test_finite_interval_returns_floats():
    lo, hi = numerics.finite_interval(np.int64(-1), 2, "x")
    assert (lo, hi) == (-1.0, 2.0) and type(lo) is float and type(hi) is float


# ---------------------------------------------------------------------------
# every public function reads its numbers through these readers


def _malformed_argument_calls():
    # each numeric argument of the public functions, as a call on one value;
    # the set marks the arguments whose default, and so whose None, is valid
    from chordal import capacity, grunsky, loewner

    fam = loewner.DriverFamily.constant(point_mass(), horizon=2.0)
    mu = measures.semicircle()
    series = grunsky.SeriesCoefficients([1.0, 0.0, 1.0, 0.0, 0.0])
    moments = [1.0, 0.0, 1.0, 0.0, 2.0]
    calls = {
        "measure_at.t": lambda v: fam.measure_at(v),
        "hydrodynamic_parameter.t": lambda v: loewner.hydrodynamic_parameter(fam, v),
        "semigroup_defect.a": lambda v: loewner.semigroup_defect(fam, v, 0.5, 1.0, [1j]),
        "semigroup_defect.b": lambda v: loewner.semigroup_defect(fam, 0.0, v, 1.0, [1j]),
        "semigroup_defect.c": lambda v: loewner.semigroup_defect(fam, 0.0, 0.5, v, [1j]),
        "semigroup_defect.zs": lambda v: loewner.semigroup_defect(fam, 0.0, 0.5, 1.0, v),
        "univalence_probe.t": lambda v: loewner.univalence_probe(fam, v, [[1j, 2j]]),
        "univalence_probe.pairs": lambda v: loewner.univalence_probe(fam, 1.0, v),
        "solve_transition.a": lambda v: loewner.solve_transition(fam, v, 1.0, 1j),
        "solve_transition.z": lambda v: loewner.solve_transition(fam, 0.0, 1.0, v),
        "transition_grid.b": lambda v: loewner.transition_grid(fam, 0.0, v, [1j]),
        "transition_grid.zs": lambda v: loewner.transition_grid(fam, 0.0, 1.0, v),
        "TransitionMap.a": lambda v: loewner.TransitionMap(fam, v, 1.0),
        "TransitionMap.grid.zs": lambda v: loewner.TransitionMap(fam, 0.0, 1.0).grid(v),
        "SolverConfig.tol": lambda v: loewner.SolverConfig(tol=v),
        "SolverConfig.max_step": lambda v: loewner.SolverConfig(max_step=v),
        "SolverConfig.contraction_margin": lambda v: loewner.SolverConfig(contraction_margin=v),
        "constant.horizon": lambda v: loewner.DriverFamily.constant(mu, horizon=v),
        "piecewise_constant.breaks": lambda v: loewner.DriverFamily.piecewise_constant(v, [mu]),
        "moving_atom.samples": lambda v: loewner.DriverFamily.moving_atom(v),
        "cauchy_transform.z": lambda v: measures.cauchy_transform(mu, v),
        "reciprocal_cauchy.z": lambda v: measures.reciprocal_cauchy(mu, v),
        "stieltjes_invert.interval": lambda v: stieltjes_invert(
            lambda z: cauchy_transform(mu, z), v, EPS_LADDER),
        "stieltjes_invert.eps_ladder": lambda v: stieltjes_invert(
            lambda z: cauchy_transform(mu, z), (-1.0, 1.0), v),
        "affine_pushforward.scale": lambda v: measures.affine_pushforward(mu, v, 0.0),
        "affine_pushforward.shift": lambda v: measures.affine_pushforward(mu, 1.0, v),
        "RealMeasure.atoms": lambda v: measures.RealMeasure(v),
        "RealMeasure.mass": lambda v: measures.RealMeasure([(0.0, 1.0)], mass=v),
        "finite_interval.lo": lambda v: numerics.finite_interval(v, 1.0, "x"),
        "finite_interval.hi": lambda v: numerics.finite_interval(0.0, v, "x"),
        "moments_to_alpha.moments": lambda v: grunsky.moments_to_alpha(v),
        "univalence_certificate.mu_moments": lambda v: grunsky.univalence_certificate(v, 2),
        "univalence_certificate.boundary_tol":
            lambda v: grunsky.univalence_certificate(moments, 2, v),
        "SeriesCoefficients.coeffs": lambda v: grunsky.SeriesCoefficients(v),
        "faber_polynomials.n_max": lambda v: grunsky.faber_polynomials(series, v),
        "symmetric_eigenvalues.matrix": lambda v: grunsky.symmetric_eigenvalues(v),
        "boundary_image.epsilon": lambda v: capacity.boundary_image(mu, 64, v),
        "discrete_transfinite_diameter.points":
            lambda v: capacity.discrete_transfinite_diameter(v, 2),
        "discrete_transfinite_diameter.n":
            lambda v: capacity.discrete_transfinite_diameter([0, 1, 2j], v),
        "hayman_report.epsilon": lambda v: capacity.hayman_report(mu, 8, 64, v),
        "semicircle.radius": lambda v: measures.semicircle(v),
        "semicircle.center": lambda v: measures.semicircle(2.0, v),
        "arcsine.radius": lambda v: measures.arcsine(v),
        "arcsine.center": lambda v: measures.arcsine(2.0, v),
        "bernoulli.spread": lambda v: measures.bernoulli(v),
        "bernoulli.center": lambda v: measures.bernoulli(1.0, v),
        "named_density.name": lambda v: measures.named_density(v, -1.0, 1.0),
        "RealMeasure.segments": lambda v: measures.RealMeasure([(0.0, 1.0)], v),
        "DensitySegment.density": lambda v: measures.DensitySegment(-1.0, 1.0, v),
        "RealMeasure.dense_nodes.spacing": lambda v: mu.dense_nodes(v),
        "cauchy_transform.mu": lambda v: measures.cauchy_transform(v, 1j),
        "reciprocal_cauchy.mu": lambda v: measures.reciprocal_cauchy(v, 1j),
        "moment.mu": lambda v: measures.moment(v, 2),
        "affine_pushforward.mu": lambda v: measures.affine_pushforward(v, 1.0, 0.0),
        "piecewise_constant.measures":
            lambda v: loewner.DriverFamily.piecewise_constant([0.0], v),
        "driver_measure_at.family": lambda v: loewner.driver_measure_at(v, 0.0),
        "grunsky_coefficients.g": lambda v: grunsky.grunsky_coefficients(v, 2),
        "faber_polynomials.g": lambda v: grunsky.faber_polynomials(v, 2),
        "class_r_constant.F": lambda v: measures.class_r_constant(v),
        "nevanlinna_triple.F": lambda v: measures.nevanlinna_triple(v),
        "stieltjes_invert.G": lambda v: stieltjes_invert(v, (-1.0, 1.0), EPS_LADDER),
    }
    return calls, {"constant.horizon", "RealMeasure.mass", "hayman_report.epsilon"}


MALFORMED = {"none": None, "string": "abc", "ragged": [1j, [2j]], "dict": {"a": 1}}


@pytest.mark.parametrize("kind", MALFORMED)
def test_public_functions_refuse_what_they_cannot_read(kind):
    # a value no reader takes refuses as InvalidInputError, never as the
    # bare TypeError or ValueError of a conversion
    calls, none_is_default = _malformed_argument_calls()
    for name, call in calls.items():
        if kind == "none" and name in none_is_default:
            continue
        try:
            call(MALFORMED[kind])
        except InvalidInputError:
            continue
        pytest.fail(f"{name} took {MALFORMED[kind]!r}")
