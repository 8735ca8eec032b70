"""Measures, transforms, and Stieltjes inversion against closed forms.

Oracles used here:
  semicircle radius 2:  G(z) = (z - sqrt(z^2 - 4))/2, moments = Catalan
  arcsine   radius 2:   G(z) = 1/sqrt(z^2 - 4),       moments = C(2k, k)
  bernoulli spread 1:   G(z) = z/(z^2 - 1), F(z) = z - 1/z
  point mass at x0:     G(z) = 1/(z - x0),  F(z) = z - x0
with the square root branch fixed by G(iy) ~ 1/(iy) at infinity.
"""

import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from chordal import measures
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.measures import (
    DensitySegment,
    RealMeasure,
    affine_pushforward,
    arcsine,
    bernoulli,
    cauchy_transform,
    class_r_constant,
    measure_from_dict,
    moment,
    named_density,
    nevanlinna_triple,
    point_mass,
    reciprocal_cauchy,
    semicircle,
    stieltjes_invert,
)

from oracles import named_cauchy

# ladder used for every inversion test; settles the semicircle endpoint
# correction (~ eps^(3/2)) to a few 1e-5
EPS_LADDER = [0.4 / 2**k for k in range(8)]

CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132, 0, 429, 0, 1430]
CENTRAL_BINOMIAL = [math.comb(2 * k, k) if n == 2 * k else 0
                    for n in range(17) for k in [n // 2]]


def upper_sqrt(w):
    """sqrt with image in the closed upper half-plane."""
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(r.imag >= 0, r, -r)


def g_semicircle(z):
    return (z - upper_sqrt(z * z - 4.0)) / 2.0


def g_arcsine(z):
    return 1.0 / upper_sqrt(z * z - 4.0)


# ---------------------------------------------------------------------------
# construction


def test_probability_constructors_have_unit_mass():
    for mu in (semicircle(), arcsine(), point_mass(0.3), bernoulli(0.7, 0.1)):
        assert mu.is_probability
        assert abs(mu.total_mass - 1.0) < 1e-12


def test_support_hull():
    assert semicircle().support == (-2.0, 2.0)
    assert arcsine(radius=1.5, center=0.5).support == (-1.0, 2.0)
    assert point_mass(0.25).support == (0.25, 0.25)
    assert bernoulli(1.0).support == (-1.0, 1.0)
    assert RealMeasure().support is None


def test_atoms_plus_segment_mix():
    seg = DensitySegment(0.0, 1.0, lambda x: np.full_like(x, 0.5))
    mu = RealMeasure(atoms=[(-1.0, 0.5)], segments=[seg])
    assert mu.is_probability
    assert mu.support == (-1.0, 1.0)
    # G = 0.5/(z+1) + 0.5 * log((z)/(z-1))
    z = 0.3 + 1.1j
    want = 0.5 / (z + 1.0) + 0.5 * (np.log(z) - np.log(z - 1.0))
    assert abs(cauchy_transform(mu, z) - want) < 1e-12


def test_declared_mass_checked():
    RealMeasure(atoms=[(0.0, 0.5)], mass=0.5)
    with pytest.raises(InvalidInputError):
        RealMeasure(atoms=[(0.0, 0.5)], mass=1.0)


def test_atom_validation():
    with pytest.raises(InvalidInputError):
        RealMeasure(atoms=[(0.0, -0.1)])
    with pytest.raises(InvalidInputError):
        RealMeasure(atoms=[(float("inf"), 1.0)])


def test_segment_validation():
    with pytest.raises(InvalidInputError):
        DensitySegment(1.0, 1.0, lambda x: x)
    with pytest.raises(InvalidInputError):
        DensitySegment(0.0, 1.0, lambda x: x, order=1)
    with pytest.raises(InvalidInputError):
        DensitySegment(0.0, 1.0, lambda x: x, order=2049)
    assert DensitySegment(0.0, 1.0, lambda x: x, order=2048).order == 2048
    with pytest.raises(InvalidInputError):
        DensitySegment(0.0, 1.0, lambda x: x, 8, False, "not callable")
    bad = DensitySegment(0.0, 1.0, lambda x: -np.ones_like(x))
    with pytest.raises(InvalidInputError):
        RealMeasure(segments=[bad])
    with pytest.raises(InvalidInputError):
        RealMeasure(segments=["not a segment"])
    with pytest.raises(InvalidInputError, match="width"):
        DensitySegment(-1e308, 1e308, lambda x: x)
    with pytest.raises(InvalidInputError, match="total mass"):
        RealMeasure([(0.0, 1e308), (1.0, 1e308)])


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (0.0, math.inf)])
def test_segment_with_an_infinite_endpoint_is_refused(lo, hi):
    with pytest.raises(InvalidInputError, match="^segment endpoints must be finite$"):
        DensitySegment(lo, hi, lambda x: x)


@pytest.mark.parametrize("peak", [-1.0, math.inf, math.nan, "1"])
def test_segment_peak_validation(peak):
    with pytest.raises(InvalidInputError, match="peak"):
        DensitySegment(0.0, 1.0, lambda x: x, 8, False, None, peak)


@pytest.mark.parametrize("name, lo, hi", [
    ("semicircle", -2.0, 2.0),
    ("semicircle", 0.5, 1.0),
    ("uniform", -2.0, 2.0),
    ("uniform", 3.0, 3.5),
    ("poly:0.1875,0,0.046875", -2.0, 2.0),
    ("poly:1,-1.5,0.25", 0.0, 2.0),
])
def test_named_density_peak_bounds_the_density(name, lo, hi):
    # the supremum of |density|
    seg = named_density(name, lo, hi)
    x = np.linspace(lo, hi, 100_001)
    dens = np.abs(seg.density(x))
    assert dens.max() <= seg.peak * (1.0 + 1e-12)
    assert dens.max() >= seg.peak * (1.0 - 1e-9)
    assert named_density("arcsine", lo, hi).peak is None


def test_poly_peak_is_the_maximum_not_the_coefficient_sum():
    # 3/32 (4 - x^2) peaks at 0.375 inside; its |coefficients| in
    # xi = x/2 sum to 0.75, and the near-axis band of the solver took
    # 1,863 rounds with that bound against 979 with this one
    seg = named_density("poly:0.375,0,-0.09375", -2.0, 2.0)
    assert 0.375 <= seg.peak <= 0.375 * (1.0 + 1e-12)
    rng = np.random.default_rng(31)
    for _ in range(200):
        coeffs = rng.standard_normal(rng.integers(1, 9)) * 10.0 ** rng.uniform(-3.0, 3.0)
        lo = rng.uniform(-5.0, 5.0)
        hi = lo + rng.uniform(0.01, 10.0)
        seg = named_density("poly:" + ",".join(repr(float(c)) for c in coeffs), lo, hi)
        grid = np.abs(np.polynomial.polynomial.polyval(np.linspace(lo, hi, 100_001), coeffs))
        assert grid.max() <= seg.peak <= grid.max() * (1.0 + 1e-6)
    # past degree 64 the roots of P' would cost O(deg^3): the coefficient
    # sum, which still bounds the density
    long = named_density("poly:0.375,0,-0.09375" + ",0" * 97 + ",1e-300", -2.0, 2.0)
    assert long.peak == 0.75


@pytest.mark.parametrize("name", ["semicircle", "arcsine", "uniform", "poly:1"])
def test_named_density_on_a_point_is_refused(name):
    # the density bounds divided by the zero width: a bare ZeroDivisionError
    with pytest.raises(InvalidInputError, match="^segment needs lo < hi$"):
        named_density(name, 1.0, 1.0)


def test_empty_poly_density_is_a_bad_polynomial():
    # "".split(",") is [""], never empty: float("") is what refuses
    with pytest.raises(InvalidInputError, match="bad polynomial density 'poly:'"):
        named_density("poly:", -1.0, 1.0)


def test_poly_closed_form_past_the_float_range_falls_back_to_the_nodes():
    # r_1 = 2e308 overflows: the closed form gave nan - inf i where G is
    # -4.29e307 i, and warned
    mu = measure_from_dict({"segments": [
        {"interval": [-1.0, 1.0], "density": "poly:1e-300,1,1e308"}]})
    assert mu.segments[0].cauchy is None
    g = mu.cauchy(np.array([1j]))[0]
    assert np.isfinite(g) and g == cauchy_transform(mu, 1j)


def test_pushforward_carries_the_peak():
    mu = RealMeasure([], [named_density("uniform", -2.0, 2.0), named_density("arcsine", 3.0, 4.0)],
                     mass=2.0)
    pushed = affine_pushforward(mu, 0.5, 1.0)
    assert [seg.peak for seg in pushed.segments] == [0.5, None]
    loose = RealMeasure([], [DensitySegment(0.0, 1.0, lambda x: np.ones_like(x), peak=1e300)])
    assert affine_pushforward(loose, 1e-10, 0.0).segments[0].peak is None  # 1e310 overflows


def _g_prime(mu, w, eta):
    # G' exactly for atoms, else a central difference along the real axis
    if not mu.segments:
        return sum(-m / (w - x) ** 2 for x, m in mu.atoms)
    step = 1e-6 * eta
    return (mu.cauchy(w + step) - mu.cauchy(w - step)) / (2.0 * step)


@pytest.mark.parametrize("eta", [1e-3, 1e-2, 0.1, 1.0])
def test_g_bounds_bound_the_transform(g_bound_measures, eta):
    # M and L over Im w >= eta, at eta and above; K = M(eta/2) at eta/2
    re = np.linspace(-3.0, 3.0, 121)
    w = (re[:, None] + 1j * eta * np.array([1.0, 2.0, 10.0])).ravel()
    for name, mu in g_bound_measures.items():
        M, K, L = mu.g_bounds(eta)
        assert np.abs(mu.cauchy(w)).max() <= M, name
        assert np.abs(_g_prime(mu, w, eta)).max() <= L * (1.0 + 1e-6), name
        assert np.abs(mu.cauchy(re + 0.5j * eta)).max() <= K, name


def test_g_bounds_need_a_probability_measure():
    with pytest.raises(InvalidInputError, match="probability"):
        RealMeasure([(0.0, 0.5)]).g_bounds(1.0)
    with pytest.raises(InvalidInputError, match="probability"):
        RealMeasure([], [named_density("uniform", -2.0, 2.0)] * 2).g_bounds(np.ones(3))


def test_measure_from_dict_round_trip():
    mu = measure_from_dict({
        "atoms": [[0.5, 0.25]],
        "segments": [{"interval": [-1.0, 1.0], "density": "uniform", "order": 32}],
        "mass": 1.25,
    })
    assert abs(mu.total_mass - 1.25) < 1e-12
    z = 2.0j
    want = 0.25 / (z - 0.5) + 0.5 * (np.log(z + 1.0) - np.log(z - 1.0))
    assert abs(cauchy_transform(mu, z) - want) < 1e-12


def test_measure_from_dict_named_densities_match_constructors():
    for name, ref in (("semicircle", semicircle()), ("arcsine", arcsine())):
        mu = measure_from_dict({
            "segments": [{"interval": [-2.0, 2.0], "density": name, "order": 64}],
        })
        z = 0.7 + 1.3j
        assert abs(cauchy_transform(mu, z) - cauchy_transform(ref, z)) < 1e-14


def test_measure_from_dict_poly_density():
    mu = measure_from_dict({
        "segments": [{"interval": [0.0, 1.0], "density": "poly:0,2", "order": 16}],
    })
    assert abs(mu.total_mass - 1.0) < 1e-12
    assert abs(moment(mu, 1) - 2.0 / 3.0) < 1e-12


def test_measure_from_dict_rejects_garbage():
    with pytest.raises(InvalidInputError):
        measure_from_dict([1, 2, 3])
    with pytest.raises(InvalidInputError):
        measure_from_dict({"segments": [{"density": "uniform"}]})
    with pytest.raises(InvalidInputError):
        measure_from_dict({"segments": [{"interval": [0, 1], "density": "nope"}]})
    with pytest.raises(InvalidInputError):
        measure_from_dict({"segments": [{"interval": [0, 1], "density": "poly:x"}]})
    with pytest.raises(InvalidInputError):
        measure_from_dict({"segments": [{"interval": [0, 1], "density": 7}]})


def test_measure_from_dict_reads_only_numbers_and_named_keys():
    assert measure_from_dict({}).total_mass == 0.0
    # an object's keys "-2", "2" were read as the interval [-2, 2]
    with pytest.raises(InvalidInputError, match="^segment interval must hold numbers"):
        measure_from_dict({"segments": [
            {"interval": {"-2": 0, "2": 1}, "density": "semicircle"}]})
    with pytest.raises(InvalidInputError, match="^segment must be a JSON object$"):
        measure_from_dict({"segments": [[-2.0, 2.0]]})
    with pytest.raises(InvalidInputError, match="^atoms must hold numbers"):
        measure_from_dict({"atoms": ((0.0, "1"),)})


def test_dense_nodes_refine_mass_and_spacing():
    mu = semicircle()
    pos, wts = mu.dense_nodes(1e-3)
    assert abs(wts.sum() - 1.0) < 1e-6
    assert np.diff(np.sort(pos)).max() < 1e-3
    with pytest.raises(InvalidInputError):
        mu.dense_nodes(0.0)


# ---------------------------------------------------------------------------
# Cauchy transform and friends


def test_cauchy_point_mass_exact():
    mu = point_mass(0.5)
    for z in (1j, 2.0 + 0.25j, -3.0 + 5.0j):
        assert abs(cauchy_transform(mu, z) - 1.0 / (z - 0.5)) < 1e-16


def test_cauchy_semicircle_closed_form():
    # default order 64 gives ~1e-9 at distance 0.5 from the support
    # (theta-plane pole governs the rate); order 256 is machine exact there
    mu = semicircle()
    zs = np.array([2j, 0.5 + 0.5j, -1.0 + 0.6j, 3.0 + 2.0j, 1.9 + 0.5j])
    assert np.abs(cauchy_transform(mu, zs) - g_semicircle(zs)).max() < 5e-9
    assert np.abs(cauchy_transform(semicircle(order=256), zs) - g_semicircle(zs)).max() < 1e-14
    assert abs(cauchy_transform(mu, 2j) - 1j * (1.0 - math.sqrt(2.0))) < 1e-14


def test_cauchy_arcsine_closed_form():
    mu = arcsine()
    zs = np.array([2j, 0.5 + 0.5j, -1.0 + 0.6j, 3.0 + 2.0j])
    assert np.abs(cauchy_transform(mu, zs) - g_arcsine(zs)).max() < 5e-9
    assert np.abs(cauchy_transform(arcsine(order=256), zs) - g_arcsine(zs)).max() < 1e-13


def test_dense_nodes_reach_near_field():
    # frozen nodes are useless at distance ~1e-3; the resampled cloud is not
    mu = semicircle()
    z = 0.3 + 1e-3j
    pos, wts = mu.dense_nodes(2.5e-4)
    got = (wts / (z - pos)).sum()
    assert abs(got - g_semicircle(z)) < 1e-4 * abs(g_semicircle(z))


def test_cauchy_bernoulli_exact():
    mu = bernoulli(1.0)
    z = 0.3 + 0.8j
    assert abs(cauchy_transform(mu, z) - z / (z * z - 1.0)) < 1e-15


def test_cauchy_rejects_lower_half_plane():
    mu = semicircle()
    for z in (1.0, 1 - 1j, np.array([1j, -1j])):
        with pytest.raises(InvalidInputError):
            cauchy_transform(mu, z)


@pytest.mark.parametrize("z", [complex(0.0, math.nan), complex(math.nan, 1.0),
                               complex(math.inf, 1.0), complex(0.0, math.inf)])
def test_cauchy_rejects_non_finite_points(z):
    for arg in (z, np.array([1j, z])):
        with pytest.raises(InvalidInputError, match="finite"):
            cauchy_transform(point_mass(0.0), arg)


@pytest.mark.parametrize("mu", [point_mass(0.5), semicircle()], ids=["atom", "semicircle"])
def test_transforms_of_no_points_are_empty(mu):
    # as transition_grid returns empty arrays; the scaling's maxima over z
    # raised on the empty reduction
    none = np.array([], dtype=complex)
    for op in (cauchy_transform, reciprocal_cauchy):
        assert op(mu, none).shape == (0,)


def test_cauchy_batches_match_pointwise_values(monkeypatch):
    # large batches are summed in blocks of points; each row stays exact
    monkeypatch.setattr(measures, "_CAUCHY_BLOCK", 1000)
    mu = semicircle()
    zs = np.linspace(-3.0, 3.0, 300) + 0.5j
    batch = cauchy_transform(mu, zs.reshape(20, 15))
    assert batch.shape == (20, 15)
    pos, wts = mu.nodes()
    for z, g in zip(zs, batch.ravel()):
        assert g == (wts / (z - pos)).sum()


def test_cauchy_maps_upper_to_lower():
    rng = np.random.default_rng(7)
    zs = rng.uniform(-4, 4, 200) + 1j * rng.uniform(0.05, 5, 200)
    for mu in (semicircle(), arcsine(), bernoulli(0.6, -0.2)):
        assert np.all(cauchy_transform(mu, zs).imag < 0)


def test_reciprocal_cauchy_is_pick():
    mu = semicircle()
    rng = np.random.default_rng(11)
    zs = rng.uniform(-4, 4, 200) + 1j * rng.uniform(0.05, 5, 200)
    f = reciprocal_cauchy(mu, zs)
    assert np.all(f.imag > 0)
    # |F(z) - z| <= C/Im z with C the variance (= 1 here)
    assert np.all(np.abs(f - zs) <= 1.0 / zs.imag + 1e-9)
    assert abs(reciprocal_cauchy(mu, 1j) - 1j * (math.sqrt(5.0) + 1.0) / 2.0) < 1e-12


def test_reciprocal_needs_probability():
    half = RealMeasure(atoms=[(0.0, 0.5)])
    with pytest.raises(InvalidInputError):
        reciprocal_cauchy(half, 1j)


def test_moments_semicircle_catalan():
    mu = semicircle()
    for n, want in enumerate(CATALAN):
        assert abs(moment(mu, n) - want) < 1e-9 * max(1, want)


def test_moments_arcsine_central_binomial():
    mu = arcsine()
    for n, want in enumerate(CENTRAL_BINOMIAL):
        assert abs(moment(mu, n) - want) < 1e-9 * max(1, want)


def test_moments_atoms_exact():
    mu = bernoulli(0.5, 0.25)
    for n in range(8):
        want = 0.5 * (0.75**n + (-0.25) ** n)
        assert abs(moment(mu, n) - want) < 1e-15
    assert moment(point_mass(2.0), 5) == 32.0
    assert moment(RealMeasure(), 3) == 0.0


def test_moment_order_validation():
    with pytest.raises(InvalidInputError):
        moment(semicircle(), -1)
    with pytest.raises(InvalidInputError):
        moment(semicircle(), 1.5)


def test_class_r_constant_is_variance():
    assert abs(class_r_constant(lambda z: reciprocal_cauchy(semicircle(), z)) - 1.0) < 1e-6
    assert abs(class_r_constant(lambda z: reciprocal_cauchy(bernoulli(0.5), z)) - 0.25) < 1e-6
    assert class_r_constant(lambda z: z) == 0.0


def test_class_r_constant_diverges_off_center():
    # nonzero mean: iy(iy - F(iy)) grows linearly, the ladder cannot settle
    mu = point_mass(0.5)
    with pytest.raises(NonConvergenceError):
        class_r_constant(lambda z: reciprocal_cauchy(mu, z))


def test_class_r_constant_settles_relative_to_a_large_variance():
    # radius 200: variance 1e4, and the last rung moves the limit by 3.6e-5
    # of it, far past 1e-3 absolutely
    c = class_r_constant(lambda z: reciprocal_cauchy(semicircle(radius=200.0), z))
    assert abs(c - 1e4) <= 1e-4 * 1e4
    # radius 1000 reaches past the ladder's low rungs: no limit yet
    with pytest.raises(NonConvergenceError, match="class-r ladder did not settle"):
        class_r_constant(lambda z: reciprocal_cauchy(semicircle(radius=1000.0), z))


@pytest.mark.parametrize("ladder", [class_r_constant, nevanlinna_triple])
def test_a_nan_valued_f_refuses(ladder):
    with pytest.raises(NonConvergenceError, match="ladder extrapolated to a non-finite value"):
        ladder(lambda z: complex(math.nan, math.nan))


def test_nevanlinna_triple_point_mass():
    tr = nevanlinna_triple(lambda z: reciprocal_cauchy(point_mass(0.7), z))
    assert abs(tr.b - (-0.7)) < 1e-12
    assert abs(tr.c - 1.0) < 1e-9
    assert abs(tr.nu_mass) < 1e-9


def test_nevanlinna_triple_semicircle():
    tr = nevanlinna_triple(lambda z: reciprocal_cauchy(semicircle(), z))
    assert abs(tr.b) < 1e-9
    assert abs(tr.c - 1.0) < 1e-6
    # Im F(i) = (sqrt5 + 1)/2, so nu carries the golden-ratio remainder
    assert abs(tr.nu_mass - (math.sqrt(5.0) - 1.0) / 2.0) < 1e-6


def test_nevanlinna_triple_rejects_non_pick():
    with pytest.raises(InvalidInputError):
        nevanlinna_triple(lambda z: np.conj(z) - 1.0 / np.conj(z))
    with pytest.raises(InvalidInputError, match="negative linear coefficient"):
        nevanlinna_triple(lambda z: -z)
    with pytest.raises(InvalidInputError, match=r"Im F\(i\) < c"):
        nevanlinna_triple(lambda z: z - 2j)


def test_nevanlinna_triple_refuses_a_non_finite_f_of_i():
    # uniform on [-1e300, 1e300]: G(i) is the subnormal 1.66e-316, so
    # F(i) = 1/G(i) overflows while the ladder settles
    mu = measure_from_dict({"segments": [{"interval": [-1e300, 1e300], "density": "uniform"}]})
    with pytest.raises(NonConvergenceError, match=r"^F\(i\) is not finite$"):
        nevanlinna_triple(lambda z: reciprocal_cauchy(mu, z))


def test_nevanlinna_triple_refuses_a_c_below_the_rounding_of_its_rungs():
    # F(z) = z - 1e300/z: the rungs Im F(iy)/y = 1 + 1e300/y^2 are ~1e293,
    # so c = 1 is lost: the last-rung move alone accepts c = 0, nu_mass = 1e300
    for F in (lambda z: z - 1e300 / z,
              lambda z: reciprocal_cauchy(bernoulli(1e150), z)):
        with pytest.raises(NonConvergenceError, match="^linear-coefficient ladder did not settle$"):
            nevanlinna_triple(F)


# ---------------------------------------------------------------------------
# Stieltjes inversion: value is mu((a,b)) + mu([a,b])


def test_invert_semicircle_full_support():
    mu = semicircle()
    g = lambda z: cauchy_transform(mu, z)
    raw = stieltjes_invert(g, (-2.0, 2.0), EPS_LADDER)
    assert abs(raw - 2.0) < 2e-3
    # atom-free at the endpoints, so mass = raw / 2
    assert abs(raw / 2.0 - 1.0) < 1e-3


def test_invert_away_from_support_is_zero():
    g = lambda z: cauchy_transform(point_mass(0.0), z)
    assert abs(stieltjes_invert(g, (1.0, 2.0), EPS_LADDER)) < 1e-6


def test_invert_interior_atom_counts_twice():
    g = lambda z: cauchy_transform(point_mass(0.0), z)
    assert abs(stieltjes_invert(g, (-1.0, 1.0), EPS_LADDER) - 2.0) < 1e-6
    gb = lambda z: cauchy_transform(bernoulli(1.0), z)
    assert abs(stieltjes_invert(gb, (0.5, 1.5), EPS_LADDER) - 1.0) < 1e-6


def test_invert_endpoint_atom_counts_once():
    # mu((0,1)) + mu([0,1]) = 0 + 1 for a unit atom at 0
    g = lambda z: cauchy_transform(point_mass(0.0), z)
    assert abs(stieltjes_invert(g, (0.0, 1.0), EPS_LADDER) - 1.0) < 1e-6


def test_invert_scales_with_mass():
    half = RealMeasure(atoms=[(0.3, 0.5)])
    g = lambda z: cauchy_transform(half, z)
    got = stieltjes_invert(g, (-1.0, 1.0), EPS_LADDER)
    assert abs(got - 2.0 * half.total_mass) < 1e-6


def test_invert_partial_semicircle():
    # mu([0,2)) = 1/2 by symmetry; endpoint 0 carries no atom
    mu = semicircle()
    g = lambda z: cauchy_transform(mu, z)
    raw = stieltjes_invert(g, (0.0, 2.0), EPS_LADDER)
    assert abs(raw / 2.0 - 0.5) < 1e-3


def test_invert_validation():
    g = lambda z: cauchy_transform(point_mass(0.0), z)
    with pytest.raises(InvalidInputError):
        stieltjes_invert(g, (1.0, 1.0), EPS_LADDER)
    with pytest.raises(InvalidInputError):
        stieltjes_invert(g, (0.0, 1.0), [0.1])
    with pytest.raises(InvalidInputError):
        stieltjes_invert(g, (0.0, 1.0), [0.1, 0.2])
    with pytest.raises(InvalidInputError):
        stieltjes_invert(g, (0.0, 1.0), [0.1, -0.05])
    for interval in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 0.0), (-1e308, 1e308)):
        with pytest.raises(InvalidInputError):
            stieltjes_invert(g, interval, EPS_LADDER)
    for ladder in ([0.4, math.nan], [math.inf, 0.4], [0.4, 0.2, math.nan, 0.05]):
        with pytest.raises(InvalidInputError):
            stieltjes_invert(g, (0.0, 1.0), ladder)


def test_invert_refuses_a_non_finite_extrapolation():
    # finite rungs of opposite sign on a tight ladder overflow the
    # Neville step; the refusal must come without a RuntimeWarning
    def g(z):
        return np.where(np.imag(z) > 0.9999995, 1e307j, -1e307j)

    with pytest.raises(NonConvergenceError, match="extrapolated"):
        stieltjes_invert(g, (0.0, 1.0), [1.0, 0.999999])


def test_invert_reports_non_convergence():
    mu = semicircle()
    g = lambda z: cauchy_transform(mu, z)
    with pytest.raises(NonConvergenceError):
        stieltjes_invert(g, (-2.0, 2.0), [0.4, 0.2])


# ---------------------------------------------------------------------------
# affine pushforward


def test_affine_pushforward_moments_and_support():
    nu = affine_pushforward(semicircle(), 2.0, 3.0)
    assert nu.support == (-1.0, 7.0)
    assert abs(moment(nu, 1) - 3.0) < 1e-9
    assert abs(moment(nu, 2) - 13.0) < 1e-9  # 4 m2 + 12 m1 + 9


def test_affine_pushforward_transform_identity():
    mu, s, c = arcsine(), 0.5, -1.0
    nu = affine_pushforward(mu, s, c)
    z = 0.4 + 0.9j
    want = cauchy_transform(mu, (z - c) / s) / s
    assert abs(cauchy_transform(nu, z) - want) < 1e-12


def test_affine_pushforward_keeps_atoms():
    nu = affine_pushforward(bernoulli(1.0), 3.0, 1.0)
    assert nu.atoms == ((-2.0, 0.5), (4.0, 0.5))
    with pytest.raises(InvalidInputError):
        affine_pushforward(bernoulli(1.0), -1.0, 0.0)


# ---------------------------------------------------------------------------
# exact transforms of the named densities

# a degree-6 density, positive on [-1, 2] (ascending coefficients in x)
POLY6 = [1.0, 0.5, -0.3, 0.2, 0.1, -0.05, 0.03]
NAMED = [("semicircle", -2.0, 2.0, None), ("arcsine", -2.0, 2.0, None),
         ("uniform", 0.5, 3.25, None), ("poly", -1.0, 2.0, POLY6)]


def _named_measure(name, lo, hi, coeffs):
    full = name if coeffs is None else "poly:" + ",".join(map(repr, coeffs))
    return measure_from_dict({"segments": [{"interval": [lo, hi], "density": full}]})


def _probe_points(lo, hi):
    # on and off the support down to Im z = 1e-8, both endpoints, and far
    # out, where the closed forms must not cancel
    w = hi - lo
    return np.array([0.5 * (lo + hi) + 1j, lo + 0.3 * w + 1e-8j, lo + 1e-8j, hi + 1e-8j,
                     hi - 0.01 * w + 1e-6j, hi + 0.5 + 1e-8j, lo - 0.3 + 1e-3j,
                     1e4 + 1e4j, 1e8 + 1j, -1e8 + 1e3j, 1e8j])


@pytest.mark.parametrize("name, lo, hi, coeffs", NAMED, ids=[n[0] for n in NAMED])
@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.5, 1.0)], ids=["plain", "pushforward"])
def test_named_transforms_match_quadrature(name, lo, hi, coeffs, scale, shift):
    # the scale is a power of two and the shift hits the grid points on
    # Sterbenz terms, so (z - shift)/scale is exact where the transform is
    # ill-conditioned (the endpoints) and the comparison sees only the
    # closed form's own rounding
    mu = affine_pushforward(_named_measure(name, lo, hi, coeffs), scale, shift)
    assert mu.segments[0].cauchy is not None
    zs = _probe_points(*mu.support)
    got = mu.cauchy(zs)
    for z, g in zip(zs, got):
        want = named_cauchy(name, lo, hi, z, coeffs, scale, shift)
        assert abs(g - want) <= 1e-12 * abs(want), z


def test_poly_transform_switches_to_the_moment_series_at_its_radius():
    lo, hi = -1.0, 2.0
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    mu = _named_measure("poly", lo, hi, POLY6)
    angles = np.array([1e-3, 0.7, np.pi / 2, 2.5, np.pi - 1e-3])
    for side in (1.0 - 1e-9, 1.0 + 1e-9):
        zs = mid + rad * measures._POLY_SERIES_RADIUS * side * np.exp(1j * angles)
        for z, g in zip(zs, mu.cauchy(zs)):
            want = named_cauchy("poly", lo, hi, z, POLY6)
            assert abs(g - want) <= 1e-12 * abs(want), z


def test_closed_forms_replace_the_near_support_node_error():
    # the frozen 64-node sum is off by ~1e-2 within a node gap of the
    # support; the closed form is not
    z = 0.5 + 0.02j
    want = named_cauchy("semicircle", -2.0, 2.0, z)
    assert abs(semicircle().cauchy(z) - want) <= 1e-14
    assert abs(cauchy_transform(semicircle(), z) - want) > 1e-3


def test_measure_cauchy_sums_atoms_closed_forms_and_nodes():
    flat = DensitySegment(3.0, 4.0, lambda x: np.full_like(x, 0.25))
    mu = RealMeasure([(-3.0, 0.25)], [named_density("semicircle", -2.0, 2.0), flat])
    pos, wts = flat.nodes()
    for z in (0.3 + 0.7j, np.array([1j, 2.0 + 0.1j, -5.0 + 3.0j]),
              np.array([[1j, 3.5 + 1e-3j], [0.1 + 0.2j, 9.0 + 1.0j]])):
        want = 0.25 / (z + 3.0) + g_semicircle(z) + (wts / (np.asarray(z)[..., None] - pos)).sum(-1)
        got = mu.cauchy(z)
        assert np.shape(got) == np.shape(z)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert np.array_equal(RealMeasure().cauchy(np.array([1j, 2j])), np.zeros(2))


def test_measure_cauchy_of_atoms_is_the_node_sum():
    # atoms only: the evaluator is the plain node sum, bit for bit
    mu = RealMeasure([(-1.0, 0.25), (0.5, 0.5), (2.0, 0.25)])
    pos, wts = mu.nodes()
    zs = np.array([[1j, 0.5 + 1e-3j], [-4.0 + 2.0j, 2.0 + 1e-6j]])
    assert np.array_equal(mu.cauchy(zs), (wts / (zs[:, :, None] - pos)).sum(axis=2))
    # one atom skips the reduce over its length-1 node axis, bit for bit
    for x, w in ((0.0, 1.0), (0.3, 0.7)):
        lone = RealMeasure([(x, w)])
        assert np.array_equal(lone.cauchy(zs), (w / (zs[:, :, None] - x)).sum(axis=2))
        # the evaluator is built once per measure, and a measure of atoms still pickles
        assert np.array_equal(pickle.loads(pickle.dumps(lone)).cauchy(zs), lone.cauchy(zs))


def test_cauchy_transform_temporaries_stay_in_small_blocks():
    # 4,096 points against 64 nodes: blocks of 2^13 (point, node) pairs
    # keep each temporary at 128 KiB; one block of all 2^18 pairs took
    # two 4 MiB temporaries
    rng = np.random.default_rng(7)
    z = rng.uniform(-3.0, 3.0, 4096) + 1j * rng.uniform(0.01, 3.0, 4096)
    mu = semicircle()
    tracemalloc.start()
    cauchy_transform(mu, z)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 0.5e6


def test_node_sums_do_not_depend_on_the_block(monkeypatch):
    # no row spans two blocks, so a row's sum is the same at any block size
    rng = np.random.default_rng(13)
    z = rng.uniform(-3.0, 3.0, 3000) + 1j * 10.0 ** rng.uniform(-6.0, 1.0, 3000)
    mus = (semicircle(), arcsine(order=300), bernoulli(0.5),
           RealMeasure([], [named_density("uniform", -1.0, 2.0, 500)], mass=1.0))
    default = [(cauchy_transform(mu, z), mu.cauchy(z)) for mu in mus]
    monkeypatch.setattr(measures, "_CAUCHY_BLOCK", 64)
    for mu, (g, h) in zip(mus, default):
        assert np.array_equal(cauchy_transform(mu, z), g)
        assert np.array_equal(mu.cauchy(z), h)


def test_callable_segments_keep_node_quadrature():
    seg = semicircle().segments[0]
    bare = RealMeasure([], [DensitySegment(seg.lo, seg.hi, seg.density, seg.order, True)])
    z = np.array([0.5 + 1j, 3.0 + 0.5j])
    assert np.array_equal(bare.cauchy(z), cauchy_transform(bare, z))
    assert affine_pushforward(bare, 2.0, 1.0).segments[0].cauchy is None


def test_spacing_resamples_only_the_bare_segments():
    # given a spacing, the node sum runs over the atoms and the dense_nodes
    # resampling of the bare segments; closed forms ignore it
    flat = DensitySegment(3.0, 4.0, lambda x: np.full_like(x, 0.25))
    named = named_density("semicircle", -2.0, 2.0)
    mu = RealMeasure([(-3.0, 0.25)], [named, flat])
    z = np.array([0.5 + 1j, 3.5 + 1e-3j])
    pos, wts = RealMeasure([(-3.0, 0.25)], [flat]).dense_nodes(1e-3)
    want = (wts / (z[:, None] - pos)).sum(axis=1) + named.cauchy(z)
    assert np.array_equal(mu.cauchy(z, 1e-3), want)
    assert np.array_equal(semicircle().cauchy(z, 1e-3), semicircle().cauchy(z))
    for spacing in (0.0, -1.0, float("nan")):
        with pytest.raises(InvalidInputError):
            mu.cauchy(z, spacing)


def test_cauchy_transform_near_the_float_limit():
    # numpy's complex division overflowed |z|^2 here and gave 0; G = 1/z is
    # a representable subnormal, right to within its rounding
    z = 1e308 + 1e308j
    g = cauchy_transform(point_mass(0.0), z)
    exact = Fraction(1, 2) / Fraction(1e308)  # 1/z = (1 - i) / (2e308)
    ulp = math.ulp(0.0)
    assert abs(Fraction(g.real) - exact) <= ulp and abs(Fraction(g.imag) + exact) <= ulp
    # the scaling by a power of two leaves normal-range points bit-identical
    mu = semicircle()
    both = cauchy_transform(mu, np.array([0.5 + 1j, z, -1e308 + 1e-300j]))
    assert both[0] == cauchy_transform(mu, 0.5 + 1j)
    assert both[1] == pytest.approx(1.0 / z, rel=1e-9)
    assert both[2].real == pytest.approx(-1e-308, rel=1e-9) and both[2].imag <= 0.0
    assert reciprocal_cauchy(point_mass(0.0), z) == z
