"""Fekete diameters against closed forms and brute force, boundary traces
against known image geometry."""

import dataclasses
import itertools
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from chordal import capacity
from chordal.capacity import (
    BoundaryCurve,
    CapacityReport,
    _proper_crossings,
    _unit_interval_diameter,
    boundary_image,
    discrete_transfinite_diameter,
    hayman_report,
)
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.measures import (
    DensitySegment,
    RealMeasure,
    affine_pushforward,
    arcsine,
    bernoulli,
    named_density,
    point_mass,
    semicircle,
)


def interval_cloud(m=4096):
    theta = np.linspace(math.pi, 0.0, m)
    return (2.0 * np.cos(theta)).astype(complex)


# ---------------------------------------------------------------------------
# references: the per-segment crossing loop and the exchange that recomputes
# its row sums for every j; the fast paths must agree exactly


def reference_crossings(pts):
    p = pts[:-1]
    r = pts[1:] - p
    n = p.size

    def cross(o, d, q):
        return d.real * (q.imag - o.imag) - d.imag * (q.real - o.real)

    # strict sign tests: shared endpoints and grazing touches don't count
    for i in range(n - 2):
        js = np.arange(i + 2, n)
        if i == 0:
            js = js[js != n - 1]  # first and last share the loop gap region
        if js.size == 0:
            continue
        q0, q1 = p[js], p[js] + r[js]
        d1 = cross(p[i], r[i], q0)
        d2 = cross(p[i], r[i], q1)
        d3 = cross(q0, r[js], np.full(js.size, p[i]))
        d4 = cross(q0, r[js], np.full(js.size, p[i] + r[i]))
        hit = (d1 * d2 < 0) & (d3 * d4 < 0)
        if np.any(hit):
            return True
    return False


def reference_exchange(points, n, sweeps=20, stop=True):
    """d_n and the number of sweeps run.  A duplicate of p_sel[j] gains
    nothing in slot j; with ``stop`` the exchange ends after the first sweep
    whose accepted gains raise log d_n by less than 1e-3 * RATIO_BAND."""
    pts = np.asarray(points, dtype=complex).ravel()
    n = int(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        sel = np.empty(n, dtype=int)
        sel[0] = int(np.argmax(np.abs(pts - pts.mean())))
        score = np.log(np.abs(pts - pts[sel[0]]))
        for k in range(1, n):
            sel[k] = int(np.argmax(score))
            score = score + np.log(np.abs(pts - pts[sel[k]]))

        la = np.log(np.abs(pts[:, None] - pts[sel][None, :]))
        ran = 0
        for ran in range(1, int(sweeps) + 1):
            raised = 0.0
            swapped = False
            for j in range(n):
                chosen = pts[sel]
                others = np.abs(chosen[j] - np.delete(chosen, j))
                if np.any(others == 0.0):
                    s_j = -np.inf
                else:
                    s_j = np.log(others).sum()
                gain = la.sum(axis=1) - la[:, j] - s_j
                gain[sel] = -np.inf
                gain[np.isnan(gain)] = -np.inf
                best = int(np.argmax(gain))
                if math.isfinite(s_j) and not gain[best] > 1e-13:
                    continue
                if not math.isfinite(gain[best]):
                    continue
                sel[j] = best
                la[:, j] = np.log(np.abs(pts - pts[best]))
                raised += gain[best]
                swapped = True
            # log d_n = 2 S / (n (n - 1)) for the log pair-sum S
            if not swapped or (stop and 2.0 * raised / (n * (n - 1)) < 1e-3 * 0.05):
                break

    chosen = pts[sel]
    diff = np.abs(chosen[:, None] - chosen[None, :])
    pair = diff[np.triu_indices(n, k=1)]
    return float(np.exp(2.0 * np.log(pair).sum() / (n * (n - 1)))), ran


def reference_diameter(points, n, sweeps=20, stop=True):
    return reference_exchange(points, n, sweeps, stop)[0]


def lgl_nodes(n):
    """The n Legendre-Gauss-Lobatto nodes of [-1, 1] at 40 digits: +-1 and
    the zeros of P'_(n-1), that is of x P_(n-1) - P_(n-2), each refined by
    mpmath from numpy's estimate."""
    mpmath.mp.dps = 40
    c = np.zeros(n)
    c[-1] = 1.0
    guess = np.polynomial.legendre.legroots(np.polynomial.legendre.legder(c)) if n > 2 else []
    f = lambda x: x * mpmath.legendre(n - 1, x) - mpmath.legendre(n - 2, x)
    inner = [mpmath.findroot(f, mpmath.mpf(float(x)), verify=False) for x in guess]
    return [mpmath.mpf(-1)] + inner + [mpmath.mpf(1)]


def lgl_diameter(n, lo=-1.0, hi=1.0):
    """The geometric mean of the pairwise distances of the LGL nodes mapped
    onto [lo, hi], the exact d_n of that interval, at 40 digits."""
    mpmath.mp.dps = 40
    pts = [mpmath.mpf(lo) + (mpmath.mpf(hi) - mpmath.mpf(lo)) * (x + 1) / 2 for x in lgl_nodes(n)]
    logs = mpmath.fsum(mpmath.log(abs(p - q)) for p, q in itertools.combinations(pts, 2))
    return float(mpmath.exp(2 * logs / (n * (n - 1))))


def reference_hayman(mu, curve, n=64, resolution=2048, sweeps=20, stop=True):
    """The direct pipeline: the image diameter from its own cloud, the
    interval's from its Fekete points."""
    lo, hi = mu.support
    d_image = reference_diameter(curve.points, n, sweeps, stop)
    d_interval = lgl_diameter(n, lo, hi)
    ratio = d_image / d_interval
    broken = reference_crossings(curve.points) or curve.unbounded
    if not broken and abs(ratio - 1.0) <= 0.05:
        verdict = "consistent_with_univalence"
    elif broken or ratio < 0.9:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return ratio, d_image, d_interval, verdict


def spiral(turns, m, rng=None):
    t = np.linspace(0.0, 2.0 * math.pi * turns, m)
    z = (1.0 + t / (2.0 * math.pi)) * np.exp(1j * t)
    if rng is not None:
        z = z + 1e-3 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return z


def seeded_curves(count=300):
    """Random walks, perturbed figure-eights, roses and 5- to 60-turn
    spirals, 3 to 4,096 points long.  Lengths are log-uniform up to 1,024
    and every 25th curve is 2,048 to 4,096 long, which keeps the
    reference loop affordable."""
    rng = np.random.default_rng(20260)
    curves = []
    for k in range(count):
        top = 4096 if k % 25 == 3 else 1024
        m = int(round(math.exp(rng.uniform(math.log(3 if top == 1024 else 2048), math.log(top)))))
        m = 4096 if k == 3 else m
        kind = k % 4
        if kind == 0:
            steps = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if rng.random() < 0.5:  # a drift walk crosses itself less often
                steps += 3.0
            z = np.cumsum(steps)
        elif kind == 1:
            t0 = rng.uniform(0.0, 2.0 * math.pi)
            t = t0 + np.linspace(0.0, rng.uniform(0.5, 2.2) * math.pi, m)
            z = np.sin(t) + 1j * np.sin(t) * np.cos(t)
            z = z + rng.uniform(0.0, 0.05) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
        elif kind == 2:
            petals = int(rng.integers(2, 9))
            t = np.linspace(0.0, rng.uniform(0.3, 1.0) * 2.0 * math.pi, m)
            z = np.cos(petals * t) * np.exp(1j * t) + 0.3 * rng.uniform(0.0, 1.0)
        else:
            turns = int(rng.integers(5, 61))
            z = spiral(turns, max(m, 3), rng if rng.random() < 0.5 else None)
            if rng.random() < 0.3:  # a chord from the rim to the centre cuts every turn
                z = np.append(z, 0.0)
        curves.append(np.asarray(z, dtype=complex))
    return curves


# ---------------------------------------------------------------------------
# discrete transfinite diameter


def test_two_point_diameter_is_the_distance():
    assert discrete_transfinite_diameter([-2.0 + 0j, 2.0 + 0j], 2) == 4.0


def test_three_points_on_circle_reach_equilateral():
    # 60 samples contain an exact equilateral triangle; d_3 = sqrt(3)
    pts = np.exp(2j * np.pi * np.arange(60) / 60)
    d3 = discrete_transfinite_diameter(pts, 3)
    assert abs(d3 - math.sqrt(3.0)) < 1e-14


@pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
def test_exchange_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    cloud = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    got = discrete_transfinite_diameter(cloud, 3)
    best = max(
        (abs(p[0] - p[1]) * abs(p[0] - p[2]) * abs(p[1] - p[2])) ** (1.0 / 3.0)
        for c in itertools.combinations(range(9), 3)
        for p in (cloud[list(c)],)
    )
    assert abs(got - best) < 1e-12


def test_diameter_ladder_decreases_toward_capacity():
    cloud = interval_cloud()
    ds = [discrete_transfinite_diameter(cloud, n) for n in (2, 4, 8, 16, 32, 64)]
    assert ds[0] == 4.0
    for hi, lo in zip(ds, ds[1:]):
        assert lo <= hi + 1e-12
    # [-2, 2] has transfinite diameter 1; the 64-point estimate sits just
    # above it (log-slow convergence), frozen as a regression value
    assert 1.0 < ds[-1] < 1.1
    assert abs(ds[-1] - 1.080254) < 1e-5


def test_euclidean_invariance_and_scaling():
    rng = np.random.default_rng(5)
    base = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    d0 = discrete_transfinite_diameter(base, 6)
    assert discrete_transfinite_diameter(base + (3.0 - 2.0j), 6) == d0
    assert discrete_transfinite_diameter(base * np.exp(0.7j), 6) == d0
    assert abs(discrete_transfinite_diameter(base * -2.5, 6) - 2.5 * d0) < 1e-12


def test_diameter_validation():
    cloud = interval_cloud(32)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, 1)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, 33)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, 4, sweeps=-1)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter([1 + 1j, 1 + 1j, 1 + 1j], 2)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, 2.5)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, 4, sweeps=2.7)
    with pytest.raises(InvalidInputError):
        discrete_transfinite_diameter(cloud, float("nan"))
    # an inf returned nan, and a nan was refused as a repeated point
    for bad in (math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="^sample cloud must be finite$"):
            discrete_transfinite_diameter([0, 1, bad, 2j, 3], 3)
    # integral values of any numeric type are fine
    d = discrete_transfinite_diameter(cloud, 4)
    assert discrete_transfinite_diameter(cloud, 4.0, sweeps=np.int64(20)) == d


def test_diameter_refuses_a_table_past_2_24_entries_before_making_it():
    # 8192 points at n = 4097 ask for a table of 2^25 + 2^13 entries (268 MB);
    # only hayman_report checked the cap, so a direct call went on to fill it
    cloud = np.arange(8192) * 1j
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError, match=r"^n \* len\(points\) exceeds 2\^24, "
                                                    r"the size of the exchange table$"):
            discrete_transfinite_diameter(cloud, 4097)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 2^20 copies of one point at n = 16 fit the cap; the repeats were found
    # only after the seed had filled the 2^24-entry table (168 MB traced)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidInputError,
                           match="^sample cloud has fewer than n distinct points$"):
            discrete_transfinite_diameter(np.zeros(1 << 20), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 26


@pytest.mark.parametrize("seed", range(8))
def test_exchange_matches_the_reference_exactly(seed):
    rng = np.random.default_rng(100 + seed)
    m = int(rng.integers(20, 400))
    cloud = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    n = int(rng.integers(2, min(m, 40)))
    assert discrete_transfinite_diameter(cloud, n) == reference_diameter(cloud, n)
    assert discrete_transfinite_diameter(cloud, n, 3) == reference_diameter(cloud, n, 3)


def test_exchange_matches_the_reference_on_the_interval_cloud():
    cloud = interval_cloud(4096)
    assert discrete_transfinite_diameter(cloud, 64) == reference_diameter(cloud, 64)


@pytest.mark.parametrize("seed", range(12))
def test_exchange_matches_the_reference_on_duplicate_heavy_clouds(seed):
    # a closed curve sampled at random points and rounded to a coarse
    # lattice repeats many of them; the exchange drops the repeats and
    # still swaps as the reference does over the full cloud
    rng = np.random.default_rng(300 + seed)
    m = int(rng.integers(100, 500))
    k = np.arange(-3, 4)
    c = (rng.standard_normal(7) + 1j * rng.standard_normal(7)) / (1.0 + np.abs(k)) ** 2
    c[4] += 2.0
    curve = np.exp(1j * np.outer(rng.uniform(0.0, 2.0 * math.pi, m), k)) @ c
    cloud = 0.05 * np.round(curve / 0.05)
    distinct = np.unique(cloud).size
    assert distinct < m
    for n in (2, int(rng.integers(3, min(distinct, 64) + 1)), distinct):
        assert discrete_transfinite_diameter(cloud, n) == reference_diameter(cloud, n)
        assert discrete_transfinite_diameter(cloud, n, 3) == reference_diameter(cloud, n, 3)


def test_a_duplicated_cloud_keeps_its_diameter():
    # a point with an exact twin in the cloud read a gain of -inf - (-inf) =
    # nan for its own slot, np.argmax returned it and the slot never swapped:
    # listed twice, the cloud gave 1.0781100027194743, its seed value
    cloud = interval_cloud(4096)
    once = discrete_transfinite_diameter(cloud, 64)
    assert once == discrete_transfinite_diameter(np.concatenate([cloud, cloud]), 64)
    assert once == reference_diameter(np.concatenate([cloud, cloud]), 64) == 1.080253672435402


def test_fekete_seed_fills_the_exchange_table():
    # the (64, 4096) table of logs is 2.1 MB; rebuilding it after the seed
    # from a complex difference array peaked at 6.3 MB.  The arcsine trace
    # swaps 148 times, each swap updating the totals in place
    for mu in (semicircle(), arcsine()):
        pts = boundary_image(mu, resolution=2048, epsilon=4e-3).points
        tracemalloc.start()
        discrete_transfinite_diameter(pts, 64)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 3.5e6


# ---------------------------------------------------------------------------
# the exact unit-interval diameter


@pytest.mark.parametrize("lo,hi", [(-2.0, 2.0), (-1.0, 1.0), (-1.2, 1.8), (-0.5, 0.5),
                                   (3.0, 1e3), (-1e-3, 2e-3)])
def test_scaled_unit_diameter_matches_the_direct_value(lo, hi):
    # the scaled d_n of [-1, 1] against the LGL nodes mapped onto [lo, hi]
    scaled = 0.5 * (hi - lo) * _unit_interval_diameter(64)
    assert scaled == pytest.approx(lgl_diameter(64, lo, hi), rel=1e-14)


def test_unit_interval_diameter_matches_the_lgl_product():
    for n in (2, 3, 4, 5, 8, 17, 64, 129):
        assert _unit_interval_diameter(n) == pytest.approx(lgl_diameter(n), rel=1e-14), n
    assert _unit_interval_diameter(2) == 2.0
    # the Fekete points maximise the product, so no exchange over a cloud
    # reaches it: over the 4096 Chebyshev points of the default resolution,
    # the interval side before, it came out 7.6e-5 (relative) below, once
    # the exchange stops as log d_n settles
    exact = _unit_interval_diameter(64)
    assert abs(exact - 0.540167993716489) <= 1e-15
    below = 1.0 - discrete_transfinite_diameter(interval_cloud(4096) / 2.0, 64) / exact
    assert 7.5e-5 < below < 7.75e-5
    # O(n): the largest n hayman admits, above the capacity 1/2
    t0 = time.perf_counter()
    assert 0.5 < _unit_interval_diameter(4096) < _unit_interval_diameter(64)
    assert time.perf_counter() - t0 < 0.05


@pytest.mark.parametrize("name, stopped, unstopped", [("semi", 1, 7), ("arcsine", 3, 14),
                                                      ("b1", 2, 7)])
def test_the_exchange_stops_once_log_d_n_settles(library_traces, name, stopped, unstopped):
    # run until a sweep swaps nothing, each sweep after the stop raised
    # log d_n by less than 5e-5
    _, curve = library_traces[name]
    assert reference_exchange(curve.points, 64)[1] == stopped
    assert reference_exchange(curve.points, 64, stop=False)[1] == unstopped


@pytest.mark.parametrize("name", ["semi", "arcsine", "b1"])
def test_the_stopped_ratio_matches_twenty_unstopped_sweeps(library_traces, name):
    mu, _ = library_traces[name]
    r = hayman_report(mu)
    ratio, _, _, verdict = reference_hayman(mu, r.curve, stop=False)
    # relative: bernoulli(1)'s ratio is 240 and moves by 1.5e-3
    assert r.ratio == pytest.approx(ratio, rel=1e-3)
    assert r.verdict == verdict


@pytest.mark.parametrize("name", ["semi", "arcsine", "b1"])
def test_hayman_matches_the_reference_pipeline(library_traces, name):
    mu, _ = library_traces[name]
    r = hayman_report(mu)
    ratio, d_image, d_interval, verdict = reference_hayman(mu, r.curve)
    assert (r.d_image, r.verdict) == (d_image, verdict)
    assert r.d_interval == pytest.approx(d_interval, rel=1e-14)
    assert r.ratio == pytest.approx(ratio, rel=1e-14)


# ---------------------------------------------------------------------------
# boundary tracing


def test_semicircle_trace_hugs_the_unit_circle():
    curve = boundary_image(semicircle(), resolution=512, epsilon=4e-3)
    assert curve.points.size == 1024
    assert not curve.self_intersects and not curve.unbounded
    radii = np.abs(curve.points)
    assert radii.min() > 1.0 and radii.max() < 1.05


def test_trace_is_conjugate_symmetric_and_nearly_closed():
    eps = 4e-3
    curve = boundary_image(semicircle(), resolution=512, epsilon=eps)
    top, back = curve.points[:512], curve.points[512:]
    assert np.array_equal(back, np.conj(top)[::-1])
    # sqrt branch point at the support edge: the closure gap scales like
    # sqrt(eps), not eps
    gap = abs(curve.points[0] - curve.points[-1])
    assert gap <= 2.0 * math.sqrt(eps * 4.0)


def test_pole_on_support_reads_as_unbounded():
    curve = boundary_image(bernoulli(1.0), resolution=512, epsilon=2e-3)
    assert curve.unbounded and not curve.self_intersects
    assert np.abs(curve.points).max() > 20.0


def test_arcsine_trace_is_simple():
    # image is a vertical slit traced twice just off itself; the two passes
    # must not register as proper crossings
    curve = boundary_image(arcsine(), resolution=512, epsilon=4e-3)
    assert not curve.self_intersects and not curve.unbounded


def _f_semicircle(z):
    return (z + mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2)) / 2


def _f_arcsine(z):
    return mpmath.sqrt(z - 2) * mpmath.sqrt(z + 2)


def _f_uniform(z):
    return 2 / mpmath.log((z + 1) / (z - 1))


def _uniform():
    return RealMeasure([], [named_density("uniform", -1.0, 1.0)], mass=1.0)


def _bare_semicircle():
    # the semicircle density with no closed form attached
    seg = semicircle().segments[0]
    return RealMeasure([], [DensitySegment(seg.lo, seg.hi, seg.density, seg.order, True)],
                       mass=1.0)


def _trace_error(mu, f, scale=1.0, shift=0.0, resolution=512):
    # largest relative gap between the trace at epsilon = 1e-3 * width and
    # the closed-form F of mu, the pushforward by x -> scale*x + shift of
    # the measure whose F is f
    lo, hi = mu.support
    eps = 1e-3 * (hi - lo)
    top = boundary_image(mu, resolution=resolution, epsilon=eps).points[:resolution]
    theta = np.linspace(math.pi, 0.0, resolution)
    z = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta) + 1j * eps
    with mpmath.workdps(30):
        want = np.array([complex(scale * f((mpmath.mpc(w) - shift) / scale)) for w in z])
    return np.max(np.abs(top - want) / np.abs(want))


@pytest.mark.parametrize("build, f", [
    (semicircle, _f_semicircle), (arcsine, _f_arcsine), (_uniform, _f_uniform),
], ids=["semicircle", "arcsine", "uniform"])
@pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.5, 1.0)], ids=["plain", "pushed"])
def test_trace_is_the_closed_form_reciprocal_transform(build, f, scale, shift):
    # the trace takes G from the exact transforms; a node cloud at spacing
    # epsilon/4 misses these by 2.4e-11 (semicircle, arcsine) and 3.7e-4
    # (uniform)
    mu = affine_pushforward(build(), scale, shift) if scale != 1.0 else build()
    assert _trace_error(mu, f, scale, shift) <= 1e-13


def test_trace_resamples_bare_callable_segments():
    # a semicircle without its closed form is summed over the midpoint
    # resampling at epsilon/4; its frozen 64-node rule is off by ~10x there
    mu = _bare_semicircle()
    assert _trace_error(mu, _f_semicircle) <= 1e-10
    z = 2.0 * np.cos(np.linspace(math.pi, 0.0, 512)) + 4e-3j
    frozen = 1.0 / mu.cauchy(z)
    assert np.max(np.abs(frozen - boundary_image(mu, 512, 4e-3).points[:512])) > 1.0


def test_resampling_checks_the_density_like_the_frozen_rule():
    # sin(2x)/x is 0/0 at x = 0: no Gauss node lands there, but the trace at
    # height 2e-3 resamples at spacing 5e-4, and its middle node does
    si2 = float(mpmath.si(2))
    seg = DensitySegment(-1.0, 1.0, lambda x: np.sin(2.0 * x) / (2.0 * si2 * x), 64)
    mu = RealMeasure([], [seg], mass=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: hayman_report(mu, epsilon=2e-3), lambda: mu.dense_nodes(5e-4)):
            with pytest.raises(InvalidInputError, match="finite and nonnegative"):
                call()


def test_boundary_image_validation():
    with pytest.raises(InvalidInputError):
        boundary_image("semicircle")
    with pytest.raises(InvalidInputError):
        boundary_image(point_mass(0.0))
    with pytest.raises(InvalidInputError):
        boundary_image(semicircle(), epsilon=0.5)
    with pytest.raises(InvalidInputError):
        boundary_image(semicircle(), epsilon=0.0)
    with pytest.raises(InvalidInputError):
        boundary_image(semicircle(), resolution=7)


def test_epsilon_too_small_to_resample_is_named():
    # epsilon/4 underflows to 0 at the smallest subnormal: a bare density
    # callable cannot be resampled, and the refusal named a "spacing" the
    # caller never passed; a closed-form transform needs no spacing
    with pytest.raises(InvalidInputError, match="^epsilon is too small"):
        boundary_image(_bare_semicircle(), resolution=64, epsilon=5e-324)
    assert boundary_image(semicircle(), resolution=64, epsilon=5e-324).points.size == 128


def test_curve_is_frozen():
    curve = boundary_image(semicircle(), resolution=64, epsilon=4e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        curve.unbounded = True


def test_proper_crossings_on_synthetic_polylines():
    bowtie = np.array([-1.0, 0.0, 2.0 + 2.0j, 2.0, 2.0j])
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    assert _proper_crossings(bowtie) is True
    assert _proper_crossings(square) is False


def test_crossings_match_the_reference_loop_on_seeded_curves():
    curves = seeded_curves()
    assert len(curves) >= 300
    assert min(c.size for c in curves) == 3 and max(c.size for c in curves) == 4096
    got = [_proper_crossings(c) for c in curves]
    want = [reference_crossings(c) for c in curves]
    assert got == want
    # both answers occur
    assert 0.2 < sum(want) / len(want) < 0.8


def test_crossings_are_independent_of_a_power_of_two_scale():
    # coordinates near 1e300 overflowed the sign tests' products, with
    # RuntimeWarnings, and coordinates near 1e-300 underflowed them to 0:
    # either read as no crossing
    curves = seeded_curves(40)
    want = [_proper_crossings(c) for c in curves]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (-1000, 800, 1000):
            assert [_proper_crossings(c * 2.0 ** k) for c in curves] == want


@pytest.mark.parametrize("batch", [1 << 6, 1 << 9])
def test_crossings_are_independent_of_the_batch_size(monkeypatch, batch):
    # small batches split the live set into parts and the lags into blocks
    curves = seeded_curves(40)
    want = [_proper_crossings(c) for c in curves]
    monkeypatch.setattr(capacity, "_PAIR_BATCH", batch)
    assert [_proper_crossings(c) for c in curves] == want


@pytest.mark.parametrize("batch", [1, 3])
def test_short_walks_match_the_reference_lag_by_lag(monkeypatch, batch):
    # walks of 4 to 12 points cross once or twice, if at all, so a segment
    # dropped from the sweep one lag early loses the verdict
    rng = np.random.default_rng(8)
    curves = [np.cumsum(rng.standard_normal(m) + 1j * rng.standard_normal(m))
              for m in rng.integers(4, 13, 1000)]
    want = [reference_crossings(c) for c in curves]
    monkeypatch.setattr(capacity, "_PAIR_BATCH", batch)
    assert [_proper_crossings(c) for c in curves] == want
    assert 0.3 < sum(want) / len(want) < 0.7


@pytest.mark.parametrize("length", [47, 48, 49])
def test_crossings_at_chunk_boundaries(length):
    # a comb: `length` unit segments along the axis, then one vertical
    # stroke through segment c (a crossing) or ending on it (a touch); the
    # stroke's own index walks across a chunk boundary with `pad`
    base = np.arange(length + 1, dtype=complex)
    for c in (0, 1, 6, 7, 8, 9, 15, 16, 17, length - 1):
        for pad in range(9):
            back = np.linspace(length + 1j, c + 0.5 + 1j, pad + 2)
            through = np.concatenate([base, back, [c + 0.5 - 1j]])
            touch = np.concatenate([base, back, [c + 0.5 + 0j]])
            # the first/last segment pair is exempt: it closes the loop gap
            assert _proper_crossings(through) is reference_crossings(through) is (c > 0)
            assert _proper_crossings(touch) is reference_crossings(touch) is False


def test_crossings_ignore_nan_segments_like_the_reference():
    rng = np.random.default_rng(4)
    z = np.cumsum(rng.standard_normal(300) + 1j * rng.standard_normal(300))
    for at in (0, 7, 8, 9, 150, 299):
        w = z.copy()
        w[at] = complex(np.nan, np.nan)
        assert _proper_crossings(w) is reference_crossings(w)


@pytest.fixture(scope="module")
def library_traces():
    mus = {"semi": semicircle(), "arcsine": arcsine(), "b1": bernoulli(1.0),
           "b05": bernoulli(0.5)}
    return {name: (mu, boundary_image(mu, epsilon=1e-3 * (mu.support[1] - mu.support[0])))
            for name, mu in mus.items()}


def test_crossings_match_the_reference_on_library_traces(library_traces):
    for name, (_, curve) in library_traces.items():
        assert _proper_crossings(curve.points) is reference_crossings(curve.points), name


def test_spiral_crossings_are_fast_and_bounded():
    z = spiral(60, 4096)
    start = time.perf_counter()
    want = reference_crossings(z)
    loop_s = time.perf_counter() - start
    tracemalloc.start()
    start = time.perf_counter()
    got = _proper_crossings(z)
    fast_s = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert got is want is False
    assert fast_s <= loop_s
    # 2**18 segment pairs a batch: a few tens of MB, not the ~450 MB of an
    # unbatched candidate list
    assert peak < 64e6


def test_crossings_of_a_fine_trace_are_fast():
    # 262,143 segments: the sweep meets each segment's few x-neighbours,
    # where comparing all pairs of chunk boxes took 4.5 to 10 s
    curve = boundary_image(semicircle(), resolution=131072, epsilon=4e-3)
    start = time.perf_counter()
    assert _proper_crossings(curve.points) is False
    assert time.perf_counter() - start < 3.0


# ---------------------------------------------------------------------------
# combined diagnostic


def _poly():
    return RealMeasure([], [named_density("poly:0.75,0,-0.75", -1.0, 1.0)], mass=1.0)


@pytest.mark.parametrize("build", [semicircle, arcsine, _uniform, _poly],
                         ids=["semicircle", "arcsine", "uniform", "poly"])
def test_hayman_consistent(build):
    r = hayman_report(build(), n=48, resolution=512)
    assert r.verdict == "consistent_with_univalence"
    assert abs(r.ratio - 1.0) <= 0.05
    assert r.n_points == 48
    assert r.d_image <= r.d_interval * 1.05


def test_hayman_atom_pair_inconsistent():
    r = hayman_report(bernoulli(1.0), n=48, resolution=512)
    assert r.verdict == "inconsistent"


def test_hayman_ratio_is_scale_free():
    # dilation rescales both diameters by the same factor
    r1 = hayman_report(semicircle(), n=48, resolution=512)
    r2 = hayman_report(affine_pushforward(semicircle(), 0.6, 0.0), n=48, resolution=512)
    assert abs(r2.ratio - r1.ratio) < 1e-9
    assert abs(r2.d_image - 0.6 * r1.d_image) < 1e-9


def test_hayman_validation():
    with pytest.raises(InvalidInputError):
        hayman_report(point_mass(0.0))
    with pytest.raises(InvalidInputError):
        hayman_report([1, 2, 3])
    with pytest.raises(InvalidInputError):
        hayman_report(RealMeasure())


def test_hayman_refuses_a_trace_that_is_not_finite():
    # G overflows on the atoms at a subnormal height; d_image read NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergenceError, match="^boundary trace is not finite"):
            hayman_report(bernoulli(1.0), epsilon=1e-310)


@pytest.mark.parametrize("kw", [
    {"n": 2.5}, {"n": 1}, {"n": 129}, {"n": float("inf")}, {"n": "8"},
    {"sweeps": 2.7}, {"sweeps": -1}, {"resolution": 64.7},
    {"n": 8, "resolution": 2**20 + 1},  # 2*resolution*n = 2^24 + 16
])
def test_hayman_rejects_bad_counts_before_tracing(monkeypatch, kw):
    def no_trace(*args, **kwargs):
        raise AssertionError("traced before validating")

    monkeypatch.setattr(capacity, "boundary_image", no_trace)
    with pytest.raises(InvalidInputError):
        hayman_report(semicircle(), **{"resolution": 64, **kw})


def test_hayman_exchange_table_of_2_to_the_24_reaches_the_trace(monkeypatch):
    def no_trace(*args, **kwargs):
        raise AssertionError("traced")

    monkeypatch.setattr(capacity, "boundary_image", no_trace)
    with pytest.raises(AssertionError, match="traced"):
        hayman_report(semicircle(), n=8, resolution=2**20)
    with pytest.raises(AssertionError, match="traced"):
        hayman_report(semicircle(), n=4096)  # the largest n at the default resolution


def test_boundary_image_needs_a_probability_measure():
    with pytest.raises(InvalidInputError, match="^mu must be a probability measure$"):
        boundary_image(RealMeasure([(-1.0, 0.5), (1.0, 0.25)]))


@pytest.mark.parametrize("trace", [boundary_image, hayman_report])
def test_support_wider_than_the_float_range_is_refused(trace):
    # the width 2e308 overflowed: hayman_report gave d_image NaN and
    # d_interval inf at an epsilon of 1
    far = bernoulli(1e308)
    with pytest.raises(InvalidInputError, match="^support width hi - lo overflows$"):
        trace(far, epsilon=1.0)


def test_boundary_image_rejects_fractional_resolution():
    with pytest.raises(InvalidInputError):
        boundary_image(semicircle(), resolution=64.7)
    assert boundary_image(semicircle(), resolution=64.0).points.size == 128


def test_hayman_accepts_integral_counts():
    r = hayman_report(semicircle(), n=8.0, resolution=64, sweeps=np.int64(20))
    assert r.n_points == 8 and type(r.n_points) is int
    assert r == hayman_report(semicircle(), n=8, resolution=64)


def test_report_is_frozen():
    r = hayman_report(semicircle(), n=8, resolution=64)
    assert isinstance(r, CapacityReport)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.verdict = "pass"
