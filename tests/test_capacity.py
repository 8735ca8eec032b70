"""Fekete diameters against closed forms and brute force, boundary traces
against known image geometry."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from chordal.capacity import (
    BoundaryCurve,
    CapacityReport,
    _proper_crossings,
    boundary_image,
    discrete_transfinite_diameter,
    hayman_report,
)
from chordal.errors import InvalidInputError
from chordal.measures import (
    RealMeasure,
    affine_pushforward,
    arcsine,
    bernoulli,
    point_mass,
    semicircle,
)


def interval_cloud(m=4096):
    theta = np.linspace(math.pi, 0.0, m)
    return (2.0 * np.cos(theta)).astype(complex)


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
    assert abs(ds[-1] - 1.080335) < 1e-5


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


def test_curve_is_frozen():
    curve = boundary_image(semicircle(), resolution=64, epsilon=4e-3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        curve.unbounded = True


def test_proper_crossings_on_synthetic_polylines():
    bowtie = np.array([-1.0, 0.0, 2.0 + 2.0j, 2.0, 2.0j])
    square = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
    assert _proper_crossings(bowtie) is True
    assert _proper_crossings(square) is False


# ---------------------------------------------------------------------------
# combined diagnostic


def test_hayman_semicircle_consistent():
    r = hayman_report(semicircle(), n=48, resolution=512)
    assert r.verdict == "consistent_with_univalence"
    assert abs(r.ratio - 1.0) <= 0.05
    assert r.n_points == 48
    assert r.d_image <= r.d_interval * 1.05


def test_hayman_arcsine_consistent():
    r = hayman_report(arcsine(), n=48, resolution=512)
    assert r.verdict == "consistent_with_univalence"
    assert abs(r.ratio - 1.0) <= 0.05


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


def test_report_is_frozen():
    r = hayman_report(semicircle(), n=8, resolution=64)
    assert isinstance(r, CapacityReport)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.verdict = "pass"
