"""Transition-map solver against closed forms, an independent RK4
integrator, and the package's own certified error bounds."""

import math
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import chordal.loewner as loewner
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.loewner import (
    DriverFamily,
    SolverConfig,
    TransitionMap,
    driver_from_dict,
    driver_measure_at,
    evaluate_map,
    hydrodynamic_parameter,
    semigroup_defect,
    solve_transition,
    transition_grid,
    univalence_probe,
)
from chordal.measures import (
    DensitySegment, RealMeasure, affine_pushforward, arcsine, bernoulli, measure_from_dict,
    named_density, point_mass, semicircle,
)
from chordal.numerics import cheb_grid

from oracles import (
    arcsine_transition,
    moving_atom_transition,
    rk4_constant_flow,
    rk4_transition,
    semicircle_transition,
    shifted_slit_map,
    slit_map,
)

DELTA0 = DriverFamily.constant(point_mass(0.0), horizon=4.0)
LINEAR_ATOM = [(0.0, 0.0), (4.0, 2.0)]
SEAMED_ATOM = [(0.0, 0.0), (1.0, 1.0), (2.0, -0.5), (4.0, 0.5)]


def small_grid():
    re = np.linspace(-3.0, 3.0, 7)
    im = np.linspace(0.3, 4.0, 5)
    return (re[:, None] + 1j * im[None, :]).ravel()


def acceptance_grid():
    re = np.linspace(-4.0, 4.0, 20)
    im = np.linspace(0.2, 4.0, 10)
    return (re[:, None] + 1j * im[None, :]).ravel()


# ---------------------------------------------------------------------------
# configuration and drivers


def test_solver_config_validation():
    cfg = SolverConfig()
    assert cfg.tol == 1e-9 and cfg.min_imag == 10.0 * math.sqrt(1e-9)
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=1e-15)
    with pytest.raises(InvalidInputError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(InvalidInputError):
        SolverConfig(max_step=0.0)
    with pytest.raises(InvalidInputError):
        SolverConfig(contraction_margin=0.6)
    with pytest.raises(InvalidInputError):
        SolverConfig(contraction_margin=0.0)


def test_driver_family_is_immutable():
    with pytest.raises(AttributeError):
        DELTA0.horizon = 1.0
    atom = DriverFamily.moving_atom([(0.0, 0.0), (1.0, 1.0)])
    for fam in (DELTA0, atom):
        assert isinstance(fam, DriverFamily)
        with pytest.raises(AttributeError):
            fam.kind = "moving_atom"
    assert (DELTA0.kind, atom.kind) == ("piecewise_constant", "moving_atom")


def test_piecewise_constant_validation():
    mu = point_mass(0.0)
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.5, 1.0], [mu, mu])
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.0, 1.0, 1.0], [mu, mu, mu])
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.0, 1.0], [mu])
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.0], [RealMeasure(atoms=[(0.0, 0.5)])])
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.0, 1.0], [mu, mu], horizon=0.5)
    with pytest.raises(InvalidInputError):
        DriverFamily.piecewise_constant([0.0], [0.0])


def test_moving_atom_validation():
    with pytest.raises(InvalidInputError):
        DriverFamily.moving_atom([(0.0, 0.0)])
    with pytest.raises(InvalidInputError):
        DriverFamily.moving_atom([(0.5, 0.0), (1.0, 1.0)])
    with pytest.raises(InvalidInputError):
        DriverFamily.moving_atom([(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(InvalidInputError):
        DriverFamily.moving_atom([(0.0, 0.0), (1.0, 1.0)], horizon=2.0)
    fam = DriverFamily.moving_atom([(0.0, 0.0), (1.0, 1.0), (2.0, 0.5)])
    assert fam.horizon == 2.0 and fam.support_bound == 1.0


def test_support_bound_is_the_support_hull():
    # not the outermost quadrature node (1.9999988... for the semicircle)
    assert DriverFamily.constant(semicircle()).support_bound == 2.0
    fam = DriverFamily.piecewise_constant(
        [0.0, 1.0, 2.0], [arcsine(radius=1.5, center=0.75), point_mass(-2.5), bernoulli(1.0)])
    assert fam.support_bound == 2.5
    assert DriverFamily.constant(arcsine(radius=1.5, center=0.75)).support_bound == 2.25


def test_measure_at_is_right_continuous():
    fam = DriverFamily.piecewise_constant(
        [0.0, 1.0], [point_mass(0.0), point_mass(1.0)], horizon=2.0)
    assert fam.measure_at(0.999).atoms == ((0.0, 1.0),)
    assert fam.measure_at(1.0).atoms == ((1.0, 1.0),)
    assert driver_measure_at(fam, 2.0).atoms == ((1.0, 1.0),)
    with pytest.raises(InvalidInputError):
        fam.measure_at(2.5)
    with pytest.raises(InvalidInputError):
        fam.measure_at(-0.1)


def test_measure_at_interpolates_the_atom():
    fam = DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)])
    assert fam.measure_at(1.0).atoms == ((0.5, 1.0),)


def test_driver_from_dict_forms():
    wrapped = driver_from_dict({
        "horizon": 3.0,
        "driver": {
            "type": "piecewise_constant",
            "breaks": [0.0, 1.0],
            "measures": [{"atoms": [[0.0, 1.0]]}, {"atoms": [[1.0, 1.0]]}],
        },
    })
    assert wrapped.horizon == 3.0 and wrapped.kind == "piecewise_constant"
    bare = driver_from_dict({
        "type": "moving_atom",
        "samples": [[0.0, 0.0], [2.0, 2.0]],
    })
    assert bare.kind == "moving_atom" and bare.horizon == 2.0
    with pytest.raises(InvalidInputError):
        driver_from_dict({"type": "brownian"})
    with pytest.raises(InvalidInputError):
        driver_from_dict({"type": "moving_atom"})
    with pytest.raises(InvalidInputError):
        driver_from_dict([1, 2])
    with pytest.raises(InvalidInputError):
        driver_from_dict({"horizon": 1.0})
    with pytest.raises(InvalidInputError,
                       match="^piecewise_constant driver needs 'breaks' and 'measures'$"):
        driver_from_dict({"type": "piecewise_constant", "measures": [{"atoms": [[0.0, 1.0]]}]})


# ---------------------------------------------------------------------------
# closed-form oracles


def test_identity_at_equal_times():
    zs = small_grid()
    vals, errs = transition_grid(DELTA0, 1.0, 1.0, zs)
    assert np.array_equal(vals, zs)
    assert np.all(errs == 0.0)


def test_slit_oracle_pointwise():
    # B(0, 1; i) = i sqrt(3)
    got = solve_transition(DELTA0, 0.0, 1.0, 1j)
    assert abs(got - 1j * math.sqrt(3.0)) < 1e-9


def test_shifted_slit_oracle_pointwise():
    # delta_1 driver, a=0, b=0.5, z=1+i: 1 + sqrt((1+i-1)^2 - 1) = 1 + i sqrt(2)
    fam = DriverFamily.constant(point_mass(1.0), horizon=1.0)
    got = solve_transition(fam, 0.0, 0.5, 1.0 + 1.0j)
    assert abs(got - (1.0 + 1j * math.sqrt(2.0))) < 1e-9


def test_slit_oracle_grid():
    zs = small_grid()
    for t in (0.25, 1.0, 2.5):
        vals, errs = transition_grid(DELTA0, 0.0, t, zs)
        diff = np.abs(vals - slit_map(t, zs))
        assert diff.max() < 1e-8
        # the certificate must cover the actual error
        assert np.all(diff <= errs + 1e-12)


def test_translation_equivariance():
    c = 0.75
    fam = DriverFamily.constant(point_mass(c), horizon=4.0)
    zs = small_grid()
    vals, errs = transition_grid(fam, 0.0, 2.0, zs)
    diff = np.abs(vals - shifted_slit_map(2.0, zs, c))
    assert diff.max() < 1e-8
    assert np.all(diff <= errs + 1e-12)


def test_interior_start_matches_slit():
    # B(a, b) under delta_0 is the slit map of duration b - a
    zs = small_grid()
    vals, _ = transition_grid(DELTA0, 0.7, 1.9, zs)
    assert np.abs(vals - slit_map(1.2, zs)).max() < 1e-8


def test_piecewise_composite_closed_form():
    fam = DriverFamily.piecewise_constant(
        [0.0, 1.0], [point_mass(0.0), point_mass(1.0)], horizon=2.0)
    zs = small_grid()
    vals, errs = transition_grid(fam, 0.0, 2.0, zs)
    want = slit_map(1.0, shifted_slit_map(1.0, zs, 1.0))
    diff = np.abs(vals - want)
    assert diff.max() < 1e-8
    assert np.all(diff <= errs + 1e-12)


THREE_ATOMS = DriverFamily.piecewise_constant(
    [0.0, 0.5, 1.25], [point_mass(0.0), point_mass(0.75), point_mass(-0.5)], horizon=2.0)


def three_atoms_map(a, b, zs):
    # B(a, b) = B(a, k1) o B(k1, k2) o ... o B(km, b): the latest piece first
    w = zs
    for lo, hi, c in ((1.25, 2.0, -0.5), (0.5, 1.25, 0.75), (0.0, 0.5, 0.0)):
        d = min(hi, b) - max(lo, a)
        if d > 0:
            w = shifted_slit_map(d, w, c)
    return w


def test_lanes_starting_and_ending_on_knots():
    # lanes start and end on knots and between them, on one piece or
    # across all three, in one batch
    pairs = np.array([(a, b) for a in (0.0, 0.5, 0.8, 1.25) for b in (0.5, 1.25, 2.0) if a <= b])
    zs = acceptance_grid()
    a, b = pairs[:, :1], pairs[:, 1:]
    vals, errs = transition_grid(THREE_ATOMS, a, b, zs[None, :])
    assert vals.shape == (pairs.shape[0], zs.size)
    want = np.array([three_atoms_map(ai, bi, zs) for ai, bi in pairs])
    assert np.all(np.abs(vals - want) <= errs)
    assert errs.max() <= SolverConfig().tol


def test_constant_moving_atom_matches_shifted_slit():
    fam = DriverFamily.moving_atom([(0.0, 0.5), (2.0, 0.5)])
    zs = small_grid()
    vals, errs = transition_grid(fam, 0.0, 1.5, zs)
    diff = np.abs(vals - shifted_slit_map(1.5, zs, 0.5))
    assert diff.max() < 1e-8
    assert np.all(diff <= errs + 1e-12)


def test_moving_atom_against_rk4():
    fam = DriverFamily.moving_atom([(0.0, 0.0), (2.0, 2.0)])
    for z in (1j, -1.0 + 0.5j, 2.0 + 2.0j):
        got = solve_transition(fam, 0.0, 2.0, z)
        ref = rk4_transition(lambda s: s, 0.0, 2.0, z, steps=6000)
        assert abs(got - ref) < 1e-8


def test_kinked_atom_against_rk4():
    samples = [(0.0, 0.0), (0.5, 0.75), (1.5, -0.25), (2.0, 0.5)]
    fam = DriverFamily.moving_atom(samples)
    u = lambda s: float(np.interp(s, [p[0] for p in samples], [p[1] for p in samples]))
    for z in (0.5 + 1.0j, -2.0 + 0.8j):
        got = solve_transition(fam, 0.25, 1.75, z)
        # integrate each linear piece separately so RK4 keeps its order
        ref = rk4_transition(u, 1.5, 1.75, z, steps=1500)
        ref = rk4_transition(u, 0.5, 1.5, ref, steps=4000)
        ref = rk4_transition(u, 0.25, 0.5, ref, steps=1500)
        assert abs(got - ref) < 1e-8


def test_linear_driving_oracle_matches_rk4():
    u = lambda s: 0.5 * s
    for z in (1j, -1.0 + 0.5j, 3.0 + 0.2j, -4.0 + 4.0j):
        ref = rk4_transition(u, 0.0, 2.0, z, steps=8000)
        assert abs(moving_atom_transition(LINEAR_ATOM, 0.0, 2.0, z) - ref) < 1e-12


def test_linear_atom_grid_within_bound():
    zs = acceptance_grid()
    vals, errs = transition_grid(DriverFamily.moving_atom(LINEAR_ATOM), 0.0, 2.0, zs)
    ref = np.array([moving_atom_transition(LINEAR_ATOM, 0.0, 2.0, z) for z in zs])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= SolverConfig().tol


def test_seamed_atom_between_sample_times():
    # both ends sit exactly on samples, so every substep meets a seam or an
    # end of the path; the driver's affine pieces must match on both sides
    fam = DriverFamily.moving_atom(SEAMED_ATOM)
    zs = small_grid()
    for a, b in ((1.0, 2.0), (1.0, 4.0)):
        vals, errs = transition_grid(fam, a, b, zs)
        ref = np.array([moving_atom_transition(SEAMED_ATOM, a, b, z) for z in zs])
        assert np.all(np.abs(vals - ref) <= errs)


# slope 20 between t = 0 and 1: the old Simpson doubling stopped when two
# levels agreed and missed by up to 2.7e-7 on 23 of these lanes
STEEP_ATOM = [(0.0, 0.0), (0.5, 10.0), (1.0, 0.0), (4.0, 3.0)]


def test_steep_atom_grid_within_bound():
    zs = acceptance_grid()
    vals, errs = transition_grid(DriverFamily.moving_atom(STEEP_ATOM), 0.0, 1.0, zs)
    ref = np.array([moving_atom_transition(STEEP_ATOM, 0.0, 1.0, z) for z in zs])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= SolverConfig().tol


# a jump of height 1 within 1e-300, then a standing atom at 1
JUMP_ATOM = [(0.0, 0.0), (1e-300, 1.0), (1.0, 1.0)]
# a ramp of height 1 within 1e-6 between flat pieces
RAMP_ATOM = [(0.0, 0.0), (1.0, 0.0), (1.0 + 1e-6, 1.0), (2.0, 1.0)]


def test_atom_jump_answers_the_shifted_slit_map():
    # substeps on the jump follow its height, not its slope of 1e300, and
    # it is shorter than the substep floor, which must not refuse it
    zs = acceptance_grid()
    vals, errs = transition_grid(DriverFamily.moving_atom(JUMP_ATOM), 0.0, 1.0, zs)
    assert np.all(np.abs(vals - shifted_slit_map(1.0, zs, 1.0)) <= errs)
    assert errs.max() <= SolverConfig().tol


@pytest.mark.parametrize("a, b", [(0.0, 2.0), (0.5, 1.5), (1.0 + 5e-7, 2.0)])
def test_short_steep_ramp_within_bound(a, b):
    zs = acceptance_grid()
    vals, errs = transition_grid(DriverFamily.moving_atom(RAMP_ATOM), a, b, zs)
    ref = np.array([moving_atom_transition(RAMP_ATOM, a, b, z) for z in zs])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= SolverConfig().tol


def test_flat_piece_pays_for_its_own_slope_only(monkeypatch):
    # on [0.2, 2] the slope-100 path has one piece of slope 3/3.8; it takes
    # no more substeps than a one-piece path of that slope
    rounds = []
    substep = loewner._MovingAtom._substep

    def counted(self, *args):
        rounds[-1] += 1
        return substep(self, *args)

    monkeypatch.setattr(loewner._MovingAtom, "_substep", counted)
    for samples in ([(0.0, 0.0), (0.1, 10.0), (0.2, 0.0), (4.0, 3.0)], [(0.0, -0.6 / 3.8), (4.0, 3.0)]):
        rounds.append(0)
        transition_grid(DriverFamily.moving_atom(samples), 0.2, 2.0, acceptance_grid())
    assert rounds[0] <= 1.1 * rounds[1]


def test_speed_is_the_steepest_atom_slope():
    assert DriverFamily.constant(point_mass()).speed == 0.0
    assert DriverFamily.moving_atom(SEAMED_ATOM).speed == 1.5
    assert DriverFamily.moving_atom(STEEP_ATOM).speed == 20.0


@pytest.mark.parametrize("samples", [
    [(0.0, 0.0), (1.0, 1e6)],          # the rule would need ~1e7 substeps
    [(0.0, -1e308), (1.0, 1e308)],     # the slope overflows to inf
], ids=["slope-1e6", "slope-inf"])
def test_too_steep_atom_refuses_at_once(samples):
    fam = DriverFamily.moving_atom(samples)
    start = time.perf_counter()
    with pytest.raises(NonConvergenceError):
        transition_grid(fam, 0.0, 1.0, np.array([0.5 + 1.0j, 1e200j]))
    assert time.perf_counter() - start < 5.0


def test_piecewise_semicircle_against_rk4_wide():
    # the semicircle's first integral, solved by mpmath Newton from an RK4
    # start, at two tolerances
    fam = DriverFamily.constant(semicircle(), horizon=2.0)
    zs = small_grid()
    want = np.array([semicircle_transition(2.0, z) for z in zs])
    for tol in (1e-12, 1e-6):
        got, bound = transition_grid(fam, 0.0, 2.0, zs, SolverConfig(tol=tol))
        assert np.all(np.abs(got - want) <= bound)


# ROADMAP D1: at t = 0.5 the 64-node sum missed these by up to 0.13
# against bounds of ~4e-10
@pytest.mark.parametrize("zs, order, tol", [
    ([0.1j, 0.5 + 0.02j, 1.99 + 0.001j, 2.0 + 0.001j], 64, 1e-9),
    ([0.001j], 64, 1e-12),
    ([1.5 + 0.05j], 256, 1e-9),
], ids=["near-axis", "0.001i-tol1e-12", "256-nodes"])
def test_semicircle_near_the_support_within_bound(zs, order, tol):
    fam = DriverFamily.constant(semicircle(order=order), horizon=1.0)
    got, bound = transition_grid(fam, 0.0, 0.5, np.array(zs), SolverConfig(tol=tol))
    want = np.array([semicircle_transition(0.5, z) for z in zs])
    assert np.all(bound <= tol)
    assert np.all(np.abs(got - want) <= bound)


# on the support, at its end, off it, and at its middle
NEAR_SUPPORT = np.array([2.0 + 0.001j, 2.5 + 0.001j, 0.5 + 0.01j, 0.01j])


@pytest.mark.parametrize("mu, want", [
    (semicircle(), semicircle_transition),
    (arcsine(), arcsine_transition),
    # x -> x/2 + 1 maps the flow to B(0, t; z) = 1 + B_semi(0, 4t; 2(z - 1))/2
    (affine_pushforward(semicircle(), 0.5, 1.0),
     lambda t, z: 1.0 + 0.5 * semicircle_transition(4.0 * t, 2.0 * (z - 1.0))),
], ids=["semicircle", "arcsine", "semicircle-pushed"])
def test_closed_form_sups_keep_near_support_lanes_within_bound(mu, want):
    # the substeps these lanes take from the sups of |G| and |G'| at their
    # distance from the segment still leave every error within its bound
    ts = np.array([0.25, 1.0])
    got, bound = transition_grid(DriverFamily.constant(mu, horizon=1.0), 0.0, ts[:, None],
                                 NEAR_SUPPORT[None, :])
    ref = np.array([[want(t, z) for z in NEAR_SUPPORT] for t in ts])
    assert np.all(np.abs(got - ref) <= bound)
    assert bound.max() <= SolverConfig().tol


def _picard_rounds(monkeypatch, fam, t, zs):
    # the lockstep loop's rounds from 0 to t, one _picard call each
    picard = loewner._picard
    rounds = [0]

    def counted(*args):
        rounds[0] += 1
        return picard(*args)

    monkeypatch.setattr(loewner, "_picard", counted)
    vals, errs = transition_grid(fam, 0.0, t, zs)
    monkeypatch.undo()
    return rounds[0], vals, errs


@pytest.mark.parametrize("mu, t, zs, want, most", [
    # the bathtub and atom constants took 124 and 377 rounds; the sups, 29 and 21
    (semicircle(), 1.0, [0.01j, 1.99 + 0.001j, 2.0 + 0.001j], semicircle_transition, 40),
    (arcsine(), 0.5, [0.5 + 0.01j], arcsine_transition, 40),
], ids=["semicircle", "arcsine"])
def test_near_support_lanes_take_few_rounds(monkeypatch, mu, t, zs, want, most):
    rounds, vals, errs = _picard_rounds(monkeypatch, DriverFamily.constant(mu, horizon=2.0), t,
                                        np.array(zs))
    assert rounds <= most
    assert np.all(np.abs(vals - [want(t, z) for z in zs]) <= errs)


# the band at Im z from the solver floor to 1e-2, on the support (0, 1.99),
# at its end (2) and off it (2.5). The floor lanes at 2.5 barely rise, so
# their rounds grow linearly in t: the band stops at t = 0.05.
BAND_T = 0.05


def _band():
    ims = (SolverConfig().min_imag, 1e-3, 1e-2)
    return np.array([x + 1j * y for x in (0.0, 1.99, 2.0, 2.5) for y in ims])


def _log_ratio(w):
    # log((w + 2)/(w - 2)); both factors stay in the upper half-plane
    return np.log(w + 2.0) - np.log(w - 2.0)


@pytest.mark.parametrize("name, want", [
    ("semicircle", lambda zs: np.array([semicircle_transition(BAND_T, z) for z in zs])),
    # density 1/4: G = log((w + 2)/(w - 2)) / 4
    ("uniform", lambda zs: rk4_constant_flow(
        lambda w: 0.25 * _log_ratio(w), zs, BAND_T, -2.0, 2.0)),
    # density p(x) = 3/16 + 3x^2/64: G = p(w) log((w + 2)/(w - 2)) - 3w/16
    ("poly:0.1875,0,0.046875", lambda zs: rk4_constant_flow(
        lambda w: (0.1875 + 0.046875 * w * w) * _log_ratio(w) - 0.1875 * w,
        zs, BAND_T, -2.0, 2.0)),
], ids=["semicircle", "uniform", "poly"])
def test_density_drivers_near_the_axis_within_bound(name, want):
    mu = measure_from_dict({"segments": [{"interval": [-2.0, 2.0], "density": name}]})
    zs = _band()
    got, bound = transition_grid(DriverFamily.constant(mu, horizon=1.0), 0.0, BAND_T, zs)
    assert np.all(np.abs(got - want(zs)) <= bound)
    assert np.all(bound <= SolverConfig().tol)


def _node_sum_substep(self, piece, u0, du, h, w0, M, L, target):
    # _PiecewiseConstant._substep as it was before the exact transforms:
    # the Cauchy transform summed over the frozen quadrature nodes, with
    # the caller's constants M and L
    B = np.empty(w0.size, dtype=complex)
    tail = np.empty(w0.size)
    for k in np.unique(piece):
        m = piece == k
        pos, wts = self.measures[k].nodes()
        B[m], tail[m] = loewner._picard(
            w0[m], h[m], M[m], L[m], target[m],
            lambda V: (wts / (V[:, :, None] - pos)).sum(axis=2),
        )
    return B, tail


def test_atom_drivers_match_the_node_sum_bit_for_bit(monkeypatch):
    # atoms have no quadrature error: their lanes must not move at all
    stepped = DriverFamily.piecewise_constant(
        [0.0, 0.5, 1.25], [point_mass(0.0), point_mass(0.75), bernoulli(0.5, -0.25)], horizon=2.0)
    zs = acceptance_grid()
    cases = [(fam, t) for fam in (DELTA0, stepped) for t in (0.25, 1.0, 2.0)]
    new = [transition_grid(fam, 0.0, t, zs) for fam, t in cases]
    monkeypatch.setattr(loewner._PiecewiseConstant, "_substep", _node_sum_substep)
    for (fam, t), (w, e) in zip(cases, new):
        w_old, e_old = transition_grid(fam, 0.0, t, zs)
        assert np.array_equal(w, w_old) and np.array_equal(e, e_old)


# The solver's regularity columns as they were before RealMeasure.g_bounds
# took them over, kept verbatim as the reference for its arithmetic.

_TINY = float(np.finfo(float).tiny)


def _regularity_columns(mu: RealMeasure) -> tuple[float, float]:
    # (free, peak) of one measure piece (module docstring); a piece with no
    # density bound keeps all its mass free, so it gets the atom constants
    bounded = [seg for seg in mu.segments if seg.peak is not None]
    peak = sum(seg.peak for seg in bounded)
    if peak == 0:
        return 1.0, 0.0
    dense = sum(float(seg.nodes()[1].sum()) for seg in bounded)
    return max(mu.total_mass - dense, 0.0), peak


def _regularity(free, peak, eta):
    # M(eta), K = M(eta/2) and L(eta) of the module docstring, capped by the
    # atom constants, which lanes with free = 1, peak = 0 get exactly
    inv = 1.0 / eta
    eta2 = eta * eta
    dense = 1.0 - free
    spread = np.maximum(peak * eta, _TINY)  # 2P (eta/2)
    M = np.minimum(free * inv + 2.0 * peak * np.arcsinh(0.5 * dense / spread), inv)
    K = np.minimum(2.0 * free * inv + 2.0 * peak * np.arcsinh(dense / spread), 2.0 * inv)
    L = np.minimum(free / eta2 + np.minimum(np.pi * peak * inv, dense / eta2), 1.0 / eta2)
    return M, K, L


CLOSED_SUPS = ("semicircle", "arcsine", "semicircle-pushed", "arcsine-pushed")


def test_g_bounds_match_the_regularity_columns_bit_for_bit(g_bound_measures):
    # measures whose transforms carry no closed-form sups keep the columns
    # bit for bit; those that do never get a larger constant, and at
    # eta = 1e-6 one at least five times smaller
    eta = np.concatenate(([1e-6, 1e6], 10.0 ** np.random.default_rng(41).uniform(-6.0, 6.0, 500)))
    for name, mu in g_bound_measures.items():
        for got, want in zip(mu.g_bounds(eta), _regularity(*_regularity_columns(mu), eta)):
            if name in CLOSED_SUPS:
                assert np.all(got <= want) and got[0] < 0.2 * want[0], name
            else:
                assert np.array_equal(got, want), name


def test_driver_build_evaluates_no_density():
    # the bounds on G come from the weights the measure froze when it was
    # built, so neither the driver nor a solve evaluates the density again
    calls = []

    def density(x):
        calls.append(x.size)
        return np.ones_like(x)
    closed = named_density("uniform", 0.0, 1.0).cauchy
    mu = RealMeasure([], [DensitySegment(0.0, 1.0, density, cauchy=closed, peak=1.0)], mass=1.0)
    before = len(calls)
    fam = DriverFamily.constant(mu)
    transition_grid(fam, 0.0, 0.5, [0.5 + 0.1j, 2.0j])
    assert len(calls) == before == 1


def test_driver_refuses_a_segment_without_a_closed_form():
    # a bare callable's frozen nodes miss G near the support by far more than
    # the solver's bound: the semicircle as a bare callable (64 Chebyshev
    # nodes) missed by 5.7e4 times its bound at t = 0.25, Im z = 0.2
    seg = semicircle().segments[0]
    bare = RealMeasure([], [DensitySegment(seg.lo, seg.hi, seg.density, 64, True)])
    with pytest.raises(InvalidInputError, match=r"^driver measures need a closed-form cauchy "
                       r"for every segment \(the solver cannot bound a node sum\)$"):
        DriverFamily.constant(bare)


# ---------------------------------------------------------------------------
# structural properties


def test_semigroup_identity_random_triples():
    rng = np.random.default_rng(19)
    fams = (
        DriverFamily.piecewise_constant(
            [0.0, 0.8], [point_mass(0.0), semicircle()], horizon=2.0),
        DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)]),
    )
    zs = small_grid()[:10]
    tol = SolverConfig().tol
    for fam in fams:
        for _ in range(10):
            a, b, c = np.sort(rng.uniform(0.0, 2.0, 3))
            assert semigroup_defect(fam, a, b, c, zs) <= 4.0 * tol


def test_lipschitz_in_left_endpoint():
    # |B(a,c;z) - B(b,c;z)| <= (b-a)/Im z
    rng = np.random.default_rng(37)
    fam = DriverFamily.piecewise_constant(
        [0.0, 1.0], [semicircle(), point_mass(0.5)], horizon=2.0)
    tol = SolverConfig().tol
    triples = np.sort(rng.uniform(0.0, 2.0, (200, 3)), axis=1)
    zs = rng.uniform(-2, 2, 200) + 1j * rng.uniform(0.5, 3.0, 200)
    left, _ = transition_grid(fam, triples[:, 0], triples[:, 2], zs)
    right, _ = transition_grid(fam, triples[:, 1], triples[:, 2], zs)
    bound = (triples[:, 1] - triples[:, 0]) / zs.imag
    assert np.all(np.abs(left - right) <= bound + 10.0 * tol)


def test_lipschitz_in_right_endpoint():
    # |B(a,b;z) - B(a,c;z)| <= (1 + (b-a)/Im^2 z) (c-b)/Im z
    rng = np.random.default_rng(41)
    fam = DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.5)])
    tol = SolverConfig().tol
    triples = np.sort(rng.uniform(0.0, 2.0, (200, 3)), axis=1)
    zs = rng.uniform(-2, 2, 200) + 1j * rng.uniform(0.5, 3.0, 200)
    ab, _ = transition_grid(fam, triples[:, 0], triples[:, 1], zs)
    ac, _ = transition_grid(fam, triples[:, 0], triples[:, 2], zs)
    bound = (1.0 + (triples[:, 1] - triples[:, 0]) / zs.imag**2) * (
        triples[:, 2] - triples[:, 1]) / zs.imag
    assert np.all(np.abs(ab - ac) <= bound + 10.0 * tol)


def test_class_r_geometry():
    # Im B >= Im z and |B - z| <= (b-a)/Im z for every solved point
    zs = small_grid()
    for fam, b in ((DELTA0, 3.0), (DriverFamily.moving_atom([(0.0, 0.0), (2.0, 2.0)]), 2.0)):
        vals, errs = transition_grid(fam, 0.0, b, zs)
        assert np.all(vals.imag >= zs.imag - errs)
        assert np.all(np.abs(vals - zs) <= b / zs.imag + errs)


def test_certified_bound_covers_picard_increments(monkeypatch):
    # every sweep's sup-change |B_n - B_(n-1)| stays within the remainder
    # M h (L h)^(n-1) / n! of the module docstring, with each piece's own M
    # and L: at most the atom constants 1/eta, 1/eta^2 for the atoms, the
    # density bounds for the semicircle, near the support too, and strictly
    # less from the distance to the support on the lanes far off it.  The
    # lanes' indices ride along as one more integrand argument, so the spy
    # knows whose iterates it sees once done lanes have left the sweep; each
    # lane's last sweep is redone from its last iterate, and its first node
    # is the lane's landing value
    real_picard = loewner._picard
    _, quad = cheb_grid(loewner._NODES)
    records = []

    def recording(w0, h, M, L, target, integrand, *args):
        iterates = []

        def spy(*rest):
            *rest, lane, B = rest
            iterates.append((lane.copy(), B.copy()))
            return integrand(*rest, B)

        land, tail = real_picard(w0, h, M, L, target, spy, *args, np.arange(w0.size))
        last = np.empty((loewner._NODES, w0.size), dtype=complex)
        for lane, B in iterates:
            last[:, lane] = B
        final = w0 - (quad @ integrand(*args, last).view(float)).view(complex) * (0.5 * h)
        assert np.allclose(final[0], land, rtol=1e-14, atol=0.0)
        records[-1][1].append((w0.imag, h, M, L, iterates + [(np.arange(w0.size), final)], last))
        return land, tail

    monkeypatch.setattr(loewner, "_picard", recording)
    semi = DriverFamily.constant(semicircle(), horizon=2.0)
    near = np.array([0.01j, 1.99 + 0.001j, 2.0 + 0.001j])
    for kind, fam, b, zs in (
        ("atom", DELTA0, 2.0, small_grid()),
        ("atom", DELTA0, 1.0, np.random.default_rng(5).uniform(-4.0, 4.0, 300)
         + 1j * np.random.default_rng(6).uniform(0.2, 4.0, 300)),
        ("atom", DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)]), 2.0, small_grid()[:8]),
        ("density", semi, 1.0, np.concatenate([small_grid()[:10], near])),
        ("far", DELTA0, 2.0, np.array([6.0 + 0.3j])),
        ("far", DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)]), 2.0, np.array([-5.0 + 0.2j])),
    ):
        records.append((kind, []))
        transition_grid(fam, 0.0, b, zs)
    cut = 0
    for kind, substeps in records:
        sweeps = 0
        for eta, h, M, L, iterates, last in substeps:
            if kind == "density":  # peak 1/pi: L = min(1/eta, 1/eta^2)
                assert np.all(L <= np.minimum(1.0 / eta, 1.0 / eta**2) * (1.0 + 1e-12))
                assert np.all(M <= 1.0 / eta)
            elif kind == "atom":
                assert np.all(M <= 1.0 / eta) and np.all(L <= 1.0 / (eta * eta))
            else:
                assert np.all(M < 1.0 / eta) and np.all(L < 1.0 / (eta * eta))
            seen = np.zeros(eta.size, dtype=int)  # sweeps each lane has had
            for n in range(1, len(iterates)):
                (before, B0), (lane, B1) = iterates[n - 1], iterates[n]
                if n == len(iterates) - 1:  # every lane's own last sweep
                    B0, before = last, lane
                cut += lane.size < before.size
                seen[lane] += 1
                B0 = B0[:, np.searchsorted(before, lane)]
                observed = np.abs(B1 - B0).max(axis=0)
                k = seen[lane]
                bound = (M * h)[lane] * (L * h)[lane] ** (k - 1) / np.array(
                    [math.factorial(i) for i in k])
                assert np.all(observed <= bound * (1.0 + 1e-9) + 1e-15)
                sweeps += 1
        assert sweeps > 10
    assert cut > 0  # done lanes left the sweep on the 300-lane grid


# lanes off the support: |Re z| up to 40, Im z down to 0.05
OFF_SUPPORT = np.array([2.5 + 0.05j, -3.0 + 0.05j, 6.0 + 0.2j, -12.0 + 0.05j, 40.0 + 0.05j,
                        -40.0 + 1.0j])


@pytest.mark.parametrize("fam, want", [
    (DELTA0, lambda a, b, z: slit_map(b - a, z)),
    (DriverFamily.moving_atom(SEAMED_ATOM),
     lambda a, b, z: moving_atom_transition(SEAMED_ATOM, a, b, z)),
    (DriverFamily.constant(semicircle(), horizon=4.0),
     lambda a, b, z: semicircle_transition(b - a, z)),
], ids=["delta0", "moving-atom", "semicircle"])
def test_off_support_lanes_within_bound(fam, want):
    # spans up to 2, each lane's sweeps sized by its distance to the support
    spans = np.array([(0.0, 2.0), (0.5, 1.5), (1.0, 1.25)])
    a, b = spans[:, :1], spans[:, 1:]
    vals, errs = transition_grid(fam, a, b, OFF_SUPPORT[None, :])
    ref = np.array([[want(ai, bi, z) for z in OFF_SUPPORT] for ai, bi in spans])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= SolverConfig().tol


def test_first_substep_off_the_support_sweeps_less(monkeypatch):
    # the same eta and span give the same first substep; 4 off the atom,
    # the lane certifies it in fewer sweeps than the lane above it
    picard = loewner._picard
    substeps = []

    def counted(w0, h, M, L, target, integrand):
        calls = []

        def spy(B):
            calls.append(1)
            return integrand(B)
        out = picard(w0, h, M, L, target, spy)
        substeps[-1].append((h[0], len(calls)))
        return out

    monkeypatch.setattr(loewner, "_picard", counted)
    for z in (0.2j, 4.0 + 0.2j):
        substeps.append([])
        transition_grid(DELTA0, 0.0, 1.0, z)
    (h_over, sweeps_over), (h_off, sweeps_off) = (lane[0] for lane in substeps)
    assert h_over == h_off and sweeps_off < sweeps_over


@pytest.mark.parametrize("fam", [DELTA0, DriverFamily.constant(semicircle(), horizon=4.0)],
                         ids=["delta0", "semicircle"])
def test_lanes_over_the_support_keep_the_eta_constants(fam):
    # with the hull widened to the whole line every lane reads d = eta, as
    # when the sweeps took 1/eta and 1/eta^2 alone; lanes on the imaginary
    # axis stay over the support and must not move at all
    whole = replace(fam, _lows=np.array([-np.inf]), _highs=np.array([np.inf]))
    zs = 1j * np.linspace(0.2, 4.0, 20)
    for t in (0.5, 2.0):
        w, e = transition_grid(fam, 0.0, t, zs)
        w_eta, e_eta = transition_grid(whole, 0.0, t, zs)
        assert np.array_equal(w, w_eta) and np.array_equal(e, e_eta)


# the Picard loop as it was when it tested the tail after every sweep, kept
# as it was but for the constants M and L in place of 1/eta and 1/eta^2,
# the node-major layout and the real product with the tails, and for its
# lanes: each lane's count is the first sweep whose tail meets its own
# target, found before the sweeps, since the rule below needs the round's
# largest count n; before sweep j the lanes done by then leave the sweep
# with the value they reached, once they would save 128 lane-sweeps between
# them.  The sweep counts fixed by the table must agree with it.
def reference_picard(w0, h, M, L, target, integrand, *args):
    _, tails = cheb_grid(loewner._NODES)
    counts = np.zeros(w0.size, dtype=int)
    tail = np.empty(w0.size)
    bound = M * h
    for n in range(1, loewner._MAX_PICARD + 1):
        bound = bound * h * L / (n + 1.0)
        q = h * L / (n + 2.0)
        met = (counts == 0) & (bound / (1.0 - q) <= target)
        counts[met], tail[met] = n, (bound / (1.0 - q))[met]
        if counts.all():
            break
    else:
        raise NonConvergenceError("Picard iteration failed to certify within 64 sweeps")
    sweeps = counts.max()
    land = np.empty(w0.size, dtype=complex)
    lane = np.arange(w0.size)
    B = np.repeat(w0[None, :], loewner._NODES, axis=0)
    for j in range(sweeps):
        done = counts[lane] <= j
        if done.sum() * (sweeps - j) >= 128:
            land[lane[done]] = B[0, done]
            lane = lane[~done]
            B = np.ascontiguousarray(B[:, ~done])
        sub = tuple(np.ascontiguousarray(x[..., lane]) for x in args)
        B = w0[lane] - (tails @ integrand(*sub, B).view(float)).view(complex) * (0.5 * h[lane])
    land[lane] = B[0]
    return land, tail, counts


def _picard_case(seed, kind, lanes=slice(None), n=48):
    # n random lanes with one at the contraction cap and one far above the
    # axis, and the integrand of an affine atom path, whose node positions
    # are the one further argument, or of the semicircle, with the atom
    # constants M = 1/eta and L = 1/eta^2; of them, the lanes that ``lanes``
    # picks, as _picard's arguments
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.05, 4.0, n)
    h = rng.uniform(0.01, 0.5, n) * eta * eta
    h[0] = 0.5 * eta[0] * eta[0]
    eta[1], h[1] = 1e200, 1.0
    w0 = rng.uniform(-3.0, 3.0, n) + 1j * eta
    target = 10.0 ** rng.uniform(-14.0, -6.0, n) * h
    xstd, _ = cheb_grid(loewner._NODES)
    # node-major, as the iterates
    u = (rng.uniform(-2.0, 2.0, (n, 1))
         + 0.5 * (xstd + 1.0) * rng.uniform(-1.0, 1.0, (n, 1))).T[:, lanes]
    f = (lambda u, V: 1.0 / (V - u)) if kind == "atom" else (
        lambda u, V: semicircle().cauchy(V))
    calls = []

    def integrand(u, V):
        calls.append(V.shape[1])
        return f(u, V)

    with np.errstate(over="ignore"):  # eta^2 = inf far above the axis: 1/eta^2 = 0
        inv_eta2 = 1.0 / (eta * eta)
    args = tuple(x[lanes] for x in (w0, h, 1.0 / eta, inv_eta2, target))
    return [*args, integrand, u], calls


def _matches_the_reference_loop(monkeypatch, nodes, kind, seed, n=48):
    # the same lanes sweep at every sweep, and give the same landing values;
    # returns how many lanes each sweep swept
    monkeypatch.setattr(loewner, "_NODES", nodes)
    args, calls = _picard_case(seed, kind, n=n)
    land, tail = loewner._picard(*args)
    sweeps = list(calls)
    land_ref, tail_ref, counts = reference_picard(*args)
    assert calls[len(sweeps):] == sweeps and len(sweeps) > 1
    assert np.array_equal(land, land_ref)
    # both tails are products of the same factors, rounded in another
    # order: at most 3 roundings a sweep on each side, plus the ends
    assert np.all(np.abs(tail - tail_ref) <= (6 * counts + 6) * 2.0**-53 * tail_ref)
    assert np.all(tail <= args[4])
    return sweeps


@pytest.mark.parametrize("nodes", [24, 40])
@pytest.mark.parametrize("kind", ["atom", "semicircle"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_picard_matches_the_reference_loop(monkeypatch, nodes, kind, seed):
    _matches_the_reference_loop(monkeypatch, nodes, kind, seed)


@pytest.mark.parametrize("nodes", [24, 40])
@pytest.mark.parametrize("kind", ["atom", "semicircle"])
@pytest.mark.parametrize("seed", [0, 1])
def test_picard_matches_the_reference_loop_as_lanes_leave(monkeypatch, nodes, kind, seed):
    # 512 lanes: done lanes leave the sweep twice at least
    sweeps = _matches_the_reference_loop(monkeypatch, nodes, kind, seed, 512)
    assert len(set(sweeps)) > 2


@pytest.mark.parametrize("counts, stops", [
    ([1] * 16 + [9], [1, 9]),         # 16 lanes leaving after 1 of 9 sweeps save 128
    ([1] * 15 + [9], [9]),            # 15 save 120: they sweep on
    ([2] * 64 + [3] * 64 + [5], [2, 3, 5]),
    ([3] * 8 + [4] * 8 + [20], [3, 4, 20]),  # 8 save 136 at 3, the next 8 save 128 at 4
    ([3] * 7 + [4] * 8 + [20], [4, 20]),     # 7 save 119 at 3: all 15 leave at 4
])
def test_done_lanes_leave_once_they_save_128_lane_sweeps(counts, stops):
    assert loewner._sweep_stops(np.array(counts)) == stops


@pytest.mark.parametrize("kind", ["atom", "semicircle"])
def test_picard_refuses_before_the_first_sweep(kind):
    # a lane at the cap that 64 sweeps cannot bring within 1e-250
    args, calls = _picard_case(3, kind)
    args[4][0] = 1e-250
    with pytest.raises(NonConvergenceError) as new:
        loewner._picard(*args)
    assert calls == []
    with pytest.raises(NonConvergenceError) as ref:
        reference_picard(*args)
    assert calls == []
    assert str(new.value) == str(ref.value)


def full_table(h, M, L):
    # _picard's remainder table as it was built before it grew in blocks:
    # one (lanes, 64) cumprod, column n - 1 the tail after sweep n
    k = np.arange(2.0, loewner._MAX_PICARD + 2.0)
    tails = np.cumprod(h[:, None] * (L[:, None] / k), axis=1)
    tails *= (M * h)[:, None]
    tails /= 1.0 - h[:, None] * L[:, None] / (k + 1.0)
    return tails


@pytest.mark.parametrize("kind", ["atom", "semicircle"])
@pytest.mark.parametrize("depth,sweeps", [(1e-30, (16, 32)), (1e-60, (32, 48)),
                                          ("last", (63, 64))])
def test_picard_table_in_blocks_matches_the_full_table(kind, depth, sweeps):
    # the lane at the contraction cap needs a second, third or last block;
    # every lane counts the sweeps up to the first column of the full table
    # within its target, and its tail is that column's bit for bit
    args, calls = _picard_case(4, kind)
    w0, h, M, L, target = args[:5]
    tails = full_table(h, M, L)
    target[0] = tails[0, -1] if depth == "last" else depth
    want = (tails <= target[:, None]).argmax(axis=1) + 1
    assert (tails <= target[:, None]).any(axis=1).all()
    counts, tail = loewner._table_sweeps(h, M, L, target)
    assert np.array_equal(counts, want)
    assert np.array_equal(tail, tails[np.arange(w0.size), want - 1])
    _, tail = loewner._picard(*args)
    assert len(calls) == want.max() == want[0] and sweeps[0] < want[0] <= sweeps[1]
    assert np.array_equal(tail, tails[np.arange(w0.size), want - 1])


@pytest.mark.parametrize("kind", ["atom", "semicircle"])
def test_picard_refuses_just_past_the_last_column(kind):
    args, calls = _picard_case(4, kind)
    args[4][0] = np.nextafter(full_table(*args[1:4])[0, -1], 0.0)
    with pytest.raises(NonConvergenceError, match="within 64 sweeps"):
        loewner._picard(*args)
    assert calls == []


@pytest.mark.parametrize("kind", ["atom", "semicircle"])
def test_one_lane_picard_matches_the_table(kind):
    # each lane alone, as a round with one lane left runs it, sweeps as often
    # as its row of the full table asks and returns that row's tail and the
    # reference loop's landing value, bit for bit; so does the lane at the
    # cap sent to a second, third and last block
    args, _ = _picard_case(5, kind)
    tails = full_table(*args[1:4])
    runs = [(j, None) for j in range(args[0].size)]
    runs += [(0, depth) for depth in (1e-30, 1e-60, tails[0, -1])]
    for j, depth in runs:
        lane, calls = _picard_case(5, kind, slice(j, j + 1))
        if depth is not None:
            lane[4][0] = depth
        want = int(np.argmax(tails[j] <= lane[4][0])) + 1
        land, tail = loewner._picard(*lane)
        assert len(calls) == want
        assert tail.shape == land.shape == (1,) and tail[0] == tails[j, want - 1]
        land_ref, _, _ = reference_picard(*lane)
        assert len(calls) == 2 * want and np.array_equal(land, land_ref)
    assert want == loewner._MAX_PICARD
    # one lane past the last column refuses before its first sweep
    lane, calls = _picard_case(5, kind, slice(0, 1))
    lane[4][0] = np.nextafter(tails[0, -1], 0.0)
    with pytest.raises(NonConvergenceError, match="within 64 sweeps"):
        loewner._picard(*lane)
    assert calls == []


@pytest.mark.parametrize("nodes", [24, 40])
def test_solve_rho_meets_its_inequality(monkeypatch, nodes):
    # rho^(M-1) (rho - 1) >= max(R, 10) for rho = max(2, R^(1/(M-1))): the
    # first factor is R up to rounding and at least 2^(M-1) > 10, the second
    # at least 1
    monkeypatch.setattr(loewner, "_NODES", nodes)
    R = np.logspace(0.0, 20.0, 2001)
    rho = loewner._solve_rho(R)
    lhs = (nodes - 1) * np.log(rho) + np.log(rho - 1.0)
    assert np.all(lhs >= np.log(np.maximum(R, 10.0)) - 1e-12)
    assert np.all(rho >= 2.0)


def _grid_rounds(monkeypatch, fam, t):
    # rounds of the lockstep loop for the acceptance grid from 0 to t
    rounds = [0]
    substep = loewner._PiecewiseConstant._substep

    def counted(self, *args):
        rounds[0] += 1
        return substep(self, *args)

    monkeypatch.setattr(loewner._PiecewiseConstant, "_substep", counted)
    transition_grid(fam, 0.0, t, acceptance_grid())
    return rounds[0]


def test_delta0_grid_substeps_at_the_contraction_cap(monkeypatch):
    # at 40 nodes the cap eta^2/2, not the interpolation limit, sets these
    # substeps: 88 rounds (148 at 24 nodes)
    assert _grid_rounds(monkeypatch, DELTA0, 2.0) <= 100


def test_semicircle_grid_substeps_by_its_density_bound(monkeypatch):
    # the semicircle's closed-form sups of |G| and |G'| size these
    # substeps: 8 rounds, where the bathtub bounds |G| <= 2P asinh(1/(2P eta))
    # and |G'| <= pi P/eta (P = 1/pi) took 19 and the atom constants 1/eta
    # and 1/eta^2 took 85
    assert _grid_rounds(monkeypatch, DriverFamily.constant(semicircle(), horizon=4.0), 2.0) <= 10


def test_seamed_atom_grid_at_tight_tol_within_bound():
    # at tol 1e-12 the substep parameter R reaches ~6e16, past the
    # (1 + sqrt(2))^39 ~ 8.5e14 up to which 40 nodes keep the cap binding:
    # the interpolation limit sets the substeps again
    cfg = SolverConfig(tol=1e-12)
    zs = acceptance_grid()
    vals, errs = transition_grid(DriverFamily.moving_atom(SEAMED_ATOM), 0.0, 2.0, zs, cfg)
    ref = np.array([moving_atom_transition(SEAMED_ATOM, 0.0, 2.0, z) for z in zs])
    assert np.all(np.abs(vals - ref) <= errs)
    assert errs.max() <= cfg.tol


def test_delta0_chunk_peak_memory():
    # one full 1024-lane chunk: with the sweeps in place, 40 nodes peak at
    # most 15% above the 2.02 MB that 24 nodes and a fresh iterate per
    # sweep took (CPython 3.11, numpy 2.4)
    rng = np.random.default_rng(5)
    zs = rng.uniform(-4.0, 4.0, 1024) + 1j * rng.uniform(0.2, 4.0, 1024)
    transition_grid(DELTA0, 0.0, 1.0, zs[:8])  # fill the lazy caches
    tracemalloc.start()
    transition_grid(DELTA0, 0.0, 1.0, zs)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 1.15 * 2.02e6


def test_delta0_chunk_sweeps_each_lane_as_its_remainder_asks(monkeypatch):
    # the chunk above: lanes that are done leave the sweep, so the chunk
    # takes at least 30% fewer lane-sweeps than sweeping every lane of a
    # round as often as its neediest lane asks (16,175 against 24,503), and
    # every lane stays within its bound of the slit map and of its own
    # pointwise solve
    rng = np.random.default_rng(5)
    zs = rng.uniform(-4.0, 4.0, 1024) + 1j * rng.uniform(0.2, 4.0, 1024)
    picard = loewner._picard
    swept, lockstep = [], []

    def counted(w0, h, M, L, target, integrand, *args):
        calls = []

        def spy(*args):
            calls.append(args[-1].shape[1])
            return integrand(*args)
        out = picard(w0, h, M, L, target, spy, *args)
        swept.append(sum(calls))
        lockstep.append(w0.size * len(calls))
        return out

    monkeypatch.setattr(loewner, "_picard", counted)
    vals, errs = transition_grid(DELTA0, 0.0, 1.0, zs)
    monkeypatch.undo()
    assert sum(swept) <= 0.7 * sum(lockstep)
    assert np.all(np.abs(vals - slit_map(1.0, zs)) <= errs)
    assert errs.max() <= SolverConfig().tol
    for k in rng.choice(zs.size, 32, replace=False):
        w, e = TransitionMap(DELTA0, 0.0, 1.0).evaluate(zs[k])
        assert abs(vals[k] - w) <= errs[k] + e


def _short_lanes():
    # 64 points at 0.8 <= Im z <= 3 that delta_0 moves to t = 1 in at most
    # 4 substeps each
    rng = np.random.default_rng(6)
    return rng.uniform(-3.0, 3.0, 64) + 1j * rng.uniform(0.8, 3.0, 64)


def test_refilled_lanes_count_their_own_substeps(monkeypatch):
    # 8 lanes at a time and a cap of 4 substeps per lane: the batch takes
    # more than twice 4 rounds, but no lane more than 4 substeps
    monkeypatch.setattr(loewner, "_CHUNK", 8)
    monkeypatch.setattr(loewner, "_MAX_ROUNDS", 4)
    zs = _short_lanes()
    lanes = []
    picard = loewner._picard

    def counted(w0, *args):
        lanes.append(w0.size)
        return picard(w0, *args)

    monkeypatch.setattr(loewner, "_picard", counted)
    vals, errs = transition_grid(DELTA0, 0.0, 1.0, zs)
    assert len(lanes) > 2 * 4 and max(lanes) == 8
    # landed lanes' slots are refilled: the set runs short only once the
    # queue is empty, for at most the 4 substeps of its last lanes
    assert sum(n < 8 for n in lanes) <= 4
    assert np.all(np.abs(vals - slit_map(1.0, zs)) <= errs)
    # one lane that needs more substeps than the cap still refuses
    with pytest.raises(NonConvergenceError, match="substep count exceeded the global cap"):
        transition_grid(DELTA0, 0.0, 1.0, np.array([0.3j]))


@pytest.mark.parametrize("family", [THREE_ATOMS, DriverFamily.moving_atom(SEAMED_ATOM)],
                         ids=["three-atoms", "seamed-atom"])
def test_lanes_of_a_refilled_batch_match_the_lanes_alone(monkeypatch, family):
    # 40 lanes of unequal spans, 8 at a time, enter as others land; each
    # agrees with its own solve within the two bounds
    monkeypatch.setattr(loewner, "_CHUNK", 8)
    rng = np.random.default_rng(7)
    zs = _short_lanes()[:40]
    a = rng.uniform(0.0, 1.0, zs.size)
    b = a + rng.uniform(0.0, 1.0, zs.size)
    vals, errs = transition_grid(family, a, b, zs)
    for k in range(zs.size):
        alone, err = transition_grid(family, a[k], b[k], zs[k])
        assert abs(vals[k] - alone) <= errs[k] + err
    assert errs.max() <= SolverConfig().tol


def test_reported_bound_shrinks_with_tol():
    z = 0.5 + 1.0j
    _, loose = transition_grid(DELTA0, 0.0, 1.0, np.array([z]), SolverConfig(tol=1e-6))
    _, tight = transition_grid(DELTA0, 0.0, 1.0, np.array([z]), SolverConfig(tol=1e-12))
    assert tight[0] < loose[0] <= 1e-6
    assert tight[0] <= 1e-12


def test_grid_broadcasting_shapes():
    ts = np.array([0.5, 1.0, 2.0])
    vals, errs = transition_grid(DELTA0, 0.0, ts[:, None], np.array([1j, 2j])[None, :])
    assert vals.shape == errs.shape == (3, 2)
    assert np.abs(vals - slit_map(ts[:, None], np.array([1j, 2j])[None, :])).max() < 1e-8


def test_evaluate_map_is_time_zero_start():
    z = 0.3 + 0.9j
    assert evaluate_map(DELTA0, 1.7, z) == solve_transition(DELTA0, 0.0, 1.7, z)


# the benchmark's five drivers
FIVE_DRIVERS = pytest.mark.parametrize("fam", [
    DELTA0,
    DriverFamily.constant(semicircle(), horizon=4.0),
    DriverFamily.piecewise_constant([0.0, 0.8], [point_mass(0.0), semicircle()], horizon=4.0),
    DriverFamily.moving_atom(LINEAR_ATOM),
    DriverFamily.moving_atom(SEAMED_ATOM),
], ids=["delta0", "semicircle", "delta0-semicircle", "atom", "seamed-atom"])


@FIVE_DRIVERS
def test_pointwise_calls_equal_the_grid_at_one_point(fam):
    # the pointwise entry points skip the array set-up, not a bit of the
    # value or of its bound
    zs = small_grid()[::5]
    for t in (0.25, 1.0, 2.0):
        tm = TransitionMap(fam, 0.0, t)
        for z in zs:
            w, e = transition_grid(fam, 0.0, t, z)
            assert solve_transition(fam, 0.0, t, z) == w
            assert evaluate_map(fam, t, z) == w
            assert tm(z) == w and tm.evaluate(z) == (w, e)


@FIVE_DRIVERS
def test_one_lane_rounds_match_the_lockstep_loop(monkeypatch, fam):
    # a lane alone runs its rounds on floats, a lane beside its twin runs
    # them on arrays: both give the same value and bound, and the same h and
    # sweep count at every substep, bit for bit
    picard = loewner._picard
    substeps = []

    def counted(w0, h, M, L, target, integrand, *args):
        calls = []

        def spy(*args):
            calls.append(1)
            return integrand(*args)
        out = picard(w0, h, M, L, target, spy, *args)
        substeps.append((tuple(h), len(calls)))
        return out

    monkeypatch.setattr(loewner, "_picard", counted)
    for t in (0.25, 1.0, 2.0):
        for z in small_grid():
            substeps.clear()
            w, e = transition_grid(fam, 0.0, t, [z])
            alone = [(h * 2, sweeps) for h, sweeps in substeps]
            substeps.clear()
            twins = transition_grid(fam, 0.0, t, [z, z])
            assert np.array_equal(twins[0], [w[0], w[0]])
            assert np.array_equal(twins[1], [e[0], e[0]])
            assert alone == substeps and len(alone) > 0


@pytest.mark.parametrize("where, message", [
    ("M", "Picard iteration failed to certify within 64 sweeps"),
    ("K", "substep size underflow"),
    ("L", "substep size underflow"),
    ("re w", "Picard iteration failed to certify within 64 sweeps"),
    ("im w", "substep size underflow"),
])
def test_nan_steps_refuse_alike_on_one_lane_and_in_lockstep(monkeypatch, where, message):
    # Python's min and max drop a nan that np.minimum and np.maximum pass
    # on: a nan regularity constant, or a nan landing after the first
    # substep, refuses a lane alone as it refuses the lane beside its twin
    if where in ("M", "K", "L"):
        bounds = DriverFamily._bounds

        def nan_bounds(self, piece, eta):
            out = list(bounds(self, piece, eta))
            out["MKL".index(where)] = np.full(eta.shape, np.nan)
            return tuple(out)
        monkeypatch.setattr(DriverFamily, "_bounds", nan_bounds)
    else:
        substep = loewner._MovingAtom._substep

        def nan_landing(self, *args):
            B, tail = substep(self, *args)
            (B.real if where == "re w" else B.imag)[0] = np.nan
            return B, tail
        monkeypatch.setattr(loewner._MovingAtom, "_substep", nan_landing)
    fam = DriverFamily.moving_atom(LINEAR_ATOM)
    z = 0.5 + 1.0j  # two substeps at least: h <= Im z^2 / 2
    for zs in ([z], [z, z]):
        with pytest.raises(NonConvergenceError, match=message):
            transition_grid(fam, 0.0, 1.0, zs)


@pytest.mark.parametrize("fam, z", [
    (DELTA0, 1e200j),
    (DriverFamily.constant(semicircle(radius=1e-6), horizon=4.0), 1.7e308j),
], ids=["delta0", "narrow-semicircle"])
def test_lanes_far_above_the_axis_answer_at_every_entry_point(fam, z):
    # eta^2 overflows to inf there, and under a density of peak 6e5 K
    # underflows to 0 too (h0 = eta / 0 = inf, which max_step caps): each
    # entry point answers as the lockstep loop does, with no warning
    w, e = transition_grid(fam, 0.0, 1.0, [z, z])
    assert w[0] == w[1] and e[0] == e[1] <= SolverConfig().tol
    alone = transition_grid(fam, 0.0, 1.0, [z])
    assert np.array_equal(alone[0], w[:1]) and np.array_equal(alone[1], e[:1])
    assert solve_transition(fam, 0.0, 1.0, z) == evaluate_map(fam, 1.0, z) == w[0]
    assert TransitionMap(fam, 0.0, 1.0).evaluate(z) == (w[0], e[0])


def test_transition_map_wrapper():
    tm = TransitionMap(DELTA0, 0.5, 2.0)
    z = 1.0 + 1.0j
    assert tm(z) == solve_transition(DELTA0, 0.5, 2.0, z)
    val, bound = tm.evaluate(z)
    assert abs(val - slit_map(1.5, z)) <= bound + 1e-12
    vals, bounds = tm.grid(small_grid())
    assert vals.shape == small_grid().shape
    with pytest.raises(InvalidInputError):
        TransitionMap(DELTA0, 1.0, 0.5)
    with pytest.raises(InvalidInputError):
        TransitionMap(DELTA0, 0.0, 9.0)


# ---------------------------------------------------------------------------
# hydrodynamic parameter


def test_hydrodynamic_parameter_unit_rate():
    fams = (
        DELTA0,
        DriverFamily.moving_atom([(0.0, 0.0), (2.0, 2.0)]),
        DriverFamily.piecewise_constant(
            [0.0, 1.0], [point_mass(0.0), semicircle()], horizon=2.0),
    )
    for fam in fams:
        for t in (0.5, 2.0):
            assert abs(hydrodynamic_parameter(fam, t) - t) < 1e-3


def test_hydrodynamic_parameter_edge_cases():
    assert hydrodynamic_parameter(DELTA0, 0.0) == 0.0
    with pytest.raises(InvalidInputError):
        hydrodynamic_parameter(DELTA0, -1.0)
    with pytest.raises(InvalidInputError):
        hydrodynamic_parameter(DELTA0, 9.0)


def test_hydrodynamic_parameter_refuses_an_unsettled_ladder():
    # an atom at 300 leaves terms in 300/y that the ladder's top rung,
    # y = 8192, has not yet left behind
    far = DriverFamily.constant(point_mass(300.0))
    with pytest.raises(NonConvergenceError, match="hydrodynamic ladder did not settle"):
        hydrodynamic_parameter(far, 1.0)


def test_driver_and_span_refusals():
    unbounded = DriverFamily.constant(point_mass())
    with pytest.raises(NonConvergenceError, match="time span too long"):
        solve_transition(unbounded, 0.0, 1e200, 1j)
    with pytest.raises(InvalidInputError, match="horizon must be positive"):
        DriverFamily.constant(point_mass(), horizon=-1)
    with pytest.raises(InvalidInputError, match="samples must be finite"):
        DriverFamily.moving_atom([(0.0, 0.0), (1.0, math.nan)])
    with pytest.raises(InvalidInputError, match="breaks must be a non-empty 1-d finite array"):
        DriverFamily.piecewise_constant([[0.0]], [point_mass()])
    with pytest.raises(InvalidInputError, match="need 0 <= a <= b <= c"):
        semigroup_defect(DELTA0, 1.0, 0.5, 2.0, [1j])


# ---------------------------------------------------------------------------
# univalence probe


def test_probe_slit_map_is_injective():
    rng = np.random.default_rng(43)
    pairs = np.stack([
        rng.uniform(-3, 3, 500) + 1j * rng.uniform(0.2, 3, 500),
        rng.uniform(-3, 3, 500) + 1j * rng.uniform(0.2, 3, 500),
    ], axis=1)
    assert univalence_probe(DELTA0, 1.0, pairs) is True


def test_probe_skips_unresolvable_pairs():
    z = 1.0 + 1.0j
    pairs = np.array([[z, z + 1e-9]])
    assert univalence_probe(DELTA0, 1.0, pairs) is True


def test_probe_validation():
    with pytest.raises(InvalidInputError):
        univalence_probe(DELTA0, 1.0, np.array([1j, 2j]))
    with pytest.raises(InvalidInputError):
        univalence_probe(DELTA0, 1.0, np.array([[1j, 0.05j]]))


# ---------------------------------------------------------------------------
# failure modes


def test_rejects_points_at_or_below_axis():
    # every entry point checks z at the one front door, with one message each
    for z, message in ((1.0 + 0.0j, "open upper half-plane"),
                       (1.0 - 1.0j, "open upper half-plane"),
                       (complex(math.nan, 1.0), "z must be finite")):
        for solve in (lambda: solve_transition(DELTA0, 0.0, 1.0, z),
                      lambda: transition_grid(DELTA0, 0.0, 1.0, [2j, z]),
                      lambda: semigroup_defect(DELTA0, 0.0, 0.5, 1.0, [z]),
                      lambda: TransitionMap(DELTA0, 0.0, 1.0).evaluate(z)):
            with pytest.raises(InvalidInputError, match=message):
                solve()


SOLVER_REFUSALS = {
    "a-nan": (DELTA0, math.nan, 1.0, 1j, InvalidInputError, "times must be finite"),
    "a-none": (DELTA0, None, 1.0, 1j, InvalidInputError, "times must be finite"),
    # what numpy cannot read is no finite time, nor a finite z
    "a-string": (DELTA0, "x", 1.0, 1j, InvalidInputError, "times must be finite"),
    "b-inf": (DELTA0, 0.0, math.inf, 1j, InvalidInputError, "times must be finite"),
    "b-inf-no-horizon": (DriverFamily.constant(point_mass()), 0.0, math.inf, 1j,
                         InvalidInputError, "times must be finite"),
    "a-negative": (DELTA0, -0.5, 0.5, 1j, InvalidInputError, "times must be non-negative"),
    "a-after-b": (DELTA0, 1.0, 0.5, 1j, InvalidInputError, "need a <= b"),
    "b-past-horizon": (DELTA0, 0.0, 9.0, 1j, InvalidInputError,
                       "b lies beyond the driver horizon"),
    "z-nan": (DELTA0, 0.0, 1.0, complex(math.nan, 1.0), InvalidInputError, "z must be finite"),
    "z-inf": (DELTA0, 0.0, 1.0, complex(0.0, math.inf), InvalidInputError, "z must be finite"),
    "z-on-axis": (DELTA0, 0.0, 1.0, 1.0 + 0.0j, InvalidInputError,
                  "z must lie in the open upper half-plane"),
    "z-below-axis": (DELTA0, 0.0, 1.0, 1.0 - 1.0j, InvalidInputError,
                     "z must lie in the open upper half-plane"),
    "z-under-floor": (DELTA0, 0.0, 1.0, 1.0 + 1e-5j, InvalidInputError,
                      "Im z below the solver floor 0.000316 for tol 1e-09"),
    "z-none": (DELTA0, 0.0, 1.0, None, InvalidInputError, "z must be finite"),
    "z-string": (DELTA0, 0.0, 1.0, "abc", InvalidInputError, "z must be finite"),
    "z-ragged": (DELTA0, 0.0, 1.0, [1j, [2j]], InvalidInputError, "z must be finite"),
    # one point per call: a grid takes both
    "z-two-points": (DELTA0, 0.0, 1.0, np.array([1j, 2j]), InvalidInputError,
                     "z must be a single point"),
    # two times against three points: numpy's bare "shape mismatch" escaped
    "no-broadcast": (DELTA0, np.array([0.0, 0.5]), 1.0, np.array([1j, 2j, 3j]),
                     InvalidInputError, "a, b and z must broadcast to one shape"),
    "not-a-family": ("not a family", 0.0, 1.0, 1j, InvalidInputError,
                     "family must be a DriverFamily"),
    "span-too-long": (DriverFamily.constant(point_mass()), 0.0, 1e200, 1j, NonConvergenceError,
                      "time span too long for the requested tolerance"),
    "too-steep": (DriverFamily.moving_atom([(0.0, 0.0), (1.0, 1e12)]), 0.0, 1.0, 1j,
                  NonConvergenceError, "substep count exceeded the global cap"),
    "max-step-cap": (DriverFamily.constant(point_mass()), 0.0, 3e5, 1j, NonConvergenceError,
                     "substep count exceeded the global cap"),
    # a trailing config; Im z = 1e-6 is the floor at tol 1e-14
    "underflow": (DELTA0, 0.0, 1.0, 0.3 + 1e-6j, NonConvergenceError,
                  "substep size underflow: evaluation too close to the hull "
                  "for the requested tolerance", SolverConfig(tol=1e-14)),
}


@pytest.mark.parametrize("name", SOLVER_REFUSALS)
def test_one_point_refusals_agree_across_entry_points(name):
    # one class and one message whichever door a single point comes in by,
    # alone or beside its twin; lanes that do not broadcast reach only a grid
    fam, a, b, z, error, message, *cfg = SOLVER_REFUSALS[name]
    calls = []
    if name != "z-two-points":
        calls += [lambda: transition_grid(fam, a, b, z, *cfg),
                  lambda: transition_grid(fam, a, b, [z, z], *cfg)]
    if name != "no-broadcast":
        calls.append(lambda: solve_transition(fam, a, b, z, *cfg))
        if a == 0.0:
            calls.append(lambda: evaluate_map(fam, b, z, *cfg))
        calls += [lambda: TransitionMap(fam, a, b, *cfg).evaluate(z),
                  lambda: TransitionMap(fam, a, b, *cfg)(z)]
    for call in calls:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message


def test_no_config_means_the_default_config():
    zs = np.array([0.5 + 0.5j, -1.0 + 2.0j])
    for family in (DELTA0, DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)])):
        got = transition_grid(family, 0.0, 1.5, zs)
        want = transition_grid(family, 0.0, 1.5, zs, SolverConfig())
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert solve_transition(family, 0.0, 1.5, zs[0]) == want[0][0]
        assert (semigroup_defect(family, 0.0, 0.7, 1.5, zs)
                == semigroup_defect(family, 0.0, 0.7, 1.5, zs, SolverConfig()))


def test_rejects_points_under_the_floor():
    cfg = SolverConfig(tol=1e-6)  # floor = 10 sqrt(tol) = 1e-2
    with pytest.raises(InvalidInputError):
        solve_transition(DELTA0, 0.0, 1.0, 1.0 + 5e-3j, cfg)


def test_rejects_bad_time_ranges():
    with pytest.raises(InvalidInputError):
        solve_transition(DELTA0, 1.0, 0.5, 1j)
    with pytest.raises(InvalidInputError):
        solve_transition(DELTA0, -0.5, 0.5, 1j)
    with pytest.raises(InvalidInputError):
        solve_transition(DELTA0, 0.0, 9.0, 1j)
    with pytest.raises(InvalidInputError):
        solve_transition("not a family", 0.0, 1.0, 1j)


def test_floor_tolerance_pair_fails_honestly():
    # at tol = 1e-14 the admissible floor is 1e-6, and just above it the
    # contraction step underflows: the solver must refuse rather than emit
    # a bound it cannot certify
    cfg = SolverConfig(tol=1e-14)
    with pytest.raises(NonConvergenceError):
        solve_transition(DELTA0, 0.0, 1.0, 1e-6j * 1.0001, cfg)
