"""Transition-map solver against closed forms, an independent RK4
integrator, and the package's own certified error bounds."""

import math
import time
import tracemalloc

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
from chordal.measures import RealMeasure, arcsine, bernoulli, point_mass, semicircle
from chordal.numerics import cheb_grid

from oracles import (
    moving_atom_transition,
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


def _node_sum_substep(self, piece, s0, h, w0, eta, target):
    # _PiecewiseConstant._substep as it was before the exact transforms:
    # the Cauchy transform summed over the frozen quadrature nodes
    _, tails = cheb_grid(loewner._NODES)
    B = np.empty((w0.size, loewner._NODES), dtype=complex)
    tail = np.empty(w0.size)
    for k in np.unique(piece):
        m = piece == k
        pos, wts = self.measures[k].nodes()
        B[m], tail[m] = loewner._picard(
            w0[m], h[m], eta[m], target[m],
            lambda V: (wts / (V[:, :, None] - pos)).sum(axis=2) @ tails.T,
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
    # h^n / (eta^(2n-1) n!) of the module docstring
    real_picard = loewner._picard
    records = []

    def recording(w0, h, eta, target, integrate):
        iterates = []

        def spy(B):
            iterates.append(B.copy())
            return integrate(B)

        B, tail = real_picard(w0, h, eta, target, spy)
        records.append((h, eta, iterates + [B]))
        return B, tail

    monkeypatch.setattr(loewner, "_picard", recording)
    transition_grid(DELTA0, 0.0, 2.0, small_grid())
    fam = DriverFamily.moving_atom([(0.0, 0.0), (2.0, 1.0)])
    transition_grid(fam, 0.0, 2.0, small_grid()[:8])
    sweeps = 0
    for h, eta, iterates in records:
        for n in range(1, len(iterates)):
            observed = np.abs(iterates[n] - iterates[n - 1]).max(axis=1)
            bound = h ** n / (eta ** (2 * n - 1) * math.factorial(n))
            assert np.all(observed <= bound * (1.0 + 1e-9) + 1e-15)
            sweeps += 1
    assert sweeps > 10


# the Picard loop as it was when it tested the tail after every sweep, kept
# verbatim: the sweep count fixed before the sweeps must agree with it
def reference_picard(w0, h, eta, target, integrate):
    B = np.repeat(w0[:, None], loewner._NODES, axis=1)
    w_col = w0[:, None]
    half_h = 0.5 * h[:, None]
    with np.errstate(over="ignore"):  # eta^2 = inf far above the axis: 1/eta^2 = 0
        inv_eta2 = 1.0 / (eta * eta)
    bound = h / eta
    for n in range(1, loewner._MAX_PICARD + 1):
        Bn = w_col - integrate(B) * half_h
        bound = bound * h * inv_eta2 / (n + 1.0)
        q = h * inv_eta2 / (n + 2.0)
        tail = bound / (1.0 - q)
        B = Bn
        if np.all(tail <= target):
            return B, tail
    raise NonConvergenceError("Picard iteration failed to certify within 64 sweeps")


def _picard_case(seed, kind):
    # random lanes with one at the contraction cap and one far above the
    # axis, and the integrand of an affine atom path or of the semicircle
    rng = np.random.default_rng(seed)
    n = 48
    eta = rng.uniform(0.05, 4.0, n)
    h = rng.uniform(0.01, 0.5, n) * eta * eta
    h[0] = 0.5 * eta[0] * eta[0]
    eta[1], h[1] = 1e200, 1.0
    w0 = rng.uniform(-3.0, 3.0, n) + 1j * eta
    target = 10.0 ** rng.uniform(-14.0, -6.0, n) * h
    xstd, tails = cheb_grid(loewner._NODES)
    if kind == "atom":
        u = rng.uniform(-2.0, 2.0, (n, 1)) + 0.5 * (xstd + 1.0) * rng.uniform(-1.0, 1.0, (n, 1))
        integrand = lambda V: 1.0 / (V - u)
    else:
        integrand = semicircle().cauchy
    calls = []

    def integrate(V):
        calls.append(1)
        return integrand(V) @ tails.T

    return (w0, h, eta, target), integrate, calls


@pytest.mark.parametrize("nodes", [24, 40])
@pytest.mark.parametrize("kind", ["atom", "semicircle"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_picard_matches_the_reference_loop(monkeypatch, nodes, kind, seed):
    monkeypatch.setattr(loewner, "_NODES", nodes)
    args, integrate, calls = _picard_case(seed, kind)
    B, tail = loewner._picard(*args, integrate)
    sweeps = len(calls)
    B_ref, tail_ref = reference_picard(*args, integrate)
    assert sweeps == len(calls) - sweeps > 1  # the reference swept as often
    assert np.array_equal(B, B_ref)
    # both tails are products of the same factors, rounded in another
    # order: at most 3 roundings a sweep on each side, plus the ends
    assert np.all(np.abs(tail - tail_ref) <= (6 * sweeps + 6) * 2.0**-53 * tail_ref)
    assert np.all(tail <= args[3])


@pytest.mark.parametrize("kind", ["atom", "semicircle"])
def test_picard_refuses_before_the_first_sweep(kind):
    # a lane at the cap that 64 sweeps cannot bring within 1e-250
    args, integrate, calls = _picard_case(3, kind)
    args[3][0] = 1e-250
    with pytest.raises(NonConvergenceError) as new:
        loewner._picard(*args, integrate)
    assert calls == []
    with pytest.raises(NonConvergenceError) as ref:
        reference_picard(*args, integrate)
    assert len(calls) == loewner._MAX_PICARD
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("nodes", [24, 40])
def test_solve_rho_meets_its_inequality(monkeypatch, nodes):
    # rho^(M-1) (rho - 1) >= max(R, 10): the fixed-point iterates alternate
    # around the root, and the last one alone fell below it on 1,308 of
    # these R at 24 nodes
    monkeypatch.setattr(loewner, "_NODES", nodes)
    R = np.logspace(0.0, 20.0, 2001)
    rho = loewner._solve_rho(R)
    lhs = (nodes - 1) * np.log(rho) + np.log(rho - 1.0)
    assert np.all(lhs >= np.log(np.maximum(R, 10.0)) - 1e-12)
    assert np.all(rho >= 2.0)


def test_delta0_grid_substeps_at_the_contraction_cap(monkeypatch):
    # at 40 nodes the cap eta^2/2, not the interpolation limit, sets these
    # substeps: 88 rounds (148 at 24 nodes)
    rounds = [0]
    substep = loewner._PiecewiseConstant._substep

    def counted(self, *args):
        rounds[0] += 1
        return substep(self, *args)

    monkeypatch.setattr(loewner._PiecewiseConstant, "_substep", counted)
    transition_grid(DELTA0, 0.0, 2.0, acceptance_grid())
    assert rounds[0] <= 100


def test_seamed_atom_grid_at_tight_tol_within_bound():
    # at tol 1e-12 the substep parameter R reaches ~6e16, past the 1.2e15
    # up to which 40 nodes keep the cap binding: the interpolation limit
    # sets the substeps again
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
