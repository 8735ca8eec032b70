"""Chordal Loewner flows driven by families of probability measures.

The transition maps ``B(a, b; z)`` of the upper half-plane solve

    B(a, b; z) = z - int_a^b int mu_s(dx) / (B(s, b; z) - x) ds,

and compose by ``B(a, c) = B(a, b) o B(b, c)``.  The solver walks the time
interval downward in substeps sized so that the Picard iteration for the
integral equation contracts factorially, and gives each iteration the
fewest sweeps n for which the certified remainder

    |B_{n+1} - B_n| <= h^(n+1) / (Im^(2n+1) (n+1)!)

(summed over the sweeps not taken) falls below the substep's share of the
global error budget.  That remainder depends on h, eta = Im w and n only,
not on the iterates, so ``_picard`` fixes n before the first sweep, and
refuses at once when 64 sweeps would not reach the target.  Shares are
weighted by a Schwarz-Pick amplification factor so that the pointwise error
of the chained result stays below ``config.tol``; the achieved (usually much
smaller) bound is reported alongside every value.

One Picard loop, ``_picard``, serves every driver.  Per substep the
iterates live on a Chebyshev-Lobatto grid, and the loop takes from the
driver only ``integrate(B)``: the suffix integrals over the standard grid of
the driver's integrand at the node values ``B``.  A driver is a
``DriverFamily`` subclass that supplies its measure lookup, its knot table
(the pieces no substep may straddle, with the slope of the atom path and
its running variation at each), and ``_substep``, which builds
``integrate`` and runs the loop.  ``_evolve_chunk`` looks each lane's piece
up in the table once per round and hands it to ``_substep``.  Two
drivers exist: piecewise-constant measure families and a moving atom along
a piecewise-linear path.  A piecewise-constant driver evaluates the Cauchy
transform by ``RealMeasure.cauchy``: atoms exactly, named densities in
closed form, and only segments given as a bare callable by their
quadrature nodes.  The certified bound covers the first two; it has no
term for the node error of the third, which grows within a node gap of
the support.  The atom's integrand is ``1/(B - U)``; no substep straddles
a knot, so ``U`` is affine on each substep and known at the nodes.

Both drivers integrate one way: each sweep samples the integrand at the
M Lobatto nodes and integrates its degree-(M-1) interpolant exactly (the
``tails`` matrix of ``cheb_grid``).  Of a substep's budget the certified
Picard tail gets 0.8 and the interpolation error 0.2, and the substep rule
keeps the latter in its share.  If the integrand f is analytic with
|f| <= K on the Bernstein ellipse E_rho of the substep (mapped to complex
time), its interpolant misses by at most 4 K rho^-(M-1) / (rho - 1)
(Trefethen, *Approximation Theory and Approximation Practice*, Thm 8.2).
The rule picks rho from the budget and sets h so that E_rho has half-height

    H = eta^2 / (4 (1 + c v eta)),

where eta is Im w where the substep is entered and v is the slope |dU/dt|
of the piece under the substep (no substep straddles a knot), 0 for
piecewise-constant drivers, which get H = eta^2/4.  On the ellipse, as
long as |f| <= 2/eta, B moves from the real path by at most 2H/eta in
complex time, and the affine U gains |Im U| <= vH.  With x = c v eta the
distance from B to the support (real, or U) therefore falls by at most

    2H/eta + vH = eta (2c + x) / (4c (1 + x)),

which is at most eta/2 for every x >= 0 exactly when c >= 1/2.  Then
|f| <= 2/eta holds on the whole ellipse for both drivers, and the atom's
interpolation error obeys the same estimate as a constant driver's.  The
solver takes c = 3: the atom's own share vH stays below eta/12, and the
total loss falls toward eta/12 as the path steepens, which leaves slack
for what the estimate neglects (the ellipse reaches past the substep's
ends in real time).  With it, atom paths of slope up to 100 keep every
error within its bound.

The node count M = 40 lets the contraction cap h <= eta^2/2, not the
interpolation limit, set most substeps.  For a constant driver the rule
gives h = eta^2 / (rho - 1/rho), which reaches the cap once
rho <= 1 + sqrt(2); and rho = 1 + sqrt(2) meets rho^(M-1) (rho - 1) >= R
(R = 120 span amp / (eta tol), as ``_evolve_chunk`` sets it) for R up to
2e14 at M = 38 and 1.2e15 at M = 40.  That covers the default tol on
grids with Im z >= 0.2 over spans up to 2 (R <= 6e13).  At M = 24 the
interpolation limit held the substeps below the cap there: delta_0 on
such a 200-point grid at t = 2 took 148 rounds, against 88 at M = 40.
Tighter tolerances or points nearer the axis raise R past that range,
and the interpolation limit binds again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .measures import (
    SETTLE_TOL, RealMeasure, _require_upper, measure_from_dict, point_mass, y_ladder,
)
from .numerics import cheb_grid, y_limit

__all__ = [
    "SolverConfig",
    "DriverFamily",
    "TransitionMap",
    "driver_from_dict",
    "driver_measure_at",
    "solve_transition",
    "transition_grid",
    "evaluate_map",
    "hydrodynamic_parameter",
    "semigroup_defect",
    "univalence_probe",
]

_NODES = 40           # Chebyshev-Lobatto collocation points per substep
_CHUNK = 1024         # z-points advanced per lockstep batch
_MAX_PICARD = 64
_MAX_ROUNDS = 200_000
_MIN_STEP = 1e-12
_SPEED_SLACK = 3.0    # c of the substep rule's ellipse height (module docstring)


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy knobs for the transition-map solver.

    ``tol`` is the absolute pointwise error target for a solved value,
    ``max_step`` caps the substep length, and ``contraction_margin`` bounds
    the ratio h / Im(w)^2 on every substep (at most 1/2 so the certified
    remainder series is geometrically dominated from the first term).
    """

    tol: float = 1e-9
    max_step: float = 1.0
    contraction_margin: float = 0.5

    def __post_init__(self) -> None:
        if not (self.tol >= 1e-14 and math.isfinite(self.tol)):
            raise InvalidInputError("tol must be positive, finite and at least 1e-14")
        if not (self.max_step > 0 and math.isfinite(self.max_step)):
            raise InvalidInputError("max_step must be finite and positive")
        if not (0.0 < self.contraction_margin <= 0.5):
            raise InvalidInputError("contraction_margin must lie in (0, 1/2]")

    @property
    def min_imag(self) -> float:
        """Smallest admissible Im z; closer points are rejected."""
        return 10.0 * math.sqrt(self.tol)


_DEFAULT_CONFIG = SolverConfig()


def _float_array(values, message: str) -> np.ndarray:
    # strings, ragged lists and numbers past the float range are bad input
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(message) from exc


def _horizon(horizon, default: float) -> float:
    try:
        hor = default if horizon is None else float(horizon)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError("horizon must be a number") from exc
    if not hor > 0 or math.isnan(hor):
        raise InvalidInputError("horizon must be positive")
    return hor


@dataclass(frozen=True, eq=False)
class DriverFamily:
    """A time-indexed family of probability measures on the real line.

    Two variants:

    * ``piecewise_constant`` -- breakpoints ``0 = t_0 < t_1 < ...`` with one
      measure per interval ``[t_k, t_{k+1})`` (right-continuous lookup);
    * ``moving_atom`` -- a unit point mass at ``U(t)``, with ``U`` the
      piecewise-linear interpolant of strictly increasing time samples.

    Instances are immutable; build them through the classmethods.  Each
    variant supplies the measure lookup and one Picard substep.  The knot
    table, built once by the constructor, holds the pieces where the driver
    keeps one form, which no substep straddles: piece k is
    ``[_knots[k], _knots[k+1])``, ``_slopes[k]`` is ``|dU/dt|`` on it (0 for
    piecewise-constant drivers), and ``_cumvar`` is the running sum of
    ``|dU|`` at each knot.
    """

    kind: ClassVar[str]
    horizon: float
    support_bound: float
    _knots: np.ndarray
    _slopes: np.ndarray
    _cumvar: np.ndarray

    # -- constructors -----------------------------------------------------

    @classmethod
    def piecewise_constant(
        cls,
        breaks: Sequence[float],
        measures: Sequence[RealMeasure],
        horizon: float | None = None,
    ) -> "DriverFamily":
        b = _float_array(breaks, "breaks must be a non-empty 1-d finite array")
        if b.ndim != 1 or b.size == 0 or not np.all(np.isfinite(b)):
            raise InvalidInputError("breaks must be a non-empty 1-d finite array")
        if b[0] != 0.0:
            raise InvalidInputError("first breakpoint must be 0")
        if np.any(np.diff(b) <= 0):
            raise InvalidInputError("breakpoints must be strictly increasing")
        if len(measures) != b.size:
            raise InvalidInputError("need exactly one measure per breakpoint")
        ms = tuple(measures)
        for mu in ms:
            if not isinstance(mu, RealMeasure):
                raise InvalidInputError("driver measures must be RealMeasure instances")
            if not mu.is_probability:
                raise InvalidInputError("driver measures must have unit mass")
        hor = _horizon(horizon, math.inf)
        if hor < b[-1]:
            raise InvalidInputError("horizon lies before the last breakpoint")
        # unit mass guarantees every support is non-empty
        bound = max(max(-mu.support[0], mu.support[1]) for mu in ms)
        knots = np.append(b, np.inf)
        return _PiecewiseConstant(hor, bound, knots, np.zeros(b.size), np.zeros(knots.size), ms)

    @classmethod
    def constant(cls, measure: RealMeasure, horizon: float | None = None) -> "DriverFamily":
        return cls.piecewise_constant([0.0], [measure], horizon=horizon)

    @classmethod
    def moving_atom(
        cls,
        samples: Sequence[tuple[float, float]],
        horizon: float | None = None,
    ) -> "DriverFamily":
        arr = _float_array(samples, "samples must be at least two (time, position) pairs")
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise InvalidInputError("samples must be at least two (time, position) pairs")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("samples must be finite")
        times, positions = arr[:, 0], arr[:, 1]
        if times[0] != 0.0:
            raise InvalidInputError("first sample time must be 0")
        if np.any(np.diff(times) <= 0):
            raise InvalidInputError("sample times must be strictly increasing")
        hor = _horizon(horizon, float(times[-1]))
        if hor > times[-1]:
            raise InvalidInputError("samples do not reach the requested horizon")
        with np.errstate(over="ignore"):  # inf refuses in the substep rule
            du = np.abs(np.diff(positions))
            slopes = du / np.diff(times)
            cumvar = np.concatenate(([0.0], np.cumsum(du)))
        return _MovingAtom(
            hor, float(np.max(np.abs(positions))), times, slopes, cumvar, positions)

    # -- queries -----------------------------------------------------------

    def measure_at(self, t: float) -> RealMeasure:
        t = float(t)
        if math.isnan(t) or t < 0:
            raise InvalidInputError("time must be non-negative")
        if t > self.horizon:
            raise InvalidInputError(f"time {t} lies beyond the driver horizon {self.horizon}")
        return self._measure(t)

    def _measure(self, t: float) -> RealMeasure:
        raise NotImplementedError

    @property
    def speed(self) -> float:
        """Largest |dU/dt| of the driver's atom path; 0.0 if nothing moves."""
        return float(np.max(self._slopes))

    def _substep(self, piece, s0, h, w0, eta, target):
        """Picard-solve the substeps ``[s0, s0 + h]`` entered at ``w0``,
        each within its knot-table ``piece``.

        Returns the node values and the certified Picard tail, which is at
        most ``target``.
        """
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _PiecewiseConstant(DriverFamily):
    kind: ClassVar[str] = "piecewise_constant"
    measures: tuple[RealMeasure, ...]

    def _measure(self, t: float) -> RealMeasure:
        # the breaks, without the inf knot: t = inf reads the last measure
        return self.measures[int(np.searchsorted(self._knots[:-1], t, side="right")) - 1]

    def _substep(self, piece, s0, h, w0, eta, target):
        _, tails = cheb_grid(_NODES)
        if piece.min() == piece.max():  # every lane in one piece: no masks
            g = self.measures[piece[0]].cauchy
            return _picard(w0, h, eta, target, lambda V: g(V) @ tails.T)
        B = np.empty((w0.size, _NODES), dtype=complex)
        tail = np.empty(w0.size)
        for k in np.unique(piece):
            m = piece == k
            g = self.measures[k].cauchy
            B[m], tail[m] = _picard(
                w0[m], h[m], eta[m], target[m], lambda V: g(V) @ tails.T)
        return B, tail


@dataclass(frozen=True, eq=False)
class _MovingAtom(DriverFamily):
    kind: ClassVar[str] = "moving_atom"
    positions: np.ndarray

    def _measure(self, t: float) -> RealMeasure:
        return point_mass(float(np.interp(t, self._knots, self.positions)))

    def _substep(self, piece, s0, h, w0, eta, target):
        # No substep straddles a knot, so U is affine on [s0, s0 + h] and
        # its two end values give it at every Lobatto node.
        xstd, tails = cheb_grid(_NODES)
        u0 = np.interp(s0, self._knots, self.positions)
        du = np.interp(s0 + h, self._knots, self.positions) - u0
        u = u0[:, None] + (0.5 * (xstd + 1.0)) * du[:, None]
        return _picard(w0, h, eta, target, lambda V: (1.0 / (V - u)) @ tails.T)


def driver_measure_at(family: DriverFamily, t: float) -> RealMeasure:
    """Measure governing the family at time ``t`` (right-continuous)."""
    return family.measure_at(t)


def driver_from_dict(obj: dict) -> DriverFamily:
    """Build a driver from its JSON object form.

    Accepts ``{"horizon": T, "driver": {...}}`` or the bare inner object.
    Piecewise drivers carry ``breaks`` and a list of measure objects; the
    moving atom carries ``samples`` as ``[t, u]`` pairs.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("driver specification must be a JSON object")
    horizon = obj.get("horizon")
    inner = obj.get("driver", obj)
    if not isinstance(inner, dict) or "type" not in inner:
        raise InvalidInputError("driver object needs a 'type' field")
    kind = inner["type"]
    if kind == "piecewise_constant":
        if "breaks" not in inner or "measures" not in inner:
            raise InvalidInputError("piecewise_constant driver needs 'breaks' and 'measures'")
        if not isinstance(inner["measures"], list):
            raise InvalidInputError("piecewise_constant 'measures' must be a list")
        measures = [measure_from_dict(m) for m in inner["measures"]]
        return DriverFamily.piecewise_constant(inner["breaks"], measures, horizon=horizon)
    if kind == "moving_atom":
        if "samples" not in inner:
            raise InvalidInputError("moving_atom driver needs 'samples'")
        return DriverFamily.moving_atom(inner["samples"], horizon=horizon)
    raise InvalidInputError(f"unknown driver type {kind!r}")


# ---------------------------------------------------------------------------
# Substep machinery


def _solve_rho(R: np.ndarray) -> np.ndarray:
    # Smallest rho >= 2 with rho^(M-1) (rho - 1) >= R; fixed point in log
    # form. The map is decreasing, so the iterates alternate around the
    # root and the larger of the last two lies on its safe side.
    logR = np.log(np.maximum(R, 10.0))
    rho = np.maximum(np.exp(logR / _NODES), 2.0)
    for _ in range(4):
        last = rho
        rho = np.maximum(np.exp((logR - np.log(rho - 1.0)) / (_NODES - 1)), 2.0)
    return np.maximum(rho, last)


def _picard(
    w0: np.ndarray,
    h: np.ndarray,
    eta: np.ndarray,
    target: np.ndarray,
    integrate: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration for one substep per point.

    Iterates live as values on the Lobatto grid; ``integrate`` maps them to
    the suffix integrals of the Cauchy transform over the standard grid.
    The certified remainder after n sweeps depends on ``(h, eta, n)`` only,
    so the sweep count is fixed before the first sweep: the least n that
    brings every point within its target.  Returns the accepted node values
    and the certified remainder per point.
    """
    with np.errstate(over="ignore"):  # eta^2 = inf far above the axis: 1/eta^2 = 0
        inv_eta2 = (1.0 / (eta * eta))[:, None]
    h_col = h[:, None]
    k = np.arange(2.0, _MAX_PICARD + 2.0)  # n + 1 for sweep n = 1, 2, ...
    # after sweep n the remainder is (h/eta) prod_{k=2}^{n+1} (h/eta^2)/k
    # over 1 - (h/eta^2)/(n+2); h/eta^2 is not rounded once and reused, so
    # its rounding does not compound over the n factors
    tails = np.cumprod(h_col * (inv_eta2 / k), axis=1)
    tails *= (h / eta)[:, None]
    tails /= 1.0 - h_col * inv_eta2 / (k + 1.0)
    done = np.all(tails <= target[:, None], axis=0)
    if not done.any():
        raise NonConvergenceError("Picard iteration failed to certify within 64 sweeps")
    sweeps = int(done.argmax()) + 1
    tail = tails[:, sweeps - 1].copy()
    del tails
    B = np.repeat(w0[:, None], _NODES, axis=1)
    w_col = w0[:, None]
    half_h = 0.5 * h_col
    for _ in range(sweeps):
        step = integrate(B)
        step *= half_h  # in place: no second node-sized temporary
        np.subtract(w_col, step, out=B)
        del step
    return B, tail


def _evolve_chunk(
    family: DriverFamily,
    a: np.ndarray,
    b: np.ndarray,
    z: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    # Runs under _solve_many's errstate: far above the axis eta^2 overflows
    # to inf and 1/eta^2 = 0 is the right limit there; a nan step refuses.
    w = z.astype(complex, copy=True)
    err = np.zeros(z.size)
    span = np.maximum(b - a, _MIN_STEP)  # budget scale only; a == b never iterates
    knots, slopes, cumvar = family._knots, family._slopes, family._cumvar
    # Im w never decreases along the path, so the substep parameter R of
    # the loop below is largest on the first round: refuse here if it
    # overflows rather than iterate on infinities.
    worst_r = 120.0 * span * (1.0 + (b - a) / (z.imag * z.imag)) / (z.imag * cfg.tol)
    if not np.all(np.isfinite(worst_r)):
        raise NonConvergenceError("time span too long for the requested tolerance")
    # No substep is longer than max_step, nor (rho >= 2) longer than
    # eta / (1.5 c v) on a piece of slope v, while Im w^2 grows by at most 2
    # per unit time: a span, or a path whose variation sum |dU| is too large
    # to cross within the round cap, refuses here (an overflow to nan never
    # does).
    eta_max = np.sqrt(z.imag * z.imag + 2.0 * (b - a))
    variation = np.interp(b, knots, cumvar) - np.interp(a, knots, cumvar)
    too_steep = 1.5 * _SPEED_SLACK * variation > _MAX_ROUNDS * eta_max
    if np.any(b - a > _MAX_ROUNDS * cfg.max_step) or np.any(too_steep):
        raise NonConvergenceError("substep count exceeded the global cap")

    # the lanes still moving, and their s, a and span
    act = np.flatnonzero(b > a)
    s, a, span = b[act], a[act], span[act]
    for _ in range(_MAX_ROUNDS):
        if act.size == 0:
            return w, err
        eta = w.imag[act]
        # the piece under the substep: the last knot below s (s > a >= 0)
        piece = np.searchsorted(knots, s, side="left") - 1

        # Substep rule: the Picard contraction wants h <= margin * eta^2;
        # the interpolation error of the M-node iterate wants a Bernstein
        # parameter rho large enough that its tail stays under a fifth of
        # the substep budget, on an ellipse of half-height
        # eta^2 / (4 (1 + c v eta)) with v the piece's slope (module
        # docstring); the max_step cap limits it far above the axis.
        inv_eta2 = 1.0 / (eta * eta)
        amp_cap = 1.0 + (s - a) * inv_eta2
        R = 120.0 * span * amp_cap / (eta * cfg.tol)
        rho = _solve_rho(R)
        h0 = eta * eta / ((rho - 1.0 / rho) * (1.0 + _SPEED_SLACK * slopes[piece] * eta))
        h0 = np.minimum(h0, cfg.contraction_margin * eta * eta)
        h0 = np.minimum(h0, cfg.max_step)
        if not np.all(h0 >= _MIN_STEP):
            # A piece shorter than _MIN_STEP (a jump in the atom path) may
            # take shorter substeps as long as each one moves s: their count
            # follows the piece's variation, which the test above caps.
            short = (knots[piece + 1] - knots[piece] < _MIN_STEP) & (s - h0 < s)
            if not np.all((h0 >= _MIN_STEP) | short):
                raise NonConvergenceError(
                    "substep size underflow: evaluation too close to the hull "
                    "for the requested tolerance"
                )

        # no substep straddles a knot; exact arrival at a, no fp drift
        land = np.maximum(np.maximum(s - h0, knots[piece]), a)
        h = s - land

        amp = 1.0 + (land - a) * inv_eta2
        budget = cfg.tol * h / (span * amp)
        # the certified Picard tail gets 0.8 of the budget; the rule above
        # keeps the interpolation error under the other 0.2
        Bn, tail = family._substep(piece, land, h, w[act], eta, 0.8 * budget)

        w[act] = Bn[:, 0]
        err[act] += (tail + 0.2 * budget) * amp
        moving = land > a
        act, s, a, span = act[moving], land[moving], a[moving], span[moving]

    raise NonConvergenceError("substep count exceeded the global cap")


def _solve_many(
    family: DriverFamily,
    a,
    b,
    z,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    cfg = config or _DEFAULT_CONFIG
    if not isinstance(family, DriverFamily):
        raise InvalidInputError("family must be a DriverFamily")
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    z_arr = np.asarray(z, dtype=complex)
    shape = np.broadcast_shapes(a_arr.shape, b_arr.shape, z_arr.shape)
    a_arr = np.broadcast_to(a_arr, shape).ravel()
    b_arr = np.broadcast_to(b_arr, shape).ravel()
    z_arr = np.broadcast_to(z_arr, shape).ravel()
    if not (np.all(np.isfinite(a_arr)) and np.all(np.isfinite(b_arr))):
        raise InvalidInputError("times must be finite")
    if np.any(a_arr < 0):
        raise InvalidInputError("times must be non-negative")
    if np.any(a_arr > b_arr):
        raise InvalidInputError("need a <= b")
    if np.any(b_arr > family.horizon):
        raise InvalidInputError("b lies beyond the driver horizon")
    _require_upper(z_arr)
    floor = cfg.min_imag
    if np.any(z_arr.imag < floor):
        raise InvalidInputError(
            f"Im z below the solver floor {floor:.3g} for tol {cfg.tol:.3g}"
        )

    w = np.empty(a_arr.size, dtype=complex)
    e = np.empty(a_arr.size)
    with np.errstate(over="ignore", invalid="ignore"):  # one for all chunks
        for lo in range(0, a_arr.size, _CHUNK):
            sl = slice(lo, lo + _CHUNK)
            w[sl], e[sl] = _evolve_chunk(family, a_arr[sl], b_arr[sl], z_arr[sl], cfg)
    return w.reshape(shape), e.reshape(shape)


# ---------------------------------------------------------------------------
# Public solver API


def solve_transition(
    family: DriverFamily,
    a: float,
    b: float,
    z: complex,
    config: SolverConfig | None = None,
) -> complex:
    """B(a, b; z) with absolute error at most ``config.tol``."""
    w, _ = _solve_many(family, float(a), float(b), complex(z), config)
    return complex(w)


def transition_grid(
    family: DriverFamily,
    a,
    b,
    zs,
    config: SolverConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``solve_transition``; returns values and error bounds.

    ``a``, ``b`` and ``zs`` broadcast against each other, so grids over
    points, over times, or over both run in one lockstep batch.
    """
    return _solve_many(family, a, b, zs, config)


def evaluate_map(
    family: DriverFamily,
    t: float,
    z: complex,
    config: SolverConfig | None = None,
) -> complex:
    """The Loewner family member f(t; z) = B(0, t; z)."""
    return solve_transition(family, 0.0, t, z, config)


@dataclass(frozen=True)
class TransitionMap:
    """The map B(a, b; .) as a reusable callable."""

    family: DriverFamily
    a: float
    b: float
    config: SolverConfig = _DEFAULT_CONFIG

    def __post_init__(self) -> None:
        if not (0 <= self.a <= self.b):
            raise InvalidInputError("need 0 <= a <= b")
        if self.b > self.family.horizon:
            raise InvalidInputError("b lies beyond the driver horizon")

    def __call__(self, z: complex) -> complex:
        return solve_transition(self.family, self.a, self.b, z, self.config)

    def evaluate(self, z: complex) -> tuple[complex, float]:
        """Value and certified error bound at one point."""
        w, e = _solve_many(self.family, self.a, self.b, complex(z), self.config)
        return complex(w), float(e)

    def grid(self, zs) -> tuple[np.ndarray, np.ndarray]:
        return _solve_many(self.family, self.a, self.b, zs, self.config)


def hydrodynamic_parameter(
    family: DriverFamily,
    t: float,
    config: SolverConfig | None = None,
) -> float:
    """The coefficient c in f(t; iy) = i(y + c/y) + o(1/y), extrapolated.

    For unit-mass drivers this equals t.  Solved on a doubling y-ladder at
    a tightened tolerance, then Richardson-extrapolated twice in 1/y; the
    extrapolation must settle and the imaginary residual must vanish below
    1e-6, else the computation is reported as non-convergent.
    """
    cfg = config or _DEFAULT_CONFIG
    t = float(t)
    if t < 0 or math.isnan(t):
        raise InvalidInputError("t must be non-negative")
    if t == 0.0:
        return 0.0
    tight = replace(cfg, tol=min(cfg.tol, 1e-12))
    ys = y_ladder()
    w, _ = _solve_many(family, 0.0, t, 1j * ys, tight)
    vals = (1j * ys) * (1j * ys - w)
    limit, diff = y_limit(vals, ys)
    if diff > SETTLE_TOL * max(1.0, abs(limit)):
        raise NonConvergenceError("hydrodynamic extrapolation did not settle")
    if abs(limit.imag) >= 1e-6:
        raise NonConvergenceError(
            f"imaginary residual {limit.imag:.3e} in the hydrodynamic limit"
        )
    return float(limit.real)


def semigroup_defect(
    family: DriverFamily,
    a: float,
    b: float,
    c: float,
    zs,
    config: SolverConfig | None = None,
) -> float:
    """max over zs of |B(a,c;z) - B(a,b;B(b,c;z))|."""
    if not (0 <= a <= b <= c):
        raise InvalidInputError("need 0 <= a <= b <= c")
    zs = np.asarray(zs, dtype=complex)
    direct, _ = _solve_many(family, a, c, zs, config)
    inner, _ = _solve_many(family, b, c, zs, config)
    outer, _ = _solve_many(family, a, b, inner, config)
    return float(np.abs(direct - outer).max())


def univalence_probe(
    family: DriverFamily,
    t: float,
    pairs,
    config: SolverConfig | None = None,
) -> bool:
    """Injectivity check for f(t; .) on sample pairs.

    True iff every pair separated by more than 1e-6 lands more than
    ``2 * tol`` apart; closer input pairs are skipped as unresolvable.
    Pairs must sit at Im z >= 0.1.
    """
    cfg = config or _DEFAULT_CONFIG
    arr = np.asarray(pairs, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidInputError("pairs must be an iterable of (z1, z2)")
    if np.any(arr.imag < 0.1):
        raise InvalidInputError("probe points must satisfy Im z >= 0.1")
    resolved = np.abs(arr[:, 0] - arr[:, 1]) > 1e-6
    if not np.any(resolved):
        return True
    pts = arr[resolved]
    f1, _ = _solve_many(family, 0.0, t, pts[:, 0], cfg)
    f2, _ = _solve_many(family, 0.0, t, pts[:, 1], cfg)
    return bool(np.all(np.abs(f1 - f2) > 2.0 * cfg.tol))
