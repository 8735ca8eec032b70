"""Chordal Loewner flows driven by families of probability measures.

The transition maps ``B(a, b; z)`` of the upper half-plane solve

    B(a, b; z) = z - int_a^b int mu_s(dx) / (B(s, b; z) - x) ds,

and compose by ``B(a, c) = B(a, b) o B(b, c)``.  The solver walks the time
interval downward in substeps sized so that the Picard iteration for the
integral equation contracts factorially, and gives each iteration the
fewest sweeps n for which the certified remainder

    |B_{n+1} - B_n| <= M h (L h)^n / (n+1)!

(summed over the sweeps not taken) falls below the substep's share of the
global error budget.  M and L bound |G| and |G'| (below); the
remainder depends on them, h and n only, not on the iterates, so
``_picard`` fixes n before the first sweep, and refuses at once when 64
sweeps would not reach the target.  Shares are weighted by an
amplification factor so that the pointwise error of the chained result
stays below ``config.tol``; the achieved (usually much smaller) bound is
reported alongside every value.

Regularity constants.  With G the Cauchy transform of the measure under a
substep (1/(w - U), a unit atom's, for the moving atom) and eta = Im w
where the substep is entered, ``RealMeasure.g_bounds(eta)`` gives
M >= |G| and L >= |G'| on Im w >= eta, and K >= |G| on Im w >= eta/2.

Picard remainder.  On the substep [s - h, s] the iterates are B_0 = w and
B_{n+1}(t) = w - int_t^s G(B_n(r)) dr.  Since -Im G > 0 on the upper
half-plane, every iterate keeps Im >= eta, where M = M(eta) bounds G and
L = L(eta) bounds G'; by induction |B_{n+1} - B_n| <= M L^n (s - t)^(n+1)
/ (n+1)!, which at t = s - h is the remainder above.  With the
contraction cap h <= margin / L (margin <= 1/2) the terms from the n-th
on sum to at most 1/(1 - Lh/(n+2)) times the n-th.

Amplification.  An error made in the value w' = B(t, b; z) at the lower
end t of a substep reaches the result through B(a, t; .), a holomorphic
self-map of the upper half-plane.  Schwarz-Pick bounds its derivative by
Im B(a, t; w') / Im w'.  For unit mass, d(Im B)^2 / d(-t) = -2 Im B Im
G(B) <= 2, so Im B(a, t; w')^2 <= Im w'^2 + 2(t - a), and, since Im w' >=
eta and the bound falls as Im w' grows, the error reaches the result
times at most

    amp = sqrt(1 + 2 (t - a) / eta^2).

One Picard loop, ``_picard``, serves every driver.  Per substep the
iterates live on a Chebyshev-Lobatto grid, node-major: an ``(N, lanes)``
array whose first row, at the lower end of the substep, is where each lane
lands.  The loop takes from the driver only ``integrand(B)``: the driver's
integrand at the node values ``B``.  The quadrature is the loop's own, one
real product ``tails @ F.view(float)`` per sweep over the real and
imaginary parts side by side, written into ``B``: no complex copy of
``tails``, half the multiply-adds of a complex product, and no array
allocated per sweep but the integrand's value, kept only until its product
has run.  A driver is a ``DriverFamily`` subclass that supplies its
measure lookup, its knot table (the pieces no substep may straddle, with
the slope of the atom path and its running variation at each),
``_substep``, which builds ``integrand`` and runs the loop, and, unless
the atom constants serve, ``_bounds``, the regularity constants of each
lane's piece.  ``_evolve`` moves at most ``_CHUNK`` lanes at once, in
lockstep, a substep each per round, and looks each lane's piece up in the
table once per round and hands it to both.  A lane that lands gives its
slot to the next one waiting, in index order, and ``_MAX_ROUNDS`` caps each
lane's substeps from the round it entered; a round sweeps as often as its
neediest lane asks, so a value depends on its set within its bound, not bit
for bit.  The extra sweeps cost less than skipping them: sorting the lanes
by their own sweep count and sweeping a shrinking prefix took the 10k-lane
delta_0 batch from 89 to 112 ms (2-core Xeon).  Two drivers exist:
piecewise-constant measure families and a moving atom along a
piecewise-linear path.  A piecewise-constant driver evaluates the Cauchy
transform by ``RealMeasure.cauchy``: atoms exactly,
named densities in closed form, and only segments given as a bare callable
by their quadrature nodes.  The certified bound covers the first two; it
has no term for the node error of the third, which grows within a node gap
of the support.  The atom's integrand is ``1/(B - U)``; no substep
straddles a knot, so ``U`` is affine on each substep and known at the
nodes.

Both drivers integrate one way: each sweep samples the integrand at the
N = 40 Lobatto nodes, and ``_picard`` integrates its degree-(N-1)
interpolant exactly (the ``tails`` matrix of ``cheb_grid``); a driver
supplies only the integrand.  Of a substep's budget the certified Picard
tail gets 0.8 and the interpolation error 0.2, and the substep rule keeps
the latter in its share.  If the integrand f is analytic with |f| <= K on
the Bernstein ellipse E_rho of the substep (mapped to complex time), its
interpolant misses by at most 4 K rho^-(N-1) / (rho - 1) (Trefethen,
*Approximation Theory and Approximation Practice*, Thm 8.2).  The rule
picks rho from the budget and sets h so that E_rho has half-height

    H = eta / (2 (K + 2 c v)),    K = M(eta/2) <= 2 M(eta),

where v is the slope |dU/dt| of the piece under the substep (no substep
straddles a knot), 0 for piecewise-constant drivers.  On the ellipse, as
long as |f| <= K, B moves from the real path by at most KH in complex
time, and the affine U gains |Im U| <= vH.  The distance from B to the
support (real, or U) therefore falls by at most

    (K + v) H = eta (K + v) / (2 (K + 2 c v)),

which is at most eta/2 for every v >= 0 exactly when c >= 1/2.  Then the
distance stays >= eta/2 on the whole ellipse, where M(eta/2) bounds G and
2/eta bounds the atom's 1/(B - U): |f| <= K holds for both drivers.
Since K <= 2M, H >= eta / (4 (M + c v)); the moving atom has K = 2/eta,
and H is the eta^2 / (4 (1 + c v eta)) of the atom-only rule.  The solver
takes c = 3: the atom's own share vH stays below eta/12, and the total
loss falls toward eta/12 as the path steepens, which leaves slack for
what the estimate neglects (the ellipse reaches past the substep's ends
in real time).  With it, atom paths of slope up to 100 keep every error
within its bound.  The interpolation share asks 4 K rho^-(N-1) / (rho - 1)
<= 0.2 tol / (span amp) per unit time; with a factor 3 of slack it asks
rho^(N-1) (rho - 1) >= R = 60 K span amp / tol.  The rule takes
rho = max(2, R^(1/(N-1))), which meets that because rho - 1 >= 1, and

    h = min(4H / (rho - 1/rho), margin / L, max_step).

The node count N = 40 lets the contraction cap, not the interpolation
limit, set most atom substeps.  With M = 1/eta the interpolation limit is
h = eta^2 / (rho - 1/rho), which reaches the cap eta^2/2 once
rho <= 1 + sqrt(2), that is for R <= (1 + sqrt(2))^(N-1): about 1.5e14
at N = 38 and 8.5e14 at N = 40.  That covers the default
tol on grids with Im z >= 0.2 over spans up to 2.  At N = 24 the
interpolation limit held the substeps below the cap there: delta_0 on such
a 200-point grid at t = 2 took 148 rounds, against 88 at N = 40.  Tighter
tolerances or points nearer the axis raise R past that range, and the
interpolation limit binds again.  A bounded density has L of order 1/eta,
not 1/eta^2, so its cap lies far above its interpolation limit, which at
K of order log(1/eta) is of order eta / log(1/eta): the semicircle at
2 + 0.001i takes 116 substeps to t = 0.5, where the atom-style constants
took 27,810.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .measures import _TINY, RealMeasure, _require_upper, measure_from_dict, point_mass
from .numerics import Y_LADDER, cheb_grid, floats, json_keys, json_numbers, y_limit

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
_CHUNK = 1024         # most lanes moving at once (module docstring)
_MAX_PICARD = 64
_SWEEP_BLOCK = 16     # columns of the Picard remainder table built at a time
_MAX_ROUNDS = 200_000  # most substeps of one lane
_MIN_STEP = 1e-12
_SPEED_SLACK = 3.0    # c of the substep rule's ellipse height (module docstring)
_UNIT_ATOM = point_mass()  # its g_bounds are the atom constants


@dataclass(frozen=True)
class SolverConfig:
    """Accuracy knobs for the transition-map solver.

    ``tol`` is the absolute pointwise error target for a solved value,
    ``max_step`` caps the substep length, and ``contraction_margin`` bounds
    L * h on every substep, with L >= |G'| on Im w >= eta from
    ``RealMeasure.g_bounds`` (for an atom L = 1/eta^2, so the bound is on
    h / Im(w)^2); at most 1/2 so the certified remainder series is
    geometrically dominated from the first term.
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
    piecewise-constant drivers) and ``_cumvar`` is the running sum of
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
        b = floats(breaks, "breaks must be a non-empty 1-d finite array")
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
        arr = floats(samples, "samples must be at least two (time, position) pairs", pairs=True)
        if arr.shape[0] < 2:
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
        return _MovingAtom(hor, float(np.max(np.abs(positions))), times, slopes, cumvar,
                           positions)

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

    def _bounds(self, piece, eta):
        """The regularity constants ``(M, K, L)`` of each lane's knot-table
        ``piece``: here the unit atom's ``g_bounds(eta)``, the atom
        constants, which hold for every probability measure."""
        return _UNIT_ATOM.g_bounds(eta)

    def _substep(self, piece, s0, h, w0, M, L, target):
        """Picard-solve the substeps ``[s0, s0 + h]`` entered at ``w0``,
        each within its knot-table ``piece``, with the regularity constants
        ``M`` and ``L`` of each.

        Returns the node values, node-major as ``_picard`` leaves them,
        and the certified Picard tail, which is at most ``target``.
        """
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _PiecewiseConstant(DriverFamily):
    kind: ClassVar[str] = "piecewise_constant"
    measures: tuple[RealMeasure, ...]

    def _measure(self, t: float) -> RealMeasure:
        # the breaks, without the inf knot: t = inf reads the last measure
        return self.measures[int(np.searchsorted(self._knots[:-1], t, side="right")) - 1]

    def _bounds(self, piece, eta):
        return _by_piece(piece, lambda k, e: self.measures[k].g_bounds(e), eta)

    def _substep(self, piece, s0, h, w0, M, L, target):
        return _by_piece(piece, lambda k, *lanes: _picard(*lanes, self.measures[k].cauchy),
                         w0, h, M, L, target)


@dataclass(frozen=True, eq=False)
class _MovingAtom(DriverFamily):
    kind: ClassVar[str] = "moving_atom"
    positions: np.ndarray

    def _measure(self, t: float) -> RealMeasure:
        return point_mass(float(np.interp(t, self._knots, self.positions)))

    def _substep(self, piece, s0, h, w0, M, L, target):
        # No substep straddles a knot, so U is affine on [s0, s0 + h] and
        # its two end values give it at every Lobatto node.
        xstd, _ = cheb_grid(_NODES)
        u0 = np.interp(s0, self._knots, self.positions)
        du = np.interp(s0 + h, self._knots, self.positions) - u0
        u = u0 + (0.5 * (xstd[:, None] + 1.0)) * du

        def integrand(V):  # 1/(V - u), in place
            d = V - u
            return np.divide(1.0, d, out=d)
        return _picard(w0, h, M, L, target, integrand)


def driver_measure_at(family: DriverFamily, t: float) -> RealMeasure:
    """Measure governing the family at time ``t`` (right-continuous)."""
    return family.measure_at(t)


_DRIVER_KEYS = {
    "piecewise_constant": ("type", "breaks", "measures"),
    "moving_atom": ("type", "samples"),
}


def driver_from_dict(obj: dict) -> DriverFamily:
    """Build a driver from its JSON object form.

    Accepts ``{"horizon": T, "driver": {...}}`` or the bare inner object.
    Piecewise drivers carry ``breaks`` and a list of measure objects; the
    moving atom carries ``samples`` as ``[t, u]`` pairs. A key that the
    wrapper or the driver's type does not name is refused, and so are
    strings and booleans in ``horizon``, ``breaks`` and ``samples``.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("driver specification must be a JSON object")
    wrapped = "driver" in obj
    if wrapped:
        json_keys(obj, ("horizon", "driver"), "driver wrapper")
    inner = obj["driver"] if wrapped else obj
    if not isinstance(inner, dict) or "type" not in inner:
        raise InvalidInputError("driver object needs a 'type' field")
    kind = inner["type"]
    if not isinstance(kind, str) or kind not in _DRIVER_KEYS:
        raise InvalidInputError(f"unknown driver type {kind!r}")
    json_keys(inner, _DRIVER_KEYS[kind], "driver")
    horizon = json_numbers(obj.get("horizon"), "horizon")
    if kind == "piecewise_constant":
        if "breaks" not in inner or "measures" not in inner:
            raise InvalidInputError("piecewise_constant driver needs 'breaks' and 'measures'")
        if not isinstance(inner["measures"], list):
            raise InvalidInputError("piecewise_constant 'measures' must be a list")
        measures = [measure_from_dict(m) for m in inner["measures"]]
        return DriverFamily.piecewise_constant(
            json_numbers(inner["breaks"], "breaks"), measures, horizon=horizon)
    if "samples" not in inner:
        raise InvalidInputError("moving_atom driver needs 'samples'")
    return DriverFamily.moving_atom(json_numbers(inner["samples"], "samples"), horizon=horizon)


# ---------------------------------------------------------------------------
# Substep machinery


def _by_piece(piece, solve, *lanes):
    # solve(k, *lanes of piece k) for each piece k under the lanes, its
    # arrays (lanes on the last axis) put back in lane order; every lane in
    # one piece needs no masks
    if piece.min() == piece.max():
        return solve(piece[0], *lanes)
    masks = {k: piece == k for k in np.unique(piece)}
    parts = [solve(k, *(x[m] for x in lanes)) for k, m in masks.items()]
    out = tuple(np.empty(p.shape[:-1] + piece.shape, p.dtype) for p in parts[0])
    for m, part in zip(masks.values(), parts):
        for o, p in zip(out, part):
            o[..., m] = p
    return out


def _solve_rho(R: np.ndarray) -> np.ndarray:
    # rho^(N-1) >= R and rho - 1 >= 1, so rho^(N-1) (rho - 1) >= R
    return np.maximum(R ** (1.0 / (_NODES - 1)), 2.0)


def _picard(
    w0: np.ndarray,
    h: np.ndarray,
    M: np.ndarray,
    L: np.ndarray,
    target: np.ndarray,
    integrand: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration for one substep per point.

    Iterates live as values on the Lobatto grid, node-major: row j holds
    every point's value at node j.  ``integrand`` maps them to the driver's
    integrand there (the Cauchy transform, or 1/(B - U)); each sweep
    integrates it over the standard grid as one real product with
    ``tails``.  ``M`` and ``L`` bound |G| and |G'| where the iterates go.
    The certified remainder after n sweeps depends on ``(h, M, L, n)``
    only, so the sweep count is fixed before the first sweep: the least n
    that brings every point within its target.  Returns the accepted node
    values, shape ``(nodes, points)``, and the certified remainder per
    point.
    """
    L_col = L[:, None]
    h_col = h[:, None]
    # after sweep n the remainder is M h prod_{k=2}^{n+1} (L h)/k over
    # 1 - (L h)/(n+2), with L h not rounded once and reused, lest its rounding
    # compound; each block seeds its cumprod with the last of the one before
    for lo in range(0, _MAX_PICARD, _SWEEP_BLOCK):
        k = np.arange(lo + 2.0, lo + _SWEEP_BLOCK + 2.0)  # n + 1 for sweep n
        factors = h_col * (L_col / k)
        if lo:
            factors[:, 0] *= prods[:, -1]
        prods = np.cumprod(factors, axis=1, out=factors)
        tails = prods * (M * h)[:, None]
        tails /= 1.0 - h_col * L_col / (k + 1.0)
        done = (tails <= target[:, None]).all(axis=0)
        if done.any():
            break
    else:
        raise NonConvergenceError("Picard iteration failed to certify within 64 sweeps")
    col = int(done.argmax())
    tail = tails[:, col]
    _, quad = cheb_grid(_NODES)
    B = np.repeat(w0[None, :], _NODES, axis=0)
    real = B.view(float)  # (nodes, 2 points): re and im side by side
    half_h = 0.5 * h
    for _ in range(lo + col + 1):
        F = np.ascontiguousarray(integrand(B), dtype=complex)
        # cheb_grid's tails act on re and im alike: one real product,
        # written into B, whose old values F has replaced
        np.matmul(quad, F.view(float), out=real)
        del F
        B *= half_h
        np.subtract(w0, B, out=B)
    return B, tail


def _evolve(
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
    # Im w never decreases along the path, and K <= 2/Im w, so the substep
    # parameter R of the loop below is at most this: refuse here if it
    # overflows rather than iterate on infinities.
    worst_r = 120.0 * span * np.sqrt(1.0 + 2.0 * (b - a) / (z.imag * z.imag)) / (
        z.imag * cfg.tol)
    if not np.isfinite(worst_r).all():
        raise NonConvergenceError("time span too long for the requested tolerance")
    # No substep is longer than max_step, nor (rho >= 2) longer than
    # eta / (1.5 (K/2 + c v)) < eta / (1.5 c v) on a piece of slope v, while
    # Im w^2 grows by at most 2 per unit time: a span, or a path whose
    # variation sum |dU| is too large to cross within the round cap,
    # refuses here (an overflow to nan never does).
    eta_max = np.sqrt(z.imag * z.imag + 2.0 * (b - a))
    variation = np.interp(b, knots, cumvar) - np.interp(a, knots, cumvar)
    too_steep = 1.5 * _SPEED_SLACK * variation > _MAX_ROUNDS * eta_max
    if (b - a > _MAX_ROUNDS * cfg.max_step).any() or too_steep.any():
        raise NonConvergenceError("substep count exceeded the global cap")

    # the lockstep set act, with its s, a and span; act[0] entered first
    queue = np.flatnonzero(b > a)
    act, queue = queue[:_CHUNK], queue[_CHUNK:]
    lanes = (b, a, span)
    s, a, span = (x[act] for x in lanes)
    entered = np.zeros(z.size, dtype=int)
    r = 0
    while act.size:
        if r - entered[act[0]] >= _MAX_ROUNDS:
            raise NonConvergenceError("substep count exceeded the global cap")
        eta = w.imag[act]
        # the piece under the substep: the last knot below s (s > a >= 0)
        piece = np.searchsorted(knots, s, side="left") - 1

        # Substep rule: the Picard contraction wants h <= margin / L;
        # the interpolation error of the N-node iterate wants a Bernstein
        # parameter rho large enough that its tail stays under a fifth of
        # the substep budget, on an ellipse of half-height
        # eta / (2 (K + 2 c v)) with v the piece's slope (module docstring);
        # the max_step cap limits it far above the axis.
        M, K, L = family._bounds(piece, eta)
        two_over_eta2 = 2.0 / (eta * eta)
        amp_cap = np.sqrt(1.0 + (s - a) * two_over_eta2)
        R = 60.0 * span * amp_cap * K / cfg.tol
        rho = _solve_rho(R)
        h0 = eta / ((rho - 1.0 / rho) * (0.5 * K + _SPEED_SLACK * slopes[piece]))
        # L = 0 far above the axis, where the cap is moot
        h0 = np.minimum(h0, cfg.contraction_margin / np.maximum(L, _TINY))
        h0 = np.minimum(h0, cfg.max_step)
        if not (h0 >= _MIN_STEP).all():
            # A piece shorter than _MIN_STEP (a jump in the atom path) may
            # take shorter substeps as long as each one moves s: their count
            # follows the piece's variation, which the test above caps.
            short = (knots[piece + 1] - knots[piece] < _MIN_STEP) & (s - h0 < s)
            if not ((h0 >= _MIN_STEP) | short).all():
                raise NonConvergenceError(
                    "substep size underflow: evaluation too close to the hull "
                    "for the requested tolerance"
                )

        # no substep straddles a knot; exact arrival at a, no fp drift
        land = np.maximum(np.maximum(s - h0, knots[piece]), a)
        h = s - land

        amp = np.sqrt(1.0 + (land - a) * two_over_eta2)
        budget = cfg.tol * h / (span * amp)
        # the certified Picard tail gets 0.8 of the budget; the rule above
        # keeps the interpolation error under the other 0.2
        Bn, tail = family._substep(piece, land, h, w[act], M, L, 0.8 * budget)

        w[act] = Bn[0]
        err[act] += (tail + 0.2 * budget) * amp
        moving = land > a
        act, s, a, span = act[moving], land[moving], a[moving], span[moving]
        r += 1
        if queue.size and act.size < _CHUNK:
            new, queue = queue[:_CHUNK - act.size], queue[_CHUNK - act.size:]
            entered[new] = r
            act = np.concatenate((act, new))
            s, a, span = (np.concatenate((x, y[new])) for x, y in zip((s, a, span), lanes))
    return w, err


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
    a_arr, b_arr, z_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), np.asarray(z, dtype=complex))
    shape = a_arr.shape
    a_arr, b_arr, z_arr = a_arr.ravel(), b_arr.ravel(), z_arr.ravel()
    if not (np.isfinite(a_arr).all() and np.isfinite(b_arr).all()):
        raise InvalidInputError("times must be finite")
    if (a_arr < 0).any():
        raise InvalidInputError("times must be non-negative")
    if (a_arr > b_arr).any():
        raise InvalidInputError("need a <= b")
    if (b_arr > family.horizon).any():
        raise InvalidInputError("b lies beyond the driver horizon")
    _require_upper(z_arr)
    floor = cfg.min_imag
    if (z_arr.imag < floor).any():
        raise InvalidInputError(
            f"Im z below the solver floor {floor:.3g} for tol {cfg.tol:.3g}"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        w, e = _evolve(family, a_arr, b_arr, z_arr, cfg)
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
    points, over times, or over both run as one batch (module docstring).
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

    For unit-mass drivers this equals t.  Solved on ``numerics.Y_LADDER``
    at a tightened tolerance, then extrapolated by ``numerics.y_limit``; the
    limit must settle within ``numerics.settle_tol(limit)`` and its
    imaginary residual must vanish below 1e-6, else the computation is
    reported as non-convergent.
    """
    cfg = config or _DEFAULT_CONFIG
    t = float(t)
    if t < 0 or math.isnan(t):
        raise InvalidInputError("t must be non-negative")
    if t == 0.0:
        return 0.0
    tight = replace(cfg, tol=min(cfg.tol, 1e-12))
    w, _ = _solve_many(family, 0.0, t, 1j * Y_LADDER, tight)
    limit = y_limit((1j * Y_LADDER) * (1j * Y_LADDER - w), "hydrodynamic ladder")
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
