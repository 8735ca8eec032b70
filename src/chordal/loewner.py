"""Chordal Loewner flows driven by families of probability measures.

The transition maps ``B(a, b; z)`` of the upper half-plane solve

    B(a, b; z) = z - int_a^b int mu_s(dx) / (B(s, b; z) - x) ds,

and compose by ``B(a, c) = B(a, b) o B(b, c)``.  The solver walks the time
interval downward in substeps sized so that the Picard iteration for the
integral equation contracts factorially, and stops each iteration when the
certified remainder

    |B_{n+1} - B_n| <= h^(n+1) / (Im^(2n+1) (n+1)!)

falls below the substep's share of the global error budget.  Shares are
weighted by a Schwarz-Pick amplification factor so that the pointwise error
of the chained result stays below ``config.tol``; the achieved (usually much
smaller) bound is reported alongside every value.

One Picard loop, ``_picard``, serves every driver.  Per substep the
iterates live on a Chebyshev-Lobatto grid, and the loop takes from the
driver only ``integrate(B)``: the suffix integrals over the standard grid of
the driver's Cauchy transform at the node values ``B``.  A driver is a
``DriverFamily`` subclass that supplies its measure lookup, its ``_seams``
(times no substep may straddle) and ``_substep``, which builds
``integrate``, runs the loop and splits the substep budget between the
certified Picard tail and its integration allowance.  Two drivers exist:
piecewise-constant measure families, integrated exactly through the
antiderivative of the interpolant, and a moving atom along a
piecewise-linear path.  The atom's integrand ``1/(B - U)`` is summed by
composite Simpson rules, doubled until consecutive levels agree; ``U`` is
affine on each substep, so ``B - U`` is known by its node values, and one
cached matrix per Simpson level takes them to the Simpson points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .errors import InvalidInputError, NonConvergenceError
from .measures import RealMeasure, measure_from_dict, point_mass, y_ladder
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

_NODES = 24           # Chebyshev-Lobatto collocation points per substep
_CHUNK = 1024         # z-points advanced per lockstep batch
_MAX_PICARD = 64
_MAX_ROUNDS = 200_000
_MIN_STEP = 1e-12
_SIMPSON_BASE = 2     # 2**base Simpson intervals per collocation panel
_SIMPSON_MAX = 8

# Test hook: called as observer(observed_diff, certified_bound) once per
# Picard iteration when set.  Never consulted on the hot path otherwise.
_PICARD_OBSERVER: Callable[[np.ndarray, np.ndarray], None] | None = None


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


@dataclass(frozen=True, eq=False)
class DriverFamily:
    """A time-indexed family of probability measures on the real line.

    Two variants:

    * ``piecewise_constant`` -- breakpoints ``0 = t_0 < t_1 < ...`` with one
      measure per interval ``[t_k, t_{k+1})`` (right-continuous lookup);
    * ``moving_atom`` -- a unit point mass at ``U(t)``, with ``U`` the
      piecewise-linear interpolant of strictly increasing time samples.

    Instances are immutable; build them through the classmethods.  Each
    variant supplies the measure lookup and one Picard substep; ``_seams``
    are the times where the driver changes form, which no substep straddles.
    """

    kind: ClassVar[str]
    horizon: float
    support_bound: float
    _seams: np.ndarray

    # -- constructors -----------------------------------------------------

    @classmethod
    def piecewise_constant(
        cls,
        breaks: Sequence[float],
        measures: Sequence[RealMeasure],
        horizon: float | None = None,
    ) -> "DriverFamily":
        b = np.asarray(breaks, dtype=float)
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
        hor = math.inf if horizon is None else float(horizon)
        if not hor > 0 or math.isnan(hor):
            raise InvalidInputError("horizon must be positive")
        if hor < b[-1]:
            raise InvalidInputError("horizon lies before the last breakpoint")
        # unit mass guarantees every node array is non-empty
        bound = max(float(np.max(np.abs(mu.nodes()[0]))) for mu in ms)
        return _PiecewiseConstant(hor, bound, b[1:], b, ms)

    @classmethod
    def constant(cls, measure: RealMeasure, horizon: float | None = None) -> "DriverFamily":
        return cls.piecewise_constant([0.0], [measure], horizon=horizon)

    @classmethod
    def moving_atom(
        cls,
        samples: Sequence[tuple[float, float]],
        horizon: float | None = None,
    ) -> "DriverFamily":
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
            raise InvalidInputError("samples must be at least two (time, position) pairs")
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("samples must be finite")
        times, positions = arr[:, 0], arr[:, 1]
        if times[0] != 0.0:
            raise InvalidInputError("first sample time must be 0")
        if np.any(np.diff(times) <= 0):
            raise InvalidInputError("sample times must be strictly increasing")
        hor = float(times[-1]) if horizon is None else float(horizon)
        if not hor > 0 or math.isnan(hor):
            raise InvalidInputError("horizon must be positive")
        if hor > times[-1]:
            raise InvalidInputError("samples do not reach the requested horizon")
        return _MovingAtom(
            hor, float(np.max(np.abs(positions))), times[1:-1], times, positions)

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

    def _substep(self, s0, h, w0, eta, budget):
        """Picard-solve the substeps ``[s0, s0 + h]`` entered at ``w0``.

        Returns the node values, the certified Picard tail and the
        integration allowance; tail plus allowance is at most ``budget``.
        """
        raise NotImplementedError


@dataclass(frozen=True, eq=False)
class _PiecewiseConstant(DriverFamily):
    kind: ClassVar[str] = "piecewise_constant"
    breaks: np.ndarray
    measures: tuple[RealMeasure, ...]

    def _measure(self, t: float) -> RealMeasure:
        return self.measures[int(np.searchsorted(self.breaks, t, side="right")) - 1]

    def _substep(self, s0, h, w0, eta, budget):
        # The Picard tail gets 0.8 of the budget; the h-rule keeps the
        # interpolation error under the other 0.2.  Each sweep integrates
        # the degree-(M-1) interpolant of the sampled integrand exactly.
        _, _, tails = cheb_grid(_NODES)
        target = 0.8 * budget
        idx = np.searchsorted(self.breaks, s0, side="right") - 1
        B = np.empty((w0.size, _NODES), dtype=complex)
        tail = np.empty(w0.size)
        for k in np.unique(idx):
            m = idx == k
            pos, wts = self.measures[k].nodes()
            B[m], tail[m] = _picard(
                w0[m], h[m], eta[m], target[m],
                lambda V: (wts / (V[:, :, None] - pos)).sum(axis=2) @ tails.T,
            )
        return B, tail, 0.2 * budget


@dataclass(frozen=True, eq=False)
class _MovingAtom(DriverFamily):
    kind: ClassVar[str] = "moving_atom"
    times: np.ndarray
    positions: np.ndarray

    def _measure(self, t: float) -> RealMeasure:
        return point_mass(float(np.interp(t, self.times, self.positions)))

    def _substep(self, s0, h, w0, eta, budget):
        # No substep straddles a seam, so U is affine on [s0, s0 + h] and
        # its two end values give it at every Lobatto node.
        xstd, _, _ = cheb_grid(_NODES)
        u0 = np.interp(s0, self.times, self.positions)
        du = np.interp(s0 + h, self.times, self.positions) - u0
        u = u0[:, None] + (0.5 * (xstd + 1.0)) * du[:, None]
        # Simpson converges to budget/15 so that its three injections and
        # the interpolation share stay under 0.4 of the budget.
        sim_target = budget / 15.0
        B, tail = _picard(
            w0, h, eta, 0.6 * budget,
            lambda V: self._tails(h, V - u, sim_target),
        )
        return B, tail, 0.2 * budget + 3.0 * sim_target

    @staticmethod
    def _tails(h, D, sim_target):
        """Suffix integrals of 1/(B(s) - U(s)) over the standard grid.

        ``D`` holds ``B - U`` at the Lobatto nodes; with ``U`` affine it is
        a polynomial of the iterate's degree, so one cached matrix per
        Simpson level takes it to the Simpson points.  Composite Simpson
        per collocation panel is doubled until consecutive levels agree
        within ``sim_target``.
        """
        g, M = D.shape
        xstd, _, _ = cheb_grid(_NODES)
        widths = np.diff(xstd)
        T = np.zeros((g, M), dtype=complex)
        act = np.arange(g)
        prev = None
        for level in range(_SIMPSON_BASE, _SIMPSON_MAX + 1):
            xs, pat, interp = _simpson_rule(level)
            f = (D[act] @ interp).reshape(act.size, *xs.shape)  # (act, panel, point)
            np.reciprocal(f, out=f)
            panel = (f @ pat) * (widths / (3 * (1 << level)))
            Tl = np.zeros((act.size, M), dtype=complex)
            Tl[:, :-1] = panel[:, ::-1].cumsum(axis=1)[:, ::-1]
            if prev is None:
                prev = Tl
                continue
            diff = np.abs(Tl - prev).max(axis=1) * 0.5 * h[act]
            done = diff <= sim_target[act]
            T[act[done]] = Tl[done]
            act = act[~done]
            if act.size == 0:
                return T
            prev = Tl[~done]
        raise NonConvergenceError("time quadrature for the moving atom stalled")


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
    # Smallest rho with rho^(M-1) (rho - 1) >= R; fixed point in log form.
    logR = np.log(np.maximum(R, 10.0))
    rho = np.maximum(np.exp(logR / _NODES), 2.0)
    for _ in range(4):
        rho = np.exp((logR - np.log(rho - 1.0)) / (_NODES - 1))
        rho = np.maximum(rho, 2.0)
    return rho


_SIMPSON_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _simpson_rule(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Nodes (panel, point) on the standard interval, the Simpson pattern,
    # and the (node, panel * point) matrix taking Lobatto node values to
    # the interpolant's values at those nodes.
    try:
        return _SIMPSON_CACHE[level]
    except KeyError:
        pass
    xstd, vinv, _ = cheb_grid(_NODES)
    m = 1 << level
    frac = np.arange(m + 1) / m
    xs = xstd[:-1, None] + np.diff(xstd)[:, None] * frac[None, :]
    pat = np.ones(m + 1)
    pat[1:-1:2] = 4.0
    pat[2:-1:2] = 2.0
    # stored complex: a real matrix would be cast on every complex product
    interp = (vinv.T @ chebvander(xs.ravel(), _NODES - 1).T).astype(complex)
    _SIMPSON_CACHE[level] = (xs, pat, interp)
    return xs, pat, interp


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
    Returns the accepted node values and the certified remainder per point.
    """
    B = np.repeat(w0[:, None], _NODES, axis=1)
    w_col = w0[:, None]
    half_h = 0.5 * h[:, None]
    inv_eta2 = 1.0 / (eta * eta)
    bound = h / eta
    for n in range(1, _MAX_PICARD + 1):
        Bn = w_col - integrate(B) * half_h
        if _PICARD_OBSERVER is not None:
            _PICARD_OBSERVER(np.abs(Bn - B).max(axis=1), bound)
        bound = bound * h * inv_eta2 / (n + 1.0)
        q = h * inv_eta2 / (n + 2.0)
        tail = bound / (1.0 - q)
        B = Bn
        if np.all(tail <= target):
            return B, tail
    raise NonConvergenceError("Picard iteration failed to certify within 64 sweeps")


def _evolve_chunk(
    family: DriverFamily,
    a: np.ndarray,
    b: np.ndarray,
    z: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
    w = z.astype(complex, copy=True)
    err = np.zeros(z.size)
    s = b.astype(float, copy=True)
    span = np.maximum(b - a, _MIN_STEP)  # budget scale only; a == b never iterates
    seams = family._seams

    for _ in range(_MAX_ROUNDS):
        act = np.flatnonzero(s > a)
        if act.size == 0:
            return w, err
        eta = w.imag[act]
        inv_eta2 = 1.0 / (eta * eta)
        amp_cap = 1.0 + (s[act] - a[act]) * inv_eta2

        # Substep rule: the Picard contraction wants h <= margin * eta^2;
        # the interpolation error of the M-node iterate wants the Bernstein
        # parameter rho = eta^2/h (up to 1/rho) large enough that its tail
        # stays under a fifth of the substep budget.
        R = 120.0 * span[act] * amp_cap / (eta * cfg.tol)
        rho = _solve_rho(R)
        h0 = eta * eta / (rho - 1.0 / rho)
        h0 = np.minimum(h0, cfg.contraction_margin * eta * eta)
        h0 = np.minimum(h0, cfg.max_step)
        if np.any(h0 < _MIN_STEP):
            raise NonConvergenceError(
                "substep size underflow: evaluation too close to the hull "
                "for the requested tolerance"
            )

        land = s[act] - h0
        if seams.size:
            j = np.searchsorted(seams, s[act], side="left") - 1
            snap = np.where(j >= 0, seams[np.maximum(j, 0)], -np.inf)
            land = np.maximum(land, snap)
        land = np.maximum(land, a[act])  # exact arrival, no fp drift
        h = s[act] - land
        s0 = land

        amp = 1.0 + (s0 - a[act]) * inv_eta2
        budget = cfg.tol * h / (span[act] * amp)
        Bn, tail, allowance = family._substep(s0, h, w[act], eta, budget)

        w[act] = Bn[:, 0]
        err[act] += (tail + allowance) * amp
        s[act] = s0

    raise NonConvergenceError("substep count exceeded the global cap")


def _solve_many(
    family: DriverFamily,
    a,
    b,
    z,
    cfg: SolverConfig,
) -> tuple[np.ndarray, np.ndarray]:
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
    if not np.all(np.isfinite(z_arr)):
        raise InvalidInputError("z must be finite")
    if np.any(z_arr.imag <= 0):
        raise InvalidInputError("z must lie in the open upper half-plane")
    floor = cfg.min_imag
    if np.any(z_arr.imag < floor):
        raise InvalidInputError(
            f"Im z below the solver floor {floor:.3g} for tol {cfg.tol:.3g}"
        )

    w = np.empty(a_arr.size, dtype=complex)
    e = np.empty(a_arr.size)
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
    cfg = config or _DEFAULT_CONFIG
    w, _ = _solve_many(family, float(a), float(b), complex(z), cfg)
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
    cfg = config or _DEFAULT_CONFIG
    return _solve_many(family, a, b, zs, cfg)


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
    if diff > 1e-3 * max(1.0, abs(limit)):
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
    cfg = config or _DEFAULT_CONFIG
    if not (0 <= a <= b <= c):
        raise InvalidInputError("need 0 <= a <= b <= c")
    zs = np.asarray(zs, dtype=complex)
    direct, _ = _solve_many(family, a, c, zs, cfg)
    inner, _ = _solve_many(family, b, c, zs, cfg)
    outer, _ = _solve_many(family, a, b, inner, cfg)
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
