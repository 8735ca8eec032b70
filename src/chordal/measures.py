"""Compactly supported measures on the real line and their transform calculus.

A measure is a finite list of point atoms plus density segments, each segment
integrated by Gauss-Legendre at a declared order. Segments carrying the
`chebyshev` flag apply the rule in the substituted variable
x = mid + rad*cos(theta); that keeps sqrt-type endpoint behaviour (semicircle,
arcsine) spectrally accurate at the declared order. A segment may also carry
its exact Cauchy transform; the named densities (semicircle, arcsine,
uniform, polynomial) do. `RealMeasure.cauchy`, the one evaluator of G for
the solver and the boundary trace, adds those closed forms to one node sum
over the atoms and the bare-callable segments (those without one). On top
of the measure representation this module provides the node-sum Cauchy
transform, its reciprocal F, moments, the tightest |F(z) - z| <= C/Im z
constant, the Nevanlinna data of F, and Stieltjes inversion of G back to
interval masses. `transform`'s round-off bound, on G or F at one point,
is taken here from the same scaled node terms as the value it bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import InvalidInputError, NonConvergenceError
from .numerics import (
    Y_LADDER, adaptive_simpson, count, finite_interval, floats, gauss_legendre, json_keys,
    json_numbers, neville_zero, number, settled, y_limit,
)

MASS_TOL = 1e-12
_MAX_DENSE_NODES = 400_000
_MAX_ORDER = 2048          # leggauss takes O(order^3) time and O(order^2) memory
# (point, node) pairs per block of a node sum: 2^13 complex pairs are 128 KiB
# per temporary, glibc's default mmap threshold, so blocks reuse heap memory
# instead of mapping and zero-filling fresh pages. Against 2^18 pairs (4 MiB)
# this halved the benchmark's three Stieltjes inversions (diagnose invert_s
# 0.39 s -> 0.19 s on 2 cores), in a fresh process and after large frees alike
_CAUCHY_BLOCK = 1 << 13
_POLY_SERIES_RADIUS = 2.0  # |zeta| beyond which a polynomial density sums its moment series
_POLY_SERIES_TERMS = 64    # 2**-64 < eps/100 at the radius
_POLY_PEAK_DEGREE = 64     # past it a poly: peak is the coefficient sum (roots cost O(deg^3))
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# on the closed-form sups of |G| and |G'|, which are attained, so that their
# rounding, and that of an affine image's rescaling, stays below the bound
_SUP_ROOM = 1.0 + 16.0 * _EPS


def _eval_array(fn, x: np.ndarray, dtype=float) -> np.ndarray:
    # fn on the whole array, or point by point when it takes scalars only
    try:
        vals = np.asarray(fn(x), dtype=dtype)
        if vals.shape != x.shape:
            raise TypeError
    except TypeError:
        vals = np.array([dtype(fn(xi)) for xi in x], dtype=dtype)
    return vals


def _node_sum(pos: np.ndarray, wts: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_j wts_j / (z - pos_j) at every point of the complex array z.

    Points go in blocks so the (point, node) temporaries stay under
    _CAUCHY_BLOCK pairs; a row's sum does not depend on the blocking.  A
    term that overflows gives a non-finite sum, which the callers refuse.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if z.size * pos.size <= _CAUCHY_BLOCK:
            return (wts / (z[..., None] - pos)).sum(axis=-1)
        flat = z.ravel()
        out = np.empty(flat.size, dtype=complex)
        step = max(1, _CAUCHY_BLOCK // pos.size)
        for lo in range(0, flat.size, step):
            out[lo:lo + step] = (wts / (flat[lo:lo + step, None] - pos)).sum(axis=-1)
    return out.reshape(z.shape)


@dataclass(frozen=True)
class DensitySegment:
    """One absolutely continuous piece: density on [lo, hi], quadrature order.

    `chebyshev` selects the cos-substituted Gauss-Legendre rule; use it for
    densities with square-root endpoint behaviour. `cauchy`, when given, is
    the segment's exact Cauchy transform: it maps a complex array of points
    in the open upper half-plane to integral density(x)/(z - x) dx on
    [lo, hi], elementwise. `RealMeasure.cauchy`, and so the solver and the
    boundary trace, uses it in place of quadrature nodes; the frozen nodes
    still give the moments and `cauchy_transform`. `peak`, when given, is an
    upper bound on the density over [lo, hi] (its supremum for the named
    densities; None for the arcsine, which has none). `RealMeasure.g_bounds`
    reads it to bound |G| and |G'| near the support, and the Loewner solver
    sizes its substeps by those bounds; a segment without it counts like an
    atom there.

    Two forms ride on the named densities' callables rather than on fields.
    The semicircle's and the arcsine's `cauchy` carries the exact sups of
    |G| and |G'| at distance at least y from the segment, which
    `g_bounds` prefers where they are smaller (`named_density` gives the
    proof); their `density` carries density * dx/dtheta in theta, sin^2
    and 1/2, which the cos-substituted rule weighs its nodes by, free of the
    cancellation in rad^2 - (x - mid)^2 at the rounded node x. A callable
    that is replaced or wrapped loses its form and falls back on the fields.
    """

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    order: int = 64
    chebyshev: bool = False
    cauchy: Callable[[np.ndarray], np.ndarray] | None = None
    peak: float | None = None

    def __post_init__(self):
        finite_interval(self.lo, self.hi, "segment")
        order = count(self.order, "segment order")
        if not 2 <= order <= _MAX_ORDER:
            raise InvalidInputError(f"quadrature order must be an integer in [2, {_MAX_ORDER}]")
        object.__setattr__(self, "order", order)
        if not callable(self.density):
            raise InvalidInputError("segment density must be callable")
        if self.cauchy is not None and not callable(self.cauchy):
            raise InvalidInputError("segment cauchy transform must be callable")
        if self.peak is not None and not (isinstance(self.peak, (int, float))
                                          and 0 <= self.peak < math.inf):
            raise InvalidInputError("segment density peak must be a finite number >= 0")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return _mapped(self, *gauss_legendre(self.order))


def _theta_form(seg: DensitySegment):
    # the named density's density * dx/dtheta as a function of theta, for a
    # chebyshev segment on the interval that density was named on; else None
    form = getattr(seg.density, "_theta", None)
    if seg.chebyshev and form is not None and form[:2] == (seg.lo, seg.hi):
        return form[2]
    return None


def _mapped(seg: DensitySegment, t: np.ndarray, w) -> tuple[np.ndarray, np.ndarray]:
    # the rule (t, w) on [-1, 1] mapped onto seg, through the cos
    # substitution for chebyshev segments: its nodes and density weights
    mid = 0.5 * (seg.lo + seg.hi)
    rad = 0.5 * (seg.hi - seg.lo)
    if seg.chebyshev:
        theta = 0.5 * np.pi * (t + 1.0)
        x = mid + rad * np.cos(theta)
        form = _theta_form(seg)
        if form is not None:
            return x, form(theta) * w
        jac = rad * np.sin(theta) * (0.5 * np.pi)
    else:
        x = mid + rad * t
        jac = rad
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        dens = _eval_array(seg.density, x)
    if np.any(dens < -1e-12) or not np.all(np.isfinite(dens)):
        raise InvalidInputError("density must be finite and nonnegative on nodes")
    with np.errstate(over="ignore"):  # callers refuse a weight past the float range
        return x, dens * jac * w


def _midpoint_nodes(seg: DensitySegment, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    # the midpoint rule on seg with node gaps below spacing, in theta for
    # chebyshev segments
    span = 0.5 * np.pi * (seg.hi - seg.lo) if seg.chebyshev else seg.hi - seg.lo
    n = min(max(seg.order, int(np.ceil(span / spacing)) + 1), _MAX_DENSE_NODES)
    return _mapped(seg, (2.0 * np.arange(n) + 1.0) / n - 1.0, 2.0 / n)


class RealMeasure:
    """Atoms plus density segments; quadrature nodes are frozen at build time."""

    def __init__(self, atoms: Sequence = (), segments: Sequence = (), mass: float | None = None):
        pairs = floats(atoms, "atoms must be a list of [position, weight] pairs", pairs=True)
        if not np.isfinite(pairs).all():
            raise InvalidInputError("atom entries must be finite")
        if (pairs[:, 1] < 0).any():
            raise InvalidInputError("atom weights must be nonnegative")
        self._atoms = tuple(map(tuple, pairs.tolist()))
        try:
            self._segments = tuple(segments)
        except TypeError:
            raise InvalidInputError("segments must be a list") from None
        if not all(isinstance(seg, DensitySegment) for seg in self._segments):
            raise InvalidInputError("segments must be DensitySegment instances")
        frozen = [seg.nodes() for seg in self._segments]
        self._pos, self._wts = self._with_atoms(frozen)
        with np.errstate(over="ignore"):
            total = float(self._wts.sum())
        if not math.isfinite(total):
            raise InvalidInputError("total mass overflows")
        if mass is not None:
            mass = number(mass, "declared mass must be a number")
            if abs(total - mass) > MASS_TOL:
                raise InvalidInputError(f"declared mass {mass} but quadrature gives {total!r}")
        self._mass = total
        # g_bounds' data: the sum of the density bounds, and the mass that
        # has none (all of it when no segment is bounded)
        self._peak = sum(seg.peak for seg in self._segments if seg.peak is not None)
        dense = sum(float(w.sum()) for seg, (_, w) in zip(self._segments, frozen)
                    if seg.peak is not None)
        self._free = max(total - dense, 0.0) if self._peak else 1.0
        # and the closed-form sups, with the mass of the atoms and of the
        # segments whose transform carries none
        self._sups = tuple(seg.cauchy._sups for seg in self._segments
                           if hasattr(seg.cauchy, "_sups"))
        self._lone = sum(w for _, w in self._atoms) + sum(
            float(w.sum()) for seg, (_, w) in zip(self._segments, frozen)
            if not hasattr(seg.cauchy, "_sups"))
        # G: the closed forms plus one node sum over the atoms and the
        # segments that have no closed form ("bare" segments)
        self._closed = tuple(seg.cauchy for seg in self._segments if seg.cauchy is not None)
        self._bare = tuple(seg for seg in self._segments if seg.cauchy is None)
        pos, wts = self._with_atoms(
            xw for seg, xw in zip(self._segments, frozen) if seg.cauchy is None)
        self._g = _cauchy_plan(pos, wts, self._closed)

    def _with_atoms(self, nodes) -> tuple[np.ndarray, np.ndarray]:
        # the atoms followed by the (positions, weights) pairs of `nodes`
        parts = [np.array(self._atoms, dtype=float).reshape(-1, 2).T, *nodes]
        return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])

    @property
    def atoms(self):
        return self._atoms

    @property
    def segments(self):
        return self._segments

    @property
    def total_mass(self) -> float:
        return self._mass

    @property
    def is_probability(self) -> bool:
        return abs(self._mass - 1.0) <= MASS_TOL

    @property
    def support(self) -> tuple[float, float] | None:
        """Hull of the support, or None for the zero measure."""
        lows = [x for x, _ in self._atoms] + [seg.lo for seg in self._segments]
        highs = [x for x, _ in self._atoms] + [seg.hi for seg in self._segments]
        return (min(lows), max(highs)) if lows else None

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return self._pos, self._wts

    def g_bounds(self, eta):
        """Bounds (M, K, L) on G over Im w >= eta, elementwise in eta.

        ``eta`` must be positive; it is not checked here, as the solver
        calls this on every sweep and round.

        Write ``free`` for the mass of the atoms and of the segments with no
        density bound (the arcsine, bare callables), and P for the sum of
        the bounds ``DensitySegment.peak`` of the other segments, which hold
        the mass 1 - free. On Im w >= y,

            |G(w)|  <= M(y) = free/y   + 2P asinh((1 - free) / (2P y)),
            |G'(w)| <= L(y) = free/y^2 + min(pi P / y, (1 - free) / y^2),

        and K = M(eta/2) bounds |G| on Im w >= eta/2. The atom terms are
        |w - x| >= y. The density term of M is the bathtub bound: of the
        densities below P with mass m, int rho(x) dx / |w - x| is largest
        for rho = P on the interval of length m/P centred at Re w, where it
        is 2P asinh(m / (2P y)); that of L is P int dx / |w - x|^2 =
        pi P / y. As asinh u <= u, M(y) <= 1/y and L(y) <= 1/y^2, the atom
        constants, which a measure with no density bound (free = 1, P = 0)
        gets exactly. As asinh is concave and vanishes at 0, K <= 2 M(eta).

        Where segments carry the closed-form sups of their transforms (the
        semicircle, the arcsine and their affine images; `named_density`),
        a second column holds the sum of those sups at y (at eta/2 for K)
        and the atom terms of the rest of the mass, and each constant is
        the smaller of the two columns, so no constant rises. Near the
        support that column is of order 1 and 1/sqrt(eta) where the first
        is of order log(1/eta) and 1/eta. Measures without such segments
        get the first column bit for bit.
        """
        if not self.is_probability:
            raise InvalidInputError("bounds on G need a probability measure")
        inv = 1.0 / eta
        eta2 = eta * eta
        if not self._peak:  # the atom constants
            M, K, L = inv, 2.0 * inv, 1.0 / eta2
        else:
            free, peak = self._free, self._peak
            dense = 1.0 - free
            spread = np.maximum(peak * eta, _TINY)  # 2P (eta/2)
            M = np.minimum(free * inv + 2.0 * peak * np.arcsinh(0.5 * dense / spread), inv)
            K = np.minimum(2.0 * free * inv + 2.0 * peak * np.arcsinh(dense / spread),
                           2.0 * inv)
            L = np.minimum(free / eta2 + np.minimum(np.pi * peak * inv, dense / eta2),
                           1.0 / eta2)
        if not self._sups:
            return M, K, L
        cols = [sups(eta) for sups in self._sups]
        if self._lone:  # the atom constants of the rest of the mass
            cols.append((self._lone * inv, 2.0 * self._lone * inv, self._lone / eta2))
        M2, K2, L2 = (sum(col[1:], col[0]) for col in zip(*cols))
        return np.minimum(M, M2), np.minimum(K, K2), np.minimum(L, L2)

    def cauchy(self, z, spacing: float | None = None) -> np.ndarray:
        """G(z) = integral of 1/(z - x) dmu(x) at every point of an array.

        Closed forms are used where a segment has one; the atoms (exactly)
        and the bare-callable segments go through one node sum, the latter
        over their frozen nodes or, given `spacing`, over the `dense_nodes`
        resampling at that spacing. The points must lie in the open upper
        half-plane; they are not checked here (`cauchy_transform` checks).
        """
        z = np.asarray(z, dtype=complex)
        if spacing is None:
            return self._g(z)
        pos, wts = self._resampled(self._bare, spacing)
        return _cauchy_plan(pos, wts, self._closed)(z)

    def _resampled(self, segments, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        if not spacing > 0:
            raise InvalidInputError("spacing must be positive")
        return self._with_atoms(_midpoint_nodes(seg, spacing) for seg in segments)

    def dense_nodes(self, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule resampling with node gaps below `spacing`.

        Needed when the transform is evaluated closer to the support than the
        declared-order node gap; atoms are kept exact.
        """
        return self._resampled(self._segments, number(spacing, "spacing must be positive"))


def _lone_node(x: float, w: float, z: np.ndarray) -> np.ndarray:
    d = np.subtract(z, x, out=np.empty_like(z))  # in place: one temporary, not two
    return np.divide(w, d, out=d)


def _plus_closed(nodes: Callable, closed: tuple, z: np.ndarray) -> np.ndarray:
    g = nodes(z)
    for f in closed:
        g = g + f(z)
    return g


def _cauchy_plan(pos: np.ndarray, wts: np.ndarray, closed: tuple) -> Callable:
    # z -> the node sum over (pos, wts) plus the closed forms, added in that
    # order; a lone node (one atom) skips the reduce over a length-1 axis,
    # and no node skips the empty sum unless nothing else is left. Partials
    # of module functions, so a measure of atoms still pickles.
    if pos.size == 1:
        nodes = partial(_lone_node, float(pos[0]), float(wts[0]))
    elif pos.size or not closed:
        nodes = partial(_node_sum, pos, wts)
    else:
        nodes, closed = closed[0], closed[1:]
    return partial(_plus_closed, nodes, closed) if closed else nodes


# ---------------------------------------------------------------------------
# named densities / JSON interchange

def _finite_or_none(peak: float) -> float | None:
    # a density bound past the float range bounds nothing
    return peak if math.isfinite(peak) else None


def _log1p(u):
    # log(1 + u) where |1 + u| >= 1; numpy's complex log1p loses the digits
    # of small u, so its real part comes from the real log1p instead
    x, y = u.real, u.imag
    with np.errstate(over="ignore"):
        small = 0.5 * np.log1p(x * (2.0 + x) + y * y) + 1j * np.arctan2(y, 1.0 + x)
    return np.where(np.abs(u) < 1.0, small, np.log(1.0 + u))


def _log_ratio(z, lo, hi):
    # log((z - lo)/(z - hi)) on the upper half-plane, as log1p of a ratio
    # taken from the nearer endpoint so that neither far out nor near an
    # endpoint does the argument cancel
    upper = z.real >= 0.5 * (lo + hi)
    near = np.where(upper, hi, lo)
    sign = np.where(upper, 1.0, -1.0)
    return sign * _log1p(sign * (hi - lo) / (z - near))


def _sqrt_pair(z, lo, hi):
    # sqrt(z - hi) sqrt(z - lo): analytic off [lo, hi], ~ z - mid at infinity
    return np.sqrt(z - hi) * np.sqrt(z - lo)


def _root_m(t):
    # sqrt(m(t)), m(t) = 2t for t <= 1 and 1 + t^2 for t >= 1: the least
    # |zeta^2 - 1| at distance >= t from [-1, 1] (named_density)
    return np.where(t <= 1.0, np.sqrt(2.0 * t), np.hypot(1.0, t))


# Each closed form's sups: y -> (M(y), M(y/2), L(y)), its bounds on |G| at
# distance >= y and >= y/2 from the segment and on |G'| at distance >= y


def _semicircle_sups(rad):
    top = _SUP_ROOM * 2.0 / rad

    def sups(y):
        inv = 1.0 / y
        L = np.minimum(top / (rad * _root_m(y / rad)), inv * inv)
        return np.minimum(top, inv), np.minimum(top, 2.0 * inv), L
    return sups


def _arcsine_sups(rad):
    def sups(y):
        inv = 1.0 / y
        t = y / rad
        root = rad * _root_m(t)  # rad sqrt(m)
        # sqrt(1 + m) / (rad^2 m^(3/2)) = sqrt(1 + 1/m) / (rad sqrt(m))^2
        L = np.minimum(_SUP_ROOM * np.hypot(1.0, rad / root) / (root * root), inv * inv)
        return (np.minimum(_SUP_ROOM / root, inv),
                np.minimum(_SUP_ROOM / (rad * _root_m(0.5 * t)), 2.0 * inv), L)
    return sups


def _pushed_sups(sups, scale):
    # the sups of G((z - shift)/scale)/scale: its argument lies at 1/scale
    # times the distance, and G' gains one more factor 1/scale
    room = _SUP_ROOM / scale

    def pushed(y):
        M, K, L = sups(y / scale)
        return room * M, room * K, room * L / scale
    return pushed


def _sin2(theta):
    return np.sin(theta) ** 2


def _half(theta):
    return np.full_like(theta, 0.5)


def _poly_peak(a) -> float | None:
    # max |P| over [-1, 1] for P(xi) with ascending coefficients a: at an end
    # or a real root of P' (complex roots only add their clipped real parts,
    # points of [-1, 1] too), raised by Horner's rounding bound
    # 2 (deg + 1) eps sum|a_k| so that it stays an upper bound
    total = float(np.abs(a).sum())
    if a.size > _POLY_PEAK_DEGREE + 1:
        return _finite_or_none(total)
    with np.errstate(all="ignore"):
        try:
            crit = _poly.polyroots(_poly.polyder(a)).real
        except np.linalg.LinAlgError:  # a companion matrix past the float range
            return _finite_or_none(total)
        xs = np.concatenate(([-1.0, 1.0], np.clip(crit, -1.0, 1.0)))
        peak = np.abs(_poly.polyval(xs, a)).max() + 2.0 * a.size * _EPS * total
    return _finite_or_none(float(peak))


def _xi_coeffs(coeffs, lo, hi):
    # ascending coefficients of P(xi) = p(mid + rad*xi)
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = np.zeros(1)
    with np.errstate(over="ignore", invalid="ignore"):  # _poly_transform checks
        for c in reversed(coeffs):
            a = _poly.polyadd(_poly.polymul(a, [mid, rad]), [c])
    return a


def _poly_transform(a, lo, hi):
    # p(x) = P(xi) with x = mid + rad*xi, P given by its ascending
    # coefficients a; then G(z) = integral over [-1, 1]
    # of P(xi)/(zeta - xi) = P(zeta) log((zeta+1)/(zeta-1)) - R(zeta), R an
    # exact polynomial. Far out both terms grow like zeta^deg while G ~ 1/zeta,
    # so beyond _POLY_SERIES_RADIUS the moment series sum mu_n zeta^-(n+1) runs.
    # None when a coefficient is past the float range: the nodes serve then.
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    deg = a.size - 1
    n = np.arange(deg + _POLY_SERIES_TERMS)
    m = np.where(n % 2 == 0, 2.0 / (n + 1.0), 0.0)  # integrals of xi^n over [-1, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        # R(zeta) = integral of (P(zeta) - P(xi))/(zeta - xi): r_j = sum_(k>j) a_k m_(k-1-j)
        r = [sum(a[k] * m[k - 1 - j] for k in range(j + 1, deg + 1)) for j in range(deg)]
        r = np.array(r or [0.0])
        mom = np.array([(a * m[j:j + deg + 1]).sum() for j in range(_POLY_SERIES_TERMS)])
    if not (np.isfinite(a).all() and np.isfinite(r).all() and np.isfinite(mom).all()):
        return None

    def transform(z):
        flat = np.asarray(z, dtype=complex).reshape(-1)
        zeta = (flat - mid) / rad
        out = np.empty_like(flat)
        far = np.abs(zeta) > _POLY_SERIES_RADIUS
        if far.any():
            inv = 1.0 / zeta[far]
            powers = np.cumprod(np.broadcast_to(inv[:, None], (inv.size, mom.size)), axis=1)
            out[far] = powers @ mom
        if not far.all():
            near = ~far
            zn = zeta[near]
            out[near] = _poly.polyval(zn, a) * _log_ratio(flat[near], lo, hi) - _poly.polyval(zn, r)
        return out.reshape(np.shape(z))

    return transform


def named_density(name: str, lo: float, hi: float, order: int = 64) -> DensitySegment:
    """Resolve a density name to its segment on [lo, hi], exact transform included.

    With zeta = (z - mid)/rad and rad*q = sqrt(z - hi) sqrt(z - lo), the
    transforms are 2/(rad (zeta + q)) (semicircle), 1/(rad q) (arcsine),
    log((z - lo)/(z - hi))/(hi - lo) (uniform) and, for `poly:`,
    p(z) log((z - lo)/(z - hi)) - r(z), switching to the moment series far
    from the interval; each is written so that it does not cancel. The
    density bounds are 2/(pi rad) (semicircle), 1/(hi - lo) (uniform) and,
    for `poly:`, the maximum of |p| on [lo, hi], taken in the variable
    xi = (x - mid)/rad from the ends and the critical points; the arcsine
    has none.

    The semicircle's and the arcsine's transforms carry ``_sups``: y ->
    (M(y), L(y)), the sups of |G| and |G'| at distance at least y from the
    segment. With t = y/rad, that region is zeta at distance >= t from
    [-1, 1], where |zeta^2 - 1| >= m(t) = 2t (t <= 1) or 1 + t^2 (t >= 1):
    1/(zeta^2 - 1) is analytic there and vanishes at infinity, so its sup
    lies on the boundary. At height t the least |zeta^2 - 1| is 2t at
    (Re zeta)^2 = 1 - t^2 when t <= 1, and 1 + t^2 at Re zeta = 0
    otherwise; the arcs round the ends give more, as |zeta - 1| = t and
    |zeta + 1|^2 >= 4 + t^2 on the right one. So |q|^2 >= m, and

    - semicircle: G = (2/rad) / (zeta + q) with |zeta + q| >= 1, and
      G' = -(2/rad^2) g/q with g = 1/(zeta + q), so
      M = min(2/rad, 1/y) and L = min(2/(rad^2 sqrt(m)), 1/y^2);
    - arcsine: G = 1/(rad q) and G' = -zeta/(rad^2 q^3) with
      |zeta|^2 <= |q|^2 + 1, so M = min(1/(rad sqrt(m)), 1/y) and
      L = min(sqrt(1 + m)/(rad^2 m^(3/2)), 1/y^2),

    1/y and 1/y^2 being a unit mass's at distance y. Both are attained
    (the semicircle's L at zeta = i), so each takes a few ulps of headroom.
    Their densities carry ``_theta``: (lo, hi, density * dx/dtheta) with
    x = mid + rad cos(theta), which is sin^2(theta) and 1/2 exactly.
    """
    if not isinstance(name, str):
        raise InvalidInputError("segment density must be a name string")
    lo, hi = finite_interval(lo, hi, "segment")  # before the bounds divide by the width
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    if name in ("semicircle", "arcsine") and rad * rad < _TINY:
        # both densities divide by the squared half-width, or clamp below it
        raise InvalidInputError(f"{name} segment too narrow: its half-width squared underflows")
    if name == "semicircle":
        def dens(x):
            return 2.0 / (np.pi * rad * rad) * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, 0.0))

        def transform(z):
            return 2.0 / ((z - mid) + _sqrt_pair(z, lo, hi))
        dens._theta, transform._sups = (lo, hi, _sin2), _semicircle_sups(rad)
        return DensitySegment(lo, hi, dens, order, True, transform,
                              _finite_or_none(2.0 / (np.pi * rad)))
    if name == "arcsine":
        # a clamp against rounding at the ends, relative to rad^2 so that it
        # scales with the segment: eps rad^2 >= eps _TINY never underflows
        floor = _EPS * rad * rad

        def dens(x):
            return 1.0 / (np.pi * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, floor)))

        def transform(z):
            return 1.0 / _sqrt_pair(z, lo, hi)
        dens._theta, transform._sups = (lo, hi, _half), _arcsine_sups(rad)
        return DensitySegment(lo, hi, dens, order, True, transform)
    if name == "uniform":
        def dens(x):
            return np.full_like(np.asarray(x, dtype=float), 1.0 / (hi - lo))

        def transform(z):
            return _log_ratio(z, lo, hi) / (hi - lo)
        return DensitySegment(lo, hi, dens, order, False, transform,
                              _finite_or_none(1.0 / (hi - lo)))
    if name.startswith("poly:"):
        coeffs = floats(name[5:].split(","), f"bad polynomial density {name!r}")
        def dens(x):
            return _poly.polyval(np.asarray(x, dtype=float), coeffs)
        a = _xi_coeffs(coeffs, lo, hi)
        return DensitySegment(lo, hi, dens, order, False, _poly_transform(a, lo, hi),
                              _poly_peak(a))
    raise InvalidInputError(f"unknown density {name!r}")


def measure_from_dict(obj: dict) -> RealMeasure:
    """Build a RealMeasure from its JSON object form.

    {"atoms": [[x, w], ...],
     "segments": [{"interval": [lo, hi], "density": "<name>", "order": n}, ...],
     "mass": optional declared total}

    Every key is optional, and any other key is refused; so are strings and
    booleans in ``atoms``, ``interval`` and ``mass``.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("measure JSON must be an object")
    json_keys(obj, ("atoms", "segments", "mass"), "measure")
    segments = obj.get("segments", [])
    if not isinstance(segments, (list, tuple)):
        raise InvalidInputError("segments must be a list")
    segs = []
    for s in segments:
        if not isinstance(s, dict):
            raise InvalidInputError("segment must be a JSON object")
        json_keys(s, ("interval", "density", "order"), "segment")
        # one [lo, hi] pair, read as the only row of a list of pairs
        lo, hi = floats([json_numbers(s.get("interval"), "segment interval")],
                        "segment needs an [lo, hi] interval", pairs=True)[0]
        segs.append(named_density(s.get("density"), lo, hi, s.get("order", 64)))
    mass = json_numbers(obj.get("mass"), "declared mass")
    return RealMeasure(json_numbers(obj.get("atoms", []), "atoms"), segs, mass=mass)


# ---------------------------------------------------------------------------
# transform calculus

def _require_upper(z) -> np.ndarray:
    # z as a complex array of finite points in the open upper half-plane
    zz = floats(z, "z must be finite", dtype=complex)
    if not np.isfinite(zz).all():
        raise InvalidInputError("z must be finite")
    if (zz.imag <= 0).any():
        raise InvalidInputError("z must lie in the open upper half-plane")
    return zz


def _measure(mu) -> RealMeasure:
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    return mu


def _scaled(mu: RealMeasure, z) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes, weights and points of G(z), after the domain check.

    Numpy's complex division overflows an intermediate once |z - x| nears
    the float limit, though G is representable there. So when a point or a
    node reaches 2^1020, points, nodes and weights are all scaled by one
    power of two that brings them below it: each term w/(z - x) keeps its
    value, exactly unless a scaled weight or coordinate is subnormal, and so
    does w/|z - x|. Below 2^1020, each part of z - x stays below 2^1021,
    so the denominator c + d r of Smith's algorithm (`_transform_bound`),
    at most twice the larger part, stays below 2^1022 and its reciprocal
    stays normal.
    """
    pos, wts = _measure(mu).nodes()
    zz = _require_upper(z)
    reach = max(np.abs(zz.real).max(initial=0.0), np.abs(zz.imag).max(initial=0.0),
                np.abs(pos).max(initial=0.0))
    shift = max(math.frexp(reach)[1] - 1020, 0)
    if shift:
        scale = 2.0 ** -shift
        # parts apart: numpy's complex product overflows as its division does
        zz = zz.real * scale + 1j * (zz.imag * scale)
        pos, wts = pos * scale, wts * scale
    return pos, wts, zz


def cauchy_transform(mu: RealMeasure, z):
    """G(z) = integral of 1/(z - x) dmu(x); maps the upper half-plane down.

    One node sum over the frozen nodes, scaled near the float limit (see
    `_scaled`).
    """
    pos, wts, zz = _scaled(mu, z)
    g = _node_sum(pos, wts, zz)
    return complex(g) if zz.ndim == 0 else g


def _probability(mu: RealMeasure) -> RealMeasure:
    if not _measure(mu).is_probability:
        raise InvalidInputError("reciprocal transform needs a probability measure")
    return mu


def _reciprocal(g):
    if np.any(g == 0):  # |G| below the subnormals, e.g. atoms at +-1e308 seen from i
        raise NonConvergenceError("Cauchy transform underflowed to zero")
    return 1.0 / g


def reciprocal_cauchy(mu: RealMeasure, z):
    """F = 1/G for a probability measure; a Pick function fixing infinity."""
    return _reciprocal(cauchy_transform(_probability(mu), z))


def _transform_bound(mu: RealMeasure, z: complex, reciprocal: bool):
    """(value, roundoff_bound) of G(z), or of F(z) = 1/G(z) with `reciprocal`.

    Both come from one pass over the scaled terms w/(z - x) of
    `cauchy_transform`'s node sum. With n nodes, u = eps/2 and
    S = sum w/|z - x| (unchanged by the common scaling, so finite wherever
    G is), the standard model fl(a op b) = (a op b)(1 + d), |d| <= u, gives
    to first order in u (Higham, *Accuracy and Stability of Numerical
    Algorithms*, sections 2.2, 3.6 and 4.2):

    - z - x rounds its real part only, so it is off by u relative.
    - Numpy divides w by c + id (|c| >= |d|; the other case is alike) by
      Smith's algorithm: r = d/c, s = 1/(c + d r), then (w s, -(w r) s).
      The two terms of c + d r share a sign and d r is at most half of it,
      so c + d r is off by 2u, s by 3u, the real part by 4u and the
      imaginary part, through r and w r, by 6u. With the subtraction a
      term is off by at most 7u |w/(z - x)|.
    - A sum of n terms in any order is off by (n - 1) u times the sum of
      their moduli: real and imaginary parts apart, then Minkowski.

    So G is off by at most (n + 6) u S <= (n + 3) eps S, and the n u S to
    spare covers the second-order terms. Two terms charge the subnormals:
    S + 2 tiny charges (2n + 6) ulps of 0 for a G that falls among them,
    and each weight counts at least tiny in S, which covers a weight that
    is subnormal, or that the scaling made so. The scaling also keeps s
    normal (`_scaled`). Points within 2^-1022 of a node are outside the
    model.

    F = 1/G adds (n + 3) eps S |F|^2, taken one factor at a time so that
    no product over- or underflows before the bound does, and the rounding
    of 1/fl(G): Python divides by Smith's algorithm without the reciprocal
    s, (1/(c + d r), -r/(c + d r)), off by 3u and 4u, so by at most
    2 eps |F|. NonConvergenceError when the value or the bound is not
    finite.
    """
    pos, wts, zz = _scaled(_probability(mu) if reciprocal else mu, z)
    # a finite but huge measure can overflow either number: refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        d = zz - pos
        value = complex((wts / d).sum())
        bound = float((np.maximum(wts, _TINY) / np.abs(d)).sum()) + 2.0 * _TINY
        charge = (pos.size + 3) * _EPS
        if reciprocal:
            value = _reciprocal(value)
            mag = abs(value)
            bound = (bound * mag) * (mag * charge) + 2.0 * _EPS * mag
        else:
            bound *= charge
    if not (np.isfinite(value) and math.isfinite(bound)):
        op = "reciprocal" if reciprocal else "cauchy"
        raise NonConvergenceError(f"{op} transform overflowed")
    return value, bound


def moment(mu: RealMeasure, n: int) -> float:
    n = count(n, "moment order")
    if n < 0:
        raise InvalidInputError("moment order must be a nonnegative integer")
    pos, wts = _measure(mu).nodes()
    with np.errstate(over="ignore", invalid="ignore"):  # the certificate refuses inf and nan
        return float((wts * pos ** n).sum())


def class_r_constant(F) -> float:
    """Least C with |F(z) - z| <= C/Im z, the y -> infinity limit of |iy(iy - F(iy))|.

    Equals the total mass of the representing measure (the variance when F is
    a reciprocal Cauchy transform). The limit is ``numerics.y_limit`` on
    ``numerics.Y_LADDER``; NonConvergenceError unless it settles within
    ``numerics.settle_tol(C)`` = 1e-3 max(1, C).
    """
    if not callable(F):
        raise InvalidInputError("F must be callable")
    vals = np.array([abs(1j * y * (1j * y - F(1j * y))) for y in Y_LADDER])
    return max(float(y_limit(vals, "class-r ladder")), 0.0)


@dataclass(frozen=True)
class NevanlinnaTriple:
    """Data of F(z) = b + cz + integral (1+tz)/(t-z) dnu(t)."""

    b: float
    c: float
    nu_mass: float

    def __post_init__(self):
        if self.c < 0 or self.nu_mass < 0:
            raise InvalidInputError("Nevanlinna triple needs c >= 0 and nu_mass >= 0")


def nevanlinna_triple(F) -> NevanlinnaTriple:
    """Extract (b, c, nu_mass) of a Pick function: b = Re F(i), nu_mass = Im F(i) - c.

    c is the y -> infinity limit of Im F(iy)/y, ``numerics.y_limit`` on
    ``numerics.Y_LADDER``; NonConvergenceError unless it settles within
    ``numerics.settle_tol(c)`` = 1e-3 max(1, |c|), and unless F(i) is finite.
    """
    if not callable(F):
        raise InvalidInputError("F must be callable")
    fi = complex(F(1j))
    b = fi.real
    vals = np.array([complex(F(1j * y)).imag / y for y in Y_LADDER])
    c = float(y_limit(vals, "linear-coefficient ladder"))
    if not np.isfinite(fi):
        raise NonConvergenceError("F(i) is not finite")
    if c < 0:
        if c < -1e-9:
            raise InvalidInputError("negative linear coefficient: not a Pick function")
        c = 0.0
    nu = fi.imag - c
    if nu < -1e-9:
        raise InvalidInputError("Im F(i) < c: not a Pick function at working accuracy")
    return NevanlinnaTriple(b=b, c=c, nu_mass=max(nu, 0.0))


def stieltjes_invert(G, interval: tuple[float, float], eps_ladder: Sequence[float]) -> float:
    """Recover mu((a,b)) + mu([a,b]) from boundary values of G.

    Integrates -(2/pi) Im G(x + i*eps) over (a, b) by adaptive Simpson for
    each rung, then extrapolates the ladder to eps = 0 by Neville's rule;
    NonConvergenceError unless the limit is finite and the last rung moved
    it by at most ``numerics.settle_tol(value)`` = 1e-3 max(1, |value|).
    Interior atoms count twice, endpoint atoms once, matching the
    open/closed average.

    Each integral is taken to 1e-10 max(1, b - a) times max(1, y |G(iy)|)
    at y = max(1, |a|, |b|), where G is read once per call; the factor
    counts as 1 when that reading is not finite.  As y |G(iy)| is at most
    the mass, a measure of mass at most 1 keeps the tolerance
    1e-10 max(1, b - a), and a heavier one is integrated to the same
    relative accuracy instead of refining to Simpson's evaluation cap.

    G is called on 1-D complex arrays of points, one call per Simpson
    level and slice; a G that raises TypeError on an array, or returns the
    wrong shape, is called point by point instead.
    """
    if not callable(G):
        raise InvalidInputError("G must be callable")
    a, b = floats([interval], "interval must be a pair (a, b)", pairs=True)[0]
    a, b = finite_interval(a, b, "interval")
    eps = floats(eps_ladder, "eps ladder must be finite")
    if not np.all(np.isfinite(eps)):
        raise InvalidInputError("eps ladder must be finite")
    if eps.ndim != 1 or eps.size < 2 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise InvalidInputError("eps ladder must be positive, strictly decreasing, length >= 2")
    y = max(1.0, abs(a), abs(b))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite reading counts as 1
        scale = y * float(np.abs(_eval_array(G, np.array([1j * y]), complex)[0]))
    tol = 1e-10 * max(1.0, b - a) * (scale if 1.0 < scale < math.inf else 1.0)
    vals = []
    for e in eps:
        integrand = lambda x, _e=e: _eval_array(G, x + 1j * _e, complex).imag
        vals.append(-(2.0 / np.pi) * adaptive_simpson(integrand, a, b, tol=tol))
    with np.errstate(over="ignore", invalid="ignore"):  # settled refuses
        return float(settled(*neville_zero(eps, vals), "eps ladder"))


def affine_pushforward(mu: RealMeasure, scale: float, shift: float) -> RealMeasure:
    """Image measure under x -> scale*x + shift, scale > 0."""
    scale, shift = number(scale, "scale must be positive"), number(shift, "shift must be a number")
    if not scale > 0:
        raise InvalidInputError("scale must be positive")
    atoms = [(scale * x + shift, w) for x, w in _measure(mu).atoms]
    segs = []
    for seg in mu.segments:
        lo, hi = scale * seg.lo + shift, scale * seg.hi + shift

        def dens(y, _d=seg.density, _s=scale, _c=shift):
            return _eval_array(_d, (np.asarray(y, dtype=float) - _c) / _s) / _s
        # density * dx/dtheta is the same in the image's theta
        form = _theta_form(seg)
        if form is not None:
            dens._theta = (lo, hi, form)
        transform = None
        if seg.cauchy is not None:
            def transform(z, _g=seg.cauchy, _s=scale, _c=shift):
                return _g((z - _c) / _s) / _s
            if hasattr(seg.cauchy, "_sups"):
                transform._sups = _pushed_sups(seg.cauchy._sups, scale)
        peak = None if seg.peak is None else _finite_or_none(seg.peak / scale)
        segs.append(DensitySegment(lo, hi, dens, seg.order, seg.chebyshev, transform, peak))
    return RealMeasure(atoms, segs)


# convenience constructors used throughout tests and the CLI docs

def _centred(name: str, radius, center, order) -> RealMeasure:
    radius = number(radius, "radius must be a number")
    center = number(center, "center must be a number")
    seg = named_density(name, center - radius, center + radius, order)
    return RealMeasure([], [seg], mass=1.0)


def semicircle(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    return _centred("semicircle", radius, center, order)


def arcsine(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    return _centred("arcsine", radius, center, order)


def point_mass(x: float = 0.0) -> RealMeasure:
    return RealMeasure([(x, 1.0)], mass=1.0)


def bernoulli(spread: float = 1.0, center: float = 0.0) -> RealMeasure:
    spread = number(spread, "spread must be a number")
    center = number(center, "center must be a number")
    return RealMeasure([(center - spread, 0.5), (center + spread, 0.5)], mass=1.0)
