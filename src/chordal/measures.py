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
interval masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as _poly

from .errors import InvalidInputError, NonConvergenceError
from .numerics import adaptive_simpson, gauss_legendre, neville_zero, y_limit

# y-ladder used by every y -> infinity limit in the package.
Y_BASE = 8.0
Y_DOUBLINGS = 10

MASS_TOL = 1e-12
# the last two estimates of a ladder limit (y -> inf or eps -> 0) must agree
# within this, absolutely or times max(1, |limit|)
SETTLE_TOL = 1e-3
_MAX_DENSE_NODES = 400_000
_MAX_ORDER = 2048          # leggauss takes O(order^3) time and O(order^2) memory
_CAUCHY_BLOCK = 1 << 18  # (point, node) pairs per block of a node sum
_POLY_SERIES_RADIUS = 2.0  # |zeta| beyond which a polynomial density sums its moment series
_POLY_SERIES_TERMS = 64    # 2**-64 < eps/100 at the radius


def y_ladder() -> np.ndarray:
    return Y_BASE * 2.0 ** np.arange(Y_DOUBLINGS + 1)


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
    _CAUCHY_BLOCK pairs; a row's sum does not depend on the blocking.
    """
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
    still give the moments and `cauchy_transform`.
    """

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    order: int = 64
    chebyshev: bool = False
    cauchy: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInputError("segment endpoints must be finite")
        if not self.hi > self.lo:
            raise InvalidInputError("segment needs lo < hi")
        if not math.isfinite(self.hi - self.lo):
            raise InvalidInputError("segment width hi - lo overflows")
        if not isinstance(self.order, (int, np.integer)) or not 2 <= self.order <= _MAX_ORDER:
            raise InvalidInputError(f"quadrature order must be an integer in [2, {_MAX_ORDER}]")
        if self.cauchy is not None and not callable(self.cauchy):
            raise InvalidInputError("segment cauchy transform must be callable")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        mid = 0.5 * (self.lo + self.hi)
        rad = 0.5 * (self.hi - self.lo)
        t, w = gauss_legendre(int(self.order))
        if self.chebyshev:
            theta = 0.5 * np.pi * (t + 1.0)
            x = mid + rad * np.cos(theta)
            jac = rad * np.sin(theta) * (0.5 * np.pi)
        else:
            x = mid + rad * t
            jac = np.full_like(x, rad)
        dens = _eval_array(self.density, x)
        if np.any(dens < -1e-12) or not np.all(np.isfinite(dens)):
            raise InvalidInputError("density must be finite and nonnegative on nodes")
        return x, dens * jac * w


def _midpoint_nodes(seg: DensitySegment, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    # the midpoint rule on seg with node gaps below spacing, in theta for
    # chebyshev segments
    rad = 0.5 * (seg.hi - seg.lo)
    span = np.pi * rad if seg.chebyshev else seg.hi - seg.lo
    n = min(max(int(seg.order), int(np.ceil(span / spacing)) + 1), _MAX_DENSE_NODES)
    if seg.chebyshev:
        theta = np.pi * (np.arange(n) + 0.5) / n
        x = 0.5 * (seg.lo + seg.hi) + rad * np.cos(theta)
        return x, _eval_array(seg.density, x) * rad * np.sin(theta) * (np.pi / n)
    step = (seg.hi - seg.lo) / n
    x = seg.lo + step * (np.arange(n) + 0.5)
    return x, _eval_array(seg.density, x) * step


class RealMeasure:
    """Atoms plus density segments; quadrature nodes are frozen at build time."""

    def __init__(self, atoms: Sequence = (), segments: Sequence = (), mass: float | None = None):
        checked = []
        for a in atoms:
            x, w = float(a[0]), float(a[1])
            if not (math.isfinite(x) and math.isfinite(w)):
                raise InvalidInputError("atom entries must be finite")
            if w < 0:
                raise InvalidInputError("atom weights must be nonnegative")
            checked.append((x, w))
        self._atoms = tuple(checked)
        self._segments = tuple(segments)
        if not all(isinstance(seg, DensitySegment) for seg in self._segments):
            raise InvalidInputError("segments must be DensitySegment instances")
        frozen = [seg.nodes() for seg in self._segments]
        self._pos, self._wts = self._with_atoms(frozen)
        with np.errstate(over="ignore"):
            total = float(self._wts.sum())
        if not math.isfinite(total):
            raise InvalidInputError("total mass overflows")
        if mass is not None and abs(total - float(mass)) > MASS_TOL:
            raise InvalidInputError(
                f"declared mass {mass} but quadrature gives {total!r}"
            )
        self._mass = total
        # G: the closed forms plus one node sum over the atoms and the
        # segments that have no closed form ("bare" segments)
        self._closed = tuple(seg.cauchy for seg in self._segments if seg.cauchy is not None)
        self._bare = tuple(seg for seg in self._segments if seg.cauchy is None)
        self._sum_pos, self._sum_wts = self._with_atoms(
            xw for seg, xw in zip(self._segments, frozen) if seg.cauchy is None)

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
        lows, highs = [], []
        for x, _ in self._atoms:
            lows.append(x)
            highs.append(x)
        for seg in self._segments:
            lows.append(seg.lo)
            highs.append(seg.hi)
        if not lows:
            return None
        return min(lows), max(highs)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        return self._pos, self._wts

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
            pos, wts = self._sum_pos, self._sum_wts
        else:
            pos, wts = self._resampled(self._bare, spacing)
        terms = [f(z) for f in self._closed]
        if pos.size or not terms:
            terms.insert(0, _node_sum(pos, wts, z))
        return sum(terms[1:], terms[0])

    def _resampled(self, segments, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        if not spacing > 0:
            raise InvalidInputError("spacing must be positive")
        return self._with_atoms(_midpoint_nodes(seg, spacing) for seg in segments)

    def dense_nodes(self, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule resampling with node gaps below `spacing`.

        Needed when the transform is evaluated closer to the support than the
        declared-order node gap; atoms are kept exact.
        """
        return self._resampled(self._segments, spacing)


# ---------------------------------------------------------------------------
# named densities / JSON interchange

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


def _poly_transform(coeffs, lo, hi):
    # p(x) = P(xi) with x = mid + rad*xi; then G(z) = integral over [-1, 1]
    # of P(xi)/(zeta - xi) = P(zeta) log((zeta+1)/(zeta-1)) - R(zeta), R an
    # exact polynomial. Far out both terms grow like zeta^deg while G ~ 1/zeta,
    # so beyond _POLY_SERIES_RADIUS the moment series sum mu_n zeta^-(n+1) runs.
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = np.zeros(1)
    for c in reversed(coeffs):
        a = _poly.polyadd(_poly.polymul(a, [mid, rad]), [c])
    deg = a.size - 1
    n = np.arange(deg + _POLY_SERIES_TERMS)
    m = np.where(n % 2 == 0, 2.0 / (n + 1.0), 0.0)  # integrals of xi^n over [-1, 1]
    # R(zeta) = integral of (P(zeta) - P(xi))/(zeta - xi): r_j = sum_(k>j) a_k m_(k-1-j)
    r = [sum(a[k] * m[k - 1 - j] for k in range(j + 1, deg + 1)) for j in range(deg)]
    r = np.array(r or [0.0])
    mom = np.array([(a * m[j:j + deg + 1]).sum() for j in range(_POLY_SERIES_TERMS)])

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
    from the interval; each is written so that it does not cancel.
    """
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    if name == "semicircle":
        def dens(x):
            return 2.0 / (np.pi * rad * rad) * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, 0.0))

        def transform(z):
            return 2.0 / ((z - mid) + _sqrt_pair(z, lo, hi))
        return DensitySegment(lo, hi, dens, order, True, transform)
    if name == "arcsine":
        def dens(x):
            return 1.0 / (np.pi * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, 1e-300)))

        def transform(z):
            return 1.0 / _sqrt_pair(z, lo, hi)
        return DensitySegment(lo, hi, dens, order, True, transform)
    if name == "uniform":
        def dens(x):
            return np.full_like(np.asarray(x, dtype=float), 1.0 / (hi - lo))

        def transform(z):
            return _log_ratio(z, lo, hi) / (hi - lo)
        return DensitySegment(lo, hi, dens, order, False, transform)
    if name.startswith("poly:"):
        try:
            coeffs = [float(c) for c in name[5:].split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad polynomial density {name!r}") from exc
        if not coeffs:
            raise InvalidInputError("polynomial density needs coefficients")
        def dens(x):
            return _poly.polyval(np.asarray(x, dtype=float), coeffs)
        return DensitySegment(lo, hi, dens, order, False, _poly_transform(coeffs, lo, hi))
    raise InvalidInputError(f"unknown density {name!r}")


def measure_from_dict(obj: dict) -> RealMeasure:
    """Build a RealMeasure from its JSON object form.

    {"atoms": [[x, w], ...],
     "segments": [{"interval": [lo, hi], "density": "<name>", "order": n}, ...],
     "mass": optional declared total}
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("measure JSON must be an object")
    try:
        atoms = [(float(x), float(w)) for x, w in obj.get("atoms", [])]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError("atoms must be a list of [position, weight] pairs") from exc
    segments = obj.get("segments", [])
    if not isinstance(segments, (list, tuple)):
        raise InvalidInputError("segments must be a list")
    segs = []
    for s in segments:
        try:
            lo, hi = (float(v) for v in s["interval"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError("segment needs an [lo, hi] interval") from exc
        name = s.get("density")
        if not isinstance(name, str):
            raise InvalidInputError("segment density must be a name string")
        try:
            order = float(s.get("order", 64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError("segment order must be an integer") from exc
        if not order.is_integer():
            raise InvalidInputError("segment order must be an integer")
        segs.append(named_density(name, lo, hi, int(order)))
    mass = obj.get("mass")
    try:
        mass = None if mass is None else float(mass)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError("declared mass must be a number") from exc
    return RealMeasure(atoms, segs, mass=mass)


# ---------------------------------------------------------------------------
# transform calculus

def _require_upper(z):
    zz = np.asarray(z)
    if not np.all(np.isfinite(zz)):
        raise InvalidInputError("z must be finite")
    if np.any(zz.imag <= 0):
        raise InvalidInputError("z must lie in the open upper half-plane")


def cauchy_transform(mu: RealMeasure, z):
    """G(z) = integral of 1/(z - x) dmu(x); maps the upper half-plane down."""
    _require_upper(z)
    pos, wts = mu.nodes()
    zz = np.asarray(z, dtype=complex)
    g = _node_sum(pos, wts, zz)
    return complex(g) if zz.ndim == 0 else g


def reciprocal_cauchy(mu: RealMeasure, z):
    """F = 1/G for a probability measure; a Pick function fixing infinity."""
    if not mu.is_probability:
        raise InvalidInputError("reciprocal transform needs a probability measure")
    g = cauchy_transform(mu, z)
    if np.any(g == 0):  # |z| near the float limit: the node sum underflowed
        raise NonConvergenceError("Cauchy transform underflowed to zero")
    return 1.0 / g


def moment(mu: RealMeasure, n: int) -> float:
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise InvalidInputError("moment order must be a nonnegative integer")
    if mu.support is None:
        return 0.0
    pos, wts = mu.nodes()
    return float((wts * pos ** int(n)).sum())


def class_r_constant(F) -> float:
    """Least C with |F(z) - z| <= C/Im z, from the y-ladder of |iy(iy - F(iy))|.

    Equals the total mass of the representing measure (the variance when F is
    a reciprocal Cauchy transform).
    """
    ys = y_ladder()
    vals = np.array([abs(1j * y * (1j * y - F(1j * y))) for y in ys])
    limit, diff = y_limit(vals, ys)
    if diff > SETTLE_TOL:
        raise NonConvergenceError("class-r ladder failed its Cauchy criterion")
    return max(float(np.real(limit)), 0.0)


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
    """Extract (b, c, nu_mass) of a Pick function from ladder limits."""
    fi = complex(F(1j))
    b = fi.real
    ys = y_ladder()
    vals = np.array([complex(F(1j * y)).imag / y for y in ys])
    c, diff = y_limit(vals, ys)
    if diff > SETTLE_TOL:
        raise NonConvergenceError("linear-coefficient ladder failed to converge")
    c = float(c)
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
    each rung, then extrapolates the ladder to eps = 0. Interior atoms count
    twice, endpoint atoms once, matching the open/closed average.

    G is called on 1-D complex arrays of points, one call per Simpson
    level and slice; a G that raises TypeError on an array, or returns the
    wrong shape, is called point by point instead.
    """
    a, b = (float(v) for v in interval)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InvalidInputError("interval endpoints must be finite")
    if not b > a:
        raise InvalidInputError("interval needs a < b")
    if not math.isfinite(b - a):
        raise InvalidInputError("interval width b - a overflows")
    eps = np.asarray(list(eps_ladder), dtype=float)
    if not np.all(np.isfinite(eps)):
        raise InvalidInputError("eps ladder must be finite")
    if eps.size < 2 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise InvalidInputError("eps ladder must be positive, strictly decreasing, length >= 2")
    tol = 1e-10 * max(1.0, b - a)
    vals = []
    for e in eps:
        integrand = lambda x, _e=e: _eval_array(G, x + 1j * _e, complex).imag
        vals.append(-(2.0 / np.pi) * adaptive_simpson(integrand, a, b, tol=tol))
    with np.errstate(over="ignore", invalid="ignore"):
        value, diff = neville_zero(eps, vals)
    if not math.isfinite(value):
        raise NonConvergenceError("eps ladder extrapolated to a non-finite value")
    if diff > SETTLE_TOL * max(1.0, abs(value)):
        raise NonConvergenceError("eps ladder failed to converge")
    return float(value)


def affine_pushforward(mu: RealMeasure, scale: float, shift: float) -> RealMeasure:
    """Image measure under x -> scale*x + shift, scale > 0."""
    if not scale > 0:
        raise InvalidInputError("scale must be positive")
    atoms = [(scale * x + shift, w) for x, w in mu.atoms]
    segs = []
    for seg in mu.segments:
        def dens(y, _d=seg.density, _s=scale, _c=shift):
            return _eval_array(_d, (np.asarray(y, dtype=float) - _c) / _s) / _s
        transform = None
        if seg.cauchy is not None:
            def transform(z, _g=seg.cauchy, _s=scale, _c=shift):
                return _g((z - _c) / _s) / _s
        segs.append(DensitySegment(scale * seg.lo + shift, scale * seg.hi + shift, dens,
                                   seg.order, seg.chebyshev, transform))
    return RealMeasure(atoms, segs)


# convenience constructors used throughout tests and the CLI docs

def semicircle(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    seg = named_density("semicircle", center - radius, center + radius, order)
    return RealMeasure([], [seg], mass=1.0)


def arcsine(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    seg = named_density("arcsine", center - radius, center + radius, order)
    return RealMeasure([], [seg], mass=1.0)


def point_mass(x: float = 0.0) -> RealMeasure:
    return RealMeasure([(x, 1.0)], mass=1.0)


def bernoulli(spread: float = 1.0, center: float = 0.0) -> RealMeasure:
    return RealMeasure([(center - spread, 0.5), (center + spread, 0.5)], mass=1.0)
