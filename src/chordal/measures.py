"""Compactly supported measures on the real line and their transform calculus.

A measure is a finite list of point atoms plus density segments, each segment
integrated by Gauss-Legendre at a declared order. Segments carrying the
`chebyshev` flag apply the rule in the substituted variable
x = mid + rad*cos(theta); that keeps sqrt-type endpoint behaviour (semicircle,
arcsine) spectrally accurate at the declared order. On top of the measure
representation this module provides the Cauchy transform G, its reciprocal F,
moments, the tightest |F(z) - z| <= C/Im z constant, the Nevanlinna data of F,
and Stieltjes inversion of G back to interval masses.
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
_MAX_DENSE_NODES = 400_000


def y_ladder() -> np.ndarray:
    return Y_BASE * 2.0 ** np.arange(Y_DOUBLINGS + 1)


def _eval_density(density, x: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(density(x), dtype=float)
        if vals.shape != x.shape:
            raise TypeError
    except TypeError:
        vals = np.array([float(density(xi)) for xi in x])
    return vals


@dataclass(frozen=True)
class DensitySegment:
    """One absolutely continuous piece: density on [lo, hi], quadrature order.

    `chebyshev` selects the cos-substituted Gauss-Legendre rule; use it for
    densities with square-root endpoint behaviour.
    """

    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    order: int = 64
    chebyshev: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise InvalidInputError("segment endpoints must be finite")
        if not self.hi > self.lo:
            raise InvalidInputError("segment needs lo < hi")
        if not isinstance(self.order, (int, np.integer)) or self.order < 2:
            raise InvalidInputError("quadrature order must be an integer >= 2")

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
        dens = _eval_density(self.density, x)
        if np.any(dens < -1e-12) or not np.all(np.isfinite(dens)):
            raise InvalidInputError("density must be finite and nonnegative on nodes")
        return x, dens * jac * w


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
        pos = [np.array([a[0] for a in self._atoms])]
        wts = [np.array([a[1] for a in self._atoms])]
        for seg in self._segments:
            if not isinstance(seg, DensitySegment):
                raise InvalidInputError("segments must be DensitySegment instances")
            x, w = seg.nodes()
            pos.append(x)
            wts.append(w)
        self._pos = np.concatenate(pos) if pos else np.empty(0)
        self._wts = np.concatenate(wts) if wts else np.empty(0)
        total = float(self._wts.sum())
        if mass is not None and abs(total - float(mass)) > MASS_TOL:
            raise InvalidInputError(
                f"declared mass {mass} but quadrature gives {total!r}"
            )
        self._mass = total

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

    def dense_nodes(self, spacing: float) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint-rule resampling with node gaps below `spacing`.

        Needed when the transform is evaluated closer to the support than the
        declared-order node gap; atoms are kept exact.
        """
        if spacing <= 0:
            raise InvalidInputError("spacing must be positive")
        pos = [np.array([a[0] for a in self._atoms])]
        wts = [np.array([a[1] for a in self._atoms])]
        for seg in self._segments:
            mid = 0.5 * (seg.lo + seg.hi)
            rad = 0.5 * (seg.hi - seg.lo)
            if seg.chebyshev:
                n = max(int(seg.order), int(np.ceil(np.pi * rad / spacing)) + 1)
                n = min(n, _MAX_DENSE_NODES)
                theta = np.pi * (np.arange(n) + 0.5) / n
                x = mid + rad * np.cos(theta)
                w = _eval_density(seg.density, x) * rad * np.sin(theta) * (np.pi / n)
            else:
                n = max(int(seg.order), int(np.ceil((seg.hi - seg.lo) / spacing)) + 1)
                n = min(n, _MAX_DENSE_NODES)
                step = (seg.hi - seg.lo) / n
                x = seg.lo + step * (np.arange(n) + 0.5)
                w = _eval_density(seg.density, x) * step
            pos.append(x)
            wts.append(w)
        return np.concatenate(pos), np.concatenate(wts)


# ---------------------------------------------------------------------------
# named densities / JSON interchange

def named_density(name: str, lo: float, hi: float):
    """Resolve a density name string to (callable, chebyshev flag)."""
    mid = 0.5 * (lo + hi)
    rad = 0.5 * (hi - lo)
    if name == "semicircle":
        def dens(x):
            return 2.0 / (np.pi * rad * rad) * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, 0.0))
        return dens, True
    if name == "arcsine":
        def dens(x):
            return 1.0 / (np.pi * np.sqrt(np.maximum(rad * rad - (x - mid) ** 2, 1e-300)))
        return dens, True
    if name == "uniform":
        def dens(x):
            return np.full_like(np.asarray(x, dtype=float), 1.0 / (hi - lo))
        return dens, False
    if name.startswith("poly:"):
        try:
            coeffs = [float(c) for c in name[5:].split(",")]
        except ValueError as exc:
            raise InvalidInputError(f"bad polynomial density {name!r}") from exc
        if not coeffs:
            raise InvalidInputError("polynomial density needs coefficients")
        def dens(x):
            return _poly.polyval(np.asarray(x, dtype=float), coeffs)
        return dens, False
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
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("atoms must be a list of [position, weight] pairs") from exc
    segments = obj.get("segments", [])
    if not isinstance(segments, (list, tuple)):
        raise InvalidInputError("segments must be a list")
    segs = []
    for s in segments:
        try:
            lo, hi = (float(v) for v in s["interval"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("segment needs an [lo, hi] interval") from exc
        name = s.get("density")
        if not isinstance(name, str):
            raise InvalidInputError("segment density must be a name string")
        dens, cheb = named_density(name, lo, hi)
        try:
            order = float(s.get("order", 64))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError("segment order must be an integer") from exc
        if not order.is_integer():
            raise InvalidInputError("segment order must be an integer")
        segs.append(DensitySegment(lo, hi, dens, int(order), cheb))
    mass = obj.get("mass")
    try:
        mass = None if mass is None else float(mass)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError("declared mass must be a number") from exc
    return RealMeasure(atoms, segs, mass=mass)


# ---------------------------------------------------------------------------
# transform calculus

def _require_upper(z):
    if np.any(np.asarray(z).imag <= 0):
        raise InvalidInputError("z must lie in the open upper half-plane")


def cauchy_transform(mu: RealMeasure, z):
    """G(z) = integral of 1/(z - x) dmu(x); maps the upper half-plane down."""
    _require_upper(z)
    pos, wts = mu.nodes()
    zz = np.asarray(z, dtype=complex)
    if zz.ndim == 0:
        return complex((wts / (complex(z) - pos)).sum())
    return (wts / (zz[..., None] - pos)).sum(axis=-1)


def reciprocal_cauchy(mu: RealMeasure, z):
    """F = 1/G for a probability measure; a Pick function fixing infinity."""
    if not mu.is_probability:
        raise InvalidInputError("reciprocal transform needs a probability measure")
    g = cauchy_transform(mu, z)
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
    if diff > 1e-3:
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
    if diff > 1e-3:
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
    """
    a, b = (float(v) for v in interval)
    if not b > a:
        raise InvalidInputError("interval needs a < b")
    eps = np.asarray(list(eps_ladder), dtype=float)
    if eps.size < 2 or np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise InvalidInputError("eps ladder must be positive, strictly decreasing, length >= 2")
    vals = []
    for e in eps:
        integrand = lambda x, _e=e: complex(G(x + 1j * _e)).imag
        vals.append(-(2.0 / np.pi) * adaptive_simpson(integrand, a, b, tol=1e-10 * max(1.0, b - a)))
    value, diff = neville_zero(eps, vals)
    if diff > 1e-3 * max(1.0, abs(value)):
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
            return _eval_density(_d, (np.asarray(y, dtype=float) - _c) / _s) / _s
        segs.append(
            DensitySegment(scale * seg.lo + shift, scale * seg.hi + shift, dens, seg.order, seg.chebyshev)
        )
    return RealMeasure(atoms, segs)


# convenience constructors used throughout tests and the CLI docs

def semicircle(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    dens, cheb = named_density("semicircle", center - radius, center + radius)
    return RealMeasure([], [DensitySegment(center - radius, center + radius, dens, order, cheb)], mass=1.0)


def arcsine(radius: float = 2.0, center: float = 0.0, order: int = 64) -> RealMeasure:
    dens, cheb = named_density("arcsine", center - radius, center + radius)
    return RealMeasure([], [DensitySegment(center - radius, center + radius, dens, order, cheb)], mass=1.0)


def point_mass(x: float = 0.0) -> RealMeasure:
    return RealMeasure([(x, 1.0)], mass=1.0)


def bernoulli(spread: float = 1.0, center: float = 0.0) -> RealMeasure:
    return RealMeasure([(center - spread, 0.5), (center + spread, 0.5)], mass=1.0)
