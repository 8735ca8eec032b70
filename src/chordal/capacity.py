"""Transfinite-diameter diagnostics for reciprocal Cauchy transforms.

For a compactly supported probability measure with support in [A, B], the
map F = 1/G extends across the two real rays and sends the complement of
[A, B] onto the complement of a compact set E'.  When F is univalent the
transfinite diameter of E' matches that of [A, B]; a materially smaller
image diameter, a self-crossing boundary trace, or an unbounded excursion
all witness failure.

Both diameters are estimated by the same discrete Fekete routine at the
same point count, so the slow (logarithmic) convergence of d_n cancels in
the ratio.  Everything here is deterministic: greedy seeding and exchange
sweeps break ties by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .measures import RealMeasure, reciprocal_cauchy

__all__ = [
    "BoundaryCurve",
    "CapacityReport",
    "boundary_image",
    "discrete_transfinite_diameter",
    "hayman_report",
]

_GAIN_FLOOR = 1e-13        # exchange swaps must beat this to count
_EXCURSION_FACTOR = 10.0   # |F| beyond this multiple of B-A flags blow-up
_CLOUD_SPACING = 0.25      # dense-cloud spacing as a fraction of epsilon


@dataclass(frozen=True)
class BoundaryCurve:
    """Sampled trace of F along [A, B] + i*eps and its mirror image.

    ``points`` runs left to right just above the support and then back
    along the conjugate, closing the loop up to a 2*eps-scale gap at the
    left endpoint.  ``self_intersects`` reports a proper segment crossing;
    ``unbounded`` reports an excursion far beyond the support scale (the
    pole of F escaping to infinity), which also voids the loop reading.
    """

    points: np.ndarray
    epsilon: float
    self_intersects: bool
    unbounded: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", np.asarray(self.points, dtype=complex))


@dataclass(frozen=True)
class CapacityReport:
    n_points: int
    d_image: float
    d_interval: float
    ratio: float
    verdict: str
    curve: BoundaryCurve = field(compare=False, repr=False)  # the traced boundary


def _proper_crossings(pts: np.ndarray) -> bool:
    """True if any two non-adjacent polyline segments properly cross."""
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


def boundary_image(
    mu: RealMeasure,
    resolution: int = 2048,
    epsilon: float = 1e-3,
) -> BoundaryCurve:
    """Trace F over a Chebyshev-spaced grid at height ``epsilon``.

    The grid clusters at the support endpoints where F turns fastest.  The
    Cauchy transform is taken against a resampled node cloud fine enough
    (spacing ``epsilon/4``) to stay accurate this close to the axis.
    """
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    if not mu.is_probability:
        raise InvalidInputError("mu must be a probability measure")
    lo, hi = mu.support
    if not hi > lo:
        raise InvalidInputError("degenerate support: boundary tracing needs A < B")
    width = hi - lo
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.1 * width):
        raise InvalidInputError("epsilon must lie in (0, 0.1*(B-A))")
    resolution = int(resolution)
    if resolution < 8:
        raise InvalidInputError("resolution must be at least 8")

    theta = np.linspace(math.pi, 0.0, resolution)
    xs = 0.5 * (lo + hi) + 0.5 * width * np.cos(theta)
    z = xs + 1j * epsilon

    pos, wts = mu.dense_nodes(_CLOUD_SPACING * epsilon)
    top = np.empty(resolution, dtype=complex)
    step = max(1, (1 << 22) // max(pos.size, 1))
    for k in range(0, resolution, step):
        block = z[k:k + step, None]
        g = (wts / (block - pos)).sum(axis=1)
        top[k:k + step] = 1.0 / g

    points = np.concatenate([top, np.conj(top)[::-1]])

    center = np.median(points.real) + 1j * np.median(points.imag)
    unbounded = bool(np.abs(points - center).max() > _EXCURSION_FACTOR * width)
    crossed = False if unbounded else _proper_crossings(points)
    return BoundaryCurve(points, epsilon, crossed, unbounded)


def discrete_transfinite_diameter(points, n: int, sweeps: int = 20) -> float:
    """n-point Fekete estimate of the transfinite diameter of a sample cloud.

    Greedy seeding maximizes the product of distances to the points chosen
    so far; exchange sweeps then try every (selected, candidate) swap and
    keep improvements.  Returns the geometric mean of pairwise distances,
    d_n = (prod |p_i - p_j|)^(2/(n(n-1))).
    """
    pts = np.asarray(points, dtype=complex).ravel()
    n = int(n)
    if n < 2:
        raise InvalidInputError("need n >= 2 Fekete points")
    if pts.size < n:
        raise InvalidInputError("sample cloud smaller than n")
    if int(sweeps) < 0:
        raise InvalidInputError("sweeps must be non-negative")

    # -inf marks a candidate colliding with a selected point; the masking
    # below keeps any inf-inf artifacts out of the argmax.
    with np.errstate(divide="ignore", invalid="ignore"):
        # greedy seed, translation-equivariant start
        sel = np.empty(n, dtype=int)
        sel[0] = int(np.argmax(np.abs(pts - pts.mean())))
        score = np.log(np.abs(pts - pts[sel[0]]))
        for k in range(1, n):
            sel[k] = int(np.argmax(score))
            score = score + np.log(np.abs(pts - pts[sel[k]]))

        la = np.log(np.abs(pts[:, None] - pts[sel][None, :]))
        for _ in range(int(sweeps)):
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
                best = int(np.argmax(gain))
                if math.isfinite(s_j) and not gain[best] > _GAIN_FLOOR:
                    continue
                if not math.isfinite(gain[best]):
                    continue
                sel[j] = best
                la[:, j] = np.log(np.abs(pts - pts[best]))
                swapped = True
            if not swapped:
                break

    chosen = pts[sel]
    diff = np.abs(chosen[:, None] - chosen[None, :])
    iu = np.triu_indices(n, k=1)
    pair = diff[iu]
    if np.any(pair == 0.0):
        raise InvalidInputError("sample cloud has fewer than n distinct points")
    return float(np.exp(2.0 * np.log(pair).sum() / (n * (n - 1))))


def hayman_report(
    mu: RealMeasure,
    n: int = 64,
    resolution: int = 2048,
    epsilon: float | None = None,
    sweeps: int = 20,
) -> CapacityReport:
    """Same-n comparison of image vs interval transfinite diameters.

    ``consistent_with_univalence`` needs the ratio within 5% of 1 and a
    clean (simple, bounded) boundary trace; a ratio below 0.9, a crossing,
    or an unbounded excursion reads as ``inconsistent``; anything else is
    ``inconclusive``.
    """
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    if not mu.is_probability:
        raise InvalidInputError("mu must be a probability measure")
    lo, hi = mu.support
    if not hi > lo:
        raise InvalidInputError("degenerate support: diagnostic needs A < B")
    width = hi - lo
    if epsilon is None:
        epsilon = 1e-3 * width

    curve = boundary_image(mu, resolution=resolution, epsilon=epsilon)
    d_image = discrete_transfinite_diameter(curve.points, n, sweeps)

    theta = np.linspace(math.pi, 0.0, 2 * int(resolution))
    cloud = 0.5 * (lo + hi) + 0.5 * width * np.cos(theta)
    d_interval = discrete_transfinite_diameter(cloud.astype(complex), n, sweeps)

    ratio = d_image / d_interval
    broken = curve.self_intersects or curve.unbounded
    if not broken and abs(ratio - 1.0) <= 0.05:
        verdict = "consistent_with_univalence"
    elif broken or ratio < 0.9:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return CapacityReport(
        n_points=int(n),
        d_image=d_image,
        d_interval=d_interval,
        ratio=ratio,
        verdict=verdict,
        curve=curve,
    )
