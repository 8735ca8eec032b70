"""Transfinite-diameter diagnostics for reciprocal Cauchy transforms.

For a compactly supported probability measure with support in [A, B], the
map F = 1/G extends across the two real rays and sends the complement of
[A, B] onto the complement of a compact set E'.  When F is univalent the
transfinite diameter of E' matches that of [A, B]; a materially smaller
image diameter, a self-crossing boundary trace, or an unbounded excursion
all witness failure.

Both diameters are estimated by the same discrete Fekete routine at the
same point count, so the slow (logarithmic) convergence of d_n cancels in
the ratio.  The trace takes G from ``RealMeasure.cauchy``: exact for the
atoms and the named densities, and only segments given by a bare density
callable are resampled finely enough for the trace height.  The interval
cloud is an affine image of one Chebyshev-spaced cloud on [-1, 1], so its
diameter is computed once per ``(n, resolution, sweeps)`` and scaled by
(B-A)/2.  The crossing test prefilters segment pairs by the bounding boxes
of 8-segment chunks and tests the survivors in batches, so its temporaries
stay bounded.
Everything here is deterministic: greedy seeding and exchange sweeps break
ties by lowest sample index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidInputError
from .measures import RealMeasure

__all__ = [
    "BoundaryCurve",
    "CapacityReport",
    "boundary_image",
    "discrete_transfinite_diameter",
    "hayman_report",
]

_GAIN_FLOOR = 1e-13        # exchange swaps must beat this to count
_EXCURSION_FACTOR = 10.0   # |F| beyond this multiple of B-A flags blow-up
_CLOUD_SPACING = 0.25      # bare-segment node spacing as a fraction of epsilon
_CHUNK = 8                 # segments per bounding box in the crossing test
_PAIR_BATCH = 1 << 18      # most segment pairs one crossing-test batch holds
_MAX_EXCHANGE = 1 << 24    # most entries (2*resolution x n) of one exchange table
RATIO_BAND = 0.05          # |ratio - 1| within this reads consistent_with_univalence


def _count(value, name: str) -> int:
    """``value`` as an int; InvalidInputError unless it is integral."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{name} must be an integer")


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
    """True if any two non-adjacent polyline segments properly cross.

    Segments are grouped into chunks of ``_CHUNK``; only segment pairs from
    chunks whose bounding boxes meet go to the exact predicate, at most
    ``_PAIR_BATCH`` pairs at a time.
    """
    p = pts[:-1]
    r = pts[1:] - p
    e = p + r  # the far ends as the predicate sees them, rounding included
    n = p.size
    if n < 3:
        return False

    # chunk bounding boxes; fmin/fmax skip NaN ends, whose segments never hit
    starts = np.arange(0, n, _CHUNK)
    m = starts.size

    def box(a, b):
        return (np.fmin.reduceat(np.fmin(a, b), starts),
                np.fmax.reduceat(np.fmax(a, b), starts))

    x0, x1 = box(p.real, e.real)
    y0, y1 = box(p.imag, e.imag)

    def cross(o, d, q):
        return d.real * (q.imag - o.imag) - d.imag * (q.real - o.real)

    offs = np.arange(_CHUNK)
    rows_per_block = max(1, _PAIR_BATCH // m)
    pairs_per_batch = _PAIR_BATCH // (_CHUNK * _CHUNK)
    for c0 in range(0, m, rows_per_block):
        c1 = min(m, c0 + rows_per_block)
        meet = ((x0[c0:c1, None] <= x1[None, :]) & (x0[None, :] <= x1[c0:c1, None])
                & (y0[c0:c1, None] <= y1[None, :]) & (y0[None, :] <= y1[c0:c1, None]))
        ci, cj = np.nonzero(meet)
        ci += c0
        keep = cj >= ci
        ci, cj = ci[keep], cj[keep]
        for k in range(0, ci.size, pairs_per_batch):
            bi, bj = ci[k:k + pairs_per_batch, None, None], cj[k:k + pairs_per_batch, None, None]
            si, sj = np.broadcast_arrays(bi * _CHUNK + offs[:, None], bj * _CHUNK + offs)
            # same pairs as i < j - 1; first and last share the loop gap region
            ok = (sj >= si + 2) & (sj < n) & ~((si == 0) & (sj == n - 1))
            i, j = si[ok], sj[ok]
            # strict sign tests: shared endpoints and grazing touches don't count
            d1 = cross(p[i], r[i], p[j])
            d2 = cross(p[i], r[i], e[j])
            d3 = cross(p[j], r[j], p[i])
            d4 = cross(p[j], r[j], e[i])
            if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
                return True
    return False


def boundary_image(
    mu: RealMeasure,
    resolution: int = 2048,
    epsilon: float = 1e-3,
) -> BoundaryCurve:
    """Trace F over a Chebyshev-spaced grid at height ``epsilon``.

    The grid clusters at the support endpoints where F turns fastest.  G
    is ``mu.cauchy``: the exact transform of the atoms and the named
    densities, and for segments given by a bare density callable a
    midpoint resampling at spacing ``epsilon/4``, fine enough to stay
    accurate this close to the axis.
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
    resolution = _count(resolution, "resolution")
    if resolution < 8:
        raise InvalidInputError("resolution must be at least 8")

    theta = np.linspace(math.pi, 0.0, resolution)
    xs = 0.5 * (lo + hi) + 0.5 * width * np.cos(theta)
    z = xs + 1j * epsilon

    top = 1.0 / mu.cauchy(z, _CLOUD_SPACING * epsilon)
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
    n = _count(n, "n")
    sweeps = _count(sweeps, "sweeps")
    if n < 2:
        raise InvalidInputError("need n >= 2 Fekete points")
    if pts.size < n:
        raise InvalidInputError("sample cloud smaller than n")
    if sweeps < 0:
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
        iu = np.triu_indices(n, k=1)
        # a repeated point enters only the seed, when no distinct point is
        # left: no exchange swaps one in, as its gain is -inf or nan
        if np.any(la[sel][iu] == -np.inf):
            raise InvalidInputError("sample cloud has fewer than n distinct points")
        rows = la.sum(axis=1)
        for _ in range(sweeps):
            swapped = False
            for j in range(n):
                s_j = np.delete(la[sel, j], j).sum()
                gain = rows - la[:, j] - s_j
                gain[sel] = -np.inf
                best = int(np.argmax(gain))
                if not _GAIN_FLOOR < gain[best] < np.inf:
                    continue
                sel[j] = best
                la[:, j] = np.log(np.abs(pts - pts[best]))
                rows = la.sum(axis=1)
                swapped = True
            if not swapped:
                break

    return float(np.exp(2.0 * la[sel][iu].sum() / (n * (n - 1))))


@lru_cache(maxsize=32)
def _unit_interval_diameter(n: int, resolution: int, sweeps: int) -> float:
    """Fekete diameter of cos(linspace(pi, 0, 2*resolution)) on [-1, 1]."""
    theta = np.linspace(math.pi, 0.0, 2 * resolution)
    return discrete_transfinite_diameter(np.cos(theta).astype(complex), n, sweeps)


def hayman_report(
    mu: RealMeasure,
    n: int = 64,
    resolution: int = 2048,
    epsilon: float | None = None,
    sweeps: int = 20,
) -> CapacityReport:
    """Same-n comparison of image vs interval transfinite diameters.

    ``consistent_with_univalence`` needs the ratio within ``RATIO_BAND``
    (5%) of 1 and a clean (simple, bounded) boundary trace; a ratio below
    0.9, a crossing, or an unbounded excursion reads as ``inconsistent``;
    anything else is ``inconclusive``.

    ``n``, ``sweeps`` and ``resolution`` must be integral (an integral
    float such as 64.0 is accepted), with ``2 <= n <= 2*resolution``,
    ``2*resolution*n <= 2**24`` (the size of the exchange table) and
    ``sweeps >= 0``; anything else raises InvalidInputError before the
    boundary is traced.
    The interval diameter is that of the same Chebyshev-spaced cloud on
    [-1, 1], computed once per ``(n, resolution, sweeps)`` and scaled by
    (B-A)/2.
    """
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    if not mu.is_probability:
        raise InvalidInputError("mu must be a probability measure")
    lo, hi = mu.support
    if not hi > lo:
        raise InvalidInputError("degenerate support: diagnostic needs A < B")
    n = _count(n, "n")
    sweeps = _count(sweeps, "sweeps")
    resolution = _count(resolution, "resolution")
    if not 2 <= n <= 2 * resolution:
        raise InvalidInputError("n must lie in [2, 2*resolution]")
    if 2 * resolution * n > _MAX_EXCHANGE:
        raise InvalidInputError("2*resolution*n exceeds 2^24, the size of the exchange table")
    if sweeps < 0:
        raise InvalidInputError("sweeps must be non-negative")
    width = hi - lo
    if epsilon is None:
        epsilon = 1e-3 * width

    curve = boundary_image(mu, resolution=resolution, epsilon=epsilon)
    d_image = discrete_transfinite_diameter(curve.points, n, sweeps)
    d_interval = 0.5 * width * _unit_interval_diameter(n, resolution, sweeps)

    ratio = d_image / d_interval
    broken = curve.self_intersects or curve.unbounded
    if not broken and abs(ratio - 1.0) <= RATIO_BAND:
        verdict = "consistent_with_univalence"
    elif broken or ratio < 0.9:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return CapacityReport(
        n_points=n,
        d_image=d_image,
        d_interval=d_interval,
        ratio=ratio,
        verdict=verdict,
        curve=curve,
    )
