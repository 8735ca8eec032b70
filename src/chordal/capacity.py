"""Transfinite-diameter diagnostics for reciprocal Cauchy transforms.

For a compactly supported probability measure with support in [A, B], the
map F = 1/G extends across the two real rays and sends the complement of
[A, B] onto the complement of a compact set E'.  When F is univalent the
transfinite diameter of E' matches that of [A, B]; a materially smaller
image diameter, a self-crossing boundary trace, or an unbounded excursion
all witness failure.

Both diameters are taken at the same point count n, so the slow
(logarithmic) convergence of d_n cancels in the ratio.  The interval side
is exact at n, a closed form scaled by (B-A)/2; only the image side
samples, by a discrete Fekete exchange over the trace.  The trace takes G
from ``RealMeasure.cauchy``: exact for the atoms and the named densities,
and only segments given by a bare density callable are resampled finely
enough for the trace height.  The crossing test sorts the segments once by
left x and sweeps, at most ``_PAIR_BATCH`` pairs a batch: O(n log n + K)
for K segment pairs overlapping in x, near linear for a trace, quadratic
for a raster.
Everything here is deterministic: greedy seeding and exchange sweeps break
ties by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .measures import RealMeasure
from .numerics import count, finite_interval

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
_PAIR_BATCH = 1 << 18      # most segment pairs one crossing-test batch holds
_MAX_EXCHANGE = 1 << 24    # most entries (2*resolution x n) of one exchange table
RATIO_BAND = 0.05          # |ratio - 1| within this reads consistent_with_univalence


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

    One stable sort by left x lists each pair overlapping in x exactly once,
    the later-starting segment in the run of the other; pairs whose y
    extents also meet go to the exact predicate, ``_PAIR_BATCH`` at a time.
    O(n log n + K) for K pairs overlapping in x: near linear for a boundary
    trace, which a vertical line meets a few times, quadratic for a raster.
    """
    p = pts[:-1]
    r = pts[1:] - p
    e = p + r  # the far ends as the predicate sees them, rounding included
    n = p.size
    if n < 3:
        return False

    # fmin/fmax skip NaN ends; an all-NaN segment sorts last and reaches -inf
    x0 = np.fmin(p.real, e.real)
    s = np.argsort(x0, kind="stable")
    x1 = np.fmax(np.fmax(p.real, e.real), -np.inf)[s]
    reach = np.searchsorted(x0[s], x1, "right") - np.arange(1, n + 1)
    y0, y1 = np.fmin(p.imag, e.imag)[s], np.fmax(p.imag, e.imag)[s]

    def cross(o, d, q):
        return d.real * (q.imag - o.imag) - d.imag * (q.real - o.real)

    live = np.flatnonzero(reach >= 1)
    lag = 1
    while live.size:
        lags = np.arange(lag, lag + max(1, _PAIR_BATCH // live.size))
        for c in range(0, live.size, _PAIR_BATCH):
            k = live[c:c + _PAIR_BATCH]
            rows, cols = np.nonzero(lags <= reach[k, None])
            i = k[rows]
            j = i + lags[cols]
            gap = np.abs(s[i] - s[j])
            # y extents meet, indices 2+ apart, and not (0, n - 1): the loop gap
            ok = (y0[i] <= y1[j]) & (y0[j] <= y1[i]) & (gap >= 2) & (gap != n - 1)
            a, b = s[i[ok]], s[j[ok]]
            # strict sign tests: shared endpoints and grazing touches don't count
            d1 = cross(p[a], r[a], p[b])
            d2 = cross(p[a], r[a], e[b])
            d3 = cross(p[b], r[b], p[a])
            d4 = cross(p[b], r[b], e[a])
            if np.any((d1 * d2 < 0) & (d3 * d4 < 0)):
                return True
        lag = lags[-1] + 1
        live = live[reach[live] >= lag]
    return False


def _support(mu: RealMeasure) -> tuple[float, float]:
    """The hull [A, B] of a probability measure's support; InvalidInputError
    unless it is a nondegenerate interval of finite width."""
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    if not mu.is_probability:
        raise InvalidInputError("mu must be a probability measure")
    return finite_interval(*mu.support, "support")


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
    lo, hi = _support(mu)
    width = hi - lo
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 0.1 * width):
        raise InvalidInputError("epsilon must lie in (0, 0.1*(B-A))")
    resolution = count(resolution, "resolution")
    if resolution < 8:
        raise InvalidInputError("resolution must be at least 8")

    theta = np.linspace(math.pi, 0.0, resolution)
    xs = 0.5 * (lo + hi) + 0.5 * width * np.cos(theta)
    z = xs + 1j * epsilon

    top = 1.0 / mu.cauchy(z, _CLOUD_SPACING * epsilon)
    points = np.concatenate([top, np.conj(top)[::-1]])

    # np.median of the 2*resolution values, without the numpy.ma import
    # that its first call in a process pays (9 ms)
    k = resolution
    mid = np.partition([points.real, points.imag], (k - 1, k), axis=1)
    mid = 0.5 * (mid[:, k - 1] + mid[:, k])
    center = mid[0] + 1j * mid[1]
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
    n = count(n, "n")
    sweeps = count(sweeps, "sweeps")
    if n < 2:
        raise InvalidInputError("need n >= 2 Fekete points")
    if pts.size < n:
        raise InvalidInputError("sample cloud smaller than n")
    if sweeps < 0:
        raise InvalidInputError("sweeps must be non-negative")

    # -inf marks a candidate colliding with a selected point; the masking
    # below keeps any inf-inf artifacts out of the argmax.
    with np.errstate(divide="ignore", invalid="ignore"):
        # greedy seed, translation-equivariant start; each pick fills a column
        sel = np.empty(n, dtype=int)
        la = np.empty((pts.size, n))
        score = np.abs(pts - pts.mean())
        for k in range(n):
            sel[k] = int(np.argmax(score))
            la[:, k] = np.log(np.abs(pts - pts[sel[k]]))
            score = la[:, 0] if k == 0 else score + la[:, k]
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


def _unit_interval_diameter(n: int) -> float:
    """The exact d_n of [-1, 1] in O(n).  Its Fekete points are +-1 and the
    zeros of P_m^(1,1), m = n - 2, of leading coefficient k_m = 2^-m C(2m+2, m),
    discriminant D_m (Szego, *Orthogonal Polynomials*, (6.71.5)) and values
    +-(m + 1) at +-1, so the log product of their pairwise distances is
    log 2 + 2 log((m + 1)/k_m) + (log D_m - (2m - 2) log k_m)/2."""
    m = n - 2
    log_k = math.lgamma(2 * m + 3) - math.lgamma(m + 1) - math.lgamma(m + 3) - m * math.log(2.0)
    nu = np.arange(1.0, m + 1.0)
    log_disc = float(np.sum((nu - 2 * m + 2) * np.log(nu) + 2.0 * (nu - 1.0) * np.log(nu + 1.0)
                            + (m - nu) * np.log(m + nu + 2.0))) - m * (m - 1) * math.log(2.0)
    log_pairs = math.log(2.0) + 2.0 * math.log(m + 1) + 0.5 * log_disc - (m + 1) * log_k
    return math.exp(2.0 * log_pairs / (n * (n - 1)))


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
    boundary is traced, as does a support whose width B - A overflows.
    The interval side is exact at n, scaled from [-1, 1] by (B-A)/2; only
    the image side samples, so ``resolution`` and ``sweeps`` act on it alone.
    """
    lo, hi = _support(mu)
    n = count(n, "n")
    sweeps = count(sweeps, "sweeps")
    resolution = count(resolution, "resolution")
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
    d_interval = 0.5 * width * _unit_interval_diameter(n)

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
