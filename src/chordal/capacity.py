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
samples, by a discrete Fekete exchange over the trace.  The exchange
keeps its table node-major, shape (n, points): row k holds the
log-distances from the k-th selected point to every sample, so a gain
reads one contiguous row and a swap rewrites one row and updates each
candidate's total in place, O(points).  Its points are distinct, as
repeats are dropped on entry, and a slot's own entry counts as 0 rather
than log 0, so every entry and every total is finite.  It stops after the
first sweep that raises log d_n by less than 1e-3 * RATIO_BAND, far
inside the O(log n / n) gap between d_n and the capacity; ``sweeps`` is
only a cap.  The trace takes G from ``RealMeasure.cauchy``: exact for the
atoms and the named densities, and only segments given by a bare density
callable are resampled finely enough for the trace height.  The crossing
test sorts the segments once by left x and sweeps, at most
``_PAIR_BATCH`` pairs a batch: O(n log n + K) for K segment pairs
overlapping in x, near linear for a trace, quadratic for a raster.
Everything here is deterministic: greedy seeding and exchange sweeps break
ties by lowest sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .measures import RealMeasure, _measure
from .numerics import count, finite_interval, floats, number

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
_SETTLED = 1e-3 * RATIO_BAND  # a sweep raising log d_n by less ends the exchange


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
    # the sign tests multiply coordinates twice over; a power of two, which
    # keeps every sign, brings the largest part into [2^253, 2^254), where
    # no product overflows, as near 1e300, or underflows, as near 1e-300
    reach = max(np.abs(pts.real).max(initial=0.0), np.abs(pts.imag).max(initial=0.0))
    shift = 254 - math.frexp(reach)[1]
    pts = np.ldexp(pts.real, shift) + 1j * np.ldexp(pts.imag, shift)
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
    if not _measure(mu).is_probability:
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
    accurate this close to the axis; an ``epsilon`` whose quarter
    underflows to 0 is refused for them.  A trace point that is not finite
    (G overflowing on an atom at a subnormal ``epsilon``, say) raises
    NonConvergenceError.
    """
    lo, hi = _support(mu)
    width = hi - lo
    epsilon = number(epsilon, "epsilon must lie in (0, 0.1*(B-A))")
    if not (0.0 < epsilon < 0.1 * width):
        raise InvalidInputError("epsilon must lie in (0, 0.1*(B-A))")
    resolution = count(resolution, "resolution")
    if resolution < 8:
        raise InvalidInputError("resolution must be at least 8")

    theta = np.linspace(math.pi, 0.0, resolution)
    xs = 0.5 * (lo + hi) + 0.5 * width * np.cos(theta)
    z = xs + 1j * epsilon

    # only a density given by a bare callable is resampled, at epsilon/4
    bare = any(seg.cauchy is None for seg in mu.segments)
    spacing = _CLOUD_SPACING * epsilon if bare else None
    if spacing == 0.0:
        raise InvalidInputError("epsilon is too small: epsilon/4, the resampling spacing, is 0")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        top = 1.0 / mu.cauchy(z, spacing)
    if not np.isfinite(top).all():
        raise NonConvergenceError("boundary trace is not finite at this epsilon")
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
    keep improvements, each gain the exact rise of the log pair-sum.  The
    exchange stops after the first sweep whose gains raise log d_n by less
    than 1e-3 * RATIO_BAND (a sweep that swaps nothing among them), and
    after ``sweeps`` sweeps at most: discrete diameters approach the
    capacity only as O(log n / n), far above the rises left.  Returns the
    geometric mean of pairwise distances, d_n = (prod |p_i - p_j|)^(2/(n(n-1))).

    Repeated points are dropped first, each first occurrence kept in cloud
    order; the seed starts from the whole cloud's centre, so every tie
    breaks as it would over the full cloud.  A cloud with fewer than n
    distinct points is refused before the table is made.  The table ``la``
    is node-major: row k holds log |p - p_sel[k]| over the cloud, so each
    seed pick writes one row and each gain reads one row.  Slot k's own
    entry, log 0, counts as 0: every entry and every total ``rows`` is
    finite, and a selected point's total is the log distance to its
    partners, so slot j's gain is ``rows - la[j] - rows[sel[j]]``.  A swap
    costs O(points): one row of logs ``new`` with 0 at its own point, and
    each candidate's total updated in place by ``new - la[j]``.  A sweep,
    n gains over the table, costs O(n * points).  A table of more than
    2^24 entries (n times the cloud size) is refused before it is made.
    """
    pts = floats(points, "sample cloud must be finite", dtype=complex).ravel()
    n = count(n, "n")
    sweeps = count(sweeps, "sweeps")
    if n < 2:
        raise InvalidInputError("need n >= 2 Fekete points")
    if pts.size < n:
        raise InvalidInputError("sample cloud smaller than n")
    if n * pts.size > _MAX_EXCHANGE:
        raise InvalidInputError("n * len(points) exceeds 2^24, the size of the exchange table")
    if sweeps < 0:
        raise InvalidInputError("sweeps must be non-negative")
    if not np.isfinite(pts).all():
        raise InvalidInputError("sample cloud must be finite")

    # the seed's centre is the whole cloud's; repeats then go, first
    # occurrences kept in cloud order, so ties break as on the full cloud
    center = pts.mean()
    order = np.argsort(pts, kind="stable")
    srt = pts[order]
    pts = pts[np.sort(order[np.r_[True, srt[1:] != srt[:-1]]])]
    if pts.size < n:
        raise InvalidInputError("sample cloud has fewer than n distinct points")

    with np.errstate(divide="ignore"):
        # greedy seed, translation-equivariant start; each pick fills a row,
        # and a picked point scores log 0 = -inf, so it is never picked again
        sel = np.empty(n, dtype=int)
        la = np.empty((n, pts.size))
        score = np.abs(pts - center)
        for k in range(n):
            sel[k] = int(np.argmax(score))
            la[k] = np.log(np.abs(pts - pts[sel[k]]))
            score = la[0] if k == 0 else score + la[k]
        # a slot's own entry counts as 0, so every entry and total is finite
        # and a selected point's total is its log distance to its partners
        la[np.arange(n), sel] = 0.0
        rows = la.sum(axis=0)
        # log d_n is 2/(n(n-1)) times the log pair-sum that each gain raises
        settled = 0.5 * _SETTLED * n * (n - 1)
        for _ in range(sweeps):
            raised = 0.0
            for j in range(n):
                gain = rows - la[j] - rows[sel[j]]
                gain[sel] = -np.inf
                best = int(np.argmax(gain))
                if not _GAIN_FLOOR < gain[best] < np.inf:
                    continue
                raised += gain[best]
                sel[j] = best
                new = np.log(np.abs(pts - pts[best]))
                new[best] = 0.0
                rows += new - la[j]
                la[j] = new
            if raised < settled:
                break

    # entry (a, b) of la[:, sel].T is log|p_sel[a] - p_sel[b]|; the upper
    # triangle, row by row, is each pair once
    return float(np.exp(2.0 * la[:, sel].T[np.triu_indices(n, 1)].sum() / (n * (n - 1))))


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
    ``sweeps`` caps the exchange, which stops earlier, after the first sweep
    that raises log d_image by less than 1e-3 * RATIO_BAND (1, 3 and 2
    sweeps on the semicircle, arcsine and bernoulli(1) at the defaults).
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
