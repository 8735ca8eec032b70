"""Shared numerical plumbing: the argument readers, quadrature nodes,
spectral integration on Chebyshev grids, adaptive Simpson, and the one home
of ladder limits.

Callers' arguments are read by three readers: ``count`` for counts and
orders (any integral number, 64.0 and numpy integers included), ``floats``
for lists of floats and of pairs, and ``finite_interval`` for the ends of
an interval (finite, lo < hi, and a finite width hi - lo). Each raises
InvalidInputError naming the argument. JSON objects are checked first by
``json_keys``, which refuses a key the object kind does not name, and their
number fields by ``json_numbers``, which refuses strings and booleans that
``float()`` and numpy would read as numbers.

Every extrapolated limit in the package is Neville's rule and settles by
one test: it must be finite and its last rung may move it by at most
``SETTLE_TOL * max(1, |limit|)``. The y -> infinity limits all read the
one read-only ladder ``Y_LADDER``, and also refuse when the rounding of
their rungs alone could exceed that tolerance.

Adaptive Simpson refines all open intervals of one level together, so its
integrand is called on arrays: once per level, in slices of at most 4096
points, and at most 2**22 points per integral in all.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInputError, NonConvergenceError


def count(value, name: str) -> int:
    """``value`` as an int; InvalidInputError unless it is integral."""
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise InvalidInputError(f"{name} must be an integer")


def floats(values, message: str, pairs: bool = False) -> np.ndarray:
    """``values`` as a float array; InvalidInputError(message) for strings
    that are not numbers, ragged lists and numbers past the float range.

    With ``pairs`` the values must be a list of pairs, returned with shape
    (n, 2); an empty list reads as no pairs.
    """
    try:
        out = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(message) from exc
    if pairs and out.shape[1:] != (2,):
        if out.shape != (0,):
            raise InvalidInputError(message)
        out = out.reshape(0, 2)
    return out


def json_keys(obj: dict, keys: tuple[str, ...], kind: str) -> None:
    """InvalidInputError naming the first key of ``obj`` not in ``keys``."""
    for key in obj:
        if key not in keys:
            raise InvalidInputError(f"unknown {kind} key {key!r} (expected {', '.join(keys)})")


def json_numbers(value, what: str):
    """``value`` unchanged; InvalidInputError naming ``what`` when it is, or
    its lists hold at any depth, a string, a boolean or an object."""
    todo = [value]
    while todo:
        v = todo.pop()
        if isinstance(v, (list, tuple)):
            todo.extend(v)
        elif isinstance(v, (str, bool, dict)):
            raise InvalidInputError(f"{what} must hold numbers, not strings, booleans or objects")
    return value


def finite_interval(lo, hi, what: str) -> tuple[float, float]:
    """(lo, hi) as floats; InvalidInputError naming ``what`` unless both
    ends are finite, lo < hi and the width hi - lo is finite."""
    lo, hi = float(lo), float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError(f"{what} endpoints must be finite")
    if not hi > lo:
        raise InvalidInputError(f"{what} needs lo < hi")
    if not math.isfinite(hi - lo):
        raise InvalidInputError(f"{what} width hi - lo overflows")
    return lo, hi


@lru_cache(maxsize=None)
def gauss_legendre(order: int):
    """Nodes and weights on [-1, 1]. Cached; callers must not mutate."""
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def cheb_grid(m: int):
    """Chebyshev-Lobatto machinery on [-1, 1] with m points.

    Returns (x, tails) where x is ascending and includes both endpoints and
    tails maps point values v to the exact integrals of their degree m-1
    interpolant p, (tails @ v)[k] = integral of p over [x_k, 1].
    """
    if m < 3:
        raise InvalidInputError("need at least 3 collocation points")
    x = -np.cos(np.pi * np.arange(m) / (m - 1))
    x[0], x[-1] = -1.0, 1.0
    vinv = np.linalg.inv(_cheb.chebvander(x, m - 1))  # values -> coefficients
    ints = _cheb.chebint(np.eye(m))  # column i: an integral of T_i
    basis_tails = (_cheb.chebval(1.0, ints)[:, None] - _cheb.chebval(x, ints)).T
    tails = basis_tails @ vinv
    x.setflags(write=False)
    tails.setflags(write=False)
    return x, tails


_SLICE = 4096            # most integrand points handed to one call
_MAX_EVALS = 1 << 22     # integrand points one integral may spend


def _sample(f, x: np.ndarray) -> np.ndarray:
    out = np.empty(x.size)
    for lo in range(0, x.size, _SLICE):
        out[lo:lo + _SLICE] = f(x[lo:lo + _SLICE])
    return out


def _simpson(lo, hi, flo, fmid, fhi):
    return (hi - lo) * (flo + 4.0 * fmid + fhi) / 6.0


def adaptive_simpson(f, a: float, b: float, tol: float, max_depth: int = 48) -> float:
    """Adaptive Simpson for a real integrand, refined level by level.

    ``f`` maps a 1-D float array of points to their values; it is called
    once per level on the quarter points of every interval still open, in
    slices of at most ``_SLICE`` points.  An interval at depth ``d`` is
    accepted, with its Richardson correction, when its two halves change
    the Simpson value by at most ``15 * tol / 2**d``; the rest are split.
    The decisions are those of the classic recursive routine, so only the
    summation order differs from it.  Raises NonConvergenceError on a
    non-finite value, past ``max_depth`` levels, or when the next level
    would take the integral past ``_MAX_EVALS`` integrand points.
    """
    if not b > a:
        raise InvalidInputError("empty integration interval")
    lo, hi = np.array([a], dtype=float), np.array([b], dtype=float)
    flo, fmid, fhi = np.split(_sample(f, np.array([a, 0.5 * (a + b), b])), 3)
    evals = 3
    accepted = []
    depth = 0
    while True:
        evals += 2 * lo.size
        if evals > _MAX_EVALS:
            raise NonConvergenceError("adaptive Simpson exceeded its evaluation cap")
        mid = 0.5 * (lo + hi)
        fl, fr = np.split(_sample(f, np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)])), 2)
        with np.errstate(over="ignore", invalid="ignore"):
            left = _simpson(lo, mid, flo, fl, fmid)
            right = _simpson(mid, hi, fmid, fr, fhi)
            err = left + right - _simpson(lo, hi, flo, fmid, fhi)
        if not np.all(np.isfinite(err)):
            raise NonConvergenceError("adaptive Simpson met a non-finite value")
        done = np.abs(err) <= 15.0 * tol
        accepted.append(left[done] + right[done] + err[done] / 15.0)
        split = np.flatnonzero(~done)
        if split.size == 0:
            return math.fsum(np.concatenate(accepted))
        if depth >= max_depth:
            raise NonConvergenceError("adaptive Simpson depth exhausted")
        # the split intervals' halves: left halves first, then right halves
        lo, hi = (np.concatenate([lo[split], mid[split]]),
                  np.concatenate([mid[split], hi[split]]))
        flo, fmid, fhi = (np.concatenate([flo[split], fmid[split]]),
                          np.concatenate([fl[split], fr[split]]),
                          np.concatenate([fmid[split], fhi[split]]))
        tol *= 0.5
        depth += 1


# y = 8 * 2^k, k = 0..10: the ladder of every y -> infinity limit
Y_LADDER = 8.0 * 2.0 ** np.arange(11)
Y_LADDER.setflags(write=False)
SETTLE_TOL = 1e-3
_EPS = float(np.finfo(float).eps)


def settle_tol(limit) -> float:
    """The largest last-rung move ``settled`` accepts for this limit."""
    return SETTLE_TOL * max(1.0, abs(limit))


def settled(limit, move, ladder: str):
    """limit, when it is finite and its last rung moved it by at most
    ``settle_tol(limit)``; otherwise NonConvergenceError names the ladder."""
    if not np.isfinite(limit):
        raise NonConvergenceError(f"{ladder} extrapolated to a non-finite value")
    if not move <= settle_tol(limit):
        raise NonConvergenceError(f"{ladder} did not settle")
    return limit


def neville_zero(hs, vals):
    """Neville extrapolation of vals(h) to h = 0.

    hs must be strictly decreasing and positive. Returns (limit, last_diff)
    where last_diff is the change contributed by the final ladder rung.
    """
    hs = np.asarray(hs, dtype=float)
    t = [v for v in vals]
    n = len(t)
    if n != hs.size or n < 2:
        raise InvalidInputError("ladder and values must align, length >= 2")
    if np.any(hs <= 0) or np.any(np.diff(hs) >= 0):
        raise InvalidInputError("ladder must be positive and strictly decreasing")
    diag = [t[0]]
    for j in range(1, n):
        for i in range(n - j):
            t[i] = (hs[i] * t[i + 1] - hs[i + j] * t[i]) / (hs[i] - hs[i + j])
        diag.append(t[0])
    return diag[-1], abs(diag[-1] - diag[-2])


def y_limit(values, ladder: str):
    """The settled y -> infinity limit of values taken on ``Y_LADDER``.

    Neville's rule in h = 1/y on the last three rungs removes the 1/y and
    1/y^2 terms of the large-y expansion; the same rule one rung earlier
    gives the last-rung move that ``settled`` judges. Every h is a power of
    two, so this is exactly two Richardson halvings of the ladder. Neville's
    weights on the last three rungs, (1/3, -2, 8/3), sum to 5 in size, so
    the limit carries up to 5 eps max|rung| of their rounding: when that
    exceeds ``settle_tol(limit)`` the ladder did not settle either.
    """
    h = 1.0 / Y_LADDER
    with np.errstate(over="ignore", invalid="ignore"):  # settled refuses
        limit = neville_zero(h[-3:], values[-3:])[0]
        move = abs(limit - neville_zero(h[-4:-1], values[-4:-1])[0])
    out = settled(limit, move, ladder)
    if not 5.0 * _EPS * np.max(np.abs(values[-3:])) <= settle_tol(limit):
        raise NonConvergenceError(f"{ladder} did not settle")
    return out
