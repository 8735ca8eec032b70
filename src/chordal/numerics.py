"""Shared numerical plumbing: quadrature nodes, spectral integration on
Chebyshev grids, adaptive Simpson, and limit extrapolation ladders.

Adaptive Simpson refines all open intervals of one level together, so its
integrand is called on arrays: once per level, in slices of at most 4096
points, and at most 2**22 points per integral in all.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as _cheb
from numpy.polynomial.legendre import leggauss

from .errors import InvalidInputError, NonConvergenceError


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
    basis_tails = np.empty((m, m))
    for i in range(m):
        c = np.zeros(i + 1)
        c[i] = 1.0
        ci = _cheb.chebint(c)
        basis_tails[:, i] = _cheb.chebval(1.0, ci) - _cheb.chebval(x, ci)
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


def y_limit(values, ys):
    """Extrapolated y -> infinity limit from a doubling ladder.

    Two Richardson elimination levels in 1/y (removing the 1/y and 1/y^2
    terms of the large-y expansion). Returns (limit, cauchy_diff) where
    cauchy_diff measures the tail of the extrapolated column.
    """
    v = np.asarray(values)
    ys = np.asarray(ys, dtype=float)
    if v.size < 4:
        raise InvalidInputError("ladder too short for order-2 extrapolation")
    if not np.allclose(ys[1:] / ys[:-1], 2.0, rtol=1e-12):
        raise InvalidInputError("ladder must double")
    t1 = 2.0 * v[1:] - v[:-1]
    t2 = (4.0 * t1[1:] - t1[:-1]) / 3.0
    return t2[-1], abs(t2[-1] - t2[-2])
