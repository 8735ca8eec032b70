"""Reference values for the benchmark, computed without the chordal package.

Every transition-map oracle solves the downward Loewner equation

    dB/ds = G_s(B(s)),   B(b) = z,   s from b down to a,

through a first integral of the flow, so the answer comes from a closed form
or from Newton's method on an explicit equation, never from the package:

* point mass at c:       B = c + sqrt((z - c)^2 - 2 tau);
* semicircle on [-2, 2]: H(B) = H(z) - tau with
  H(w) = w^2/4 + w s(w)/4 - log(w + s(w)), s(w) = sqrt(w - 2) sqrt(w + 2),
  because H' = 1/G for G(w) = (w - s(w))/2;
* moving atom on a linear piece U(s) = u0 + k (s - s0): W = B - U solves
  dW/ds = 1/W - k, whose first integral is
  Phi(W) = -W/k - log(1 - k W)/k^2  (W^2/2 when k = 0).

Newton starts from a coarse RK4 solve of the same equation and is polished
until the residual of the first integral sits at roundoff; `OracleError` is
raised otherwise, so a bad oracle can never pass as a program failure.
"""

from __future__ import annotations

import math

import numpy as np

_RK4_STEPS_PER_UNIT = 256
_NEWTON_ITERS = 8
_RESIDUAL_TOL = 1e-13


class OracleError(RuntimeError):
    """An oracle could not reach its own accuracy target."""


def upper_sqrt(w):
    """Branch of sqrt with values in the closed upper half-plane."""
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(r.imag >= 0, r, -r)


def _s(w):
    # sqrt(w^2 - 4) with the branch ~ w at infinity, analytic off [-2, 2]
    return np.sqrt(w - 2.0) * np.sqrt(w + 2.0)


def semicircle_cauchy(z):
    """G(z) = (z - sqrt(z^2 - 4))/2 of the semicircle law on [-2, 2]."""
    z = np.asarray(z, dtype=complex)
    return 0.5 * (z - _s(z))


def slit(z, tau, c=0.0):
    """B after time tau under a standing unit atom at c."""
    z = np.asarray(z, dtype=complex)
    return c + upper_sqrt((z - c) ** 2 - 2.0 * tau)


def _rk4_down(velocity, w, s_hi, s_lo):
    """Coarse RK4 from s_hi down to s_lo for dw/ds = velocity(w, s)."""
    n = max(4, math.ceil((s_hi - s_lo) * _RK4_STEPS_PER_UNIT))
    h = (s_lo - s_hi) / n
    for i in range(n):
        s = s_hi + i * h
        k1 = velocity(w, s)
        k2 = velocity(w + 0.5 * h * k1, s + 0.5 * h)
        k3 = velocity(w + 0.5 * h * k2, s + 0.5 * h)
        k4 = velocity(w + h * k3, s + h)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return w


def _newton(phi, dphi, target, w):
    """Solve phi(w) = target from a nearby start; residual-checked."""
    scale = np.maximum(1.0, np.abs(target))
    for _ in range(_NEWTON_ITERS):
        w = w - (phi(w) - target) / dphi(w)
    resid = np.abs(phi(w) - target) / scale
    if not np.all(resid <= _RESIDUAL_TOL) or not np.all(w.imag > 0):
        raise OracleError(f"Newton residual {np.max(resid):.2e} above {_RESIDUAL_TOL:g}")
    return w


def _semi_h(w):
    s = _s(w)
    return 0.25 * w * w + 0.25 * w * s - np.log(w + s)


def semicircle_flow(z, tau):
    """B after time tau under the standing semicircle law on [-2, 2]."""
    z = np.asarray(z, dtype=complex)
    if tau == 0:
        return z.copy()
    start = _rk4_down(lambda w, s: semicircle_cauchy(w), z, tau, 0.0)
    return _newton(_semi_h, lambda w: 1.0 / semicircle_cauchy(w), _semi_h(z) - tau, start)


def piecewise_const_flow(z, t, pieces):
    """B(0, t; z) for a piecewise-constant driver.

    ``pieces`` lists ``(start_time, flow)`` in increasing time, where
    ``flow(z, tau)`` advances one standing measure by tau.
    """
    w = np.asarray(z, dtype=complex)
    for k in range(len(pieces) - 1, -1, -1):
        lo, flow = pieces[k]
        hi = pieces[k + 1][0] if k + 1 < len(pieces) else math.inf
        tau = min(t, hi) - lo
        if tau > 0:
            w = flow(w, tau)
    return w


def _atom_phi(k):
    if k == 0.0:
        return (lambda w: 0.5 * w * w), (lambda w: w)
    return (lambda w: -w / k - np.log(1.0 - k * w) / (k * k)), (lambda w: w / (1.0 - k * w))


def moving_atom_flow(z, t, samples):
    """B(0, t; z) for a unit atom moving along the piecewise-linear samples."""
    arr = np.asarray(samples, dtype=float)
    times, pos = arr[:, 0], arr[:, 1]
    knots = sorted({0.0, float(t), *(float(x) for x in times if 0.0 < x < t)}, reverse=True)
    b = np.asarray(z, dtype=complex)
    for s_hi, s_lo in zip(knots[:-1], knots[1:]):
        u_hi, u_lo = np.interp([s_hi, s_lo], times, pos)
        k = (u_hi - u_lo) / (s_hi - s_lo)
        phi, dphi = _atom_phi(k)
        w_hi = b - u_hi
        guess = _rk4_down(lambda w, s: 1.0 / w - k, w_hi, s_hi, s_lo)
        b = _newton(phi, dphi, phi(w_hi) - (s_hi - s_lo), guess) + u_lo
    return b
