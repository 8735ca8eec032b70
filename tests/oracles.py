"""Independent reference implementations used only by the tests.

Everything here is written against the defining formulas, not against the
package code: Laurent series as {power: coeff} dicts of 50-digit mpmath
numbers, Faber polynomials by triangular elimination on powers of g, the
slit-map closed forms, a plain RK4 integrator for the downward Loewner
equation, and the first integral of that equation for an atom driven
linearly.
"""

import mpmath
import numpy as np

# Drop powers below this. Since g = z + O(1), a product g^(j-1) * g that
# lacks g^(j-1) below the floor is exact only down to one power higher, so
# g^n is exact at powers >= LAURENT_FLOOR + n - 1; the z^-k coefficients of
# F_n(g), n, k <= order, are exact when order <= (1 - LAURENT_FLOOR) / 2 = 32.
LAURENT_FLOOR = -64
DIGITS = 50


def upper_sqrt(w):
    """Branch of sqrt with values in the closed upper half-plane."""
    r = np.sqrt(np.asarray(w, dtype=complex))
    return np.where(r.imag >= 0, r, -r)


def slit_map(t, z):
    """B(0, t; z) for the constant delta_0 driver: sqrt(z^2 - 2t)."""
    return upper_sqrt(np.asarray(z, dtype=complex) ** 2 - 2.0 * t)


def shifted_slit_map(t, z, c):
    """Same for delta_c: c + sqrt((z - c)^2 - 2t)."""
    return c + slit_map(t, np.asarray(z, dtype=complex) - c)


def chebyshev_u(n, x):
    """U_n(x) by the three-term recurrence."""
    u_prev, u = np.ones_like(np.asarray(x, dtype=float)), 2.0 * np.asarray(x, dtype=float)
    if n == 0:
        return u_prev
    for _ in range(n - 1):
        u_prev, u = u, 2.0 * x * u - u_prev
    return u


# ---------------------------------------------------------------------------
# Laurent dicts


def laurent_from_series(coeffs):
    """{1: 1, 0: b0, -1: b1, ...} for g(z) = z + b0 + b1/z + ..."""
    out = {1: mpmath.mpf(coeffs[0])}
    for i, c in enumerate(coeffs[1:]):
        if c != 0.0:
            out[-i] = mpmath.mpf(c)
    return out


def laurent_mul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            p = pa + pb
            if p >= LAURENT_FLOOR:
                out[p] = out.get(p, 0) + ca * cb
    return out


def laurent_powers(g, n):
    """[g^0, g^1, ..., g^n]."""
    out = [{0: mpmath.mpf(1)}]
    for _ in range(n):
        out.append(laurent_mul(out[-1], g))
    return out


def _faber_from_powers(pows, n):
    # g^j has leading term z^j, so requiring the z^m coefficient of
    # sum_j c_j g^j to vanish for m = n-1, ..., 0 determines c_m from the
    # higher c_j one at a time (pows[m][m] == 1).
    c = [mpmath.mpf(0)] * n + [mpmath.mpf(1)]
    for m in range(n - 1, -1, -1):
        c[m] = -mpmath.fsum(c[j] * pows[j].get(m, 0) for j in range(m + 1, n + 1))
    return c


def faber_oracle(series_coeffs, n):
    """Monic F_n with F_n(g(z)) = z^n + O(1/z), by triangular elimination
    at 50 digits. Returns ascending coefficients, length n+1, as floats."""
    with mpmath.workdps(DIGITS):
        c = _faber_from_powers(laurent_powers(laurent_from_series(series_coeffs), n), n)
        return np.array([float(v) for v in c])


def grunsky_oracle(series_coeffs, order):
    """beta_nk from the z^-k coefficients of F_n(g(z)), n, k = 1..order,
    computed at 50 digits and rounded to floats."""
    out = np.zeros((order, order))
    with mpmath.workdps(DIGITS):
        pows = laurent_powers(laurent_from_series(series_coeffs), order)
        for n in range(1, order + 1):
            c = _faber_from_powers(pows, n)
            for k in range(1, order + 1):
                out[n - 1, k - 1] = float(mpmath.fsum(c[j] * pows[j].get(-k, 0) for j in range(n + 1)))
    return out


# ---------------------------------------------------------------------------
# downward Loewner ODE: dW/da = 1/(W - U(a)), integrated from a = b to a


def rk4_transition(u_of_a, a, b, z, steps=4000):
    """B(a, b; z) by fixed-step RK4 on the downward equation."""
    w = complex(z)
    h = (a - b) / steps  # negative: integrate from b down to a
    s = float(b)
    for _ in range(steps):
        k1 = 1.0 / (w - u_of_a(s))
        k2 = 1.0 / (w + 0.5 * h * k1 - u_of_a(s + 0.5 * h))
        k3 = 1.0 / (w + 0.5 * h * k2 - u_of_a(s + 0.5 * h))
        k4 = 1.0 / (w + h * k3 - u_of_a(s + h))
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s += h
    return w


# ---------------------------------------------------------------------------
# linear driving: W = B - U with U(s) = u + k s solves dW/ds = 1/W - k, so
# Phi(W) = -W/k - log(1 - kW)/k^2 (W^2/2 for k = 0) has dPhi/ds = 1 exactly
# (Kager, Nienhuis & Kadanoff, J. Stat. Phys. 115, 2004).


def linear_first_integral(w, k):
    """Phi with Phi'(w) = w / (1 - k w); Im(1 - kw) keeps one sign in the
    upper half-plane, so the principal logarithm is continuous there."""
    if k == 0.0:
        return 0.5 * w * w
    return -w / k - np.log(1.0 - k * w) / (k * k)


def moving_atom_transition(samples, a, b, z):
    """B(a, b; z) for a unit atom on the piecewise-linear path ``samples``.

    Walks the pieces from b down to a; on each, Phi(W_lo) = Phi(W_hi) -
    (hi - lo) is solved by Newton, started from a coarse RK4 step.
    """
    ts = np.array([p[0] for p in samples], dtype=float)
    us = np.array([p[1] for p in samples], dtype=float)
    u = lambda s: float(np.interp(s, ts, us))
    cuts = [b, *ts[(ts > a) & (ts < b)][::-1], a]
    w = complex(z)
    for hi, lo in zip(cuts, cuts[1:]):
        k = (u(hi) - u(lo)) / (hi - lo)
        target = linear_first_integral(w - u(hi), k) - (hi - lo)
        W = rk4_transition(u, lo, hi, w, steps=32) - u(lo)
        for _ in range(40):
            step = (linear_first_integral(W, k) - target) * (1.0 - k * W) / W
            W -= step
            if abs(step) <= 1e-15 * abs(W):
                break
        w = W + u(lo)
    return w
