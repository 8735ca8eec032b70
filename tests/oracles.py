"""Independent reference implementations used only by the tests.

Everything here is written against the defining formulas, not against the
package code: Laurent series as {power: coeff} dicts, Faber polynomials by
triangular elimination on powers of g, the slit-map closed forms, a plain
RK4 integrator for the downward Loewner equation, and the first integral of
that equation for an atom driven linearly.
"""

import numpy as np

LAURENT_FLOOR = -64  # drop powers below this; deep enough for order <= 16


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
    out = {1: float(coeffs[0])}
    for i, c in enumerate(coeffs[1:]):
        if c != 0.0:
            out[-i] = float(c)
    return out


def laurent_mul(a, b):
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            p = pa + pb
            if p >= LAURENT_FLOOR:
                out[p] = out.get(p, 0.0) + ca * cb
    return out


def laurent_powers(g, n):
    """[g^0, g^1, ..., g^n]."""
    out = [{0: 1.0}]
    for _ in range(n):
        out.append(laurent_mul(out[-1], g))
    return out


def faber_oracle(series_coeffs, n):
    """Monic F_n with F_n(g(z)) = z^n + O(1/z), by triangular elimination.

    g^j has leading term z^j, so requiring the z^m coefficient of
    sum_j c_j g^j to vanish for m = n-1, ..., 0 determines c_m from the
    higher c_j one at a time. Returns ascending coefficients, length n+1.
    """
    g = laurent_from_series(series_coeffs)
    pows = laurent_powers(g, n)
    c = np.zeros(n + 1)
    c[n] = 1.0
    for m in range(n - 1, -1, -1):
        acc = sum(c[j] * pows[j].get(m, 0.0) for j in range(m + 1, n + 1))
        c[m] = -acc  # pows[m][m] == 1
    return c


def grunsky_oracle(series_coeffs, order):
    """beta_nk from the z^-k coefficients of F_n(g(z)), n, k = 1..order."""
    g = laurent_from_series(series_coeffs)
    pows = laurent_powers(g, order)
    out = np.zeros((order, order))
    for n in range(1, order + 1):
        c = faber_oracle(series_coeffs, n)
        comp = {}
        for j in range(n + 1):
            if c[j] != 0.0:
                for p, v in pows[j].items():
                    comp[p] = comp.get(p, 0.0) + c[j] * v
        out[n - 1, :] = [comp.get(-k, 0.0) for k in range(1, order + 1)]
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
