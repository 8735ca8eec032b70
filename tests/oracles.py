"""Independent reference implementations used only by the tests.

Everything here is written against the defining formulas, not against the
package code: Laurent series as {power: coeff} dicts of 50-digit mpmath
numbers, Faber polynomials by triangular elimination on powers of g, the
slit-map closed forms, plain RK4 integrators for the downward Loewner
equation (along an atom path, or for a standing measure given its G), the
first integral of that equation for an atom driven linearly and for the
standing semicircle law, and 40-digit quadrature of density/(z - x) for
the Cauchy transforms of the named densities.
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


def rk4_constant_flow(g, zs, t, lo, hi, rel=2e-3):
    """B(0, t; z) at every point of ``zs`` for a standing measure on
    [lo, hi] with Cauchy transform ``g`` (vectorized), by RK4 on
    dB/d(-s) = -G(B).

    Each point takes steps of ``rel`` times its distance to [lo, hi], which
    resolves the near-singularity of G at the support from the solver
    floor up: the error per unit time is O(rel^4) |G|.  At rel = 2e-3 and
    1e-3 the band tests' values agree within 3e-14.
    """
    w = np.array(zs, dtype=complex)
    left = np.full(w.size, float(t))
    while np.any(left > 0.0):
        out = np.maximum(np.maximum(lo - w.real, w.real - hi), 0.0)
        h = np.minimum(left, rel * np.hypot(out, w.imag))
        k1 = -g(w)
        k2 = -g(w + 0.5 * h * k1)
        k3 = -g(w + 0.5 * h * k2)
        k4 = -g(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        left = np.where(h == left, 0.0, left - h)
    return w


# ---------------------------------------------------------------------------
# linear driving: W = B - U with U(s) = u + k s solves dW/ds = 1/W - k, so
# Phi(W) = -W/k - log(1 - kW)/k^2 = sum_(n >= 2) k^(n-2) W^n / n (W^2/2 for
# k = 0) has dPhi/ds = 1 exactly (Kager, Nienhuis & Kadanoff, J. Stat.
# Phys. 115, 2004).


def linear_first_integral(w, k):
    """Phi with Phi'(w) = w / (1 - k w); Im(1 - kw) keeps one sign in the
    upper half-plane, so the principal logarithm is continuous there.

    For |k w| < 1/4 the closed form's two terms cancel (at slope 6e-8 the
    solved B was off by 2e-3), so the series is summed there; its 30
    terms leave a relative tail below 1e-18.
    """
    x = k * w
    if abs(x) < 0.25:
        return w * w * sum(x ** (n - 2) / n for n in range(31, 1, -1))
    return -w / k - np.log(1.0 - x) / (k * k)


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


# ---------------------------------------------------------------------------
# standing semicircle law on [-2, 2]: G(w) = (w - s(w))/2 with
# s(w) = sqrt(w - 2) sqrt(w + 2), and H(w) = w^2/4 + w s(w)/4 - log(w + s(w))
# has H' = 1/G, so H(B(a, b; z)) = H(z) - (b - a) along the downward flow.


def _semi_s(w):
    return mpmath.sqrt(w - 2) * mpmath.sqrt(w + 2)


def _semi_h(w):
    s = _semi_s(w)
    return w * w / 4 + w * s / 4 - mpmath.log(w + s)


def semicircle_transition(t, z):
    """B(0, t; z) for the standing semicircle law, to 40 digits.

    Newton on H(B) = H(z) - t at 50 digits, started from a 256-step RK4
    solve of dB/da = G(B); G is bounded by 1, so RK4 is not stiff even at
    the axis. The residual is checked, so a bad start raises.
    """
    g = lambda w: 0.5 * (w - np.sqrt(w - 2.0) * np.sqrt(w + 2.0))
    w, h = complex(z), -float(t) / 256
    for _ in range(256):
        k1 = g(w)
        k2 = g(w + 0.5 * h * k1)
        k3 = g(w + 0.5 * h * k2)
        k4 = g(w + h * k3)
        w = w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    with mpmath.workdps(DIGITS):
        target = _semi_h(mpmath.mpc(z)) - t
        w = mpmath.mpc(w)
        for _ in range(60):
            step = (_semi_h(w) - target) * (w - _semi_s(w)) / 2
            w -= step
            if abs(step) < mpmath.mpf(10) ** (-45):
                break
        if not (abs(_semi_h(w) - target) < mpmath.mpf(10) ** (-40) and w.imag > 0):
            raise ArithmeticError("semicircle first integral did not converge")
        return complex(w)


# ---------------------------------------------------------------------------
# Cauchy transforms by 40-digit quadrature. The interval is split at the
# nearest support point to z and at offsets 1e-2 .. 1e-8 around it, so
# tanh-sinh resolves the near-pole of 1/(z - x) down to Im z = 1e-8.


def _quad_near(f, lo, hi, x0):
    offsets = [0] + [s * mpmath.mpf(10) ** -k for k in (2, 4, 6, 8) for s in (-1, 1)]
    cuts = {lo, hi} | {x0 + d for d in offsets if lo < x0 + d < hi}
    return mpmath.quad(f, sorted(cuts))


def named_cauchy(name, lo, hi, z, coeffs=None, scale=1.0, shift=0.0):
    """integral of density(x)/(z - x) dx on [lo, hi] at the point z (a float
    complex taken exactly), for the semicircle, arcsine, uniform and
    polynomial (ascending ``coeffs`` in x) densities on [lo, hi].

    With ``scale`` and ``shift`` it is the transform of the image measure
    under x -> scale*x + shift, G((z - shift)/scale)/scale with the
    argument formed in 40-digit arithmetic.
    """
    with mpmath.workdps(40):
        scale = mpmath.mpf(scale)
        g = _named_cauchy(name, mpmath.mpf(lo), mpmath.mpf(hi),
                          (mpmath.mpc(z) - mpmath.mpf(shift)) / scale, coeffs)
        return complex(g / scale)


def _named_cauchy(name, lo, hi, z, coeffs):
    mid, rad = (lo + hi) / 2, (hi - lo) / 2
    if name in ("semicircle", "arcsine"):
        # x = mid + rad cos(theta) removes the square-root endpoints:
        # the density times dx is (2/pi) sin^2 or 1/pi in theta
        weight = ((lambda th: 2 / mpmath.pi * mpmath.sin(th) ** 2) if name == "semicircle"
                  else (lambda th: 1 / mpmath.pi))
        th0 = mpmath.acos(min(max((z.real - mid) / rad, -1), 1))
        f = lambda th: weight(th) / (z - mid - rad * mpmath.cos(th))
        return _quad_near(f, mpmath.mpf(0), mpmath.pi, th0)
    if name == "uniform":
        dens = lambda x: 1 / (hi - lo)
    else:
        dens = lambda x: mpmath.polyval([mpmath.mpf(c) for c in coeffs[::-1]], x)
    x0 = min(max(z.real, lo), hi)
    return _quad_near(lambda x: dens(x) / (z - x), lo, hi, x0)
