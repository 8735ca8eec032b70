"""Univalence certification from moment data via Grunsky eigenvalues.

Pipeline: raw moments a_n -> shifted coefficients alpha_n of G composed with
the exterior map psi(z) = z + 1/z -> reciprocal tail beta_n, so that
F(psi(z)) = sum beta_n z^(1-n) -> Faber polynomials of that tail -> Grunsky
coefficients beta_nk from F_n(g(z)) = z^n + sum_k beta_nk z^-k -> symmetric
matrix c_nk = sqrt(k/n) beta_nk. The map F is univalent on the upper
half-plane exactly when every truncation of [c_nk] keeps its spectrum inside
[-1, 1]; the eigenvalues come from ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError

SUPPORT_HALF_WIDTH = 2.0  # certificate applies to measures supported in [-2, 2]
_SERIES_LEADING_TOL = 1e-12
MAX_CERTIFICATE_ORDER = 32  # series data capped at 2N = 64 coefficients
_SYMMETRY_TOL = 1e-9  # largest |c - c^T| symmetrized before eigvalsh


@dataclass(frozen=True)
class SeriesCoefficients:
    """Truncated expansion c_0*z + c_1 + c_2/z + ... at infinity, c_0 = 1."""

    coeffs: tuple

    def __init__(self, coeffs):
        arr = tuple(float(c) for c in coeffs)
        if len(arr) < 1:
            raise InvalidInputError("series needs at least the leading coefficient")
        if abs(arr[0] - 1.0) > _SERIES_LEADING_TOL:
            raise InvalidInputError("series must have leading coefficient 1")
        object.__setattr__(self, "coeffs", arr)

    @property
    def tail_length(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class GrunskyReport:
    order: int
    c_matrix: np.ndarray
    eigenvalues: np.ndarray
    max_abs_eigenvalue: float
    verdict: str  # "pass" | "boundary" | "fail"
    boundary_tol: float


# ---------------------------------------------------------------------------
# moment pipeline

def moments_to_alpha(moments) -> np.ndarray:
    """Coefficients alpha_n with G(psi(z)) = sum alpha_n z^-(n+1).

    alpha_n = sum_k a_(n-2k) (-1)^k binom(n-k, n-2k), the resummation of
    1/(psi(z) - x) in powers of 1/z.
    """
    a = np.asarray(list(moments), dtype=float)
    if a.size == 0:
        raise InvalidInputError("need at least the zeroth moment")
    out = np.zeros(a.size)
    for n in range(a.size):
        s = 0.0
        for k in range(n // 2 + 1):
            s += a[n - 2 * k] * (-1.0) ** k * math.comb(n - k, n - 2 * k)
        out[n] = s
    return out


def alpha_to_beta(alpha) -> np.ndarray:
    """Invert the power series: beta solves sum_j alpha_j beta_(n-j) = [n == 0]."""
    al = np.asarray(list(alpha), dtype=float)
    if al.size == 0 or abs(al[0] - 1.0) > _SERIES_LEADING_TOL:
        raise InvalidInputError("alpha must start with alpha_0 = 1")
    beta = np.zeros(al.size)
    beta[0] = 1.0
    for n in range(1, al.size):
        beta[n] = -np.dot(al[1 : n + 1], beta[n - 1 :: -1][: n])
    return beta


# ---------------------------------------------------------------------------
# truncated Laurent tails: (top, coeffs) with coeffs[i] the coefficient of
# z^(top - i)

def _mul_tail(a, atop, b, btop, low):
    c = np.convolve(a, b)
    top = atop + btop
    keep = top - low + 1
    if c.size > keep:
        c = c[:keep]
    return c, top


def _coeff_at(c, top, power):
    i = top - power
    if 0 <= i < c.size:
        return c[i]
    return 0.0


def faber_polynomials(g: SeriesCoefficients, n_max: int) -> list[np.ndarray]:
    """Monic Faber polynomials F_0..F_n_max of g, ascending coefficients.

    Recursion unrolled from the generating relation
    zeta g'(zeta) / (g(zeta) - w) = sum_n F_n(w) zeta^-n:
    F_(n+1) = (w - b_0) F_n - sum_(j=1)^(n-1) b_j F_(n-j) - (n+1) b_n
    with g(z) = z + b_0 + b_1/z + ...
    """
    if n_max < 0:
        raise InvalidInputError("polynomial order must be nonnegative")
    b = np.zeros(max(n_max, 1))
    avail = np.asarray(g.coeffs[1:], dtype=float)
    b[: min(avail.size, b.size)] = avail[: b.size]
    polys = [np.array([1.0])]
    if n_max == 0:
        return polys
    polys.append(np.array([-b[0], 1.0]))
    for n in range(1, n_max):
        nxt = np.zeros(n + 2)
        nxt[1:] += polys[n]           # w * F_n
        nxt[: n + 1] -= b[0] * polys[n]
        for j in range(1, n):
            nxt[: n - j + 1] -= b[j] * polys[n - j]
        nxt[0] -= (n + 1) * b[n]
        polys.append(nxt)
    return polys


def grunsky_coefficients(g: SeriesCoefficients, order: int) -> np.ndarray:
    """Matrix [beta_nk], 1 <= n, k <= order, from F_n(g(z)) = z^n + sum beta_nk z^-k.

    Needs tail data of g through 2*order coefficients; products are truncated
    just deep enough that every kept coefficient is exact.
    """
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    if order > MAX_CERTIFICATE_ORDER:
        raise InvalidInputError(f"order capped at {MAX_CERTIFICATE_ORDER}")
    if g.tail_length < 2 * order:
        raise InvalidInputError(
            f"series carries {g.tail_length} tail coefficients, needs {2 * order}"
        )
    gc = np.asarray(g.coeffs, dtype=float)
    polys = faber_polynomials(g, order)
    out = np.zeros((order, order))
    for n in range(1, order + 1):
        p = polys[n]
        h, htop = np.array([p[n]]), 0
        for k in range(n - 1, -1, -1):
            # k multiplications remain after this one; keeping powers down to
            # -(order + k) makes the final tail exact through z^-order.
            h, htop = _mul_tail(h, htop, gc, 1, -(order + k))
            h[htop] += p[k]
        out[n - 1, :] = [_coeff_at(h, htop, -k) for k in range(1, order + 1)]
    return out


# ---------------------------------------------------------------------------
# eigenvalues

def symmetric_eigenvalues(matrix) -> np.ndarray:
    """All eigenvalues, ascending, of a (nearly) symmetric matrix.

    The input may be asymmetric up to 1e-9; it is symmetrized before
    ``numpy.linalg.eigvalsh`` runs.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("need a square matrix")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix entries must be finite")
    if a.size and np.max(np.abs(a - a.T)) >= _SYMMETRY_TOL:
        raise InvalidInputError(f"matrix is asymmetric beyond {_SYMMETRY_TOL:g}")
    return np.linalg.eigvalsh(0.5 * (a + a.T))


# ---------------------------------------------------------------------------
# certificate

def univalence_certificate(mu_moments, order: int, boundary_tol: float = 1e-8) -> GrunskyReport:
    """Grunsky verdict for the reciprocal Cauchy transform of a moment list.

    mu_moments must carry a_0..a_(2*order) with a_0 = 1. Measures whose even
    moments already certify support outside [-2, 2] are rejected: the
    eigenvalue criterion is only valid inside that window. The verdict is
    three-valued; max |eigenvalue| within boundary_tol of 1 reports
    "boundary", never "pass".
    """
    a = np.asarray(list(mu_moments), dtype=float)
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    if not boundary_tol > 0:
        raise InvalidInputError("boundary_tol must be positive")
    if a.size < 2 * order + 1:
        raise InvalidInputError(
            f"need moments a_0..a_{2 * order}, got {a.size} entries"
        )
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("moments must be finite")
    if abs(a[0] - 1.0) > _SERIES_LEADING_TOL:
        raise InvalidInputError("moment list must start with a_0 = 1")
    a = a[: 2 * order + 1]
    for k in range(1, order + 1):
        even = abs(a[2 * k])
        if even ** (1.0 / (2 * k)) > SUPPORT_HALF_WIDTH + 1e-9:
            raise InvalidInputError(
                "even moments exceed the support window [-2, 2]; certificate not applicable"
            )
    # Huge finite moments overflow mid-pipeline; the non-finite check below
    # turns that into a refusal, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        beta = alpha_to_beta(moments_to_alpha(a))
        g = SeriesCoefficients(beta)
        bmat = grunsky_coefficients(g, order)
        ks = np.arange(1, order + 1, dtype=float)
        cmat = np.sqrt(ks[None, :] / ks[:, None]) * bmat
    if not np.all(np.isfinite(cmat)):
        raise NonConvergenceError("Grunsky matrix overflowed")
    # The exact matrix is symmetric, so any asymmetry is rounding in the
    # pipeline above: a numerical breakdown, not a fault in the input.
    asym = float(np.max(np.abs(cmat - cmat.T)))
    if asym >= _SYMMETRY_TOL:
        raise NonConvergenceError(
            f"Grunsky matrix lost symmetry to rounding ({asym:.1e}) at order {order}"
        )
    eigs = symmetric_eigenvalues(cmat)
    mx = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    if mx > 1.0 + boundary_tol:
        verdict = "fail"
    elif mx >= 1.0 - boundary_tol:
        verdict = "boundary"
    else:
        verdict = "pass"
    return GrunskyReport(
        order=order,
        c_matrix=cmat,
        eigenvalues=eigs,
        max_abs_eigenvalue=mx,
        verdict=verdict,
        boundary_tol=float(boundary_tol),
    )
