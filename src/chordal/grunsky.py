"""Univalence certification from moment data via Grunsky eigenvalues.

Pipeline: raw moments a_n -> coefficients alpha_n of G composed with the
exterior map psi(z) = z + 1/z, G(psi(z)) = sum alpha_n z^-(n+1) -> Grunsky
coefficients beta_nk of g = F o psi, read off the logarithm of the Hankel
series H(u, v) = sum alpha_(i+j) u^i v^j (u = 1/z; Pommerenke, Univalent
Functions, ch. 3) -> symmetric matrix c_nk = sqrt(k/n) beta_nk. The map F is
univalent on the upper half-plane exactly when every truncation of [c_nk]
keeps its spectrum inside [-1, 1]. The certificate takes the eigenvalues of
the symmetrised matrix once (``numpy.linalg.eigvalsh``) and refuses a verdict
that Weyl's bound could flip: the spectral norm of the rounding of alpha's
binomial sums plus the skew part the pipeline's rounding left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NonConvergenceError
from .measures import RealMeasure, moment

SUPPORT_HALF_WIDTH = 2.0  # certificate applies to measures supported in [-2, 2]
_SERIES_LEADING_TOL = 1e-12
MAX_CERTIFICATE_ORDER = 32  # series data capped at 2N = 64 coefficients
_SYMMETRY_TOL = 1e-9  # largest |a - a^T| symmetric_eigenvalues accepts
_EPS = float(np.finfo(float).eps)


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

def _alpha_and_scale(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Row n of U holds the monomial coefficients of U_n(x/2), built by
    # U_n = x U_(n-1) - U_(n-2); |U| @ |a| is the scale on which the
    # alternating binomial sums of U @ a round.
    U = np.zeros((a.size, a.size))
    U[0, 0] = 1.0
    for n in range(1, a.size):
        U[n, 1:] = U[n - 1, :-1]
        if n >= 2:
            U[n] -= U[n - 2]
    return U @ a, np.abs(U) @ np.abs(a)


def moments_to_alpha(moments) -> np.ndarray:
    """Coefficients alpha_n with G(psi(z)) = sum alpha_n z^-(n+1).

    alpha_n = sum_k a_(n-2k) (-1)^k binom(n-k, n-2k), the resummation of
    1/(psi(z) - x) in powers of 1/z.
    """
    a = np.asarray(list(moments), dtype=float)
    if a.size == 0:
        raise InvalidInputError("need at least the zeroth moment")
    return _alpha_and_scale(a)[0]


def _log_rows(P: np.ndarray) -> np.ndarray:
    """D[i, j] = i [u^i v^j] log P for a square series P(u, v), P[0, 0] != 0.

    D = u d/du log P solves P D = u dP/du, whose row i reads sum_(m <= i)
    P_m D_(i-m) = i P_i in truncated v-series: each row of D follows from
    the rows below it and the reciprocal series of P_0.
    """
    size = P.shape[0]
    lag = np.subtract.outer(np.arange(size), np.arange(size))
    toeplitz = np.where(lag >= 0, P[:, np.maximum(lag, 0)], 0.0)  # [m] @ q = P_m q
    recip = np.zeros(size)
    recip[0] = 1.0 / P[0, 0]
    for j in range(1, size):
        recip[j] = -recip[0] * (P[0, 1 : j + 1] @ recip[j - 1 :: -1])
    divide = np.where(lag >= 0, recip[np.maximum(lag, 0)], 0.0)
    D = np.zeros(P.shape)
    for i in range(1, size):
        rhs = i * P[i] - np.einsum("mjk,mk->j", toeplitz[1 : i + 1], D[i - 1 :: -1])
        D[i] = divide @ rhs
    return D


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


def _check_order(order: int) -> None:
    if not 1 <= order <= MAX_CERTIFICATE_ORDER:
        raise InvalidInputError(f"order must lie in 1..{MAX_CERTIFICATE_ORDER}")


def grunsky_coefficients(g: SeriesCoefficients, order: int) -> np.ndarray:
    """Matrix [beta_nk], 1 <= n, k <= order, from F_n(g(z)) = z^n + sum beta_nk z^-k.

    With u = 1/z, v = 1/w and g(z) = z + b_0 + b_1/z + ...,
    (g(z) - g(w))/(z - w) = 1 - sum_(j,l >= 1) b_(j+l-1) u^j v^l and
    beta_nk = -n [u^n v^k] log of it, so tail data through b_(2*order-1)
    is needed.
    """
    _check_order(order)
    if g.tail_length < 2 * order:
        raise InvalidInputError(f"series carries {g.tail_length} tail coefficients, needs {2 * order}")
    i = np.arange(order + 1)
    P = -np.asarray(g.coeffs, dtype=float)[i[:, None] + i[None, :]]
    P[0, :] = P[:, 0] = 0.0
    P[0, 0] = 1.0
    return -_log_rows(P)[1:, 1:]


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
    "boundary", never "pass", so boundary_tol must lie in (0, 1).
    """
    a = np.asarray(list(mu_moments), dtype=float)
    _check_order(order)
    if not 0 < boundary_tol < 1:
        raise InvalidInputError("boundary_tol must lie in (0, 1)")
    if a.size < 2 * order + 1:
        raise InvalidInputError(f"need moments a_0..a_{2 * order}, got {a.size} entries")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("moments must be finite")
    if abs(a[0] - 1.0) > _SERIES_LEADING_TOL:
        raise InvalidInputError("moment list must start with a_0 = 1")
    a = a[: 2 * order + 1]
    ks = np.arange(1, order + 1)
    if np.any(np.abs(a[2 * ks]) ** (1.0 / (2 * ks)) > SUPPORT_HALF_WIDTH + 1e-9):
        raise InvalidInputError(
            "even moments exceed the support window [-2, 2]; certificate not applicable"
        )
    # Huge finite moments overflow mid-pipeline; the non-finite checks below
    # turn that into a refusal, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, scale = _alpha_and_scale(a)
        cmat = _grunsky_matrix(alpha, order)
        sym = 0.5 * (cmat + cmat.T)
        # the binomial sums round alpha by up to ~4 eps times their scale
        dev = _grunsky_matrix(alpha + 4.0 * _EPS * scale, order) - sym
    if not np.all(np.isfinite(sym)):
        raise NonConvergenceError("Grunsky matrix overflowed")
    # The exact matrix is symmetric; dev holds the rounding of alpha and the
    # skew part the pipeline's own rounding left in cmat, and by Weyl's
    # inequality no eigenvalue of sym moves by more than its spectral norm.
    eigs = np.linalg.eigvalsh(sym)
    mx = float(np.max(np.abs(eigs)))
    shift = float(np.linalg.norm(dev, 2)) if np.all(np.isfinite(dev)) else np.inf
    verdict = _verdict(mx + shift, boundary_tol)
    if verdict != _verdict(mx - shift, boundary_tol):
        raise NonConvergenceError(
            f"moment rounding could change the verdict (max |eigenvalue| {mx:.6g} +- {shift:.1e})"
        )
    return GrunskyReport(order, sym, eigs, mx, verdict, float(boundary_tol))


def measure_certificate(mu: RealMeasure, order: int, boundary_tol: float = 1e-8) -> GrunskyReport:
    """``univalence_certificate`` of the moments a_0..a_(2*order) of mu.

    The order is checked before any moment is integrated.
    """
    _check_order(order)
    if not isinstance(mu, RealMeasure):
        raise InvalidInputError("mu must be a RealMeasure")
    moments = [moment(mu, k) for k in range(2 * order + 1)]
    return univalence_certificate(moments, order, boundary_tol)


def _grunsky_matrix(alpha: np.ndarray, order: int) -> np.ndarray:
    # c_nk = sqrt(k/n) beta_nk with beta_nk = -n [u^n v^k] log H for the
    # Hankel series H(u, v) = sum alpha_(i+j) u^i v^j: with u = 1/z, v = 1/w
    # and A(u) = sum alpha_n u^n, (g(z) - g(w))/(z - w) = H / (A(u) A(v)),
    # and the A factors add no mixed terms to the logarithm.
    i = np.arange(order + 1)
    ks = i[1:].astype(float)
    return -np.sqrt(ks[None, :] / ks[:, None]) * _log_rows(alpha[i[:, None] + i[None, :]])[1:, 1:]


def _verdict(mx: float, boundary_tol: float) -> str:
    if mx > 1.0 + boundary_tol:
        return "fail"
    return "boundary" if mx >= 1.0 - boundary_tol else "pass"
