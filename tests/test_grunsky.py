"""Grunsky pipeline against brute-force series oracles and closed forms."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordal import grunsky
from chordal.errors import InvalidInputError, NonConvergenceError
from chordal.grunsky import (
    GrunskyReport,
    SeriesCoefficients,
    _grunsky_matrix,
    faber_polynomials,
    grunsky_coefficients,
    measure_certificate,
    moments_to_alpha,
    symmetric_eigenvalues,
    univalence_certificate,
)
from chordal.measures import (
    RealMeasure, arcsine, bernoulli, moment, point_mass, semicircle,
)

from oracles import chebyshev_u, faber_oracle, grunsky_oracle

CATALAN = [1, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0, 132, 0, 429, 0, 1430]
BERNOULLI_PM1 = [1, 0, 1, 0, 1]
ARCSINE_2 = [1, 0, 2, 0, 6]
DELTA_0 = [1, 0, 0, 0, 0]
EPS = float(np.finfo(float).eps)


def random_series(rng, tail=24, scale=0.5):
    return SeriesCoefficients([1.0, *rng.uniform(-scale, scale, tail)])


# ---------------------------------------------------------------------------
# moment pipeline


def test_series_coefficients_validation():
    with pytest.raises(InvalidInputError):
        SeriesCoefficients([])
    with pytest.raises(InvalidInputError):
        SeriesCoefficients([1.5, 0.0])
    s = SeriesCoefficients([1.0, 0.5, -0.25])
    assert s.tail_length == 2


def test_moments_to_alpha_is_chebyshev_u_average():
    # 1/(psi(z) - x) = sum U_n(x/2) z^-(n+1), so alpha_n integrates U_n(x/2)
    rng = np.random.default_rng(3)
    for _ in range(20):
        xs = rng.uniform(-2, 2, 5)
        ws = rng.uniform(0, 1, 5)
        ws /= ws.sum()
        moments = [(ws * xs**n).sum() for n in range(12)]
        alpha = moments_to_alpha(moments)
        want = [(ws * chebyshev_u(n, xs / 2.0)).sum() for n in range(12)]
        assert np.abs(alpha - want).max() < 1e-10


def test_moments_to_alpha_matches_the_exact_binomial_sums():
    # the alternating sums in exact rationals; the float result may carry
    # only summation rounding, at most n eps times the absolute terms
    rng = np.random.default_rng(7)
    moments = rng.uniform(-2.0, 2.0, 65)
    moments[0] = 1.0
    alpha = moments_to_alpha(moments)
    for n in range(65):
        terms = [Fraction(moments[n - 2 * k]) * (-1) ** k * math.comb(n - k, n - 2 * k)
                 for k in range(n // 2 + 1)]
        scale = float(sum(abs(t) for t in terms))
        assert abs(alpha[n] - float(sum(terms))) <= (n + 1) * EPS * scale


def test_moments_to_alpha_needs_the_zeroth_moment():
    with pytest.raises(InvalidInputError, match="^need at least the zeroth moment$"):
        moments_to_alpha([])


# ---------------------------------------------------------------------------
# Faber polynomials


def test_faber_chebyshev_closed_form():
    # g = z + 1/z has F_n = 2 T_n(w/2): w, w^2-2, w^3-3w, w^4-4w^2+2
    g = SeriesCoefficients([1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    polys = faber_polynomials(g, 4)
    want = [
        np.array([1.0]),
        np.array([0.0, 1.0]),
        np.array([-2.0, 0.0, 1.0]),
        np.array([0.0, -3.0, 0.0, 1.0]),
        np.array([2.0, 0.0, -4.0, 0.0, 1.0]),
    ]
    for got, ref in zip(polys, want):
        assert np.abs(got - ref).max() < 1e-14


def test_faber_matches_series_oracle():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_series(rng)
        n = int(rng.integers(1, 13))
        got = faber_polynomials(g, n)[n]
        ref = faber_oracle(g.coeffs, n)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() < 1e-12 * scale


def _faber_by_recursion(g, n_max):
    # an independent reference, from zeta g'(zeta) / (g(zeta) - w) =
    # sum_n F_n(w) zeta^-n:
    # F_(n+1) = (w - b_0) F_n - sum_(j=1)^(n-1) b_j F_(n-j) - (n+1) b_n
    b = np.zeros(max(n_max, 1))
    avail = np.asarray(g.coeffs[1:], dtype=float)
    b[: min(avail.size, b.size)] = avail[: b.size]
    polys = [np.array([1.0])]
    if n_max == 0:
        return polys
    polys.append(np.array([-b[0], 1.0]))
    for n in range(1, n_max):
        nxt = np.zeros(n + 2)
        nxt[1:] += polys[n]
        nxt[: n + 1] -= b[0] * polys[n]
        for j in range(1, n):
            nxt[: n - j + 1] -= b[j] * polys[n - j]
        nxt[0] -= (n + 1) * b[n]
        polys.append(nxt)
    return polys


def test_faber_matches_the_recursion():
    rng = np.random.default_rng(19)
    for _ in range(300):
        g = random_series(rng, tail=int(rng.integers(0, 30)),
                          scale=float(rng.choice([0.1, 0.5, 2.0, 10.0])))
        n = int(rng.integers(0, 33))
        got, ref = faber_polynomials(g, n), _faber_by_recursion(g, n)
        assert len(got) == len(ref) == n + 1
        for p, q in zip(got, ref):
            assert p.shape == q.shape
            assert np.abs(p - q).max() <= 1e-14 * np.abs(q).max()


def test_faber_order_zero_is_one():
    polys = faber_polynomials(random_series(np.random.default_rng(3)), 0)
    assert len(polys) == 1 and np.array_equal(polys[0], [1.0])


def test_faber_pads_a_short_series_with_zeros():
    # g = z + 1/2 exactly: F_n(w) = (w - 1/2)^n, past the single tail term
    polys = faber_polynomials(SeriesCoefficients([1.0, 0.5]), 6)
    for n, p in enumerate(polys):
        assert np.array_equal(p, np.polynomial.polynomial.polypow([-0.5, 1.0], n))
    # g = z: F_n(w) = w^n
    for n, p in enumerate(faber_polynomials(SeriesCoefficients([1.0]), 4)):
        assert np.array_equal(p, np.eye(n + 1)[n])


def test_faber_rejects_negative_order():
    with pytest.raises(InvalidInputError):
        faber_polynomials(SeriesCoefficients([1.0, 0.0]), -1)


def test_faber_reads_an_integral_float_order_and_refuses_a_fraction():
    # a float n_max reached the series slice and ended in a bare TypeError
    g = SeriesCoefficients([1.0, 0.5])
    got, want = faber_polynomials(g, 2.0), faber_polynomials(g, 2)
    assert len(got) == len(want) == 3
    assert all(np.array_equal(p, q) for p, q in zip(got, want))
    with pytest.raises(InvalidInputError, match="^polynomial order must be an integer$"):
        faber_polynomials(g, 2.5)


# ---------------------------------------------------------------------------
# Grunsky coefficients


def test_grunsky_matches_series_oracle():
    rng = np.random.default_rng(23)
    for _ in range(10):
        g = random_series(rng, tail=24)
        got = grunsky_coefficients(g, 12)
        ref = grunsky_oracle(g.coeffs, 12)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() < 1e-12 * scale


def test_grunsky_matches_mpmath_oracle_at_order_32():
    # decaying tails keep the entries moderate; the oracle is exact at 50 digits
    rng = np.random.default_rng(41)
    for decay in (0.8, 1.0):
        coeffs = [1.0, *(rng.uniform(-0.5, 0.5, 64) * decay ** np.arange(64))]
        got = grunsky_coefficients(SeriesCoefficients(coeffs), 32)
        ref = grunsky_oracle(coeffs, 32)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_log_stage_closed_forms_at_order_32():
    # alpha = e_0: A = 1, g(z) = z, no Grunsky coefficients at all
    alpha = np.zeros(65)
    alpha[0] = 1.0
    assert np.abs(_grunsky_matrix(alpha, 32)).max() == 0.0
    # alpha = (1, 0, 1, 0, ...): A = 1/(1 - u^2), g(z) = z - 1/z, c = diag((-1)^n)
    alpha[::2] = 1.0
    cmat = _grunsky_matrix(alpha, 32)
    assert np.abs(cmat - np.diag((-1.0) ** np.arange(1, 33))).max() <= 1e-14
    assert np.abs(np.abs(np.linalg.eigvalsh(cmat)) - 1.0).max() <= 1e-14


def test_grunsky_symmetry():
    # n beta_nk = k beta_kn is a formal identity; check it in c-matrix form
    rng = np.random.default_rng(29)
    ks = np.arange(1.0, 13.0)
    for _ in range(10):
        bmat = grunsky_coefficients(random_series(rng), 12)
        cmat = np.sqrt(ks[None, :] / ks[:, None]) * bmat
        assert np.abs(cmat - cmat.T).max() < 1e-10


def test_grunsky_needs_enough_tail():
    g = SeriesCoefficients([1.0, *np.zeros(5)])
    with pytest.raises(InvalidInputError):
        grunsky_coefficients(g, 3)
    with pytest.raises(InvalidInputError):
        grunsky_coefficients(g, 0)
    with pytest.raises(InvalidInputError):
        grunsky_coefficients(SeriesCoefficients([1.0, *np.zeros(80)]), 33)


# ---------------------------------------------------------------------------
# eigenvalues


def test_symmetric_eigenvalues_of_a_rotated_diagonal():
    # Q diag(d) Q^T has eigenvalues d for any orthogonal Q
    rng = np.random.default_rng(31)
    for n in (1, 2, 3, 5, 8, 12, 32):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        d = np.sort(rng.uniform(-2.0, 2.0, n))
        got = symmetric_eigenvalues(q @ np.diag(d) @ q.T)
        assert np.abs(got - d).max() < 1e-13


def test_jacobi_edge_cases():
    assert symmetric_eigenvalues(np.empty((0, 0))).size == 0
    assert symmetric_eigenvalues([[3.0]]) == [3.0]
    with pytest.raises(InvalidInputError):
        symmetric_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(InvalidInputError):
        symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        symmetric_eigenvalues([[np.nan]])


def test_jacobi_accepts_roundoff_asymmetry():
    a = np.array([[1.0, 0.5], [0.5 + 1e-12, 2.0]])
    got = symmetric_eigenvalues(a)
    ref = np.linalg.eigvalsh(0.5 * (a + a.T))
    assert np.abs(got - ref).max() < 1e-12


# ---------------------------------------------------------------------------
# certificate verdicts


def test_certificate_semicircle_passes():
    report = univalence_certificate(CATALAN, 8)
    assert report.verdict == "pass"
    assert np.abs(report.c_matrix).max() <= 1e-10
    assert report.max_abs_eigenvalue <= 1e-10


def test_certificate_bernoulli_fails():
    report = univalence_certificate(BERNOULLI_PM1, 2)
    assert report.verdict == "fail"
    assert np.abs(np.sort(report.eigenvalues) - [0.0, 2.0]).max() < 1e-8


def test_certificate_bernoulli_fails_at_order_16():
    # the two-atom measure at +-1 is never univalent; at this order the
    # old Jacobi sweeps overflowed instead of reaching the verdict
    report = univalence_certificate([1.0 - n % 2 for n in range(33)], 16)
    assert report.verdict == "fail"


def test_certificate_arcsine_boundary():
    report = univalence_certificate(ARCSINE_2, 2)
    assert report.verdict == "boundary"
    assert abs(report.max_abs_eigenvalue - 1.0) < 1e-8


def test_certificate_point_mass_identity():
    # F = z gives g = psi itself; Faber tails collapse to beta_nk = delta_nk
    report = univalence_certificate(DELTA_0, 2)
    assert np.abs(report.c_matrix - np.eye(2)).max() <= 1e-10
    assert report.verdict == "boundary"


def test_certificate_point_mass_identity_at_order_32():
    report = univalence_certificate([1.0] + [0.0] * 64, 32)
    assert np.abs(report.c_matrix - np.eye(32)).max() <= 1e-14
    assert report.verdict == "boundary"


def test_certificate_semicircle_order_24_refuses():
    # the Grunsky matrix is exactly 0, but the quadrature moments lose it to
    # the binomial cancellation; a verdict would be a guess
    moments = [moment(semicircle(), n) for n in range(49)]
    with pytest.raises(NonConvergenceError, match="moment rounding"):
        univalence_certificate(moments, 24)


def test_certificate_refusal_pins_no_intermediate_matrices():
    # a kept refusal holds its traceback, and with it the locals of each
    # grunsky frame: a and ks (776 bytes at order 32), not sym and eigs
    # (8,448 more) nor the pipeline's alpha, scale, cmat and dev (26,648)
    moments = [moment(semicircle(), n) for n in range(65)]
    with pytest.raises(NonConvergenceError, match="moment rounding") as info:
        univalence_certificate(moments, 32)
    pinned = 0
    tb = info.value.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == grunsky.__file__:
            pinned += sum(v.nbytes for v in tb.tb_frame.f_locals.values()
                          if isinstance(v, np.ndarray))
        tb = tb.tb_next
    assert pinned < 1024


def test_certificate_bernoulli_half_fails_at_order_32():
    # top eigenvalue of the leading 2x2 block is 1.0625, so fail at any order
    report = univalence_certificate([moment(bernoulli(0.5), n) for n in range(65)], 32)
    assert report.verdict == "fail"


def test_certificate_dilated_semicircle_passes():
    # variance s^2 < 1 keeps truncations strictly inside the disk, but only
    # barely: the image complement is a disk with two real whiskers, and the
    # slit parts push eigenvalues toward 1 as the order grows
    for s in (0.5, 0.8):
        moments = [s**n * c for n, c in enumerate(CATALAN[:9])]
        report = univalence_certificate(moments, 4)
        assert report.verdict == "pass"
        assert report.max_abs_eigenvalue < 1.0 - 1e-8


def test_certificate_input_validation():
    with pytest.raises(InvalidInputError):
        univalence_certificate([1, 0, 1], 2)  # too short
    with pytest.raises(InvalidInputError):
        univalence_certificate([2, 0, 1, 0, 1], 2)  # a0 != 1
    with pytest.raises(InvalidInputError):
        univalence_certificate(BERNOULLI_PM1, 0)
    with pytest.raises(InvalidInputError):
        univalence_certificate(BERNOULLI_PM1, 2, boundary_tol=0.0)
    # unit atom at 2.5: m_2 = 6.25 certifies support outside [-2, 2]
    with pytest.raises(InvalidInputError):
        univalence_certificate([1, 2.5, 6.25, 15.625, 39.0625], 2)
    with pytest.raises(InvalidInputError):
        univalence_certificate([1, math.inf, 1, 0, 2], 2)


@pytest.mark.parametrize("tol", [1.0, math.inf, math.nan])
def test_boundary_tol_must_lie_in_the_unit_interval(tol):
    # at 1 or above no max |eigenvalue| >= 0 can read "pass"
    with pytest.raises(InvalidInputError, match=r"boundary_tol must lie in \(0, 1\)"):
        univalence_certificate(CATALAN[:5], 2, boundary_tol=tol)
    with pytest.raises(InvalidInputError, match=r"boundary_tol must lie in \(0, 1\)"):
        measure_certificate(semicircle(), 2, boundary_tol=tol)


def _report_or_error(fn, *args):
    try:
        return fn(*args)
    except (InvalidInputError, NonConvergenceError) as exc:
        return type(exc), str(exc)


MEASURES = {
    "semicircle": semicircle,
    "arcsine": arcsine,
    "delta0": lambda: point_mass(0.0),
    "bernoulli1": lambda: bernoulli(1.0),
    "bernoulli0.5": lambda: bernoulli(0.5),
}


@pytest.mark.parametrize("name", MEASURES)
def test_measure_certificate_is_the_certificate_of_the_moments(name):
    mu = MEASURES[name]()
    for order in range(1, 33):
        got = _report_or_error(measure_certificate, mu, order)
        want = _report_or_error(
            univalence_certificate, [moment(mu, k) for k in range(2 * order + 1)], order)
        if isinstance(want, tuple):
            assert got == want, (name, order)
            continue
        assert isinstance(got, GrunskyReport), (name, order, got)
        assert (got.order, got.verdict, got.max_abs_eigenvalue, got.boundary_tol) == (
            want.order, want.verdict, want.max_abs_eigenvalue, want.boundary_tol)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.c_matrix, want.c_matrix)


@pytest.mark.parametrize("order", [0, 33, 10**8])
def test_measure_certificate_checks_the_order_before_integrating(monkeypatch, order):
    calls = []
    monkeypatch.setattr(grunsky, "moment", lambda mu, k: calls.append(k) or 0.0)
    with pytest.raises(InvalidInputError, match="order must lie in 1..32"):
        measure_certificate(semicircle(), order)
    assert calls == []


@pytest.mark.parametrize("certify, source, order", [
    (univalence_certificate, [1, 0, 1, 0, 2], 2.0),
    (measure_certificate, semicircle(), 1.5),
    (measure_certificate, semicircle(), 2.0),
], ids=["moments-2.0", "measure-1.5", "measure-2.0"])
def test_certificate_reads_order_2_0_as_2_and_refuses_1_5(certify, source, order):
    # an integral float order is that integer, as hayman's counts are; a
    # float order once passed the range test and ended in a TypeError
    if not order.is_integer():
        with pytest.raises(InvalidInputError, match="^order must be an integer$"):
            certify(source, order)
        return
    got, want = certify(source, order), certify(source, 2)
    assert type(got.order) is int
    assert (got.order, got.verdict, got.max_abs_eigenvalue, got.boundary_tol) == (
        want.order, want.verdict, want.max_abs_eigenvalue, want.boundary_tol)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.c_matrix, want.c_matrix)


def test_measure_certificate_needs_a_measure():
    with pytest.raises(InvalidInputError, match="mu must be a RealMeasure"):
        measure_certificate(CATALAN, 4)


def test_certificate_huge_moments_refuse_without_warnings():
    # finite but huge moments overflow inside the pipeline; RuntimeWarnings
    # are errors under pytest, so a leaked one would fail here first
    with pytest.raises(NonConvergenceError, match="overflowed"):
        univalence_certificate([1, 1e200, 1, 0, 2], 2)


def test_certificate_pm1_pair_fails_at_orders_24_and_32():
    # the exact Grunsky matrix of the +-1 atom pair is symmetric; the
    # pipeline's rounding leaves a skew part (1.5e-8 at order 24, 1.2e-4 at
    # 32) that cannot move eigenvalues of 1e9 and 2e12 back to the disk
    for order in (24, 32):
        report = univalence_certificate([1, 0] * order + [1], order)
        assert report.verdict == "fail"
        assert report.max_abs_eigenvalue > 1e9


def test_certificate_arcsine_order_16_refuses():
    # max |eigenvalue| 1.00053 +- 2.1e-3 from the quadrature moments: the
    # right verdict is boundary, and the bound cannot rule out either side
    moments = [moment(arcsine(), n) for n in range(33)]
    with pytest.raises(NonConvergenceError, match="moment rounding could change the verdict"):
        univalence_certificate(moments, 16)


def central_binomial(n_max):
    return [math.comb(n, n // 2) * (1 - n % 2) for n in range(n_max + 1)]


def catalan(n_max):
    return [math.comb(n, n // 2) // (n // 2 + 1) * (1 - n % 2) for n in range(n_max + 1)]


def test_integer_moments_below_2_53_carry_no_rounding():
    # U is integral, so integer moments give integer partial sums: exact
    # while every row's scale stays below 2^53
    alpha, scale = grunsky._alpha_and_scale(np.array(central_binomial(32), dtype=float))
    assert np.array_equal(alpha, [1.0, 0.0] * 16 + [1.0]) and not scale.any()
    _, scale = grunsky._alpha_and_scale(np.array([1.0, 0.0, 0.5]))
    assert scale[2] > 0
    # binom(64, 32) = 1.8e18 > 2^53: that row keeps its scale
    _, scale = grunsky._alpha_and_scale(np.array(central_binomial(64), dtype=float))
    assert scale[64] > 2.0 ** 53 and scale[32] == 0


def test_exact_integer_moments_reach_their_verdict():
    # the arcsine's exact moments: g(z) = z - 1/z, |eigenvalues| = 1; the
    # rounding model of quadrature moments refused this at order 16
    assert univalence_certificate(central_binomial(32), 16).verdict == "boundary"
    for order in (8, 16):
        assert univalence_certificate(catalan(2 * order), order).verdict == "pass"
    for order in (24, 32):  # scales past 2^53: rounding is charged, and it refuses
        with pytest.raises(NonConvergenceError, match="moment rounding could change the verdict"):
            univalence_certificate(central_binomial(2 * order), order)


@pytest.mark.parametrize("moments, delta, verdict", [
    ([1.0] + [0.0] * 16, 1e-6, None),
    ([moment(bernoulli(0.5), n) for n in range(17)], 1e-6, "fail"),
    ([1.0] + [0.0] * 16, 1e-12, "boundary"),
], ids=["d0-refuses", "b05-fails", "d0-boundary"])
def test_certificate_skew_part_enters_the_weyl_bound(monkeypatch, moments, delta, verdict):
    # every matrix the certificate builds gains a skew part of spectral norm
    # delta; it decides only through the one verdict rule
    build = grunsky._grunsky_matrix

    def skewed(alpha, order):
        c = build(alpha, order)
        c[0, 1] += delta
        c[1, 0] -= delta
        return c

    monkeypatch.setattr(grunsky, "_grunsky_matrix", skewed)
    if verdict is None:
        with pytest.raises(NonConvergenceError, match="moment rounding could change the verdict"):
            univalence_certificate(moments, 8)
        return
    report = univalence_certificate(moments, 8)
    assert report.verdict == verdict
    assert np.array_equal(report.c_matrix, report.c_matrix.T)


ATOMS = st.lists(st.tuples(st.floats(-1.9, 1.9), st.floats(0.01, 1.0)), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(atoms=ATOMS)
def test_max_eigenvalue_never_falls_as_the_order_grows(atoms):
    # the order-n matrix is the leading block of the order-(n + 1) one, so
    # by Cauchy interlacing max|eig| cannot fall as the order grows, up to
    # the two orders' Weyl shifts; refused orders are skipped
    total = math.fsum(w for _, w in atoms)
    atoms = [(x, w / total) for x, w in atoms]
    mu = RealMeasure(atoms)
    exact = [1.0] + [math.fsum(w * x**k for x, w in atoms) for k in range(1, 33)]
    for certificate, moments in (
        (lambda order: univalence_certificate(exact, order), exact),
        (lambda order: measure_certificate(mu, order), [moment(mu, k) for k in range(33)]),
    ):
        below = None
        for order in range(2, 17, 2):
            try:
                mx = certificate(order).max_abs_eigenvalue
            except NonConvergenceError:
                continue
            shift = grunsky._spectrum(np.asarray(moments[: 2 * order + 1]), order)[3]
            if below is not None:
                assert mx >= below[0] - below[1] - shift, (order, below, mx, shift)
            below = (mx, shift)


def test_asymmetric_user_matrix_is_an_input_error():
    with pytest.raises(InvalidInputError, match="asymmetric"):
        symmetric_eigenvalues([[1.0, 2.0], [2.0 + 1e-6, 1.0]])


def test_report_is_frozen():
    report = univalence_certificate(DELTA_0, 2)
    assert isinstance(report, GrunskyReport)
    with pytest.raises(AttributeError):
        report.verdict = "pass"
