"""Power-series tests.

Coefficients are validated three independent ways: the exact rational ratio
recursion, the closed product form, and the requirement that the truncated
series annihilate the constraint power-by-power.  Numeric values below were
frozen from the exact fractions (a3/a1 = -1/14, a5/a3 = -3/76 at lam=2,
mu_s=1).
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from tdo import series
from tdo.errors import ConvergenceWarning, ParameterError


def test_leading_coefficients_frozen_values():
    s = series.build_series(1.0, 2.0, 1.0, 5)
    assert s.a[0] == pytest.approx(1.1547005383792517, rel=1e-15)
    assert s.a[1] == pytest.approx(-0.08247860988423227, rel=1e-14)
    assert s.a[2] == pytest.approx(0.0032557346006933784, rel=1e-13)
    assert s.ratios[1] == Fraction(-1, 14)
    assert s.ratios[2] == Fraction(-1, 14) * Fraction(-3, 76)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        series.build_series(1.0, 1.0, 1.0, 5)  # lam^2 not > 1
    with pytest.raises(ParameterError):
        series.build_series(1.0, 2.0, 1.0, 0)
    with pytest.raises(ParameterError):
        series.build_series(-1.0, 2.0, 1.0, 5)
    assert series.build_series(1.0, 2.0, 1.0, series.MAX_ORDER).order == 200
    with pytest.raises(ParameterError):
        series.build_series(1.0, 2.0, 1.0, series.MAX_ORDER + 1)


def test_order_one_is_leading_term_only():
    s = series.build_series(1.0, 2.0, 1.0, 1)
    assert len(s.a) == 1
    assert s.a_tilde == (1.0,)
    assert float(s.alpha(0.3)) == pytest.approx(s.a1 * 0.3, rel=1e-15)


def test_mu_zero_series_is_linear():
    s = series.build_series(1.0, 2.0, 0.0, 6)
    assert all(ak == 0.0 for ak in s.a[1:])
    assert float(s.alpha(1.7)) == pytest.approx(s.a1 * 1.7, rel=1e-15)
    assert series.alpha_numeric_check(s, 0.1, 4.0) < 1e-12


def test_ratio_recursion_equals_product_form_exactly():
    s = series.build_series(1.0, 2.0, 1.0, 10)
    pf = series.product_form_ratios(2.0, 1.0, 10)
    assert list(s.ratios) == pf


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(1.05, 6.0), mu_s=st.floats(0.0, 3.0))
def test_ratio_recursion_identity_exact(lam, mu_s):
    # a_{2k+1}/a_{2k-1} must equal -mu^2 (2k-1) / (2k [(4k^2-1)+lam^2])
    # exactly in the stored fractions, for arbitrary float parameters
    s = series.build_series(1.0, lam, mu_s, 7)
    lam_sq = Fraction(lam) ** 2
    mu_sq = Fraction(mu_s) ** 2
    for k in range(1, 7):
        expect = -mu_sq * (2 * k - 1) / (2 * k * ((4 * k * k - 1) + lam_sq))
        if s.ratios[k - 1] != 0:
            assert s.ratios[k] / s.ratios[k - 1] == expect


def test_even_coefficients_are_absent():
    s = series.build_series(1.0, 2.0, 1.0, 6)
    full = s.full_coefficients()
    assert all(full[i] == 0.0 for i in range(0, len(full), 2))


def test_convolution_triple_against_polynomial_multiplication():
    rng = [0.0, 1.3, 0.0, -0.2, 0.0, 0.05]  # odd series, degree 5
    tri = series.convolution_triple(rng)
    # oracle: numpy polynomial products of the explicit derivative series
    a = np.array(rng)
    da = np.array([(i + 1) * rng[i + 1] for i in range(len(rng) - 1)])
    dda = np.array([(i + 2) * (i + 1) * rng[i + 2] for i in range(len(rng) - 2)])
    b_ref = np.convolve(da, da)
    c_ref = np.convolve(a, a)
    d_ref = np.convolve(a, dda)
    np.testing.assert_allclose(tri.b, b_ref[:len(tri.b)], atol=1e-14)
    np.testing.assert_allclose(tri.c, c_ref[:len(tri.c)], atol=1e-14)
    np.testing.assert_allclose(tri.d, d_ref[:len(tri.d)], atol=1e-14)


def test_symbolic_residual_vanishes():
    s = series.build_series(1.0, 2.0, 1.0, 8)
    res = series.symbolic_residual(s)
    assert max(abs(r) for r in res) == 0.0


def test_symbolic_residual_detects_forced_a0():
    s = series.build_series(1.0, 2.0, 1.0, 4)
    res = series.symbolic_residual(s, a0=0.3)
    assert res[0] == pytest.approx(4.0 * 0.09, rel=1e-13)  # lam^2 a0^2
    assert res[0] != 0.0


def test_symbolic_residual_mu_zero_all_orders():
    for order in (1, 3, 6):
        s = series.build_series(1.0, 2.0, 0.0, order)
        assert max(abs(r) for r in series.symbolic_residual(s)) == 0.0


def test_reciprocal_identity_exact():
    s = series.build_series(1.0, 2.0, 1.0, 9)
    rec = series.reciprocal_identity_coefficients(s)
    assert rec[0] == 0
    assert all(r == 0 for r in rec[1:])


def test_determinant_form_matches_division():
    s = series.build_series(1.0, 2.0, 1.0, 8)
    for k in range(7):
        assert series.determinant_tilde(s, k) == s.tilde_ratios[k]


def test_numeric_residual_decreases_with_order():
    vals = [series.alpha_numeric_check(series.build_series(1.0, 2.0, 1.0, n),
                                       0.1, 0.8) for n in range(3, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-6


def test_numeric_check_warns_beyond_guard():
    s = series.build_series(1.0, 2.0, 1.0, 5)
    with pytest.warns(ConvergenceWarning):
        series.alpha_numeric_check(s, 0.1, 5.0 / s.mu_s)
    with pytest.raises(ParameterError):
        series.alpha_numeric_check(s, 0.8, 0.1)


def test_series_matches_shooting_solution():
    # independent oracle: integrate the constraint as an ODE from t ~ 0
    s = series.build_series(1.0, 2.0, 1.0, 10)

    def rhs(t, y):
        al, ald = y
        return [ald, (ald ** 2 + 4.0 - al ** 2 * (1.0 + 4.0 / t ** 2))
                / (2.0 * al)]

    eps = 1e-3
    sol = solve_ivp(rhs, (eps, 0.5), [s.a1 * eps, s.a1], rtol=1e-12,
                    atol=1e-14, dense_output=True)
    grid = np.linspace(0.1, 0.5, 33)
    assert np.max(np.abs(sol.sol(grid)[0] - s.alpha(grid))) < 1e-6


def test_theta_series_log_case():
    s = series.build_series(1.0, 2.0, 0.0, 5)
    th = series.theta_series(s, 0.5, 0.8)
    assert th == pytest.approx(2.0 / s.a1 * math.log(0.8 / 0.5), rel=1e-14)


def test_theta_series_matches_quadrature():
    s = series.build_series(1.0, 2.0, 1.0, 10)
    th = series.theta_series(s, 0.5, 0.8)
    ref, _ = quad(lambda t: 2.0 / float(s.alpha(t)), 0.5, 0.8,
                  epsabs=1e-13, epsrel=1e-13)
    assert abs(th - ref) < 1e-8


def test_theta_series_empty_interval_and_guard():
    s = series.build_series(1.0, 2.0, 1.0, 5)
    assert series.theta_series(s, 0.7, 0.7) == 0.0
    with pytest.warns(ConvergenceWarning):
        series.theta_series(s, 0.5, 3.0)
    with pytest.raises(ParameterError):
        series.theta_series(s, -1.0, 0.5)


def test_appendix_a3_candidates_disagree_in_general():
    # one printed equation of the paper's appendix has nu^2 where the
    # recursion has lam^2; appendix_a3_candidates keeps that misprint on
    # record, and the recursion's value is the one the package uses
    cands = series.appendix_a3_candidates(1.0, 2.0, 1.0, nu=1.0)
    a1 = 2.0 / math.sqrt(3.0)
    assert cands["recursion"] == pytest.approx(-a1 / 14.0, rel=1e-13)
    assert cands["appendix_literal"] == pytest.approx(-a1 / 8.0, rel=1e-13)
    assert cands["recursion"] != cands["appendix_literal"]


# --- reductions of the linear equation ---------------------------------------

def test_bessel_reduction_rho_zero():
    err = series.bessel_reduction_check(1.0, 1.0, 0.5,
                                        np.linspace(0.5, 10.0, 150))
    assert err < 1e-7


def test_bessel_reduction_elementary_fallback():
    err = series.bessel_reduction_check(1.0, 1.0, 0.0,
                                        np.linspace(0.1, 10.0, 150))
    assert err < 1e-10


def test_bessel_reduction_rejects_imaginary_order():
    with pytest.raises(ParameterError):
        series.bessel_reduction_check(1.0, 1.0, 0.6, [1.0])


def test_power_law_solutions():
    # Omega0^2 nu^2 = 3/16 gives exponents +-1/4
    err = series.power_law_check(1.0, math.sqrt(3.0) / 4.0,
                                 np.linspace(0.2, 5.0, 120))
    assert err < 1e-10


# --- oscillatory approximation ------------------------------------------------

def test_large_k0_degenerate_radicand():
    alpha, q = series.large_k0_approx(1.0, 2.0, 1.0, 0.5, 0.0,
                                      np.linspace(0.0, 1.0, 101))
    np.testing.assert_allclose(alpha, 0.5, rtol=1e-14)
    # q is then a pure sinusoid in the rescaled phase 2t
    np.testing.assert_allclose(q, np.sin(2.0 * np.linspace(0.0, 1.0, 101)),
                               atol=1e-12)


def test_large_k0_values_and_trajectory_residual():
    ts = np.linspace(0.0, 1.0, 4001)
    alpha, q = series.large_k0_approx(1.0, 2.0, 1.0, 1.0, 0.0, ts)
    assert alpha[0] == pytest.approx(1.0)
    i = np.argmin(np.abs(ts - math.pi / 8.0))
    assert alpha[i] == pytest.approx(1.0 + math.sqrt(3.0) / 2.0, abs=1e-6)
    # loose residual bound against the induced equation of motion
    h = ts[1] - ts[0]
    dq = np.gradient(q, h, edge_order=2)
    d2q = np.gradient(dq, h, edge_order=2)
    amp = math.sqrt(1.0 - 0.25)
    alpha_dot = 4.0 * amp * np.cos(4.0 * ts)
    res = d2q + alpha_dot / alpha * dq + q / alpha ** 2
    assert np.max(np.abs(res[5:-5])) < 0.05


def test_large_k0_parameter_errors():
    with pytest.raises(ParameterError):
        series.large_k0_approx(1.0, 2.0, 1.0, 0.4, 0.0, [0.0])  # radicand < 0
    with pytest.raises(ParameterError, match="^alpha not positive"):
        series.large_k0_approx(1.0, 2.0, 1.0, -1.0, 0.0,
                               np.linspace(0.0, 1.0, 11))


def test_linearization_gap_shrinks_with_amplitude():
    # dropping the 1/sigma^3 term is only fair when sigma stays large and
    # the window is short of the linear solution's first zero; the measured
    # relative gap must fall steeply with the starting amplitude
    gaps = [series.linearization_gap(1.0, 2.0, 0.5, 1.0, s0, 0.0, 0.5, 1.0)
            / s0 for s0 in (0.3, 1.0, 3.0, 6.0)]
    assert all(a > 5.0 * b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-4
    assert gaps[0] > 0.1


def test_linearization_gap_rejects_a_zero_start():
    # the full equation's omega0^2 / (4 sigma^3) term is singular there
    with pytest.raises(ParameterError, match="sigma0"):
        series.linearization_gap(1.0, 2.0, 0.5, 1.0, 0.0, 0.0, 0.5, 1.0)


def test_json_dump_shape():
    s = series.build_series(1.0, 2.0, 1.0, 5)
    d = s.to_json_dict()
    assert set(d) == {"omega0", "lambda", "mu_s", "order", "a", "a_tilde"}
    assert len(d["a"]) == 5 and len(d["a_tilde"]) == 5
    assert d["a"][1] == pytest.approx(-0.0824786, abs=1e-7)


# --- the coefficient table and the convolution against reference loops: a
# Horner sum with per-coefficient weights, a four-column loop over its own
# table, and the convolution sums written out index by index

def _reference_powsum(s, t, weight):
    t = np.asarray(t, dtype=float)
    t2 = t * t
    acc = np.zeros_like(t)
    for k in range(s.order - 1, -1, -1):
        acc = acc * t2 + weight(k) * s.a[k]
    return acc


def _reference_alpha_ddot(s, t):
    t = np.asarray(t, dtype=float)
    t2 = t * t
    acc = np.zeros_like(t)
    for k in range(s.order - 1, 0, -1):
        acc = acc * t2 + (2 * k + 1.0) * (2 * k) * s.a[k]
    return acc * t


def _reference_fused(s, t):
    rows = [(ak, (2 * k + 1.0) * ak, (2 * k + 1.0) * (2 * k) * ak,
             (2 * k + 1.0) * (2 * k) * (2 * k - 1.0) * ak)
            for k, ak in reversed(list(enumerate(s.a)))]
    t2 = t * t
    p0 = p1 = p2 = p3 = 0.0
    for r0, r1, r2, r3 in rows[:-1]:
        p0 = p0 * t2 + r0
        p1 = p1 * t2 + r1
        p2 = p2 * t2 + r2
        p3 = p3 * t2 + r3
    r0, r1 = rows[-1][:2]
    return t * (p0 * t2 + r0), p1 * t2 + r1, p2 * t, p3


def _reference_convolution_triple(a):
    n = len(a)
    deg = n - 1

    def get(i):
        return a[i] if 0 <= i < n else None

    b = []
    for k in range(0, 2 * deg - 1):
        acc = 0 * a[0]
        for j in range(0, k + 1):
            x, y = get(j + 1), get(k - j + 1)
            if x is not None and y is not None:
                acc += (j + 1) * (k - j + 1) * x * y
        b.append(acc)
    c = []
    for k in range(0, 2 * deg + 1):
        acc = 0 * a[0]
        for j in range(0, k + 1):
            x, y = get(j), get(k - j)
            if x is not None and y is not None:
                acc += x * y
        c.append(acc)
    d = []
    for k in range(0, 2 * deg - 1):
        acc = 0 * a[0]
        for j in range(0, k + 1):
            x, y = get(j), get(k + 2 - j)
            if x is not None and y is not None:
                acc += (2 + k - j) * (1 + k - j) * x * y
        d.append(acc)
    return b, c, d


def _reference_reciprocal_identity(s):
    r, q = s.ratios, s.tilde_ratios
    out = []
    for k in range(s.order):
        acc = 0 * r[0]
        for j in range(k + 1):
            acc += r[j] * q[k - j]
        out.append(acc - (1 if k == 0 else 0))
    return out


def _bits(x):
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


_TIMES = {
    "float": 0.37,
    "0-d": np.array(0.37),
    "1-D": np.concatenate([np.linspace(-0.9, 1.9, 29), [0.0, -0.0, 1e-200]]),
}


# orders 10 and 13 lie on either side of the exact-rational cap
@pytest.mark.parametrize("order", [1, 2, 10, 13])
@pytest.mark.parametrize("kind", list(_TIMES))
def test_alpha_readers_match_the_reference_loops_bit_for_bit(order, kind):
    s = series.build_series(1.3, 2.0, 1.0, order)
    t = _TIMES[kind]
    want = (np.asarray(t, dtype=float) * _reference_powsum(s, t, lambda k: 1.0),
            _reference_powsum(s, t, lambda k: 2 * k + 1.0),
            _reference_alpha_ddot(s, t))
    assert _bits(s.alpha(t)) == _bits(want[0])
    fused = s.derivatives(t)
    assert [_bits(g) for g in fused[:3]] == [_bits(w) for w in want]
    assert [_bits(g) for g in fused] == [_bits(w)
                                         for w in _reference_fused(s, t)]
    if kind == "float":
        assert all(type(g) is float for g in fused)


_FRACTION_LISTS = [
    [Fraction(3, 7)],
    [Fraction(0), Fraction(-5, 3)],
    [Fraction(2, 9), Fraction(1, 5), Fraction(-7, 2)],
    [Fraction(k * k - 3, 2 * k + 1) for k in range(9)],
    [Fraction(0)] + [Fraction((-1) ** k, (k + 2) ** 2) if k % 2 == 0
                     else Fraction(0) for k in range(11)],
]


@pytest.mark.parametrize("a", _FRACTION_LISTS,
                         ids=[f"len{len(a)}" for a in _FRACTION_LISTS])
def test_convolution_triple_matches_the_reference_loops_exactly(a):
    tri = series.convolution_triple(a)
    assert (list(tri.b), list(tri.c), list(tri.d)) == \
        _reference_convolution_triple(a)
    assert all(type(x) is Fraction for x in tri.b + tri.c + tri.d)


@pytest.mark.parametrize("order", [1, 2, 9, 12])
@pytest.mark.parametrize("mu_s", [1.0, 0.3])
def test_reciprocal_identity_matches_the_reference_loop_exactly(order, mu_s):
    s = series.build_series(1.0, 2.0, mu_s, order)
    rec = series.reciprocal_identity_coefficients(s)
    assert rec == _reference_reciprocal_identity(s)
    assert all(type(x) is Fraction for x in rec)


def _dense_convolve(x, y):
    # every index pair, zero factors included, summed in index order
    out = []
    for k in range(len(x) + len(y) - 1):
        acc = 0 * x[0]
        for j in range(len(x)):
            if 0 <= k - j < len(y):
                acc += x[j] * y[k - j]
        out.append(acc)
    return out


def _dense_det(mat):
    # Gaussian elimination updating every entry of every row below the pivot
    n = len(mat)
    m = [list(row) for row in mat]
    det = mat[0][0] * 0 + 1
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return det * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        det = det * m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [m[r][j] - f * m[col][j] for j in range(n)]
    return det * sign


_CONVOLVE_PAIRS = [
    ([Fraction(0), Fraction(3, 7), Fraction(0), Fraction(-2, 5)],
     [Fraction(0), Fraction(0), Fraction(5, 3)]),
    ([Fraction(-1, 2), Fraction(0)], [Fraction(0)] * 4),
    ([Fraction(k - 4, k + 1) if k % 3 else Fraction(0) for k in range(10)],
     [Fraction(0) if k % 2 else Fraction(1, k + 2) for k in range(7)]),
    ([-1.5, 0.0, 0.25, -0.0, 3.0], [0.0, -2.0, 0.0, 1e-300, 7.5]),
    ([0.0, 1.1547005383792517, 0.0, -0.08247860988423227],
     [1.0, 0.0, 0.03, 0.0, -0.002]),
    # enough terms per entry that another summation order rounds otherwise
    ([0.1 * k - 1 / 3 if k % 3 else 0.0 for k in range(12)],
     [1 / (k + 1.5) if k % 2 else 0.0 for k in range(9)]),
    ([Fraction(2, 3)], [Fraction(0), Fraction(1, 9)]),
    ([0.5, -0.0], []),
]


@pytest.mark.parametrize("x,y", _CONVOLVE_PAIRS,
                         ids=[f"pair{i}" for i in range(len(_CONVOLVE_PAIRS))])
def test_sparse_convolution_matches_the_dense_loops(x, y):
    got = series._convolve(x, y)
    want = _dense_convolve(x, y)
    assert got == want
    assert [type(v) for v in got] == [type(v) for v in want]


_DET_MATRICES = [
    [[Fraction(0), Fraction(2, 3), Fraction(0)],
     [Fraction(1, 4), Fraction(0), Fraction(-1)],
     [Fraction(0), Fraction(5), Fraction(7, 2)]],
    [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
    [[Fraction(i * j % 5 - 2, i + j + 1) if (i + j) % 2 else Fraction(0)
      for j in range(6)] for i in range(6)],
    [[0.0, 1.5, 0.0, -2.0], [0.3, 0.0, 1e-3, 0.0],
     [0.0, -0.7, 0.0, 4.0], [2.0, 0.0, -0.0, 0.0]],
    [[1.0 / (i + j + 1) for j in range(5)] for i in range(5)],
]


def _assert_same_determinant(got, want):
    # Fractions exactly, floats bit for bit
    assert type(got) is type(want)
    if isinstance(want, float):
        assert _bits(got) == _bits(want)
    else:
        assert got == want


@pytest.mark.parametrize("mat", _DET_MATRICES,
                         ids=[f"mat{i}" for i in range(len(_DET_MATRICES))])
def test_sparse_determinant_matches_the_dense_elimination(mat):
    _assert_same_determinant(series._det(mat), _dense_det(mat))


# orders 10 and 13 lie on either side of the exact-rational cap
@pytest.mark.parametrize("order", [10, 13])
def test_determinant_tilde_matrices_match_the_dense_elimination(
        order, monkeypatch):
    s = series.build_series(1.0, 2.0, 1.0, order)
    seen = []
    det = series._det

    def recorded(mat):
        seen.append(mat)
        return det(mat)

    monkeypatch.setattr(series, "_det", recorded)
    values = [series.determinant_tilde(s, k) for k in range(7)]
    assert len(seen) == 6  # k = 0 needs no matrix
    for mat, value in zip(seen, values[1:]):
        _assert_same_determinant(value, _dense_det(mat))
