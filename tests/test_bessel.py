"""Bessel evaluator tests.

The evaluator is accepted through its own defining equation
Z'' + Z'/x + (1 - rho^2/x^2) Z = 0 and cross-checked against the scipy
reference implementation, the elementary half-integer closed forms and a
scalar oracle: the series and Hankel truncation rules as per-point loops.
"""

import math

import numpy as np
import pytest
from scipy.special import jv as scipy_jv

from tdo import bessel, verify
from tdo.errors import ParameterError

GRID = np.linspace(0.1, 20.0, 500)
ORDERS = (0.0, 1.0 / 3.0, 0.5, 1.0)


@pytest.mark.parametrize("rho", ORDERS)
def test_defining_ode_residual(rho):
    res = bessel.defining_ode_residual(rho, GRID)
    assert np.max(np.abs(res)) < 1e-8


@pytest.mark.parametrize("rho", ORDERS)
def test_matches_scipy_reference(rho):
    mine = bessel.jv(rho, GRID)[0]
    assert np.max(np.abs(mine - scipy_jv(rho, GRID))) < 1e-10


def test_the_gate_bessel_table_is_scipys_jv_on_its_grid():
    # the release gate reads scipy.special.jv from this frozen table; to
    # refresh it after a scipy upgrade, np.save(verify.BESSEL_TABLE, the
    # array below)
    assert verify.BESSEL_ORDERS == ORDERS
    assert np.array_equal(verify.BESSEL_GRID, GRID)
    fresh = np.array([scipy_jv(rho, GRID) for rho in ORDERS])
    table = np.load(verify.BESSEL_TABLE)
    assert table.shape == fresh.shape and table.dtype == np.float64
    assert np.max(np.abs(table - fresh)) <= 1e-15


def test_scipy_reference_or_parameter_error_across_the_domain():
    # every point either matches J, J' and J'' or raises; orders <= 1 (the
    # catalog's) never raise, from tiny x (where J' and J'' come from the
    # series' second term) to well past the switchover
    from scipy.special import jvp
    xs = np.concatenate([np.logspace(-12.0, math.log10(40.0), 200),
                         [bessel.SWITCHOVER, np.nextafter(12.0, 13.0)]])
    for rho in np.arange(0.0, 10.01, 0.5):
        for x in xs:
            try:
                got = bessel.jv(rho, x)
            except ParameterError:
                assert rho > 1.0
                continue
            for n, value in enumerate(got):
                ref = float(jvp(rho, x, n=n))
                assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), (rho, x)


def test_half_integer_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin(x)
    xs = np.linspace(0.2, 18.0, 200)
    mine = bessel.jv(0.5, xs)[0]
    ref = np.sqrt(2.0 / (math.pi * xs)) * np.sin(xs)
    assert np.max(np.abs(mine - ref)) < 1e-12


def test_derivatives_against_scipy():
    from scipy.special import jvp
    for rho in ORDERS:
        for x in (0.5, 3.0, 11.9, 12.1, 19.0):
            _, dj, d2j = bessel.jv(rho, x)
            assert dj == pytest.approx(float(jvp(rho, x, n=1)), abs=1e-10)
            assert d2j == pytest.approx(float(jvp(rho, x, n=2)), abs=1e-10)


def test_derivative_against_finite_difference():
    # away from the switchover the ascending series has little cancellation,
    # so a central difference is a clean independent oracle
    h = 1e-6
    for rho in ORDERS:
        for x in (0.5, 3.0, 7.0):
            j_m = bessel.jv(rho, x - h)[0]
            j_p = bessel.jv(rho, x + h)[0]
            _, dj, _ = bessel.jv(rho, x)
            assert dj == pytest.approx((j_p - j_m) / (2.0 * h), abs=5e-9)


def test_switchover_is_seamless():
    # value and derivatives must agree across the series/asymptotic boundary;
    # the series side carries ~1e-10 cancellation noise at x = 12
    below = bessel.jv(1.0, bessel.SWITCHOVER - 1e-9)
    above = bessel.jv(1.0, bessel.SWITCHOVER + 1e-9)
    for a, b in zip(below, above):
        assert a == pytest.approx(b, abs=1e-9)


def test_invalid_arguments():
    cases = [
        (-0.5, 1.0), (0.5, 0.0), (0.5, -2.0),
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (0.5, math.nan), (0.5, math.inf),
        (0.5, np.array([1.0, 2.0, math.nan])),
        (0.5, np.array([[1.0, 20.0], [-math.inf, 3.0]])),
        (0.5, np.array([13.0, 0.0])),
        (200.0, 1.0), (200.0, 13.0),  # 1/Gamma(201) overflows
        (0.0, 1e-170), (1.0 / 3.0, np.array([1.0, 1e-170])),  # below X_MIN
        (10.0, 12.5), (10.0, np.array([1.0, 12.5, 20.0])),  # Hankel too short
    ]
    for rho, x in cases:
        with pytest.raises(ParameterError):
            bessel.jv(rho, x)


# ---------------------------------------------------------------------------
# scalar oracle: the evaluator's truncation rules as per-point loops

def _reference_series(rho, x):
    half = 0.5 * x
    term = half ** rho / math.gamma(rho + 1.0)
    s0 = s1 = s2 = 0.0
    m = 0
    while True:
        p = 2 * m + rho
        s0 += term
        s1 += term * p
        s2 += term * p * (p - 1.0)
        m += 1
        term *= -(half * half) / (m * (m + rho))
        p = 2 * m + rho
        if (abs(term) < 1e-18 * (abs(s0) + 1e-300)
                and abs(term) * p < 1e-18 * (abs(s1) + 1e-300)
                and abs(term) * p * (p - 1.0) < 1e-18 * (abs(s2) + 1e-300)
                and m > half):
            break
        if m > 400:
            break
    return s0, s1 / x, s2 / (x * x)


def _reference_asymptotic(rho, x):
    mu4 = 4.0 * rho * rho
    chi = x - rho * math.pi / 2.0 - math.pi / 4.0
    cc, ss = math.cos(chi), math.sin(chi)
    pref = math.sqrt(2.0 / math.pi) / math.sqrt(x)
    Fv = Fd = Fdd = 0.0
    Gv = Gd = Gdd = 0.0
    t = 1.0
    k = 0
    while True:
        p = -0.5 - k
        v = pref * t * (-1.0) ** (k // 2)
        if k % 2 == 1:
            v = -v
            Gv += v
            Gd += v * p / x
            Gdd += v * p * (p - 1.0) / (x * x)
        else:
            Fv += v
            Fd += v * p / x
            Fdd += v * p * (p - 1.0) / (x * x)
        k += 1
        t_next = t * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        weight = max(1.0, (k + 0.5) * (k + 1.5) / (x * x))
        if (abs(t_next) * weight < 1e-18 or k > 60
                or ((2 * k - 1) ** 2 > mu4 and abs(t_next) >= abs(t))):
            break
        t = t_next
    j = Fv * cc + Gv * ss
    dj = (Fd + Gv) * cc + (Gd - Fv) * ss
    d2j = (Fdd + 2.0 * Gd - Fv) * cc + (Gdd - 2.0 * Fd - Gv) * ss
    return j, dj, d2j


def _reference_jv(rho, x):
    if x <= bessel.SWITCHOVER:
        return _reference_series(rho, x)
    return _reference_asymptotic(rho, x)


# both sides of the switchover; at rho = 7 the Hankel terms grow for the
# first few k before they shrink, so the smallest-term stop must wait
ORACLE_GRID = np.concatenate([np.linspace(0.04, 40.0, 1000),
                              [12.0, np.nextafter(12.0, 13.0)]])


@pytest.mark.parametrize("rho", (0.0, 1.0 / 3.0, 0.5, 1.0, 2.5, 7.0))
def test_matches_scalar_oracle(rho):
    got = bessel.jv(rho, ORACLE_GRID)
    ref = np.array([_reference_jv(rho, float(x)) for x in ORACLE_GRID]).T
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) < 1e-11


@pytest.mark.parametrize("x, shape", [
    (3.0, None), (np.float64(15.0), None), (np.array(3.0), None),
    (np.array([3.0, 15.0]), (2,)), (np.array([[3.0, 15.0, 0.5]] * 2), (2, 3)),
    (np.array([]), (0,)), (np.empty((0, 4)), (0, 4)),
])
def test_output_shapes(x, shape):
    out = bessel.jv(0.5, x)
    assert len(out) == 3
    for v in out:
        if shape is None:
            assert type(v) is float
        else:
            assert isinstance(v, np.ndarray) and v.shape == shape
