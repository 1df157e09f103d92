"""Model catalog tests.

Every expected number is either a definition (constant models), a hand
evaluation of the coefficient formulas M = m'/m and
Omega^2 = omega^2 - M'/2 - M^2/4, or a finite-difference cross-check of the
analytic derivatives.
"""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tdo import ermakov, models
from tdo.errors import DomainError, ParameterError


def fd(f, t, h=1e-6):
    return (float(f(t + h)) - float(f(t - h))) / (2.0 * h)


def test_catalog_has_exactly_five_models():
    cat = models.catalog()
    assert [m.name for m in cat] == [
        "harmonic", "kanai_caldirola", "exp_frequency", "tsquared",
        "bessel_type"]


def test_harmonic_is_constant():
    m = models.harmonic(m0=1.0, omega0=1.0)
    assert float(m.m(2.0)) == 1.0
    assert float(m.omega(2.0)) == 1.0
    assert models.damping_coefficient(m, 1.7) == 0.0
    assert models.omega2(m, 1.7) == 1.0


@pytest.mark.parametrize("m0,omega0", [(1.0, 1.0), (0.37, 2.9), (3e5, 1e-3)])
@pytest.mark.parametrize("t", [-7.5, -0.0, 0.0, 2.25,
                               np.array([-1e8, -3.0, -0.0, 0.0, 0.4, 1e8])])
def test_harmonic_values_are_exact(m0, omega0, t):
    # kanai_caldirola at gamma = 0, to the bit: m0, 0, 0, omega0, 0 and
    # coeffs (omega0^2, 0)
    m = models.harmonic(m0, omega0)
    ones = np.ones_like(np.asarray(t, dtype=float))
    for f, want in ((m.m, m0), (m.m_dot, 0.0), (m.m_ddot, 0.0),
                    (m.omega, omega0), (m.omega_dot, 0.0)):
        got = np.asarray(f(t))
        assert got.shape == ones.shape
        assert (got == want * ones).all() and not np.signbit(got).any()
    w2, w2_dot = m.coeffs(t)
    if isinstance(t, float):
        assert (type(w2), type(w2_dot)) == (float, float)
    assert np.array_equal(w2, omega0 * omega0 * ones)
    assert np.array_equal(w2_dot, 0.0 * ones)
    assert m.unit_basis(0.0, np.zeros(1)).rate == omega0
    assert (m.name, m.params) == ("harmonic", {"m0": m0, "omega0": omega0})


def test_kanai_caldirola_mass_is_exponential():
    m = models.kanai_caldirola(m0=1.0, gamma=1.0)
    assert float(m.m(1.0)) == pytest.approx(math.e, rel=1e-15)


def test_kanai_caldirola_coefficients():
    # direct evaluation with M' = 0: Omega^2 = omega0^2 - gamma^2/4
    m = models.kanai_caldirola(omega0=1.0, gamma=1.0)
    for t in (-1.0, 0.0, 2.5):
        assert models.damping_coefficient(m, t) == pytest.approx(1.0,
                                                                 abs=1e-14)
        assert models.omega2(m, t) == 0.75


def test_tsquared_coefficients():
    # m0=1, c^2=1/2: omega(1) = 1, M(1) = 2, Omega^2(1) = omega^2 = 1
    m = models.tsquared(m0=1.0, c=2.0 ** -0.5)
    assert models.damping_coefficient(m, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert models.omega2(m, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_exp_frequency_product_constant():
    m = models.exp_frequency(omega0=1.0, gamma0=1.0, c=2.0 ** -0.5)
    ts = np.linspace(0.0, 3.0, 50)
    prod = np.asarray(m.m(ts)) * np.asarray(m.omega(ts))
    assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_exp_frequency_rejects_nonpositive_gamma0():
    with pytest.raises(ParameterError):
        models.exp_frequency(gamma0=0.0)
    with pytest.raises(ParameterError):
        models.exp_frequency(gamma0=-0.5)


CATALOG_WINDOWS = [
    ("harmonic", (0.0, 2.0)),
    ("kanai_caldirola", (0.0, 2.0)),
    ("exp_frequency", (0.0, 2.0)),
    ("tsquared", (0.5, 2.5)),
    ("bessel_type", (0.1, 1.5)),
]


@pytest.mark.parametrize("name,window", CATALOG_WINDOWS)
def test_analytic_derivatives_match_finite_differences(name, window):
    model = models.get_model(name)
    ts = np.linspace(*window, 102)[1:-1]
    for t in ts:
        h = 1e-6 * (1.0 + abs(t))
        md = float(model.m_dot(t))
        assert abs(fd(model.m, t, h) - md) <= 1e-6 * (1.0 + abs(md))
        wd = float(model.omega_dot(t))
        assert abs(fd(model.omega, t, h) - wd) <= 1e-6 * (1.0 + abs(wd))


@pytest.mark.parametrize("name,window",
                         CATALOG_WINDOWS + [("tabulated", (0.2, 1.8))])
def test_coeffs_on_a_float_match_the_array_path(name, window, tmp_path):
    # the float path may use libm where the array path uses numpy; measured
    # against the column's largest magnitude, since Omega^2 = w^2 - gamma0^2/4
    # cancels near its zero
    if name == "tabulated":
        model = _table(tmp_path, models.bessel_type(), 0.1, 1.9)
    else:
        model = models.get_model(name)
    ts = np.linspace(*window, 101)
    columns = model.coeffs(ts)
    for i, t in enumerate(ts.tolist()):
        for value, column in zip(model.coeffs(t), columns):
            assert type(value) is float
            ulp = np.spacing(np.max(np.abs(column)))
            assert abs(value - column[i]) <= 2 * ulp


def test_omega2_dot_shortcut_matches_finite_difference():
    for model in models.catalog():
        lo, hi = {"tsquared": (0.6, 2.0), "bessel_type": (0.2, 1.2)}.get(
            model.name, (0.0, 2.0))
        for t in np.linspace(lo, hi, 17):
            num = (models.omega2(model, t + 1e-5) -
                   models.omega2(model, t - 1e-5)) / 2e-5
            assert models.omega2_dot(model, t) == pytest.approx(
                num, rel=1e-5, abs=1e-7)


def test_domain_guards():
    m = models.tsquared()
    with pytest.raises(DomainError):
        m.domain.require(0.0)
    with pytest.raises(DomainError):
        models.eom_residual(m, lambda t: 0.0, lambda t: 0.0, lambda t: 0.0, -1.0)


@pytest.mark.parametrize("model", [models.harmonic(), models.tsquared(),
                                   models.bessel_type()],
                         ids=lambda m: m.name)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_domain_rejects_non_finite_times(model, bad):
    with pytest.raises(DomainError, match="outside domain"):
        model.domain.require(bad)
    with pytest.raises(DomainError, match="outside domain"):
        model.domain.require([1.0, bad])


def test_unknown_model_name():
    with pytest.raises(ParameterError):
        models.get_model("no_such_model")


def test_zero_trajectory_has_zero_residual():
    m = models.harmonic()
    z = lambda t: 0.0
    assert models.eom_residual(m, z, z, z, 1.23) == 0.0


def test_tsquared_closed_form_trajectory():
    # q = cos(1/(2 m0 c^2 t)) with m0 c^2 = 1/2
    m = models.tsquared(m0=1.0, c=2.0 ** -0.5)
    q, dq, d2q = models.tsquared_solution(m0=1.0, c=2.0 ** -0.5, c1=1.0, c2=0.0)
    for t in (0.5, 1.0, 2.0):
        assert abs(models.eom_residual(m, q, dq, d2q, t)) < 1e-9


def test_exp_frequency_closed_form_trajectory():
    m = models.exp_frequency(omega0=1.0, gamma0=1.0)
    q, dq, d2q = models.exp_frequency_solution(omega0=1.0, gamma0=1.0,
                                               c1=0.4, c2=1.3)
    for t in np.linspace(0.0, 2.0, 41):
        assert abs(models.eom_residual(m, q, dq, d2q, t)) < 1e-9


def test_bessel_type_product_is_constant():
    m = models.bessel_type(order=10)
    ts = np.linspace(0.1, 1.5, 80)
    prod = np.asarray(m.m(ts)) * np.asarray(m.omega(ts))
    assert np.max(np.abs(prod / prod[0] - 1.0)) < 1e-9


# --- tabulated models -------------------------------------------------------

def _write_table(path, model, lo, hi, n=60):
    ts = np.linspace(lo, hi, n)
    lines = ["t,m,omega"]
    for t in ts:
        lines.append(f"{t:.12g},{float(model.m(t)):.12g},"
                     f"{float(model.omega(t)):.12g}")
    path.write_text("\n".join(lines) + "\n")


def _table(tmp_path, model, lo, hi, n=60):
    csv_path = tmp_path / "model.csv"
    _write_table(csv_path, model, lo, hi, n)
    return models.tabulated_from_csv(csv_path)


def _counted_run(model, init, lo, hi):
    """Final sigma of a stepped run at rtol 1e-10, and the model's `coeffs`
    calls.  A declared unit basis is dropped, as a table has none, so a
    catalog model and its table both take the stepper."""
    calls = [0]

    def coeffs(t):
        calls[0] += 1
        return model.coeffs(t)

    run = ermakov.integrate_ep(
        dataclasses.replace(model, coeffs=coeffs, unit_basis=None),
        ermakov.DEFAULT_K, init, lo, hi, rtol=1e-10)
    return float(run.sigma[-1]), calls[0]


def test_tabulated_model_roundtrip(tmp_path):
    src = models.kanai_caldirola(omega0=1.0, gamma=0.5)
    tab = _table(tmp_path, src, 0.0, 2.0)
    ts = np.linspace(0.2, 1.8, 20)
    for t in ts:
        md = float(src.m_dot(t))
        assert abs(float(tab.m_dot(t)) - md) <= 1e-8 * (1.0 + abs(md))
        assert float(tab.omega(t)) == pytest.approx(1.0, abs=1e-10)
    for ref, got, tol in zip(src.coeffs(ts), tab.coeffs(ts), (1e-7, 1e-5)):
        assert np.max(np.abs(got - ref)) <= tol
    with pytest.raises(DomainError):
        tab.domain.require(5.0)


def test_kanai_caldirola_table_integrates_like_the_model(tmp_path):
    # a C1 interpolant such as PCHIP needs 64-74x the analytic model's coeffs
    # calls here, and ends with sigma off by 1.7e-4
    src = models.kanai_caldirola(gamma=0.5)
    tab = _table(tmp_path, src, 0.0, 10.0, n=60)
    ref, ref_calls = _counted_run(src, (1.0, 0.0), 0.0, 10.0)
    got, calls = _counted_run(tab, (1.0, 0.0), 0.0, 10.0)
    assert calls <= 3 * ref_calls
    assert abs(got - ref) <= 1e-6 * abs(ref)


TABLE_CASES = [
    (models.harmonic(omega0=1.3), (0.0, 10.0), (1.0, 0.0)),
    (models.kanai_caldirola(gamma=0.5), (0.0, 10.0), (1.0, 0.0)),
    (models.exp_frequency(gamma0=0.3), (0.0, 10.0), (1.0, 0.0)),
    (models.tsquared(), (0.5, 3.0), (1.0, 0.0)),
    (models.bessel_type(), (0.1, 1.5), (0.3, 0.2)),
]


@pytest.mark.parametrize("model,window,init", TABLE_CASES,
                         ids=[case[0].name for case in TABLE_CASES])
def test_catalog_models_as_tables(tmp_path, model, window, init):
    tab = _table(tmp_path, model, *window, n=120)
    ref, ref_calls = _counted_run(model, init, *window)
    got, calls = _counted_run(tab, init, *window)
    assert calls <= 3 * ref_calls
    assert abs(got - ref) <= 1e-6 * abs(ref)


def test_tabulated_model_validation(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x,y,z\n0,1,1\n1,1,1\n2,1,1\n3,1,1\n")
    with pytest.raises(ParameterError):
        models.tabulated_from_csv(p)
    good = ["0,1,1", "1,1,1", "2,1,1", "3,1,1", "4,1,1", "5,1,1"]
    for rows in (
            good[:5],  # too few rows
            good[:2] + ["1,1,1"] + good[3:],  # not strictly increasing
            good[:1] + ["1,-1,1"] + good[2:],  # nonpositive mass
            good[:1] + ["1,1,0"] + good[2:],  # nonpositive frequency
            good[:1] + ["1,one,1"] + good[2:],  # not a number
            good[:1] + ["1,1"] + good[2:],  # short row
            good[:1] + ["1,nan,1"] + good[2:],
            good[:1] + ["1,1,inf"] + good[2:],
            # positive rows whose spline dips below zero between them
            ["0,1,1", "1,1,1", "2,0.01,1", "3,0.01,1", "4,1,1", "5,1,1"],
            # spacings and values whose splines leave the float range
            [f"{i * 5e-324!r},1,1" for i in range(6)],
            [f"{t!r},1,1" for t in (0, 1e-300, 1, 2, 3, 1e300)],
            [f"{i * 1e-300!r},1,1" for i in range(6)],
            [f"{i},1e308,1e308" for i in range(6)],
            # times that coincide in the spline's knots leave no derivative
            ["0,1,1", "0.5,1,1", "1.4292214118743862e+16,1,1",
             "1.4292214118743864e+16,1,1",
             "1.4292214118743872e+16,1,2.1829503385535998e+291",
             "5.180175099163013e+16,1,1"]):
        p.write_text("\n".join(["t,m,omega"] + rows) + "\n")
        with pytest.raises(ParameterError), warnings.catch_warnings():
            warnings.simplefilter("error")
            models.tabulated_from_csv(p)
    p.write_bytes(b"t,m,omega\n0,1,1\n1,1,1\n2,1,1\n3,1,\xff\n4,1,1\n5,1,1\n")
    with pytest.raises(ParameterError):  # not UTF-8
        models.tabulated_from_csv(p)
    p.write_text("\n".join(["t,m,omega"] + good) + "\n")
    assert models.tabulated_from_csv(p).params == {"rows": 6}


_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "-0", "5e-324", "1e-300", "1e300", "1e308", "x",
                     " 1", "1,", '"1"']),
    st.text(max_size=4))


@st.composite
def _increasing_tables(draw):
    """Strictly increasing times with spacings and values from every scale."""
    n = draw(st.integers(6, 9))
    steps = draw(st.lists(
        st.one_of(st.floats(0.1, 10.0), st.floats(5e-324, 1e299)),
        min_size=n - 1, max_size=n - 1))
    start = draw(st.one_of(st.just(0.0), st.floats(-1e300, 1e300)))
    values = st.one_of(st.floats(0.1, 10.0), st.floats(5e-324, 1e308))
    rows = [f"{t!r},{draw(values)!r},{draw(values)!r}"
            for t in itertools.accumulate([start] + steps)]
    return "\n".join(["t,m,omega"] + rows) + "\n"


_CSV_TEXTS = st.one_of(
    _increasing_tables(),
    _increasing_tables(),
    st.lists(st.lists(_CELLS, min_size=2, max_size=4).map(",".join),
             min_size=5, max_size=8).map(
        lambda rows: "\n".join(["t,m,omega"] + rows) + "\n"),
    st.text(max_size=60))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=st.one_of(_CSV_TEXTS.map(str.encode), st.binary(max_size=60)))
def test_any_csv_text_gives_a_model_or_a_parameter_error(tmp_path, text):
    p = tmp_path / "fuzz.csv"
    p.write_bytes(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            assert isinstance(models.tabulated_from_csv(p),
                              models.ModelDescriptor)
        except ParameterError:
            pass


def test_import_leaves_scipy_interpolate_unloaded():
    # tables import scipy.interpolate on first use, not at `import tdo`
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, tdo; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr
