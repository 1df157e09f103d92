"""Model catalog tests.

Every expected number is either a definition (constant models), a hand
evaluation of the coefficient formulas M = m'/m and
Omega^2 = omega^2 - M'/2 - M^2/4, or a finite-difference cross-check of the
analytic derivatives.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tdo import models
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


@pytest.mark.parametrize("name,window", CATALOG_WINDOWS)
def test_coeffs_on_a_float_match_the_array_path(name, window):
    # the float path may use libm where the array path uses numpy; measured
    # against the column's largest magnitude, since Omega^2 = w^2 - gamma0^2/4
    # cancels near its zero
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


def test_import_leaves_scipy_interpolate_unloaded():
    # no module of the package imports scipy.interpolate (test_imports.py
    # pins the package's scipy imports), and `import tdo` loads none of it
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, tdo; print('scipy.interpolate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "False", proc.stderr


@pytest.mark.parametrize("name", [*models.CATALOG_NAMES, "nope", []],
                         ids=[*models.CATALOG_NAMES, "unknown", "unhashable"])
def test_parameter_names_are_each_factory_signature(name):
    if name in models.CATALOG_NAMES:
        factory = getattr(models, name)
        assert models.parameter_names(name) \
            == tuple(inspect.signature(factory).parameters)
        return
    with pytest.raises(ParameterError) as err:
        models.parameter_names(name)
    assert str(err.value) == (
        f"unknown model {name!r}; choose from harmonic, kanai_caldirola, "
        "exp_frequency, tsquared, bessel_type")
