"""Auxiliary-equation tests.

The complex solution of the linear equation, the superposition on a unit
basis declared in closed form or stepped, is checked against itself
across the two kinds of basis, against the auxiliary equation stepped
itself (`verify`'s nonlinear oracle), against the closed-form branches of
a constant Omega^2 and against the first-integral oracle
sigma'^2 + Omega^2 sigma^2 + K/sigma^2 = const; phases are checked against
adaptive quadrature of 1/sigma^2.
"""

import dataclasses
import math
import re
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from tdo import cli, dopri, ermakov, minimum, models, series, verify
from tdo.errors import (BudgetExceeded, NonFiniteResult, ParameterError,
                        SingularityApproached, StepSizeUnderflow, TdoError)

SQ2 = 2.0 ** -0.5


def stepped(model):
    """model with its unit basis undeclared, as a table has it, so
    integrate_ep steps it instead of evaluating it in closed form."""
    return dataclasses.replace(model, unit_basis=None)


# --- superposition closed form ----------------------------------------------

def test_constant_branch_from_basis():
    # kconst = omega0: on the unit basis A = sigma0^2 = 1/(2 omega0), C =
    # sigma0 sigma0' = 0 and B = K/sigma0^2 = 1/(2 omega0), so sigma^2 =
    # (cos^2 + sin^2)/2 stays put
    s0, sd0 = ermakov.sigma_oscillating(1.0, 1.0, 0.3, 0.0)
    assert float(s0) ** 2 == pytest.approx(0.5)
    states = ermakov.integrate_ep(models.harmonic(), 0.25,
                                  (float(s0), float(sd0)), 0.0, 7.0,
                                  t_eval=np.linspace(0.0, 7.0, 29))
    assert np.max(np.abs(states.sigma / SQ2 - 1.0)) <= 1e-14
    assert np.max(np.abs(states.sigma_dot)) < 1e-14


def test_oscillating_branch_value_at_turning_point():
    # first integral with sigma'(0) = 0 forces
    # kconst = omega0^2 sigma^2 + 1/(4 sigma^2); sigma(0)^2 = (2-sqrt(3))/2,
    # and the superposition returns to it every half period
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    states = ermakov.integrate_ep(models.harmonic(), 0.25,
                                  (float(s0), float(sd0)), 0.0, 3 * math.pi,
                                  t_eval=math.pi * np.arange(4))
    for sigma, sigma_dot in zip(states.sigma, states.sigma_dot):
        assert sigma ** 2 == pytest.approx((2.0 - math.sqrt(3.0)) / 2.0,
                                           rel=1e-13)
        assert abs(sigma_dot) < 1e-13
        k = sigma_dot ** 2 + sigma ** 2 + 0.25 / sigma ** 2
        assert k == pytest.approx(2.0, rel=1e-13)


# (model, init, t0, t1) on the four models that declare a unit basis; the
# harmonic start has A = 0.4 and B = 0.7 on the cos/sin basis of W0 = 2
SUPERPOSITION_CASES = [
    (models.harmonic(omega0=2.0),
     (0.4 ** 0.5, 2.0 * math.sqrt(0.4 * 0.7 - 0.25 / 4.0) / 0.4 ** 0.5),
     0.0, 4.0),
    (models.kanai_caldirola(omega0=0.3, gamma=1.0), (1.0, 0.05), 0.0, 3.0),
    (models.exp_frequency(), (0.9, 0.1), 0.0, 2.0),
    (models.tsquared(), (0.9, 0.1), 1.0, 3.0),
]


@pytest.mark.parametrize("model,init,t0,t1", SUPERPOSITION_CASES,
                         ids=[case[0].name for case in SUPERPOSITION_CASES])
def test_superposition_residual_is_tiny(model, init, t0, t1):
    for K in (0.25, 2.0):
        res = ermakov.pinney_residual(model, K, init, t0,
                                      np.linspace(t0, t1, 33))
        assert np.max(np.abs(res)) < 1e-8


@pytest.mark.parametrize("model,K", [(models.bessel_type(), 0.25),
                                     (stepped(models.harmonic()), 0.25),
                                     (models.harmonic(), 0.0)],
                         ids=["bessel_type", "undeclared", "K-0"])
def test_superposition_needs_a_declared_basis(model, K):
    with pytest.raises(ParameterError, match=rf"^{model.name}: "):
        ermakov.pinney_residual(model, K, (1.0, 0.0), 0.1, [0.1, 0.5])


@settings(max_examples=40, deadline=None)
@given(kconst=st.floats(1.0 + 1e-6, 5.0), c1=st.floats(-math.pi, math.pi),
       t=st.floats(-5.0, 5.0))
def test_oscillating_branch_satisfies_first_integral(kconst, c1, t):
    sigma, sigma_dot = ermakov.sigma_oscillating(1.0, kconst, c1, t)
    balance = float(sigma_dot) ** 2 + float(sigma) ** 2 \
        + 0.25 / float(sigma) ** 2
    assert balance == pytest.approx(kconst, rel=1e-9)


def test_fit_oscillating_roundtrip():
    kconst, c1 = ermakov.fit_oscillating(1.0, 0.9, -0.2, 0.7)
    s, sd = ermakov.sigma_oscillating(1.0, kconst, c1, 0.7)
    assert float(s) == pytest.approx(0.9, rel=1e-12)
    assert float(sd) == pytest.approx(-0.2, rel=1e-10)


def test_fit_hyperbolic_roundtrip():
    L = 0.4
    c1, c2 = ermakov.fit_hyperbolic(L, 1.1, 0.3, 0.5)
    s, sd = ermakov.sigma_hyperbolic(L, c1, c2, 0.5)
    assert float(s) == pytest.approx(1.1, rel=1e-12)
    assert float(sd) == pytest.approx(0.3, rel=1e-10)


# closed forms called outside their parameter range, with the parameter
# their ParameterError must name; each of these once ended in a bare
# ValueError (math domain error), ZeroDivisionError or OverflowError, or in
# nan
OUT_OF_RANGE = [
    (ermakov.sigma_oscillating, (1.0, 0.5, 0.0, 0.3), "kconst"),
    (ermakov.sigma_oscillating, (0.0, 1.0, 0.0, 0.3), "omega0"),
    (ermakov.sigma_oscillating, (1e-200, 1.0, 0.0, 0.3), "2 omega0^2"),
    (ermakov.phase_oscillating, (1.0, 0.5, 0.0, 0.0, 1.0), "kconst"),
    (ermakov.phase_oscillating, (0.0, 1.0, 0.0, 0.0, 1.0), "omega0"),
    (ermakov.fit_oscillating, (1.0, 0.0, 0.1, 0.0), "sigma0"),
    (ermakov.sigma_hyperbolic, (0.0, 0.5, 0.0, 0.3), "L"),
    (ermakov.sigma_hyperbolic, (1e-200, 0.5, 0.0, 0.3), "4 L^2"),
    (ermakov.fit_hyperbolic, (0.0, 1.0, 0.0, 0.0), "L"),
    (ermakov.fit_hyperbolic, (0.4, 0.0, 0.0, 0.0), "sigma0"),
    (ermakov.phase_hyperbolic, (0.0, 0.5, 0.0, 0.0, 1.0), "L"),
    (ermakov.phase_hyperbolic, (1e200, 1.0, 0.0, 0.0, 1.0), "4 L^2 c1^2"),
    (ermakov.sigma_oscillating, (1.0, 1e200, 0.0, 0.3),
     "kconst^2 - omega0^2"),
    (ermakov.phase_oscillating, (1.0, 1e200, 0.0, 0.0, 1.0),
     "kconst^2 - omega0^2"),
    (ermakov.phase_oscillating, (1e-200, 1e150, 0.0, 0.0, 1.0),
     "(kconst + sqrt(kconst^2 - omega0^2))/omega0"),
    (ermakov.sigma_hyperbolic, (1.0, 1e300, 0.0, 0.3), "c1^2 + 1/(4 L^2)"),
    (models.exp_frequency_phase, (1.0, 0.0, 0.0, 1.0), "gamma0"),
    (models.exp_frequency_phase, (1.0, 1e-320, 0.0, 1.0), "2 omega0/gamma0"),
    (models.exp_frequency_phase, (1.0, 1.0, -1000.0, 0.0), "exp(-gamma0 t)"),
    (models.exp_frequency_phase, (1e300, 1.0, -20.0, 0.0),
     "2 omega0/gamma0 (exp(-gamma0 t0) - exp(-gamma0 t1))"),
    (models.tsquared_phase, (0.0, 1.0, 1.0, 2.0), "m0"),
    (models.tsquared_phase, (1.0, 0.0, 1.0, 2.0), "c"),
    (models.tsquared_phase, (1e-200, 1e-200, 1.0, 2.0), "m0 c^2 t0"),
    (models.tsquared_phase, (1e-160, 1e-80, 1.0, 1e-5), "m0 c^2 t1"),
    (models.tsquared_phase, (1.0, 1e200, 1.0, 2.0), "m0 c^2"),
]


@pytest.mark.parametrize("func, args, name", OUT_OF_RANGE,
                         ids=[f"{func.__name__}-{name}"
                              for func, _, name in OUT_OF_RANGE])
def test_closed_forms_reject_their_parameters_by_name(func, args, name):
    name = re.escape(name)
    with pytest.raises(ParameterError,
                       match=rf"^{name} must be|requires {name} >="), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        func(*args)


def test_wronskian_is_constant():
    # the unit basis starts with C S' - C' S = 1 and keeps it
    ts = np.linspace(-3.0, 9.0, 61)
    b = models.harmonic(omega0=1.7).unit_basis(-3.0, ts)
    assert np.max(np.abs(b.c * b.s_dot - b.c_dot * b.s - 1.0)) <= 1e-8


# --- direct integration -----------------------------------------------------

def test_integrate_constant_branch():
    m = models.harmonic()
    states = ermakov.integrate_ep(m, 0.25, (SQ2, 0.0), 0.0, 20.0)
    assert np.all(np.abs(states.sigma - SQ2) < 1e-9)
    assert abs(states.theta[-1] - 40.0) < 1e-7


def test_integrate_matches_hyperbolic_closed_form():
    m = models.kanai_caldirola(omega0=0.3, gamma=1.0)  # Omega^2 = -0.16
    L = 0.4
    c1, c2 = ermakov.fit_hyperbolic(L, 1.0, 0.0, 0.0)
    states = ermakov.integrate_ep(m, 0.25, (1.0, 0.0), 0.0, 3.0)
    ref = ermakov.sigma_hyperbolic(L, c1, c2, states.t)[0]
    assert np.all(np.abs(states.sigma - ref) / ref < 1e-6)


@pytest.mark.parametrize("omega0", [0.8, 1.0, 1.3])
def test_stalled_phase_stays_nondecreasing_between_steps(omega0):
    # gamma = 2.2 omega0: sigma grows like cosh, so theta' = 1/sigma^2 dies
    # out and theta stalls at the rounding level; one row per bare period
    # falls inside long steps and is read from the continuous extension
    # (stepped), or is evaluated in closed form
    m = models.kanai_caldirola(omega0=omega0, gamma=2.2 * omega0)
    w2 = 0.21 * omega0 ** 2
    s_c = (0.25 / w2) ** 0.25
    init = (1.3 * s_c, 0.05 * s_c * math.sqrt(w2))
    period = 2.0 * math.pi / omega0
    for model in (stepped(m), m):
        states = ermakov.integrate_ep(model, 0.25, init, 0.0, 30 * period,
                                      t_eval=period * np.arange(31))
        assert np.all(np.diff(states.theta) >= 0.0)


def test_solver_errors_name_the_model_and_the_last_sigma(monkeypatch):
    # the basis runs away like exp(500 t) (the CLI's underflow repro): the
    # step underflows near t = 1.3889, where its slopes leave the float
    # range
    with (pytest.raises(StepSizeUnderflow) as info,
          np.errstate(all="ignore")):
        ermakov.integrate_ep(stepped(models.exp_frequency(gamma0=1e3)),
                             0.25, (1.0, 0.0), 0.0, 1.389)
    message = str(info.value)
    assert message.startswith("exp_frequency: step size underflow")
    assert "t=1.388" in message and "h=" in message
    assert float(message.rsplit("last accepted sigma=", 1)[1]) > 1e150
    monkeypatch.setattr(dopri, "MAX_STEPS", 100)
    with pytest.raises(BudgetExceeded,
                       match=r"^harmonic: .*t=.*h=.*103 step attempts; "
                             r"last accepted sigma=") as info:
        ermakov.integrate_ep(stepped(models.harmonic()), 0.25, (1.0, 0.0),
                             0.0, 1000.0, t_eval=[0.0, 500.0, 1000.0])
    # the last accepted sigma is |cos t + i sin(t)/2| at the reported t
    t, sigma = (float(re.search(pattern, str(info.value)).group(1))
                for pattern in (r" at t=(\S+),", r"sigma=(\S+)$"))
    assert sigma == pytest.approx(math.hypot(math.cos(t), 0.5 * math.sin(t)),
                                  rel=1e-9)


# a window inside each catalog model's domain
WINDOWS = {"tsquared": (1.0, 3.0), "bessel_type": (0.1, 0.8)}


@pytest.mark.parametrize("model", models.catalog(), ids=lambda m: m.name)
def test_complex_solution_keeps_its_wronskian(model, monkeypatch):
    # sigma = |x + iv| solves the auxiliary equation while x v' - x' v
    # stays sqrt(K), on a basis stepped as 8 components (bessel_type) or
    # declared in closed form, whose Wronskian C S' - C' S stays 1
    widths, bases = [], []
    solve, propagate = dopri.solve, ermakov._propagate

    def spy_solve(f, t0, t1, y0, *args, **kwargs):
        widths.append(len(y0))
        return solve(f, t0, t1, y0, *args, **kwargs)

    def spy_propagate(K, sigma0, sigma_dot0, basis):
        bases.append(basis)
        return propagate(K, sigma0, sigma_dot0, basis)

    monkeypatch.setattr(dopri, "solve", spy_solve)
    monkeypatch.setattr(ermakov, "_propagate", spy_propagate)
    t0, t1 = WINDOWS.get(model.name, (0.0, 5.0))
    st_ = ermakov.integrate_ep(model, 0.25, (0.9, 0.1), t0, t1,
                               t_eval=np.linspace(t0, t1, 50))
    assert widths == ([] if model.unit_basis else [8])
    b, = bases
    assert np.max(np.abs(b.c * b.s_dot - b.c_dot * b.s - 1.0)) <= 1e-9
    x, x_dot, v, v_dot, theta, F = propagate(0.25, 0.9, 0.1, b)
    assert np.max(np.abs(x * v_dot - x_dot * v - 0.5)) <= 1e-9 * 0.5
    assert np.array_equal(np.hypot(x, v), st_.sigma)
    assert np.array_equal(theta, st_.theta) and np.array_equal(F, st_.F)


# catalog parameter boxes, start windows t0 in [lo, hi] and longest span
# of the stepped (Cartesian) pair against the (polar) nonlinear oracle
ORACLE_BOXES = {
    "harmonic": ({"omega0": st.floats(0.5, 2.0)}, (-2.0, 2.0), 5.0),
    "kanai_caldirola": ({"omega0": st.floats(0.5, 2.0),
                         "gamma": st.floats(0.0, 1.5)}, (-2.0, 2.0), 3.0),
    "exp_frequency": ({"omega0": st.floats(0.5, 2.0),
                       "gamma0": st.floats(0.2, 1.5),
                       "c": st.floats(0.5, 1.5)}, (-1.0, 2.0), 3.0),
    "tsquared": ({"m0": st.floats(0.5, 2.0), "c": st.floats(0.5, 1.5)},
                 (0.5, 2.0), 2.0),
    "bessel_type": ({"nu": st.floats(0.75, 2.0), "k0": st.floats(0.2, 1.0)},
                    (0.1, 0.5), 0.4),
}


def _exp(omega0, gamma0):
    return ("exp_frequency", {"omega0": omega0, "gamma0": gamma0, "c": 1.0})


def _assert_pairs_agree(name, params, t0, t1, K, init):
    # z stepped as (x, v), the unit basis of the linear equation (closed
    # forms stripped), against z stepped as (sigma, sqrt(K) theta), the
    # auxiliary equation itself in (sigma, sigma', theta, F) at rtol 1e-12.
    # k is the small remainder of terms of size sigma'^2, |Omega^2| sigma^2
    # and K/sigma^2, so its bound is set by those terms, not by |k|
    model = models.get_model(name, **params)
    t_eval = np.linspace(t0, t1, 50)
    got = ermakov.integrate_ep(stepped(model), K, init, t0, t1,
                               t_eval=t_eval)
    ref = verify._nonlinear_run(model, K, init, t0, t1, t_eval, rtol=1e-12)
    assert np.array_equal(got.t, ref.t)
    assert np.max(np.abs(got.sigma / ref.sigma - 1.0)) <= 1e-8
    assert np.max(np.abs(got.sigma_dot - ref.sigma_dot)) <= 1e-8
    assert np.max(np.abs(got.theta[1:] / ref.theta[1:] - 1.0)) <= 1e-8
    u = ref.sigma * ref.sigma
    terms = np.maximum(np.maximum(ref.sigma_dot ** 2,
                                  np.abs(models.omega2(model, ref.t)) * u),
                       K / u)
    assert np.max(np.abs(got.k - ref.k)) <= 1e-8 * np.max(terms)


@pytest.mark.parametrize("name", list(ORACLE_BOXES))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), K=st.floats(0.1, 2.0), sigma0=st.floats(0.4, 1.5),
       sigma_dot0=st.floats(-0.5, 0.5))
def test_polar_and_cartesian_pairs_agree(name, data, K, sigma0, sigma_dot0):
    # the Cartesian pair is the stepped basis of integrate_ep, the polar
    # pair the nonlinear oracle of verify
    box, (lo, hi), longest = ORACLE_BOXES[name]
    params = data.draw(st.fixed_dictionaries(box))
    t0 = data.draw(st.floats(lo, hi))
    t1 = t0 + data.draw(st.floats(0.05, longest))
    _assert_pairs_agree(name, params, t0, t1, K, (sigma0, sigma_dot0))


# regression draws (a)-(g), which once broke these bounds in theta (a), k
# (b, c, e, f, g) or sigma' (d); (e)'s window, K and start were not
# recorded and are filled in
RECORDED_DRAWS = {
    "a": (*_exp(1.5, 0.5625), 0.0, 1.0, 0.625, (0.875, 0.0)),
    "b": (*_exp(1.03125, 1.1953125), 1.25, 2.25, 1.25,
          (1.4921875, 0.3359375)),
    "c": (*_exp(1.0, 1.5), 1.0, 4.0, 2.0, (1.5, 0.0)),
    "d": ("tsquared", {"m0": 0.5, "c": 0.5}, 0.5, 1.0, 1.625,
          (0.40234375, 0.0)),
    "e": (*_exp(1.0, 1.5), 0.0, 3.0, 1.0, (1.0, 0.0)),
    "f": (*_exp(1.0, 1.25390625), 1.25, 2.25, 0.86328125,
          (1.25390625, 0.0)),
    "g": (*_exp(1.0, 1.0), 1.5, 3.5, 1.0, (1.5, 0.0)),
}


@pytest.mark.parametrize("draw", list(RECORDED_DRAWS.values()),
                         ids=list(RECORDED_DRAWS))
def test_pairs_agree_on_the_recorded_draws(draw):
    _assert_pairs_agree(*draw)


def _counted_harmonic():
    """harmonic with its unit basis undeclared, and its coeffs calls."""
    n, m = [0], models.harmonic()

    def coeffs(t):
        n[0] += 1
        return m.coeffs(t)

    return dataclasses.replace(m, coeffs=coeffs, unit_basis=None), n


def test_polar_pair_steps_a_branch_in_few_calls():
    # on the constant branch sigma stands still while z turns once per
    # period: over 40 periods the nonlinear oracle's polar pair needs a
    # fraction of the calls of the stepped basis, which turns with z
    model, n = _counted_harmonic()
    calls = []
    for run in (verify._nonlinear_run, ermakov.integrate_ep):
        n[0] = 0
        st_ = run(model, 0.25, (2.0 ** -0.5, 0.0), 0.0, 80 * math.pi,
                  np.linspace(0.0, 80 * math.pi, 201))
        assert np.max(np.abs(st_.sigma * 2.0 ** 0.5 - 1.0)) <= 1e-9
        calls.append(n[0])
    assert 4 * calls[0] < calls[1]


def test_the_basis_is_stepped_once_whatever_the_start():
    # the stepped basis starts from unit data, so its steps, and the
    # coeffs calls that make them, do not depend on sigma0, sigma0' or K
    model, n = _counted_harmonic()
    calls = []
    for init, K in (((2.0 ** -0.5, 0.0), 0.25), ((1.3, -0.4), 2.0),
                    ((0.3, 0.2), 0.0)):
        n[0] = 0
        ermakov.integrate_ep(model, K, init, 0.0, 1.0)
        calls.append(n[0])
    assert calls[0] > 0 and calls.count(calls[0]) == 3


# C1 and C2 of the accuracy that --tol buys on the stepped basis, fixed
# from a sample of 1,400 draws from these boxes at the three rtol (worst
# 9.8 in sigma, on a hyperbolic kanai_caldirola window at rtol 1e-6, and
# 4.7 in theta)
TOL_C1, TOL_C2 = 16.0, 8.0
TOL_BOXES = {
    "harmonic": ({"omega0": st.floats(0.5, 2.0)}, (-2.0, 2.0), 40.0),
    "kanai_caldirola": ({"omega0": st.floats(0.5, 2.0),
                         "gamma": st.floats(0.0, 1.5)}, (-2.0, 2.0), 40.0),
    "exp_frequency": ({"omega0": st.floats(0.5, 2.0),
                       "gamma0": st.floats(0.2, 1.5),
                       "c": st.floats(0.5, 1.5)}, (-1.0, 2.0), 10.0),
    "tsquared": ({"m0": st.floats(0.5, 2.0), "c": st.floats(0.5, 1.5)},
                 (0.5, 2.0), 10.0),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(list(TOL_BOXES)),
       rtol=st.sampled_from([1e-6, 1e-8, 1e-10]), K=st.floats(0.1, 2.0),
       sigma0=st.floats(0.4, 1.5), sigma_dot0=st.floats(-0.5, 0.5))
def test_tol_bounds_the_error_of_the_stepped_basis(data, name, rtol, K,
                                                   sigma0, sigma_dot0):
    # --tol is the stepper's local rtol; against the closed form, the
    # stepped basis keeps sigma within C1 rtol per period of the basis's
    # turn (phase error grows with the window) and theta within C2 rtol
    box, (lo, hi), longest = TOL_BOXES[name]
    model = models.get_model(name, **data.draw(st.fixed_dictionaries(box)))
    t0 = data.draw(st.floats(lo, hi))
    t1 = t0 + data.draw(st.floats(0.5, longest))
    t_eval = np.linspace(t0, t1, 201)
    ref = ermakov.integrate_ep(model, K, (sigma0, sigma_dot0), t0, t1,
                               t_eval=t_eval)
    got = ermakov.integrate_ep(stepped(model), K, (sigma0, sigma_dot0), t0,
                               t1, t_eval=t_eval, rtol=rtol)
    periods = float(model.unit_basis(t0, [t1]).phi[-1]) / (2.0 * math.pi)
    assert np.max(np.abs(got.sigma / ref.sigma - 1.0)) \
        <= TOL_C1 * rtol * (1.0 + periods)
    assert np.max(np.abs(got.theta[1:] / ref.theta[1:] - 1.0)) \
        <= TOL_C2 * rtol

# the catalog models whose m*omega is constant
MINIMAL_MODELS = [m for m in models.catalog() if m.name != "kanai_caldirola"]


@pytest.mark.parametrize("model", MINIMAL_MODELS, ids=lambda m: m.name)
def test_the_default_starts_lie_on_a_branch(model):
    # where the criterion holds, the CLI's default start is the minimal
    # branch; 1e-6 off it, or with K = 0, it is not
    t0, t1 = WINDOWS.get(model.name, (0.0, 5.0))
    sigma0, sigma_dot0 = cli._initial_conditions({}, model, t0, t1, 0.25)
    assert ermakov._on_a_branch(model, 0.25, sigma0, sigma_dot0, t0)
    assert not ermakov._on_a_branch(model, 0.25, sigma0 * (1.0 + 1e-6),
                                    sigma_dot0, t0)
    assert not ermakov._on_a_branch(model, 0.0, sigma0, sigma_dot0, t0)


# --- closed form for a declared constant Omega^2 ----------------------------

# (model, init): Omega^2 = 1.69, 0.75, -0.16 and 0 (gamma = 2 omega0)
EXACT_CASES = [
    (models.harmonic(omega0=1.3), (0.9, 0.1)),
    (models.kanai_caldirola(omega0=1.0, gamma=1.0), (0.8, -0.1)),
    (models.kanai_caldirola(omega0=0.3, gamma=1.0), (1.0, 0.05)),
    (models.kanai_caldirola(omega0=0.5, gamma=1.0), (1.0, 0.05)),
]


def _exact_rows(omega2):
    """Rows one period apart over 40 periods and on half-period multiples
    over 10 periods; 41 rows on [0, 5] where Omega^2 <= 0."""
    if omega2 <= 0.0:
        return [np.linspace(0.0, 5.0, 41)]
    period = 2.0 * math.pi / math.sqrt(omega2)
    return [period * np.arange(41), 0.5 * period * np.arange(21)]


@pytest.mark.parametrize("model,init", EXACT_CASES,
                         ids=["harmonic", "kc-oscillating", "kc-hyperbolic",
                              "kc-free"])
def test_closed_form_matches_the_stepper(model, init):
    for t_eval in _exact_rows(float(models.omega2(model, 0.0))):
        args = (0.25, init, 0.0, float(t_eval[-1]))
        got = ermakov.integrate_ep(model, *args, t_eval=t_eval)
        ref = ermakov.integrate_ep(stepped(model), *args, t_eval=t_eval,
                                   rtol=1e-12)
        assert np.array_equal(got.t, ref.t)
        assert np.max(np.abs(got.sigma / ref.sigma - 1.0)) <= 1e-9
        assert np.max(np.abs(got.sigma_dot - ref.sigma_dot)) \
            <= 1e-9 * np.max(np.abs(ref.sigma_dot))
        assert got.theta[0] == ref.theta[0] == 0.0
        assert np.max(np.abs(got.theta[1:] / ref.theta[1:] - 1.0)) <= 1e-9
        assert np.max(np.abs(got.k - ref.k)) <= 1e-9 * np.max(np.abs(ref.k))
        assert np.all(got.F == 0.0)
        assert np.all(np.diff(got.theta) > 0.0)


def _kanai_caldirola_with(omega2):
    """kanai_caldirola whose Omega^2 = omega0^2 - gamma^2/4 is omega2."""
    omega0 = math.sqrt(max(omega2, 0.0) + 1.0)
    return models.kanai_caldirola(
        omega0=omega0, gamma=2.0 * math.sqrt(omega0 * omega0 - omega2))


@settings(max_examples=60, deadline=None)
@given(omega2=st.one_of(st.just(0.0), st.floats(-1.0, 25.0)),
       sigma0=st.floats(0.2, 5.0), sigma_dot0=st.floats(-2.0, 2.0),
       K=st.floats(0.01, 4.0), t0=st.floats(-5.0, 5.0),
       span=st.floats(0.0, 3.0))
def test_closed_form_keeps_its_invariants(omega2, sigma0, sigma_dot0, K, t0,
                                          span):
    # the Wronskian x v' - x' v of every row is sqrt(K), theta never
    # decreases and, for Omega^2 > 0, k keeps its initial value
    model = _kanai_caldirola_with(omega2)
    t_eval = np.linspace(t0, t0 + span, 30)
    x, x_dot, v, v_dot, _, F = ermakov._propagate(
        K, sigma0, sigma_dot0, model.unit_basis(t0, t_eval))
    root_k = math.sqrt(K)
    assert np.max(np.abs(x * v_dot - x_dot * v - root_k)) <= 1e-12 * root_k
    assert np.all(F == 0.0)
    st_ = ermakov.integrate_ep(model, K, (sigma0, sigma_dot0), t0, t0 + span,
                               t_eval=t_eval)
    assert np.array_equal(st_.t, t_eval)
    assert np.all(np.diff(st_.theta) >= 0.0)
    w2 = float(models.omega2(model, t0))
    if w2 > 0.0:
        k0 = ermakov.conserved_k(sigma0, sigma_dot0, w2, K)
        assert np.max(np.abs(st_.k - k0)) <= 1e-10 * abs(k0)


def test_closed_form_checks_its_times():
    # the same checks as the stepper's, and a half period the float times
    # at |t| ~ 1e6 cannot resolve (1e-14 * 1e6 = 1e-8 > pi / 1e9)
    m = models.harmonic()
    with pytest.raises(ParameterError):
        ermakov.integrate_ep(m, 0.25, (1.0, 0.0), 0.0, 1.0, t_eval=[0.0, 2.0])
    with pytest.raises(ParameterError):
        ermakov.integrate_ep(m, 0.25, (1.0, 0.0), 0.0, 1.0,
                             t_eval=[0.5, 0.25])
    with pytest.raises(ParameterError):
        ermakov.integrate_ep(m, 0.25, (1.0, 0.0), 1.0, 0.0)
    states = ermakov.integrate_ep(m, 0.25, (1.0, 0.0), 0.0, 1.0,
                                  t_eval=[0.0, 1.0 + 5e-13])
    assert states.sigma[1] == ermakov.integrate_ep(
        m, 0.25, (1.0, 0.0), 0.0, 1.0, t_eval=[0.0, 1.0]).sigma[1]
    fast = models.harmonic(omega0=1e9)
    ermakov.integrate_ep(fast, 0.25, (1.0, 0.0), 0.0, 1.0,
                         t_eval=[0.0, 0.5, 1.0])
    with pytest.raises(StepSizeUnderflow, match=r"^harmonic: no usable "
                                                r"first step at t=1000000\.0"):
        ermakov.integrate_ep(fast, 0.25, (1.0, 0.0), 1e6, 1e6 + 1.0)


# --- closed form where m*omega is constant ----------------------------------

# (model, t0, t1); exp_frequency at gamma0 = 3 turns z under half a period
PRODUCT_CASES = [
    (models.exp_frequency(), -1.0, 3.0),
    (models.exp_frequency(omega0=1.3, gamma0=3.0), 0.5, 2.0),
    (models.tsquared(), 0.3, 2.0),
    (models.tsquared(m0=0.7, c=1.3), 1.0, 4.0),
]


@pytest.mark.parametrize("model,t0,t1", PRODUCT_CASES,
                         ids=["exp", "exp-overdamped", "tsq", "tsq-slow"])
def test_product_basis_solves_the_linear_equation(model, t0, t1):
    # unit data at t0, Wronskian C S' - C' S = 1, the derivative columns
    # against central differences, C'' = -Omega^2 C, and the balance
    # integrals against adaptive quadrature
    ts = np.linspace(t0, t1, 41)
    b = model.unit_basis(t0, ts)
    assert (b.c[0], b.c_dot[0], b.s[0], b.s_dot[0], b.phi[0]) \
        == (1.0, 0.0, 0.0, 1.0, 0.0)
    assert (b.i_cc[0], b.i_cs[0], b.i_ss[0]) == (0.0, 0.0, 0.0)
    assert np.max(np.abs(b.c * b.s_dot - b.c_dot * b.s - 1.0)) <= 1e-13
    assert b.rate == float(model.omega(t0))
    assert np.all(np.diff(b.phi) > 0.0)
    h = 1e-6
    inner = ts[1:-1]
    hi, lo = model.unit_basis(t0, inner + h), model.unit_basis(t0, inner - h)
    for value, rate in (("c", "c_dot"), ("s", "s_dot")):
        central = (getattr(hi, value) - getattr(lo, value)) / (2.0 * h)
        assert np.max(np.abs(central - getattr(b, rate)[1:-1])) <= 1e-7
    w2 = models.omega2(model, inner)
    for value, rate in (("c", "c_dot"), ("s", "s_dot")):
        second = (getattr(hi, rate) - getattr(lo, rate)) / (2.0 * h)
        assert np.max(np.abs(second + w2 * getattr(b, value)[1:-1])) \
            <= 1e-7 * np.max(np.abs(w2))

    def integrand(t, pick):
        row = model.unit_basis(t0, np.array([t]))
        return float(models.omega2_dot(model, t) * pick(row)[0])

    for name, pick in (("i_cc", lambda r: r.c * r.c),
                       ("i_cs", lambda r: r.c * r.s),
                       ("i_ss", lambda r: r.s * r.s)):
        ref, _ = quad(integrand, t0, t1, args=(pick,), epsabs=1e-13,
                      epsrel=1e-13, limit=200)
        assert abs(getattr(b, name)[-1] - ref) <= 1e-11 * max(1.0, abs(ref))


@pytest.mark.parametrize("model,t0,t1", [
    (models.exp_frequency(omega0=8.0, gamma0=0.5), 0.0, 4.0),
    (models.tsquared(m0=0.05), 0.3, 2.0)], ids=["exp", "tsq"])
def test_closed_form_theta_ignores_the_row_spacing(model, t0, t1):
    # the turn comes from phi, so two rows more than two turns apart give
    # the theta of a dense grid's last row, bit for bit
    dense = ermakov.integrate_ep(model, 2.0, (1.3, -0.4), t0, t1,
                                 t_eval=np.linspace(t0, t1, 400))
    sparse = ermakov.integrate_ep(model, 2.0, (1.3, -0.4), t0, t1,
                                  t_eval=[t0, t1])
    assert math.sqrt(2.0) * dense.theta[-1] > 4.0 * math.pi
    assert sparse.theta[-1] == dense.theta[-1]


# catalog parameter boxes, start windows t0 in [lo, hi] and longest span
PRODUCT_BOXES = {
    "exp_frequency": ({"omega0": st.floats(0.5, 2.0),
                       "gamma0": st.floats(0.2, 1.5),
                       "c": st.floats(0.5, 1.5)}, (-1.0, 2.0), 3.0),
    "tsquared": ({"m0": st.floats(0.5, 2.0), "c": st.floats(0.5, 1.5)},
                 (0.5, 2.0), 2.0),
}


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PRODUCT_BOXES)),
       minimal=st.booleans(), K=st.floats(0.1, 2.0),
       sigma0=st.floats(0.4, 1.5), sigma_dot0=st.floats(-0.5, 0.5))
def test_closed_form_agrees_with_the_stepper_over_parameters(
        data, name, minimal, K, sigma0, sigma_dot0):
    # the closed form against the basis stepped at rtol 1e-12 with the
    # closed form undeclared, from the minimal start (scaled to K) or off
    # it; _on_a_branch is patched so that the minimal start, too, takes the
    # closed form
    box, (lo, hi), longest = PRODUCT_BOXES[name]
    model = models.get_model(name, **data.draw(st.fixed_dictionaries(box)))
    t0 = data.draw(st.floats(lo, hi))
    t1 = t0 + data.draw(st.floats(0.05, longest))
    if minimal:
        c = minimum.minimum_model(model).c
        sigma0, sigma_dot0 = ((4.0 * K) ** 0.25 * float(v)
                              for v in minimum.minimal_amplitude(model, c, t0))
    t_eval = np.linspace(t0, t1, 30)
    with mock.patch.object(ermakov, "_on_a_branch", lambda *args: False):
        got = ermakov.integrate_ep(model, K, (sigma0, sigma_dot0), t0, t1,
                                   t_eval=t_eval)
        ref = ermakov.integrate_ep(stepped(model), K, (sigma0, sigma_dot0),
                                   t0, t1, t_eval=t_eval, rtol=1e-12)
    assert np.array_equal(got.t, ref.t)
    assert np.max(np.abs(got.sigma / ref.sigma - 1.0)) <= 1e-8
    assert np.max(np.abs(got.sigma_dot - ref.sigma_dot)) \
        <= 1e-8 * max(1.0, np.max(np.abs(ref.sigma_dot)))
    assert got.theta[0] == ref.theta[0] == 0.0
    assert np.max(np.abs(got.theta[1:] / ref.theta[1:] - 1.0)) <= 1e-8
    scale = np.max(np.abs(ref.k))
    assert np.max(np.abs(got.k - ref.k)) <= 1e-8 * scale
    assert np.max(np.abs(got.F - ref.F)) <= 1e-8 * scale


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PRODUCT_BOXES)),
       K=_powers_of_ten(-300, 300), sigma0=_powers_of_ten(-7, 300),
       sigma_dot0=st.floats(-1e300, 1e300), span=_powers_of_ten(-300, 300))
def test_the_exact_route_fails_typed_at_extreme_values(data, name, K, sigma0,
                                                        sigma_dot0, span):
    # the basis and the route through it either give finite rows or raise
    # a TdoError: no OverflowError, ZeroDivisionError or RuntimeWarning
    if name == "exp_frequency":
        params = {"omega0": data.draw(_powers_of_ten(-300, 300)),
                  "gamma0": data.draw(_powers_of_ten(-300, 300)),
                  "c": data.draw(_powers_of_ten(-150, 150))}
        t0 = data.draw(st.floats(-1e300, 1e300))
    else:
        params = {"m0": data.draw(_powers_of_ten(-300, 300)),
                  "c": data.draw(_powers_of_ten(-150, 150)), "t_min": 1e-300}
        t0 = data.draw(_powers_of_ten(-300, 300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = models.get_model(name, **params)
            basis = model.unit_basis(t0, np.array([t0, t0 + span]))
            states = ermakov.integrate_ep(model, K, (sigma0, sigma_dot0), t0,
                                          t0 + span, t_eval=[t0, t0 + span])
        except TdoError:
            return
    assert len(basis) == 9
    assert all(np.isfinite(column).all() for column in vars(states).values())


def test_tsquared_fails_typed_where_t_squared_underflows():
    # below t ~ 1e-162 the float t * t is 0, which coeffs once divided by
    for t0 in (1e-170, 1e-161):
        with pytest.raises(NonFiniteResult,
                           match=r"^tsquared: k is first not finite"):
            ermakov.integrate_ep(models.tsquared(t_min=1e-200), 0.25,
                                 (1.0, 0.0), t0, 10.0 * t0)


def test_sigma_floor_trips():
    m = models.harmonic()
    with pytest.raises(SingularityApproached):
        ermakov.integrate_ep(m, 0.25, (1e-9, 0.0), 0.0, 1.0)


def test_negative_K_rejected():
    m = models.harmonic()
    with pytest.raises(ParameterError):
        ermakov.integrate_ep(m, -0.25, (1.0, 0.0), 0.0, 1.0)


def test_conserved_k_on_constant_omega():
    m = models.harmonic()
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    states = ermakov.integrate_ep(m, 0.25, (float(s0), float(sd0)),
                                  0.0, 20.0 * math.pi,
                                  t_eval=np.linspace(0.0, 20.0 * math.pi, 240))
    drift = np.max(np.abs(states.k - states.k[0]))
    assert drift < 1e-8
    assert np.all(states.F == 0.0)


def test_generalized_balance_with_F():
    m = models.exp_frequency()
    states = ermakov.integrate_ep(m, 0.25, (1.0, 0.3), 0.0, 2.0)
    drift = np.max(np.abs(states.k - states.k[0]))
    assert drift < 1e-7
    assert states.F[-1] != 0.0  # the functional really accumulates


def test_general_K_first_integral():
    # K != 1/4 path: sigma'^2 + Omega^2 sigma^2 + K/sigma^2 stays constant
    m = models.harmonic()
    K = 1.7
    states = ermakov.integrate_ep(m, K, (1.1, 0.2), 0.0, 10.0)
    vals = states.sigma_dot ** 2 + states.sigma ** 2 + K / states.sigma ** 2
    assert np.max(np.abs(vals - vals[0])) < 1e-8


# --- phases ------------------------------------------------------------------

def test_phase_constant_branch():
    # theta' = 1/sigma^2 = 2 omega0 on the constant branch, where sigma =
    # K^(1/4)/sqrt(omega0) = 1/2 at omega0 = 2
    states = ermakov.integrate_ep(models.harmonic(omega0=2.0), 0.25,
                                  (0.5, 0.0), 0.0, 20.0)
    assert states.theta[-1] == pytest.approx(2.0 * 2.0 * 20.0, abs=1e-9)


def test_phase_oscillating_matches_quadrature():
    # independent oracle: adaptive quadrature of 1/sigma^2
    kconst, c1 = 2.0, 0.3
    ref, _ = quad(lambda t: 1.0 / float(
        ermakov.sigma_oscillating(1.0, kconst, c1, t)[0]) ** 2,
        0.0, 20.0, epsabs=1e-12, epsrel=1e-12, limit=400)
    th = ermakov.phase_oscillating(1.0, kconst, c1, 0.0, 20.0)
    assert th == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("undeclared", [False, True])
def test_integrated_phase_matches_the_closed_form(undeclared):
    # the oscillating branch over three periods, at every row, on the
    # declared basis or the stepped one
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    model = models.harmonic()
    st = ermakov.integrate_ep(stepped(model) if undeclared else model, 0.25,
                              (float(s0), float(sd0)), 0.0, 20.0,
                              t_eval=np.linspace(0.0, 20.0, 41))
    ref = [ermakov.phase_oscillating(1.0, 2.0, 0.0, 0.0, float(t))
           for t in st.t]
    assert np.max(np.abs(st.theta - ref)) <= 1e-9


def test_phase_oscillating_is_nondecreasing_across_poles():
    # the raw arctan has poles roughly every pi; the continued branch must
    # climb monotonically through all of them
    kconst = 2.0
    ts = np.linspace(0.0, 20.0, 400)
    vals = [ermakov.phase_oscillating(1.0, kconst, 0.0, 0.0, float(t))
            for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 2.0 * math.pi  # passed several branches


def test_phase_hyperbolic_matches_quadrature():
    L, c1, c2 = 0.4, 0.8, -0.1
    ref, _ = quad(lambda t: 1.0 / float(
        ermakov.sigma_hyperbolic(L, c1, c2, t)[0]) ** 2,
        0.0, 3.0, epsabs=1e-13, epsrel=1e-13)
    th = ermakov.phase_hyperbolic(L, c1, c2, 0.0, 3.0)
    assert th == pytest.approx(ref, abs=1e-10)


def test_phase_exp_frequency_value():
    # quadrature oracle of 2*integral(omega): 2*(1 - e^-1)
    th = models.exp_frequency_phase(1.0, 1.0, 0.0, 1.0)
    assert th == pytest.approx(1.2642411176571153, abs=1e-12)
    ref, _ = quad(lambda t: 2.0 * math.exp(-t), 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert th == pytest.approx(ref, abs=1e-10)


def test_phase_tsquared_value():
    th = models.tsquared_phase(1.0, 1.0, 1.0, 2.0)
    assert th == pytest.approx(0.5, abs=1e-14)
    ref, _ = quad(lambda t: 2.0 * 0.5 / t ** 2, 1.0, 2.0,
                  epsabs=1e-13, epsrel=1e-13)
    assert th == pytest.approx(ref, abs=1e-12)


def test_phase_empty_interval_is_zero():
    s10 = series.build_series(1.0, 2.0, 1.0, 10)
    for phase in (partial(ermakov.phase_oscillating, 1.0, 2.0, 0.0),
                  partial(ermakov.phase_hyperbolic, 0.4, 0.0, 0.0),
                  partial(models.exp_frequency_phase, 1.0, 1.0),
                  partial(models.tsquared_phase, 1.0, 1.0),
                  partial(series.theta_series, s10)):
        assert phase(1.0, 1.0) == 0.0


def test_superposition_matches_integration_on_damped_model():
    # the damped model has constant Omega^2 = 0.75 > 0, so its amplitude is
    # the oscillating branch at the effective frequency even though the
    # mass grows; the branch fitted to the initial data must agree with the
    # unit-basis route
    m = models.kanai_caldirola(omega0=1.0, gamma=1.0)
    Om = math.sqrt(0.75)
    kconst, c1 = ermakov.fit_oscillating(Om, 0.8, -0.1, 0.0)
    states = ermakov.integrate_ep(m, 0.25, (0.8, -0.1), 0.0, 10.0,
                                  t_eval=np.linspace(0.0, 10.0, 101))
    ref = ermakov.sigma_oscillating(Om, kconst, c1, states.t)[0]
    assert np.all(np.abs(states.sigma - ref) / ref < 1e-6)


# --- cross-check against an independent integrator ---------------------------

def test_integration_agrees_with_scipy():
    m = models.exp_frequency()

    def rhs(t, y):
        w2 = models.omega2(m, t)
        return [y[1], -w2 * y[0] + 0.25 / y[0] ** 3]

    states = ermakov.integrate_ep(m, 0.25, (1.0, 0.3), 0.0, 2.0,
                                  t_eval=np.linspace(0.0, 2.0, 21))
    ref = solve_ivp(rhs, (0.0, 2.0), [1.0, 0.3], rtol=1e-12, atol=1e-14,
                    t_eval=states.t)
    assert np.all(np.abs(states.sigma - ref.y[0]) < 1e-8)
