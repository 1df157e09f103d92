"""Minimum-uncertainty criterion tests.

The minimal branch sigma = c*sqrt(m) is validated through the mass-form
residual 2 m m'' - m'^2 + 4 Omega^2 m^2 = 1/c^4, a pure consequence of
m*omega being constant; phases are checked against their closed forms.
"""

import dataclasses
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from tdo import cli, ermakov, minimum, models, quantum, verify
from tdo.errors import (BudgetExceeded, CriterionViolated, DomainError,
                        NonFiniteResult)

# the minimal catalog models with the windows the verify suite uses
MINIMAL = [
    (models.harmonic(), (0.0, 2.0)),
    (models.exp_frequency(), (0.0, 2.0)),
    (models.tsquared(), (1.0, 3.0)),
    (models.bessel_type(), (0.1, 0.8)),
]


def row(mm, t, t0):
    """The minimal-branch state at t with its phase from t0: the last row
    of the trajectory on the grid [t0, t]."""
    traj = minimum.sigma_minimum_trajectory(mm, [t0, t])
    return ermakov.ErmakovState(**{name: column[-1]
                                   for name, column in vars(traj).items()})


def test_check_criterion_exp_frequency():
    rep = minimum.check_criterion(models.exp_frequency(omega0=1.0, gamma0=1.0,
                                                       c=2.0 ** -0.5))
    assert rep.is_minimum
    assert rep.c == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_check_criterion_rejects_damped_model():
    rep = minimum.check_criterion(models.kanai_caldirola(omega0=1.0, gamma=1.0))
    assert not rep.is_minimum
    assert rep.max_violation > 0.1


def test_check_criterion_harmonic():
    rep = minimum.check_criterion(models.harmonic(m0=1.0, omega0=1.0))
    assert rep.is_minimum
    assert rep.c == pytest.approx(2.0 ** -0.5, rel=1e-14)


def test_check_criterion_empty_window():
    with pytest.raises(DomainError):
        minimum.check_criterion(models.harmonic(), t0=1.0, t1=1.0)
    with pytest.raises(DomainError):
        minimum.check_criterion(models.harmonic(), tol=-1.0)


def test_minimum_model_raises_for_damped():
    with pytest.raises(CriterionViolated):
        minimum.minimum_model(models.kanai_caldirola())


def test_sigma_minimum_harmonic():
    mm = minimum.minimum_model(models.harmonic(omega0=1.0))
    s = row(mm, 1.4, 0.0)
    assert s.sigma == pytest.approx(2.0 ** -0.5, rel=1e-14)
    assert s.sigma_dot == 0.0


def test_sigma_minimum_exp_frequency_mass_residual():
    mm = minimum.minimum_model(models.exp_frequency())
    res = minimum.mass_constraint_residual(mm, np.linspace(0.0, 2.0, 80))
    assert np.max(np.abs(res)) < 1e-8


def test_sigma_minimum_tsquared_sigma_and_phase():
    # sigma = c*sqrt(m0)*t; theta between limits is 1/(m0 c^2 t0) - 1/(m0 c^2 t)
    mm = minimum.minimum_model(models.tsquared(m0=1.0, c=1.0),
                               t0=0.5, t1=3.0)
    for t in (0.5, 1.0, 2.0):
        s = row(mm, t, 1.0)
        assert s.sigma == pytest.approx(t, rel=1e-12)
        assert s.theta == pytest.approx(1.0 - 1.0 / t, abs=1e-10)


def test_minimal_branch_solves_auxiliary_equation():
    # cross-route: integrate from the minimal initial data and compare
    m = models.exp_frequency()
    mm = minimum.minimum_model(m)
    m0 = float(m.m(0.0))
    init = (mm.c * math.sqrt(m0),
            0.5 * mm.c * float(m.m_dot(0.0)) / math.sqrt(m0))
    states = ermakov.integrate_ep(m, 0.25, init, 0.0, 2.0,
                                  t_eval=np.linspace(0.0, 2.0, 41))
    for t, sigma, theta in zip(states.t, states.sigma, states.theta):
        ref = row(mm, t, 0.0)
        assert sigma == pytest.approx(ref.sigma, rel=1e-9)
        assert theta == pytest.approx(ref.theta, abs=1e-8)


def test_minimum_eom_residual_closed_forms():
    me = models.exp_frequency(omega0=1.0, gamma0=1.0)
    mme = minimum.minimum_model(me)
    q, dq, d2q = models.exp_frequency_solution(c1=0.7, c2=-0.4)
    for t in np.linspace(0.0, 2.0, 21):
        assert abs(minimum.minimum_eom_residual(mme, q, dq, d2q, t)) < 1e-9

    mt = models.tsquared(m0=1.0, c=2.0 ** -0.5)
    mmt = minimum.minimum_model(mt, t0=0.4, t1=3.0)
    q, dq, d2q = models.tsquared_solution(m0=1.0, c=2.0 ** -0.5, c1=0.3, c2=0.9)
    for t in (0.5, 1.0, 2.0):
        assert abs(minimum.minimum_eom_residual(mmt, q, dq, d2q, t)) < 1e-9


def test_minimum_eom_residual_zero_trajectory():
    mm = minimum.minimum_model(models.exp_frequency())
    z = lambda t: 0.0
    assert minimum.minimum_eom_residual(mm, z, z, z, 1.0) == 0.0


def test_minimum_eom_matches_base_eom_under_criterion():
    # with m*omega constant, M = -omega'/omega, so both residuals coincide
    m = models.exp_frequency()
    mm = minimum.minimum_model(m)
    q, dq, d2q = models.exp_frequency_solution(c1=0.2, c2=1.1)
    for t in np.linspace(0.0, 2.0, 11):
        a = models.eom_residual(m, q, dq, d2q, t)
        b = minimum.minimum_eom_residual(mm, q, dq, d2q, t)
        assert abs(a - b) < 1e-10


def test_saturation_and_identity_along_minimal_trajectories():
    for model, (lo, hi) in MINIMAL:
        mm = minimum.minimum_model(model, t0=lo, t1=hi)
        ref = quantum.default_reference(model, lo)
        s = minimum.sigma_minimum_trajectory(mm, np.linspace(lo, hi, 25))
        rep = quantum.quadratures(model, s)
        assert np.all(np.abs(rep.product - 0.5) <= 1e-10)
        pair = quantum.bogolubov(model, s, ref)
        assert np.all(np.abs(pair.mu - 1.0) <= 1e-9)
        assert np.all(np.abs(pair.nu) <= 1e-9)


def test_trajectory_columns_match_single_samples():
    # the columns equal the rows of the two-point grids [t0, t] exactly,
    # and the accumulated phase matches the direct quadrature from t0
    mm = minimum.minimum_model(models.exp_frequency())
    grid = np.linspace(0.0, 2.0, 9)
    traj = minimum.sigma_minimum_trajectory(mm, grid)
    for i, t in enumerate(grid):
        s = row(mm, t, 0.0)
        assert (s.t, s.sigma, s.sigma_dot) == (
            traj.t[i], traj.sigma[i], traj.sigma_dot[i])
        assert s.theta == pytest.approx(traj.theta[i], abs=1e-12)
        assert s.F == pytest.approx(traj.F[i], abs=1e-12)


@pytest.mark.parametrize("model,window,grid", [
    (models.tsquared(), (1.0, 2.0), [-1.0, 0.0, 1.0]),
    (models.tsquared(), (1.0, 2.0), [1.0, 2.0, 0.0]),
    (models.bessel_type(), (0.1, 0.8), [0.5, 2.0]),  # open at 2 / mu_s = 2
])
def test_trajectory_grid_outside_the_domain_raises(model, window, grid):
    # the two-point grid of its ends raises too
    mm = minimum.minimum_model(model, t0=window[0], t1=window[1])
    with pytest.raises(DomainError):
        row(mm, grid[-1], grid[0])
    with pytest.raises(DomainError):
        minimum.sigma_minimum_trajectory(mm, grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_times_raise(bad):
    mm = minimum.minimum_model(models.tsquared(), t0=1.0, t1=2.0)
    with pytest.raises(DomainError):
        row(mm, bad, 1.0)
    with pytest.raises(DomainError):
        row(mm, 1.5, bad)
    with pytest.raises(DomainError):
        minimum.sigma_minimum_trajectory(mm, [1.0, bad])


def test_rescaled_energy_is_conserved():
    m = models.exp_frequency()
    mm = minimum.minimum_model(m)
    m0 = float(m.m(0.0))
    vals = []
    for t in np.linspace(0.0, 2.0, 21):
        s = row(mm, t, 0.0)
        _, _, energy = quantum.vacuum_expectations(m, s)
        vals.append(energy * float(m.m(t)) / m0)
    assert max(abs(v / vals[0] - 1.0) for v in vals) < 1e-9


@pytest.mark.parametrize("eps", [1e-3, 1e-4])
def test_product_grows_quadratically_off_the_minimum(eps):
    m = models.harmonic()
    mm = minimum.minimum_model(m)
    base = row(mm, 0.3, 0.0)
    pert = ermakov.ErmakovState(t=base.t, sigma=base.sigma,
                                sigma_dot=base.sigma_dot + eps,
                                theta=base.theta, k=base.k, F=base.F)
    gap = quantum.quadratures(m, pert).product - 0.5
    assert gap > 0.0
    assert gap == pytest.approx(base.sigma ** 2 * eps ** 2, rel=1e-3)


def test_report_json_shape():
    rep = minimum.check_criterion(models.harmonic())
    d = rep.to_json_dict()
    assert set(d) == {"is_minimum", "c", "max_violation", "samples"}


# ---------------------------------------------------------------------------
# theta and F by the composite Gauss-Legendre rule

def _nan_omega(model, lo=0.981, hi=0.989):
    """model whose omega is nan on (lo, hi): inside a verify grid interval,
    between two samples of the criterion check."""
    def omega(t):
        t = np.asarray(t, dtype=float)
        return np.where((t > lo) & (t < hi), np.nan, model.omega(t))
    return dataclasses.replace(model, omega=omega)


def _rippled(model, freq=1e6):
    """model whose omega carries a fast ripple and m its inverse: m*omega
    stays constant, but 2 omega needs more panels than the budget."""
    def ripple(t):
        return 1.0 + 0.5 * np.sin(freq * np.asarray(t, dtype=float))
    return dataclasses.replace(model,
                               omega=lambda t: model.omega(t) * ripple(t),
                               m=lambda t: model.m(t) / ripple(t))


@pytest.mark.parametrize("wrap,error,fragment", [
    (_nan_omega, NonFiniteResult, "not finite"),
    (_rippled, BudgetExceeded, "not converged within 200 panels"),
])
def test_integrand_faults_name_model_and_interval(wrap, error, fragment):
    mm = minimum.MinUncertaintyModel(wrap(models.exp_frequency()), 2.0 ** -0.5)
    with pytest.raises(error, match=rf"^exp_frequency: .*\[0\.97, 1\.0\]"):
        row(mm, 1.0, 0.97)
    grid = np.linspace(0.0, 2.0, 60)
    with pytest.raises(error) as info:
        minimum.sigma_minimum_trajectory(mm, grid)
    # the named interval is a grid interval, and for nan it holds the nans
    msg = str(info.value)
    assert msg.startswith("exp_frequency: ") and fragment in msg
    a, b = map(float, msg[msg.index("[") + 1:msg.index("]")].split(","))
    i = int(np.flatnonzero(grid == a)[0])
    assert grid[i + 1] == b
    if wrap is _nan_omega:
        assert a < 0.989 and b > 0.981


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("wrap,kind", [(_nan_omega, "NonFiniteResult"),
                                       (_rippled, "BudgetExceeded")])
def test_integrand_faults_exit_3_through_the_cli(monkeypatch, capsys, wrap,
                                                 kind):
    # the CLI reaches the minimal-branch phase only through verify, whose
    # minimum suite builds exp_frequency from its factory
    factory = models.exp_frequency
    monkeypatch.setattr(models, "exp_frequency", lambda: wrap(factory()))
    assert cli.main(["verify", "--suite", "minimum"]) == 3
    out = capsys.readouterr()
    err, = out.err.splitlines()
    assert out.out == "" and err.startswith(f"{kind}: exp_frequency: ")


def test_rule_is_numpys_16_point_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert np.array_equal(minimum._X, nodes)
    assert np.array_equal(minimum._W, weights)


def _close(value, ref, scale):
    """value within 1e-12 of ref, relative, with rounding on the scale of
    the closed form's terms allowed for."""
    return abs(value - ref) <= 1e-12 * abs(ref) + 1e-14 * scale


# no subnormal windows: their phase has no relative precision to compare
_WINDOW = dict(periods=st.just(0.0) | st.floats(1e-9, 1e3),
               reverse=st.booleans())


@settings(max_examples=60, deadline=None)
@given(omega0=st.floats(0.1, 10.0), t0=st.floats(-100.0, 100.0), **_WINDOW)
def test_harmonic_phase_is_linear(omega0, t0, periods, reverse):
    mm = minimum.minimum_model(models.harmonic(omega0=omega0))
    t1 = t0 + periods * 2.0 * math.pi / omega0
    a, b = (t1, t0) if reverse else (t0, t1)
    s = row(mm, b, a)
    assert _close(s.theta, 2.0 * omega0 * (b - a),
                  omega0 * max(abs(a), abs(b)))
    assert s.F == 0.0


@settings(max_examples=60, deadline=None)
@given(m0=st.floats(0.2, 5.0), c=st.floats(0.2, 2.0), t0=st.floats(0.05, 5.0),
       **_WINDOW)
def test_tsquared_phase_and_F_match_closed_forms(m0, c, t0, periods, reverse):
    model = models.tsquared(m0=m0, c=c)
    w = 0.5 / (m0 * c * c)  # omega = w / t^2
    t1 = t0 + periods * 2.0 * math.pi * t0 * t0 / w
    a, b = (t1, t0) if reverse else (t0, t1)
    mm = minimum.minimum_model(model, t0=min(a, b), t1=max(a, b) + 1.0)
    s = row(mm, b, a)
    assert _close(s.theta, 2.0 * w * (1.0 / a - 1.0 / b), 2.0 * w / min(a, b))
    # c^2 m dOmega^2/dt = -4 c^2 m0 w^2 / t^3
    F_unit = 2.0 * mm.c ** 2 * m0 * w * w
    assert _close(s.F, -F_unit * (1.0 / a ** 2 - 1.0 / b ** 2),
                  F_unit / min(a, b) ** 2)


@settings(max_examples=60, deadline=None)
@given(omega0=st.floats(1.0, 3.0), gamma0=st.floats(0.005, 0.05),
       t0=st.floats(-2.0, 2.0), **_WINDOW)
def test_exp_frequency_phase_and_F_match_closed_forms(omega0, gamma0, t0,
                                                      periods, reverse):
    # m = exp(gamma0 t)/(2 c^2 omega0) stays finite: gamma0 t1 < 350
    model = models.exp_frequency(omega0=omega0, gamma0=gamma0)
    t1 = t0 + periods * 2.0 * math.pi * math.exp(gamma0 * t0) / omega0
    a, b = (t1, t0) if reverse else (t0, t1)
    mm = minimum.minimum_model(model, t0=min(a, b), t1=max(a, b) + 1.0)
    s = row(mm, b, a)
    drop = math.exp(-gamma0 * a) - math.exp(-gamma0 * b)
    scale = math.exp(-gamma0 * min(a, b))
    assert _close(s.theta, 2.0 * omega0 / gamma0 * drop,
                  2.0 * omega0 / gamma0 * scale)
    # F = -c^2 m0 2 gamma0 omega0^2 int exp(-gamma0 t) = -omega0 (same drop)
    assert _close(s.F, -omega0 * drop, omega0 * scale)


@settings(max_examples=40, deadline=None)
@given(which=st.integers(0, 3), u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       n=st.integers(2, 40))
def test_trajectory_accumulates_the_single_interval_rule(which, u, v, n):
    # reversed windows included: v < u runs the grid backwards
    model, (lo, hi) = MINIMAL[which]
    mm = minimum.minimum_model(model, t0=lo, t1=hi)
    a, b = lo + u * (hi - lo), lo + v * (hi - lo)
    traj = minimum.sigma_minimum_trajectory(mm, np.linspace(a, b, n))
    one = row(mm, b, a)
    assert traj.theta[-1] == pytest.approx(one.theta, abs=1e-12)
    assert traj.F[-1] == pytest.approx(one.F, abs=1e-12)


@pytest.mark.parametrize("model,window", MINIMAL,
                         ids=[m.name for m, _ in MINIMAL])
def test_k_is_constant_on_the_minimal_branch(model, window):
    # k + F is conserved, so an inaccurate F shows as a drifting k
    mm = minimum.minimum_model(model, t0=window[0], t1=window[1])
    traj = minimum.sigma_minimum_trajectory(mm, np.linspace(*window, 60))
    assert np.max(np.abs(traj.k / traj.k[0] - 1.0)) <= 1e-10


def test_minimum_makes_no_quad_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quad called")
    monkeypatch.setattr(scipy.integrate, "quad", refuse)
    monkeypatch.setattr(minimum, "quad", refuse)
    report = verify.run_suite("minimum")
    assert report["pass"] and len(report["checks"]) == 10
    mm = minimum.minimum_model(models.exp_frequency())
    assert row(mm, 1.5, 0.0).theta > 0.0
    traj = minimum.sigma_minimum_trajectory(mm, np.linspace(0.0, 2.0, 9))
    assert np.all(np.diff(traj.theta) > 0.0)
