"""Quantum-layer tests: variances, the uncertainty product and the
transformation coefficients.

All routes to the product — direct formula, sqrt(varQ*varP), and the
|mu+nu||mu-nu| form — must coincide; normalization |mu|^2 - |nu|^2 = 1 is an
algebraic identity and is tested as such.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdo import ermakov, minimum, models, quantum
from tdo.errors import NonFiniteResult, ParameterError

SQ2 = 2.0 ** -0.5


def make_state(t, sigma, sigma_dot, k=0.0, F=0.0):
    return ermakov.ErmakovState(t=t, sigma=sigma, sigma_dot=sigma_dot,
                                theta=0.0, k=k, F=F)


def test_harmonic_ground_product_is_minimal():
    m = models.harmonic()
    rep = quantum.quadratures(m, make_state(0.0, SQ2, 0.0), hbar=1.0)
    assert rep.product == pytest.approx(0.5, abs=1e-15)
    assert rep.varQ == pytest.approx(0.5, rel=1e-14)
    assert rep.varP == pytest.approx(0.5, rel=1e-14)


def test_turning_point_of_oscillating_branch_saturates():
    # at sigma' = 0 and M = 0 the product is exactly hbar/2 whatever sigma
    m = models.harmonic()
    sigma = math.sqrt((2.0 - math.sqrt(3.0)) / 2.0)
    rep = quantum.quadratures(m, make_state(0.0, sigma, 0.0))
    assert rep.product == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("gamma,t", [(1.0, 0.0), (1.0, 1.2), (0.3, 2.0)])
def test_damped_model_saturates_on_drift_condition(gamma, t):
    # sigma' = M sigma / 2 forces the product to hbar/2 exactly
    m = models.kanai_caldirola(gamma=gamma)
    M = float(models.damping_coefficient(m, t))
    sigma = 0.8
    rep = quantum.quadratures(m, make_state(t, sigma, 0.5 * M * sigma))
    assert rep.product == 0.5


def test_product_routes_agree_on_damped_trajectory():
    m = models.kanai_caldirola(omega0=1.0, gamma=1.0)
    states = ermakov.integrate_ep(m, 0.25, (0.9, 0.1), 0.0, 3.0,
                                  t_eval=np.linspace(0.0, 3.0, 100))
    ref = quantum.default_reference(m, 0.0)
    rep = quantum.quadratures(m, states)
    pair = quantum.bogolubov(m, states, ref)
    assert quantum.uncertainty_via_bogolubov(pair) == pytest.approx(
        rep.product, rel=1e-10)
    assert np.sqrt(rep.varQ * rep.varP) == pytest.approx(
        rep.product, rel=1e-10)


def test_normalization_and_balance_moduli_on_damped_model():
    m = models.kanai_caldirola(omega0=1.0, gamma=1.0)
    states = ermakov.integrate_ep(m, 0.25, (0.9, 0.1), 0.0, 3.0,
                                  t_eval=np.linspace(0.0, 3.0, 60))
    ref = quantum.default_reference(m, 0.0)
    pair = quantum.bogolubov(m, states, ref)
    assert np.abs(pair.mu) ** 2 - np.abs(pair.nu) ** 2 == pytest.approx(
        np.ones(60), abs=1e-10)
    mu2, nu2 = quantum.moduli_from_balance(m, states, ref)
    assert mu2 == pytest.approx(np.abs(pair.mu) ** 2, abs=1e-8)
    assert nu2 == pytest.approx(np.abs(pair.nu) ** 2, abs=1e-8)


def test_self_reference_identity():
    m = models.harmonic()
    pair = quantum.bogolubov(m, make_state(0.0, SQ2, 0.0), (1.0, 1.0))
    assert pair.mu == pytest.approx(1.0, abs=1e-14)
    assert abs(pair.nu) < 1e-14


def test_minimum_model_gives_identity_transformation():
    m = models.exp_frequency()
    mm = minimum.minimum_model(m)
    ref = quantum.default_reference(m, 0.0)
    traj = minimum.sigma_minimum_trajectory(mm, np.linspace(0.0, 2.0, 21))
    for s in _samples(traj):
        pair = quantum.bogolubov(m, s, ref)
        assert abs(pair.mu - 1.0) < 1e-12
        assert abs(pair.nu) < 1e-12


def test_uncertainty_via_bogolubov_identity():
    pair = quantum.BogolubovPair(mu=1.0 + 0j, nu=0.0 + 0j, reference=(1.0, 1.0))
    assert quantum.uncertainty_via_bogolubov(pair, hbar=1.0) == 0.5


def test_uncertainty_via_bogolubov_squeeze():
    # real squeeze parameters: |mu+nu||mu-nu| = e^r e^-r = 1
    r = 0.5
    pair = quantum.BogolubovPair(mu=complex(math.cosh(r)),
                                 nu=complex(math.sinh(r)),
                                 reference=(1.0, 1.0))
    assert quantum.uncertainty_via_bogolubov(pair, hbar=1.0) == pytest.approx(
        0.5, rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(sigma=st.floats(0.05, 5.0), sigma_dot=st.floats(-3.0, 3.0),
       gamma=st.floats(-1.5, 1.5))
def test_bound_and_eta_modulus(sigma, sigma_dot, gamma):
    m = models.kanai_caldirola(gamma=gamma) if gamma != 0.0 else models.harmonic()
    rep = quantum.quadratures(m, make_state(0.5, sigma, sigma_dot))
    assert rep.product >= 0.5 - 1e-12
    assert abs(rep.eta) == pytest.approx(abs(rep.xi), rel=1e-12)
    assert math.sqrt(rep.varQ * rep.varP) == pytest.approx(rep.product,
                                                           rel=1e-11)


@settings(max_examples=40, deadline=None)
@given(sigma=st.floats(0.1, 3.0), sigma_dot=st.floats(-2.0, 2.0))
def test_mu_nu_construction_identities(sigma, sigma_dot):
    m = models.kanai_caldirola()
    s = make_state(0.7, sigma, sigma_dot)
    ref = (0.9, 1.3)
    rep = quantum.quadratures(m, s)
    pair = quantum.bogolubov(m, s, ref)
    mass = float(m.m(s.t))
    m0, w0 = ref
    assert cmath.isclose(pair.mu + pair.nu,
                         math.sqrt(2.0 * mass / (m0 * w0)) * rep.eta,
                         rel_tol=1e-12, abs_tol=1e-12)
    assert cmath.isclose(pair.mu - pair.nu,
                         math.sqrt(2.0 * m0 * w0 / mass) * sigma,
                         rel_tol=1e-12, abs_tol=1e-12)


def test_vacuum_expectations_minimum_model():
    # c = 1: <Q^2> = 1, <P^2> = 1/4, <H> = omega/2 for all times
    m = models.exp_frequency(omega0=1.0, gamma0=1.0, c=1.0)
    mm = minimum.minimum_model(m)
    assert mm.c == pytest.approx(1.0, rel=1e-12)
    traj = minimum.sigma_minimum_trajectory(mm, np.linspace(0.0, 2.0, 9))
    for s in _samples(traj):
        q2, p2, energy = quantum.vacuum_expectations(m, s, hbar=1.0)
        assert q2 == pytest.approx(1.0, rel=1e-12)
        assert p2 == pytest.approx(0.25, rel=1e-12)
        assert energy == pytest.approx(0.5 * float(m.omega(s.t)), rel=1e-9)


def test_vacuum_energy_harmonic_ground():
    m = models.harmonic()
    _, _, energy = quantum.vacuum_expectations(m, make_state(0.0, SQ2, 0.0))
    assert energy == pytest.approx(0.5, rel=1e-14)


def test_units_errors():
    m = models.harmonic()
    s = make_state(0.0, SQ2, 0.0)
    with pytest.raises(ParameterError, match="must be positive"):
        quantum.quadratures(m, s, hbar=0.0)
    with pytest.raises(ParameterError, match="must be positive"):
        quantum.bogolubov(m, s, (0.0, 1.0))
    with pytest.raises(ParameterError, match="must be positive"):
        quantum.uncertainty_via_bogolubov(
            quantum.BogolubovPair(1.0, 0.0, (1.0, 1.0)), hbar=-1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_columns_that_leave_the_float_range_raise():
    # hbar/m overflows at m0 = 1e-320 and sqrt(m/(2 m0 w0)) at m = 1e300
    # against a reference product 1e-300; a subnormal reference product is
    # refused before any column is formed
    s = make_state(np.array([0.0, 0.5]), np.array([SQ2, 0.8]),
                   np.array([0.0, 0.1]))
    first = r"^harmonic: {} is first not finite at t=0\.0$"
    with pytest.raises(NonFiniteResult, match=first.format("varQ")):
        quantum.quadratures(models.harmonic(m0=1e-320), s)
    with pytest.raises(NonFiniteResult, match=first.format("mu")):
        quantum.bogolubov(models.harmonic(m0=1e300), s, (1e-300, 1.0))
    for call in (quantum.bogolubov, quantum.moduli_from_balance):
        with pytest.raises(ParameterError,
                           match=r"^reference m0 omega0 = 1e-320 leaves"):
            call(models.harmonic(), s, (1.0, 1e-320))


def test_oscillating_saturation_gap_report():
    # worst-case excess is (hbar/2)(k/omega0 - 1); verified against a scan
    gaps = quantum.oscillating_saturation_gap(1.0, [1.0, 2.0, 3.0])
    assert gaps[1.0] == pytest.approx(0.0, abs=1e-15)
    assert gaps[2.0] == pytest.approx(0.5, rel=1e-13)
    m = models.harmonic()
    worst = 0.0
    for t in np.linspace(0.0, math.pi, 400):
        s, sd = ermakov.sigma_oscillating(1.0, 2.0, 0.0, t)
        rep = quantum.quadratures(m, make_state(t, float(s), float(sd)))
        worst = max(worst, rep.product - 0.5)
    assert worst == pytest.approx(gaps[2.0], rel=1e-4)


# --- one code path for a sample and a column ---------------------------------

CATALOG_WINDOWS = {"harmonic": (0.0, 5.0), "kanai_caldirola": (0.0, 3.0),
                   "exp_frequency": (0.0, 2.0), "tsquared": (1.0, 3.0),
                   "bessel_type": (0.1, 0.8)}


def _samples(states):
    """The per-sample scalar states of a trajectory of columns."""
    columns = [np.asarray(v).tolist() for v in vars(states).values()]
    return [ermakov.ErmakovState(*row) for row in zip(*columns)]


@pytest.mark.parametrize("name", sorted(CATALOG_WINDOWS))
def test_scalar_and_column_paths_agree(name, monkeypatch):
    model = models.get_model(name)
    t0, t1 = CATALOG_WINDOWS[name]
    solved = []
    # a basis stepped (bessel_type) or declared in closed form: both give
    # the columns (x, x', v, v', theta, F) of z = x + iv
    propagate = ermakov._propagate

    def spy(*args):
        solved.append(propagate(*args))
        return solved[-1]

    monkeypatch.setattr(ermakov, "_propagate", spy)
    traj = ermakov.integrate_ep(model, 0.25, (0.9, 0.1), t0, t1,
                                t_eval=np.linspace(t0, t1, 50))
    (x, x_dot, v, v_dot, theta, F), = solved
    sigma = np.hypot(x, v)
    assert np.array_equal(traj.sigma, sigma)
    assert np.array_equal(traj.sigma_dot, (x * x_dot + v * v_dot) / sigma)
    assert np.array_equal(traj.theta, theta)
    assert np.array_equal(traj.F, F)

    hbar = 0.7
    ref = quantum.default_reference(model, t0)
    rep = quantum.quadratures(model, traj, hbar)
    pair = quantum.bogolubov(model, traj, ref)
    via = quantum.uncertainty_via_bogolubov(pair, hbar)
    mu2, nu2 = quantum.moduli_from_balance(model, traj, ref)
    vac = quantum.vacuum_expectations(model, traj, hbar)
    for i, s in enumerate(_samples(traj)):
        assert ermakov.conserved_k(s.sigma, s.sigma_dot,
                                   float(models.omega2(model, s.t))) - s.F \
            == traj.k[i]
        r = quantum.quadratures(model, s, hbar)
        for field in ("varQ", "varP", "xi", "eta", "product"):
            assert getattr(r, field) == getattr(rep, field)[i]
        p = quantum.bogolubov(model, s, ref)
        assert (p.mu, p.nu) == (pair.mu[i], pair.nu[i])
        assert quantum.uncertainty_via_bogolubov(p, hbar) == via[i]
        assert quantum.moduli_from_balance(model, s, ref) == (mu2[i], nu2[i])
        assert quantum.vacuum_expectations(model, s, hbar) == tuple(
            v[i] for v in vac)


# --- invariants as properties over catalog parameter boxes -------------------

PARAMETER_BOXES = {
    "harmonic": {"omega0": st.floats(0.3, 3.0)},
    "kanai_caldirola": {"omega0": st.floats(0.5, 2.0),
                        "gamma": st.floats(-0.8, 0.8)},
    "exp_frequency": {"omega0": st.floats(0.5, 2.0),
                      "gamma0": st.floats(0.2, 1.5)},
    "tsquared": {"m0": st.floats(0.5, 2.0), "c": st.floats(0.5, 1.5)},
    "bessel_type": {"k0": st.floats(0.3, 0.6), "nu": st.floats(0.6, 1.5)},
}

catalog_models = st.sampled_from(sorted(PARAMETER_BOXES)).flatmap(
    lambda name: st.fixed_dictionaries(PARAMETER_BOXES[name]).map(
        lambda params: models.get_model(name, **params)))


@settings(max_examples=30, deadline=None)
@given(model=catalog_models, sigma0=st.floats(0.4, 1.5),
       sigma_dot0=st.floats(-0.5, 0.5), hbar=st.floats(0.1, 3.0))
# the corner of the harmonic box where k drifts most: 8.5e-9 here
@example(model=models.harmonic(omega0=3.0), sigma0=1.5, sigma_dot0=0.0,
         hbar=1.0)
def test_invariants_along_trajectories(model, sigma0, sigma_dot0, hbar):
    # tolerances are those of `tdo verify`
    t0, t1 = CATALOG_WINDOWS[model.name]
    traj = ermakov.integrate_ep(model, 0.25, (sigma0, sigma_dot0), t0, t1,
                                t_eval=np.linspace(t0, t1, 60))
    pair = quantum.bogolubov(model, traj, quantum.default_reference(model, t0))
    norm = np.abs(pair.mu) ** 2 - np.abs(pair.nu) ** 2
    assert np.max(np.abs(norm - 1.0)) <= 1e-10
    assert np.min(quantum.quadratures(model, traj, hbar).product) \
        >= 0.5 * hbar - 1e-12
    assert np.all(np.diff(traj.theta) >= 0.0)
    drift = np.max(np.abs(traj.k - traj.k[0]))
    if model.name in ("harmonic", "kanai_caldirola"):
        assert drift <= 1e-8
    else:
        # the balance k = sigma'^2 + Omega^2 sigma^2 + K/sigma^2 - F, with F
        # stepped alongside; 5.3e-10 measured over these boxes
        assert drift / max(1.0, abs(traj.k[0])) <= 1e-8


MINIMAL_NAMES = ("bessel_type", "exp_frequency", "tsquared")
minimal_models = st.sampled_from(MINIMAL_NAMES).flatmap(
    lambda name: st.fixed_dictionaries(PARAMETER_BOXES[name]).map(
        lambda params: models.get_model(name, **params)))


@settings(max_examples=20, deadline=None)
@given(model=minimal_models)
def test_criterion_holds_on_the_minimal_branch_and_only_there(model):
    # sigma = c sqrt(m) with the criterion's c, stepped from t0, keeps
    # nu = 0 (the tolerance of `tdo verify`; 2.2e-10 measured); a start 1%
    # off the branch in sigma has nu ~ 1e-2 and a product above hbar/2
    t0, t1 = CATALOG_WINDOWS[model.name]
    report = minimum.check_criterion(model, t0=t0, t1=t1)
    assert report.is_minimum
    sigma0, sigma_dot0 = minimum.minimal_amplitude(model, report.c, t0)
    ref = quantum.default_reference(model, t0)
    grid = np.linspace(t0, t1, 40)
    on = ermakov.integrate_ep(model, 0.25, (sigma0, sigma_dot0), t0, t1,
                              t_eval=grid)
    assert np.max(np.abs(quantum.bogolubov(model, on, ref).nu)) <= 1e-9
    off = ermakov.integrate_ep(model, 0.25, (1.01 * sigma0, sigma_dot0),
                               t0, t1, t_eval=grid)
    assert abs(quantum.bogolubov(model, off, ref).nu[0]) >= 1e-3
    assert quantum.quadratures(model, off).product[0] > 0.5


@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(-0.8, 0.8).filter(lambda g: abs(g) >= 1e-3))
def test_criterion_rejects_damping(gamma):
    # m omega = m0 omega0 exp(gamma t) is constant only at gamma = 0
    assert not minimum.check_criterion(
        models.kanai_caldirola(gamma=gamma)).is_minimum


# the corner of the harmonic box: the grid points (omega0 index, sigma0
# index, sigma_dot0 index) of the 19x8x5 grid below where k drifted past
# 1e-8 while sigma itself was integrated (up to 1.58e-8 at the first), and
# the @example point above last
HARMONIC_GRID = (np.linspace(0.3, 3.0, 19), np.linspace(0.4, 1.5, 8),
                 np.linspace(-0.5, 0.5, 5))
HARMONIC_CORNER = [(13, 2, 0), (14, 2, 1), (8, 0, 0), (15, 2, 1), (14, 2, 2),
                   (13, 2, 3), (17, 7, 3), (9, 3, 3), (13, 2, 1), (18, 6, 2),
                   (17, 7, 2), (18, 7, 2)]


@pytest.mark.parametrize("index", HARMONIC_CORNER, ids=str)
def test_harmonic_k_drift_corner(index):
    omega0, sigma0, sigma_dot0 = (float(axis[i])
                                  for axis, i in zip(HARMONIC_GRID, index))
    traj = ermakov.integrate_ep(models.harmonic(omega0=omega0), 0.25,
                                (sigma0, sigma_dot0), 0.0, 5.0,
                                t_eval=np.linspace(0.0, 5.0, 60))
    assert np.max(np.abs(traj.k - traj.k[0])) <= 1e-8
