"""Minimum-uncertainty criterion m(t)*omega(t) = 1/(2 c^2) and its solutions.

When the product of mass and frequency is constant, sigma = c*sqrt(m) solves
the auxiliary equation exactly, the uncertainty product sits at hbar/2 for
all times, the transformation coefficients freeze at (mu, nu) = (1, 0), and
the phase reduces to 2*integral(omega).  The checker estimates c from the
median of m*omega over a sampling window so endpoint noise in tabulated
data cannot skew it.  A minimal-branch trajectory is one `ErmakovState` of
columns, built by the same state formula as a single sample.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import models
from .ermakov import DEFAULT_K, ErmakovState, conserved_k
from .errors import CriterionViolated, DomainError

_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
CRITERION_TOL = 1e-8  # largest relative spread of m*omega that passes


@dataclass(frozen=True)
class CriterionReport:
    is_minimum: bool
    c: float
    max_violation: float
    samples: int

    def to_json_dict(self):
        return {"is_minimum": self.is_minimum, "c": self.c,
                "max_violation": self.max_violation, "samples": self.samples}


@dataclass(frozen=True)
class MinUncertaintyModel:
    """Model wrapper certified to satisfy the constant-product criterion."""

    base: models.ModelDescriptor
    c: float


def check_criterion(model, tol=CRITERION_TOL, t0=None, t1=None, samples=201):
    """Estimate c and measure how far m*omega strays from constant.

    best c = (2 * median(m*omega))^(-1/2); the violation is the largest
    relative deviation of m*omega from its median over the window.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    lo, hi = model.domain.sampling_window()
    if t0 is not None:
        lo = t0
    if t1 is not None:
        hi = t1
    if not (hi > lo) or samples < 2:
        raise DomainError("empty sampling window")
    model.domain.require(lo)
    model.domain.require(hi)
    ts = np.linspace(lo, hi, samples)
    prod = np.asarray(model.m(ts)) * np.asarray(model.omega(ts))
    med = float(np.median(prod))
    if med <= 0.0:
        raise DomainError("m*omega must be positive on the window")
    max_violation = float(np.max(np.abs(prod - med)) / med)
    return CriterionReport(is_minimum=bool(max_violation <= tol),
                           c=(2.0 * med) ** -0.5,
                           max_violation=max_violation,
                           samples=int(samples))


def minimum_model(model, t0=None, t1=None):
    """Wrap a model after certifying the criterion; CriterionViolated otherwise."""
    report = check_criterion(model, t0=t0, t1=t1)
    if not report.is_minimum:
        raise CriterionViolated(
            f"{model.name}: m*omega varies by {report.max_violation:.3e} "
            f"(tol {CRITERION_TOL:g})")
    return MinUncertaintyModel(base=model, c=report.c)


def _theta_and_F(mmodel, t0, t):
    base, c = mmodel.base, mmodel.c
    if t == t0:
        return 0.0, 0.0
    theta, _ = quad(lambda s: 2.0 * float(base.omega(s)), t0, t, **_QUAD_OPTS)
    F, _ = quad(lambda s: float(models.omega2_dot(base, s))
                * c * c * float(base.m(s)), t0, t, **_QUAD_OPTS)
    return theta, F


def minimal_amplitude(model, c, t):
    """Minimal-branch (sigma, sigma') = (c sqrt(m), c m' / (2 sqrt(m))) at t.

    c is the constant of the model's criterion report and K = 1/4; t is a
    float or a column.
    """
    root_m = np.sqrt(np.asarray(model.m(t), dtype=float))
    m_dot = np.asarray(model.m_dot(t), dtype=float)
    return c * root_m, 0.5 * c * m_dot / root_m


def _minimal_state(mmodel, t, theta, F):
    """The minimal-branch state at t (float or column), with k."""
    base = mmodel.base
    sigma, sigma_dot = minimal_amplitude(base, mmodel.c, t)
    k = conserved_k(sigma, sigma_dot, models.omega2(base, t), DEFAULT_K) - F
    return ErmakovState(t=t, sigma=sigma, sigma_dot=sigma_dot, theta=theta,
                        k=k, F=F)


def sigma_minimum(mmodel, t, t0):
    """Exact minimal-branch sample: sigma = c sqrt(m), phase from t0."""
    mmodel.base.domain.require(t)
    mmodel.base.domain.require(t0)
    theta, F = _theta_and_F(mmodel, t0, t)
    return _minimal_state(mmodel, float(t), theta, F)


def sigma_minimum_trajectory(mmodel, t_grid):
    """Minimal-branch columns on a grid, phase accumulated from t_grid[0]."""
    t_grid = np.asarray(t_grid, dtype=float)
    mmodel.base.domain.require(t_grid)
    ts = t_grid.tolist()
    steps = [(0.0, 0.0)] + [_theta_and_F(mmodel, a, b)
                            for a, b in zip(ts, ts[1:])]
    theta, F = np.cumsum(steps, axis=0).T
    return _minimal_state(mmodel, t_grid, theta, F)


def mass_constraint_residual(mmodel, t):
    """2 m m'' - m'^2 + 4 Omega^2 m^2 - 1/c^4 (zero iff sigma = c sqrt(m) solves)."""
    base, c = mmodel.base, mmodel.c
    m = np.asarray(base.m(t), dtype=float)
    md = np.asarray(base.m_dot(t), dtype=float)
    mdd = np.asarray(base.m_ddot(t), dtype=float)
    w2 = np.asarray(models.omega2(base, t), dtype=float)
    return 2.0 * m * mdd - md * md + 4.0 * w2 * m * m - 1.0 / c ** 4


def minimum_eom_residual(mmodel, q, dq, d2q, t):
    """q'' - (omega'/omega) q' + omega^2 q of the reduced minimal dynamics."""
    base = mmodel.base
    base.domain.require(t)
    w = float(base.omega(t))
    if w == 0.0:
        raise DomainError("omega(t) must be nonzero")
    wd = float(base.omega_dot(t))
    return d2q(t) - wd / w * dq(t) + w * w * q(t)
