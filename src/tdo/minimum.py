"""Minimum-uncertainty criterion m(t)*omega(t) = 1/(2 c^2) and its solutions.

When the product of mass and frequency is constant, sigma = c*sqrt(m) solves
the auxiliary equation exactly, the uncertainty product sits at hbar/2 for
all times, the transformation coefficients freeze at (mu, nu) = (1, 0), and
the phase reduces to 2*integral(omega).  The checker estimates c from the
median of m*omega over a sampling window so endpoint noise in tabulated
data cannot skew it.  A minimal-branch trajectory is one `ErmakovState` of
columns; the state at a single time is the last row of a two-point grid.

On the branch the phase theta = 2*integral(omega) and the balance term
F = c^2*integral(m dOmega^2/dt) are integrals of the coefficients alone.
Both come from one composite 16-point Gauss-Legendre rule, evaluated for
all grid intervals (up to 128 at a time) in one array call per refinement
level.  A panel is accepted when its rule and the sum of its two halves'
agree within max(1e-13, 1e-13 |I|) for both integrands; otherwise its
halves are the next level's panels.  A non-finite integrand raises
NonFiniteResult, and an interval still open after PANEL_LIMIT panels
raises BudgetExceeded; both name the model and the interval.
"""

from dataclasses import dataclass

import numpy as np
# unused here: bench/tracing.py wraps minimum.quad by name
from scipy.integrate import quad  # noqa: F401

from . import models
from .ermakov import DEFAULT_K, ErmakovState, conserved_k
from .errors import (BudgetExceeded, CriterionViolated, DomainError,
                     NonFiniteResult)

CRITERION_TOL = 1e-8  # largest relative spread of m*omega that passes
PANEL_LIMIT = 200  # Gauss-Legendre panels per grid interval
_BLOCK = 128  # grid intervals refined together
_TOL = 1e-13  # absolute and relative agreement of a panel with its halves

# the positive half of numpy.polynomial.legendre.leggauss(16), which is
# symmetric; a table, since leggauss's eigensolver would load LAPACK (and
# its memory) into every process that imports the package
_POSITIVE = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_X = np.concatenate([-_POSITIVE[::-1, 0], _POSITIVE[:, 0]])
_W = np.concatenate([_POSITIVE[::-1, 1], _POSITIVE[:, 1]])
# (nodes, weights) of the rule's two halves of [-1, 1], one row each; a
# panel's first level also evaluates the whole rule
_HALVES = (np.stack([0.5 * (_X - 1.0), 0.5 * (_X + 1.0)]),
           np.stack([0.5 * _W, 0.5 * _W]))
_FIRST = (np.vstack([_X, _HALVES[0]]), np.vstack([_W, _HALVES[1]]))


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


def _panel_sums(mmodel, lo, hi, nodes, weights):
    """Gauss-Legendre sums of 2 omega and c^2 m dOmega^2/dt on each panel
    [lo, hi], one per row of `nodes` (reference nodes on [-1, 1]) and
    `weights`; shape (2, panels, rows)."""
    base, c = mmodel.base, mmodel.c
    half = 0.5 * (hi - lo)
    s = (0.5 * (lo + hi) + half * nodes.reshape(-1, 1)).T.ravel()
    with np.errstate(all="ignore"):
        f = np.stack([2.0 * base.omega(s),
                      c * c * base.m(s) * models.omega2_dot(base, s)])
        f = f.reshape(2, lo.size, *nodes.shape)
        return half[:, None] * (f * weights).sum(axis=-1)


def _theta_and_F(mmodel, a, b):
    """theta = 2 int omega and F = c^2 int m dOmega^2/dt over each [a_i, b_i].

    The intervals go through `_refine` _BLOCK at a time, so a grid of any
    length holds at most _BLOCK * PANEL_LIMIT panels.  Returns the (theta,
    F) columns.
    """
    blocks = [_refine(mmodel, a[i:i + _BLOCK], b[i:i + _BLOCK])
              for i in range(0, a.size, _BLOCK)]
    return np.concatenate([np.zeros((2, 0)), *blocks], axis=1)


def _refine(mmodel, a, b):
    """(theta, F) rows over the intervals [a_i, b_i], each starting as one
    panel.  Each level evaluates the open panels' halves in one array call
    (the first level also the panels' own rule), accepts the panels whose
    rule matches the sum of their halves, and splits the others."""
    n = a.size
    owner, lo, hi = np.arange(n), a, b
    panels = np.ones(n, dtype=int)
    total = np.zeros((2, n))
    whole = None
    while owner.size:
        sums = _panel_sums(mmodel, lo, hi,
                           *(_FIRST if whole is None else _HALVES))
        bad = ~np.isfinite(sums).all(axis=(0, 2))
        if bad.any():
            i = owner[bad.argmax()]
            raise NonFiniteResult(
                f"{mmodel.base.name}: theta or F integrand is not finite on "
                f"[{float(a[i])!r}, {float(b[i])!r}]")
        if whole is None:
            whole, sums = sums[:, :, 0], sums[:, :, 1:]
        fine = sums.sum(axis=-1)
        ok = (np.abs(whole - fine)
              <= np.maximum(_TOL, _TOL * np.abs(fine))).all(axis=0)
        np.add.at(total.T, owner[ok], fine[:, ok].T)
        owner, lo, hi, sums = owner[~ok], lo[~ok], hi[~ok], sums[:, ~ok]
        panels += np.bincount(owner, minlength=n)
        if panels.max() > PANEL_LIMIT:
            i = panels.argmax()
            raise BudgetExceeded(
                f"{mmodel.base.name}: theta and F on "
                f"[{float(a[i])!r}, {float(b[i])!r}] not converged within "
                f"{PANEL_LIMIT} panels")
        mid = 0.5 * (lo + hi)
        owner = np.concatenate([owner, owner])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        whole = np.concatenate([sums[:, :, 0], sums[:, :, 1]], axis=1)
    return total


def minimal_amplitude(model, c, t):
    """Minimal-branch (sigma, sigma') = (c sqrt(m), c m' / (2 sqrt(m))) at t.

    c is the constant of the model's criterion report and K = 1/4; t is a
    float or a column.
    """
    root_m = np.sqrt(np.asarray(model.m(t), dtype=float))
    m_dot = np.asarray(model.m_dot(t), dtype=float)
    return c * root_m, 0.5 * c * m_dot / root_m


def sigma_minimum_trajectory(mmodel, t_grid):
    """Minimal-branch columns on a grid, phase accumulated from t_grid[0].

    The state at one time t with its phase from t0 is the last row of the
    grid [t0, t].  Raises DomainError when a grid time lies outside the
    model's domain.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    mmodel.base.domain.require(t_grid)
    theta, F = (np.concatenate([[0.0], np.cumsum(step)])
                for step in _theta_and_F(mmodel, t_grid[:-1], t_grid[1:]))
    base = mmodel.base
    sigma, sigma_dot = minimal_amplitude(base, mmodel.c, t_grid)
    k = (conserved_k(sigma, sigma_dot, models.omega2(base, t_grid), DEFAULT_K)
         - F)
    return ErmakovState(t=t_grid, sigma=sigma, sigma_dot=sigma_dot,
                        theta=theta, k=k, F=F)


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
