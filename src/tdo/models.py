"""Oscillator models with time-dependent mass m(t) and frequency omega(t).

A model carries analytic value and derivative callables plus its valid time
domain.  Derived quantities follow the damping-elimination convention:

    M(t)      = m'(t) / m(t)
    Omega2(t) = omega^2 - M'/2 - M^2/4       (effective squared frequency)

and the equation of motion is q'' + M q' + omega^2 q = 0.  The catalog holds
five concrete families; user data enters through tabulated CSV samples with
monotone-cubic interpolation.
"""

import csv
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import series as _series
from .errors import DomainError, ParameterError

_INF = math.inf


@dataclass(frozen=True)
class Domain:
    lo: float = -_INF
    hi: float = _INF
    lo_open: bool = False
    hi_open: bool = False

    def contains(self, t):
        if self.lo_open:
            if t <= self.lo:
                return False
        elif t < self.lo:
            return False
        if self.hi_open:
            if t >= self.hi:
                return False
        elif t > self.hi:
            return False
        return True

    def require(self, t):
        for ti in np.atleast_1d(np.asarray(t, dtype=float)):
            if not self.contains(ti):
                raise DomainError(f"t={ti} outside domain "
                                  f"[{self.lo}, {self.hi}]")

    def sampling_window(self, span=2.0):
        """Finite default window used by criterion checks and the CLI."""
        lo = self.lo if math.isfinite(self.lo) else 0.0
        hi = self.hi if math.isfinite(self.hi) else lo + span
        width = hi - lo
        if self.lo_open:
            lo += 1e-9 * width
        if self.hi_open:
            hi -= 1e-9 * width
        return lo, hi


@dataclass(frozen=True)
class ModelDescriptor:
    """Named oscillator model: mass/frequency callables with derivatives.

    All callables accept scalars or numpy arrays.  `coeffs(t)` returns
    (Omega2, dOmega2/dt) in one pass: on a float with plain float
    arithmetic, on an ndarray elementwise.  The integrator calls it once
    per right-hand-side evaluation.  Instances are immutable; every
    operation on them is a pure function.
    """

    name: str
    m: callable
    m_dot: callable
    m_ddot: callable
    omega: callable
    omega_dot: callable
    coeffs: callable
    domain: Domain
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CoefficientSample:
    t: float
    M: float
    Omega2: float


# ---------------------------------------------------------------------------
# catalog

def harmonic(m0=1.0, omega0=1.0):
    """Constant mass and frequency."""
    _require_positive(m0=m0, omega0=omega0)
    Omega2 = omega0 * omega0
    _require_finite("Omega^2", Omega2)
    return ModelDescriptor(
        name="harmonic",
        m=lambda t: m0 * _ones_like(t),
        m_dot=lambda t: 0.0 * _ones_like(t),
        m_ddot=lambda t: 0.0 * _ones_like(t),
        omega=lambda t: omega0 * _ones_like(t),
        omega_dot=lambda t: 0.0 * _ones_like(t),
        coeffs=_constant_coeffs(Omega2),
        domain=Domain(),
        params={"m0": m0, "omega0": omega0},
    )


def kanai_caldirola(m0=1.0, omega0=1.0, gamma=1.0):
    """Exponentially growing mass m0*exp(gamma*t) at constant frequency.

    The effective squared frequency is the constant omega0^2 - gamma^2/4,
    of either sign.
    """
    _require_positive(m0=m0, omega0=omega0)
    Omega2 = omega0 * omega0 - 0.25 * (gamma * gamma)
    _require_finite("Omega^2", Omega2)
    return ModelDescriptor(
        name="kanai_caldirola",
        m=lambda t: m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        m_dot=lambda t: gamma * m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        m_ddot=lambda t: gamma ** 2 * m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        omega=lambda t: omega0 * _ones_like(t),
        omega_dot=lambda t: 0.0 * _ones_like(t),
        coeffs=_constant_coeffs(Omega2),
        domain=Domain(),
        params={"m0": m0, "omega0": omega0, "gamma": gamma},
    )


def exp_frequency(omega0=1.0, gamma0=1.0, c=2.0 ** -0.5):
    """Exponentially decreasing frequency with m*omega = 1/(2c^2) held constant.

    omega = omega0*exp(-gamma0*t), m = exp(gamma0*t)/(2c^2*omega0).  Only
    gamma0 > 0 is accepted; the sign convention is not analytically
    continued.
    """
    _require_positive(omega0=omega0, c=c)
    if gamma0 <= 0.0:
        raise ParameterError("exp_frequency requires gamma0 > 0")
    m0 = 1.0 / (2.0 * c * c * omega0)
    shift = 0.25 * (gamma0 * gamma0)
    _require_finite("gamma0^2/4", shift)

    def w(t):
        return omega0 * np.exp(-gamma0 * np.asarray(t, dtype=float))

    def coeffs(t):
        wt = omega0 * _exp(-gamma0 * t)
        w2 = wt * wt
        return w2 - shift, -2.0 * gamma0 * w2

    return ModelDescriptor(
        name="exp_frequency",
        m=lambda t: m0 * np.exp(gamma0 * np.asarray(t, dtype=float)),
        m_dot=lambda t: gamma0 * m0 * np.exp(gamma0 * np.asarray(t, dtype=float)),
        m_ddot=lambda t: gamma0 ** 2 * m0 * np.exp(gamma0 * np.asarray(t, dtype=float)),
        omega=w,
        omega_dot=lambda t: -gamma0 * w(t),
        coeffs=coeffs,
        domain=Domain(),
        params={"omega0": omega0, "gamma0": gamma0, "c": c},
    )


def tsquared(m0=1.0, c=1.0, t_min=1e-3):
    """Quadratically growing mass m0*t^2 with omega = 1/(2 m0 c^2 t^2), t > 0.

    The t = 0 singularity is excluded by the configurable cutoff t_min.
    """
    _require_positive(m0=m0, c=c, t_min=t_min)
    b = 1.0 / (2.0 * m0 * c * c)

    def coeffs(t):
        # Omega = omega = b/t^2, so d(Omega^2)/dt = -4 Omega^2 / t
        w = b / (t * t)
        w2 = w * w
        return w2, -4.0 * w2 / t

    return ModelDescriptor(
        name="tsquared",
        m=lambda t: m0 * np.asarray(t, dtype=float) ** 2,
        m_dot=lambda t: 2.0 * m0 * np.asarray(t, dtype=float),
        m_ddot=lambda t: 2.0 * m0 * _ones_like(t),
        omega=lambda t: b / np.asarray(t, dtype=float) ** 2,
        omega_dot=lambda t: -2.0 * b / np.asarray(t, dtype=float) ** 3,
        coeffs=coeffs,
        domain=Domain(lo=t_min, hi=_INF),
        params={"m0": m0, "c": c, "t_min": t_min},
    )


def bessel_type(m0=1.0, omega0=1.0, Omega0=1.0, k0=0.5, nu=1.0, order=10,
                t_min=1e-3):
    """Scale-function model m = m0*alpha(t), omega = omega0/alpha(t), t > 0.

    alpha comes from the truncated odd power series with lam = 2*Omega0*nu
    and mu_s = 2*Omega0*k0, so m*omega = m0*omega0 holds identically and the
    effective squared frequency approaches Omega0^2*(k0^2 + nu^2/t^2) as the
    truncation order grows.  The domain is capped at the 2/mu_s
    truncation-accuracy guard.
    """
    _require_positive(m0=m0, omega0=omega0, t_min=t_min)
    lam = 2.0 * Omega0 * nu
    mu_s = 2.0 * Omega0 * k0
    alpha = _series.build_series(omega0, lam, mu_s, order)
    hi = alpha.radius_guard()
    if hi <= t_min:
        raise ParameterError("trusted window 2/mu_s falls below t_min")

    def a(t):
        return alpha.alpha(t)

    def ad(t):
        return alpha.alpha_dot(t)

    def add(t):
        return alpha.alpha_ddot(t)

    # Horner rows of alpha and its first three derivatives, top power
    # first, weighted as in AlphaSeries; the last two have no k = 0 term
    rows = [(ak, (2 * k + 1.0) * ak, (2 * k + 1.0) * (2 * k) * ak,
             (2 * k + 1.0) * (2 * k) * (2 * k - 1.0) * ak)
            for k, ak in reversed(list(enumerate(alpha.a)))]

    def coeffs(t):
        t2 = t * t
        p0 = p1 = p2 = p3 = 0.0
        for r0, r1, r2, r3 in rows[:-1]:
            p0 = p0 * t2 + r0
            p1 = p1 * t2 + r1
            p2 = p2 * t2 + r2
            p3 = p3 * t2 + r3
        r0, r1 = rows[-1][:2]
        al, ald, aldd, ald3 = t * (p0 * t2 + r0), p1 * t2 + r1, p2 * t, p3
        M = ald / al
        Mdot = aldd / al - M * M
        Mddot = ald3 / al - aldd * ald / (al * al) - 2.0 * M * Mdot
        w = omega0 / al
        wdot = -omega0 * ald / (al * al)
        return (w * w - 0.5 * Mdot - 0.25 * M * M,
                2.0 * w * wdot - 0.5 * Mddot - 0.5 * M * Mdot)

    return ModelDescriptor(
        name="bessel_type",
        m=lambda t: m0 * a(t),
        m_dot=lambda t: m0 * ad(t),
        m_ddot=lambda t: m0 * add(t),
        omega=lambda t: omega0 / a(t),
        omega_dot=lambda t: -omega0 * ad(t) / a(t) ** 2,
        coeffs=coeffs,
        domain=Domain(lo=t_min, hi=hi, hi_open=True),
        params={"m0": m0, "omega0": omega0, "Omega0": Omega0, "k0": k0,
                "nu": nu, "order": order, "t_min": t_min},
    )


_FACTORIES = {
    "harmonic": harmonic,
    "kanai_caldirola": kanai_caldirola,
    "exp_frequency": exp_frequency,
    "tsquared": tsquared,
    "bessel_type": bessel_type,
}

CATALOG_NAMES = tuple(_FACTORIES)


def catalog():
    """The five catalog models with their default parameters."""
    return [f() for f in _FACTORIES.values()]


def _factory(name):
    try:
        return _FACTORIES[name]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown model {name!r}; choose from {', '.join(_FACTORIES)}")


def get_model(name, **params):
    """Build a catalog model by name with parameter overrides."""
    return _factory(name)(**params)


def parameter_names(name):
    """The keyword parameters the catalog factory `name` takes."""
    return tuple(inspect.signature(_factory(name)).parameters)


# ---------------------------------------------------------------------------
# derived coefficients and residuals

def damping_coefficient(model, t):
    """M(t) = m'(t)/m(t)."""
    return model.m_dot(t) / model.m(t)


def omega2(model, t):
    """Effective squared frequency Omega^2(t).

    Scalars go through the array path of `model.coeffs`, so a scalar and
    an array element give the same bits.
    """
    return model.coeffs(np.asarray(t, dtype=float))[0]


def omega2_dot(model, t):
    """d(Omega^2)/dt, through the array path of `model.coeffs`."""
    return model.coeffs(np.asarray(t, dtype=float))[1]


def coefficients(model, t):
    """Damping coefficient M and effective squared frequency at time t."""
    model.domain.require(t)
    return CoefficientSample(t=float(t),
                             M=float(damping_coefficient(model, t)),
                             Omega2=float(omega2(model, t)))


def eom_residual(model, q, dq, d2q, t):
    """q'' + M q' + omega^2 q for a trajectory given with two derivatives."""
    model.domain.require(t)
    M = damping_coefficient(model, t)
    return d2q(t) + M * dq(t) + model.omega(t) ** 2 * q(t)


# ---------------------------------------------------------------------------
# closed-form trajectories of the two elementary catalog cases

def exp_frequency_solution(omega0=1.0, gamma0=1.0, c1=1.0, c2=0.0):
    """General trajectory of the exp_frequency model, with derivatives.

    q = c1*cos(z) + c2*sin(z) where z = (omega0/gamma0) * exp(-gamma0*t).
    Returns (q, dq, d2q) callables.
    """
    def z(t):
        return omega0 / gamma0 * np.exp(-gamma0 * np.asarray(t, dtype=float))

    def q(t):
        zz = z(t)
        return c1 * np.cos(zz) + c2 * np.sin(zz)

    def dq(t):
        zz = z(t)
        d = -c1 * np.sin(zz) + c2 * np.cos(zz)
        return -gamma0 * zz * d

    def d2q(t):
        zz = z(t)
        p = c1 * np.cos(zz) + c2 * np.sin(zz)
        d = -c1 * np.sin(zz) + c2 * np.cos(zz)
        return gamma0 ** 2 * zz * d - gamma0 ** 2 * zz * zz * p

    return q, dq, d2q


def tsquared_solution(m0=1.0, c=1.0, c1=1.0, c2=0.0):
    """General trajectory of the tsquared model, with derivatives.

    q = c1*cos(w) + c2*sin(w) where w = 1/(2 m0 c^2 t).
    """
    b = 1.0 / (2.0 * m0 * c * c)

    def w(t):
        return b / np.asarray(t, dtype=float)

    def q(t):
        ww = w(t)
        return c1 * np.cos(ww) + c2 * np.sin(ww)

    def dq(t):
        t = np.asarray(t, dtype=float)
        ww = w(t)
        d = -c1 * np.sin(ww) + c2 * np.cos(ww)
        return d * (-b / t ** 2)

    def d2q(t):
        t = np.asarray(t, dtype=float)
        ww = w(t)
        p = c1 * np.cos(ww) + c2 * np.sin(ww)
        d = -c1 * np.sin(ww) + c2 * np.cos(ww)
        return -p * (b / t ** 2) ** 2 + d * (2.0 * b / t ** 3)

    return q, dq, d2q


# ---------------------------------------------------------------------------
# tabulated models

def tabulated_from_csv(path, name="tabulated"):
    """Model from CSV samples with header `t,m,omega`.

    Requires at least 4 strictly increasing time rows and positive masses.
    Values are interpolated with a monotone cubic (PCHIP); derivative
    accuracy is correspondingly looser than for catalog models (tests relax
    to 1e-4).
    """
    from scipy.interpolate import PchipInterpolator

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [row for row in reader if row]
    if not rows or [c.strip() for c in rows[0]] != ["t", "m", "omega"]:
        raise ParameterError("tabulated model CSV must start with header t,m,omega")
    data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    if data.shape[0] < 4:
        raise ParameterError("tabulated model needs at least 4 rows")
    t, m, w = data[:, 0], data[:, 1], data[:, 2]
    if np.any(np.diff(t) <= 0.0):
        raise ParameterError("tabulated times must be strictly increasing")
    if np.any(m <= 0.0):
        raise ParameterError("tabulated masses must be positive")

    m_ip = PchipInterpolator(t, m)
    w_ip = PchipInterpolator(t, w)
    return ModelDescriptor(
        name=name,
        m=m_ip,
        m_dot=m_ip.derivative(1),
        m_ddot=m_ip.derivative(2),
        omega=w_ip,
        omega_dot=w_ip.derivative(1),
        coeffs=_generic_coeffs(m_ip, m_ip.derivative(1), m_ip.derivative(2),
                               w_ip),
        domain=Domain(lo=float(t[0]), hi=float(t[-1])),
        params={"rows": int(data.shape[0])},
    )


# ---------------------------------------------------------------------------

def _ones_like(t):
    return np.ones_like(np.asarray(t, dtype=float))


def _exp(x):
    # numpy's exp can differ from libm's by an ulp: numpy scalars, which 0-d
    # array arithmetic yields, stay on numpy's so both paths agree bitwise
    if type(x) is not float:
        return np.exp(x)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _constant_coeffs(Omega2):
    """`coeffs` of a constant effective squared frequency."""
    Omega2 = float(Omega2)

    def coeffs(t):
        if isinstance(t, float):
            return Omega2, 0.0
        return np.full(np.shape(t), Omega2), np.zeros(np.shape(t))

    return coeffs


def _generic_coeffs(m, m_dot, m_ddot, omega):
    """`coeffs` from the generic expression and a central difference."""
    def Omega2(t):
        M = m_dot(t) / m(t)
        Mdot = m_ddot(t) / m(t) - M * M
        return omega(t) ** 2 - 0.5 * Mdot - 0.25 * M * M

    def coeffs(t):
        h = 1e-5 * (1.0 + abs(t))
        return Omega2(t), (Omega2(t + h) - Omega2(t - h)) / (2.0 * h)

    return coeffs


def _require_finite(name, val):
    if not math.isfinite(val):
        raise ParameterError(f"{name} must be finite, got {val}")


def _require_positive(**kw):
    for key, val in kw.items():
        if not val > 0.0:
            raise ParameterError(f"{key} must be positive, got {val}")
