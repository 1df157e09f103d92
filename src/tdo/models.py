"""Oscillator models with time-dependent mass m(t) and frequency omega(t).

A model carries analytic value and derivative callables plus its valid time
domain.  Derived quantities follow the damping-elimination convention:

    M(t)      = m'(t) / m(t)
    Omega2(t) = omega^2 - M'/2 - M^2/4       (effective squared frequency)

and the equation of motion is q'' + M q' + omega^2 q = 0.  The catalog holds
five concrete families, the paper's exactly solved examples.  Where the
reduced linear equation z'' + Omega^2 z = 0 has a closed-form basis, the
model declares it (`ModelDescriptor.unit_basis`): the constant-Omega^2
families, and the families whose m*omega is constant, where z = sqrt(m)
(cos, sin) of the integral of omega.
"""

import inspect
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import series as _series
from .errors import DomainError, ParameterError

_INF = math.inf


@dataclass(frozen=True)
class Domain:
    lo: float = -_INF
    hi: float = _INF
    hi_open: bool = False

    def require(self, t):
        """Raise DomainError unless every time in t is finite and inside."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        inside = (np.isfinite(t) & (t >= self.lo)
                  & ((t < self.hi) if self.hi_open else (t <= self.hi)))
        if not inside.all():
            raise DomainError(f"t={t[~inside][0]} outside domain "
                              f"[{self.lo}, {self.hi}]")

    def sampling_window(self):
        """Finite default window used by criterion checks and the CLI; an
        infinite end becomes 0 below and lo + 2 above."""
        lo = self.lo if math.isfinite(self.lo) else 0.0
        hi = self.hi if math.isfinite(self.hi) else lo + 2.0
        if self.hi_open:
            hi -= 1e-9 * (hi - lo)
        return lo, hi


@dataclass(frozen=True)
class ModelDescriptor:
    """Named oscillator model: mass/frequency callables with derivatives.

    All callables accept scalars or numpy arrays.  `coeffs(t)` returns
    (Omega2, dOmega2/dt) in one pass: on a float with plain float
    arithmetic, on an ndarray elementwise.  The integrator calls it once
    per right-hand-side evaluation.  `unit_basis(t0, t)` declares the
    model's exact basis of z'' + Omega^2 z = 0 started at t0 with unit
    data (a `UnitBasis` of columns at the times t >= t0), and is None
    where no closed form is known, where `ermakov.integrate_ep` steps the
    basis instead.  The constant-Omega^2 families (harmonic,
    kanai_caldirola) and the families that keep m*omega constant in closed
    form (exp_frequency, tsquared) declare it; bessel_type leaves it None.
    Instances are immutable; every operation on them is a pure function.
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
    unit_basis: callable = None


class UnitBasis(NamedTuple):
    """Columns of the basis C, S of z'' + Omega^2 z = 0 with C(t0) = S'(t0)
    = 1 and C'(t0) = S(t0) = 0, at times t >= t0.

    phi is a turn variable: every solution z obeys z(phi + pi) = -z up to
    a positive factor, so arg z gains pi per pi of phi (phi = 0 where a
    declared basis does not turn).  rate is the fastest d(phi)/dt on the
    window: at t0 for the declared bases, and the fastest the stepper saw
    at an accepted step for a stepped one.  i_cc, i_cs and i_ss are the
    balance integrals of d(Omega^2)/dt (C^2, C S, S^2) from t0.
    """

    c: np.ndarray
    c_dot: np.ndarray
    s: np.ndarray
    s_dot: np.ndarray
    phi: np.ndarray
    rate: float
    i_cc: np.ndarray
    i_cs: np.ndarray
    i_ss: np.ndarray


# ---------------------------------------------------------------------------
# catalog

def harmonic(m0=1.0, omega0=1.0):
    """Constant mass and frequency: kanai_caldirola at gamma = 0."""
    return replace(kanai_caldirola(m0, omega0, 0.0), name="harmonic",
                   params={"m0": m0, "omega0": omega0})


def kanai_caldirola(m0=1.0, omega0=1.0, gamma=1.0):
    """Exponentially growing mass m0*exp(gamma*t) at constant frequency.

    The effective squared frequency is the constant omega0^2 - gamma^2/4,
    of either sign.
    """
    _require_positive(m0=m0, omega0=omega0)
    Omega2 = float(omega0 * omega0 - 0.25 * (gamma * gamma))
    _require_finite("Omega^2", Omega2)

    def coeffs(t):
        if isinstance(t, float):
            return Omega2, 0.0
        return np.full(np.shape(t), Omega2), np.zeros(np.shape(t))

    return ModelDescriptor(
        name="kanai_caldirola",
        m=lambda t: m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        m_dot=lambda t: gamma * m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        m_ddot=lambda t: gamma ** 2 * m0 * np.exp(gamma * np.asarray(t, dtype=float)),
        omega=lambda t: omega0 * _ones_like(t),
        omega_dot=lambda t: 0.0 * _ones_like(t),
        coeffs=coeffs,
        domain=Domain(),
        params={"m0": m0, "omega0": omega0, "gamma": gamma},
        unit_basis=_constant_basis(Omega2),
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
    m0 = 1.0 / _divisor("2 c^2 omega0", 2.0 * c * c * omega0)
    shift = 0.25 * (gamma0 * gamma0)
    _require_finite("gamma0^2/4", shift)

    def w(t):
        return omega0 * np.exp(-gamma0 * np.asarray(t, dtype=float))

    def coeffs(t):
        wt = omega0 * _exp(-gamma0 * t)
        w2 = wt * wt
        return w2 - shift, -2.0 * gamma0 * w2

    def unit_basis(t0, t):
        # M = gamma0, s = exp(gamma0 tau/2), omega(t)/omega(t0) =
        # exp(-gamma0 tau) and phi/omega(t0) = -expm1(-gamma0 tau)/gamma0;
        # the balance weight is -2 gamma0
        with np.errstate(all="ignore"):
            tau = np.asarray(t, dtype=float) - t0
            return _product_basis(
                w(t0), 0.5 * gamma0,
                np.exp(0.5 * gamma0 * tau), 0.5 * gamma0,
                np.exp(-gamma0 * tau), -np.expm1(-gamma0 * tau) / gamma0,
                -2.0 * gamma0, 0.0)

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
        unit_basis=unit_basis,
    )


def tsquared(m0=1.0, c=1.0, t_min=1e-3):
    """Quadratically growing mass m0*t^2 with omega = 1/(2 m0 c^2 t^2), t > 0.

    The t = 0 singularity is excluded by the configurable cutoff t_min.
    """
    _require_positive(m0=m0, c=c, t_min=t_min)
    b = 1.0 / _divisor("2 m0 c^2", 2.0 * m0 * c * c)

    def w(t):
        return b / np.asarray(t, dtype=float) ** 2

    def coeffs(t):
        # Omega = omega = b/t^2, so d(Omega^2)/dt = -4 Omega^2 / t.  On a
        # float t, t * t underflows to 0 below ~1e-162, where b/0 would raise
        tt = t * t
        w = b / tt if type(tt) is not float or tt else _INF
        w2 = w * w
        return w2, -4.0 * w2 / t

    def unit_basis(t0, t):
        # M = 2/t, s = t/t0, omega(t)/omega(t0) = (t0/t)^2 and phi/omega(t0)
        # = tau t0/t, so phi = b tau/(t0 t); the balance weight is -4/t =
        # -4 (1/t0 - phi/b)
        with np.errstate(all="ignore"):
            t = np.asarray(t, dtype=float)
            ratio = t0 / t
            return _product_basis(
                w(t0), 1.0 / t0, t / t0, 1.0 / t, ratio * ratio,
                (t - t0) * ratio, -4.0 / t0, 4.0 / b)

    return ModelDescriptor(
        name="tsquared",
        m=lambda t: m0 * np.asarray(t, dtype=float) ** 2,
        m_dot=lambda t: 2.0 * m0 * np.asarray(t, dtype=float),
        m_ddot=lambda t: 2.0 * m0 * _ones_like(t),
        omega=w,
        omega_dot=lambda t: -2.0 * b / np.asarray(t, dtype=float) ** 3,
        coeffs=coeffs,
        domain=Domain(lo=t_min, hi=_INF),
        params={"m0": m0, "c": c, "t_min": t_min},
        unit_basis=unit_basis,
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

    def coeffs(t):
        # M = alpha'/alpha does not depend on m0, so alpha stands in for m
        al, ald, aldd, ald3 = alpha.derivatives(t)
        return _omega2_pair(al, ald, aldd, ald3, omega0 / al,
                            -omega0 * ald / (al * al))

    def d(t):
        return alpha.derivatives(np.asarray(t, dtype=float))

    def omega_dot(t):
        al, ald, _, _ = d(t)
        return -omega0 * ald / al ** 2

    return ModelDescriptor(
        name="bessel_type",
        m=lambda t: m0 * d(t)[0],
        m_dot=lambda t: m0 * d(t)[1],
        m_ddot=lambda t: m0 * d(t)[2],
        omega=lambda t: omega0 / d(t)[0],
        omega_dot=omega_dot,
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
# name: the keyword parameters its factory takes
_PARAMETERS = {name: tuple(inspect.signature(factory).parameters)
               for name, factory in _FACTORIES.items()}


def catalog():
    """The five catalog models with their default parameters."""
    return [f() for f in _FACTORIES.values()]


def _by_name(table, name):
    try:
        return table[name]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown model {name!r}; choose from {', '.join(_FACTORIES)}")


def get_model(name, **params):
    """Build a catalog model by name with parameter overrides."""
    return _by_name(_FACTORIES, name)(**params)


def parameter_names(name):
    """The keyword parameters the catalog factory `name` takes."""
    return _by_name(_PARAMETERS, name)


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


def eom_residual(model, q, dq, d2q, t):
    """q'' + M q' + omega^2 q for a trajectory given with two derivatives.

    Under the minimum-uncertainty criterion m*omega is constant, so M =
    -omega'/omega and this is also the paper's reduced minimal dynamics
    q'' - (omega'/omega) q' + omega^2 q.
    """
    model.domain.require(t)
    M = damping_coefficient(model, t)
    return d2q(t) + M * dq(t) + model.omega(t) ** 2 * q(t)


# ---------------------------------------------------------------------------
# closed-form trajectories and minimal-branch phases of the two elementary
# catalog cases

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


def exp_frequency_phase(omega0, gamma0, t0, t1):
    """Minimal-branch phase 2 integral(omega) of exp_frequency on [t0, t1]:
    2 omega0/gamma0 (exp(-gamma0 t0) - exp(-gamma0 t1)); gamma0 > 0."""
    _require_positive(gamma0=gamma0)
    scale = 2.0 * omega0 / gamma0
    _require_finite("2 omega0/gamma0", scale)
    try:
        decay = math.exp(-gamma0 * t0) - math.exp(-gamma0 * t1)
    except OverflowError:
        raise ParameterError(f"exp(-gamma0 t) must be finite, got t="
                             f"{min(t0, t1)!r} with gamma0={gamma0!r}")
    phase = scale * decay
    _require_finite("2 omega0/gamma0 (exp(-gamma0 t0) - exp(-gamma0 t1))",
                    phase)
    return phase


def tsquared_phase(m0, c, t0, t1):
    """Minimal-branch phase 2 integral(omega) of tsquared on [t0, t1]:
    (1/t0 - 1/t1)/(m0 c^2); m0, c and both times positive."""
    _require_positive(m0=m0, c=c)
    if min(t0, t1) <= 0.0:
        raise DomainError("tsquared phase requires positive times")
    b = m0 * c * c  # c ** 2 would raise OverflowError
    _require_finite("m0 c^2", b)
    return (1.0 / _divisor("m0 c^2 t0", b * t0)
            - 1.0 / _divisor("m0 c^2 t1", b * t1))


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
# exact unit-data bases (`ModelDescriptor.unit_basis`)

def _constant_basis(Omega2):
    """unit_basis of a constant Omega^2, with tau = t - t0: cos(w tau) and
    sin(w tau)/w with phi = w tau for Omega^2 = w^2, cosh(L tau) and
    sinh(L tau)/L for Omega^2 = -L^2, 1 and tau for 0; the balance
    integrals vanish."""
    w = math.sqrt(abs(Omega2))  # the frequency, or the growth rate L

    def unit_basis(t0, t):
        # past the float range the columns turn inf or nan
        with np.errstate(all="ignore"):
            tau = np.asarray(t, dtype=float) - t0
            zero = np.zeros_like(tau)
            if Omega2 == 0.0:
                one = np.ones_like(tau)
                return UnitBasis(one, zero, tau, one, zero, 0.0, zero, zero,
                                 zero)
            wt = w * tau
            if Omega2 > 0.0:
                c, s = np.cos(wt), np.sin(wt)
                c_dot, phi, rate = -w * s, wt, w
            else:
                c, s = np.cosh(wt), np.sinh(wt)
                c_dot, phi, rate = w * s, zero, 0.0
            # S' is (w c)/w, which is not always c in floats
            return UnitBasis(c, c_dot, s / w, w * c / w, phi, rate, zero,
                             zero, zero)

    return unit_basis


def _product_basis(w0, half_m0, s, half_m, ratio, g, alpha, beta):
    """UnitBasis of a model whose m*omega is constant.

    There q = cos(phi) and sin(phi), with phi the integral of omega from
    t0, solve q'' + M q' + omega^2 q = 0, so z = sqrt(m) q solves z'' +
    Omega^2 z = 0: C = s (cos phi - M(t0)/(2 omega(t0)) sin phi) and S =
    s sin(phi)/omega(t0), with s = sqrt(m/m(t0)).  Takes w0 = omega(t0),
    half_m0 = M(t0)/2, the column s, half_m = M/2 (a column or a constant)
    and the columns ratio = omega/omega(t0) and g = phi/omega(t0).  Since
    d(Omega^2)/dt s^2 dt = omega(t0) (alpha + beta phi) dphi, the balance
    integrals are closed forms in phi.  sin(phi)/omega(t0) is taken as g
    sin(phi)/phi, so C and S stay exact where omega(t0) underflows to 0
    (phi = 0, all three integrals 0).
    """
    phi = w0 * g
    cos, sin = np.cos(phi), np.sin(phi)
    r = g * np.divide(sin, phi, out=np.ones_like(phi), where=phi != 0.0)
    c_part = cos - half_m0 * r
    # the weight's integrals from 0 to phi against 1, cos 2phi and sin 2phi
    sin_cos, sin_sq = sin * cos, sin * sin
    a_1 = phi * (alpha + 0.5 * beta * phi)
    a_cos = alpha * sin_cos + beta * (phi * sin_cos - 0.5 * sin_sq)
    a_sin = alpha * sin_sq + 0.5 * beta * (sin_cos
                                           - phi * (cos * cos - sin_sq))
    # ... against cos^2 and cos sin, and against sin^2 over omega(t0)
    j_cc, j_cs = 0.5 * (a_1 + a_cos), 0.5 * a_sin
    j_ss = 0.5 * (a_1 - a_cos) / w0 if w0 > 0.0 else np.zeros_like(phi)
    return UnitBasis(
        c=s * c_part,
        c_dot=s * (half_m * c_part - w0 * ratio * sin
                   - half_m0 * ratio * cos),
        s=s * r, s_dot=s * (half_m * r + ratio * cos), phi=phi,
        rate=float(w0),
        i_cc=w0 * j_cc - 2.0 * half_m0 * j_cs + half_m0 * half_m0 * j_ss,
        i_cs=j_cs - half_m0 * j_ss, i_ss=j_ss)


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


def _omega2_pair(m, m_dot, m_ddot, m_dddot, w, w_dot):
    """(Omega^2, dOmega^2/dt) from m with three derivatives, omega and
    omega': plain float arithmetic on floats, elementwise on arrays."""
    M = m_dot / m
    Mdot = m_ddot / m - M * M
    Mddot = m_dddot / m - m_ddot * m_dot / (m * m) - 2.0 * M * Mdot
    return (w * w - 0.5 * Mdot - 0.25 * M * M,
            2.0 * w * w_dot - 0.5 * Mddot - 0.5 * M * Mdot)


def _require_finite(name, val):
    if not math.isfinite(val):
        raise ParameterError(f"{name} must be finite, got {val}")


def _divisor(name, val):
    """val, after checking that it can divide: neither 0 nor infinite."""
    if not 0.0 < abs(val) < math.inf:
        raise ParameterError(f"{name} must be nonzero and finite, got {val}")
    return val


def _require_positive(**kw):
    for key, val in kw.items():
        if not val > 0.0:
            raise ParameterError(f"{key} must be positive, got {val}")
