"""Auxiliary-equation machinery: closed forms, integration and phases.

The auxiliary equation sigma'' + Omega^2(t) sigma = K / sigma^3 is solved
two independent ways: as the square root of a quadratic form in a basis of
the reduced linear equation (superposition closed form), and by direct
adaptive integration.  The phase theta = integral dt/sigma^2 and the
balance functional F = integral d(Omega^2)/dt * sigma^2 dt ride along as
extra state components of the same stepper, so every quadrature shares the
trajectory's error control.  A trajectory is one `ErmakovState` whose
fields are equal-length columns, one entry per output time.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dopri, models
from .errors import (ConstraintViolation, DomainError, NonFiniteResult,
                     NonRealSigma, ParameterError, SingularityApproached,
                     UnknownCase)

DEFAULT_K = 0.25
SIGMA_FLOOR = 1e-8


@dataclass(frozen=True)
class BasisPair:
    """Two independent solutions of y'' + Omega^2 y = 0 with derivatives."""

    y1: callable
    y1_dot: callable
    y2: callable
    y2_dot: callable
    W0: float  # constant Wronskian y1*y2' - y1'*y2

    def wronskian(self, t):
        return self.y1(t) * self.y2_dot(t) - self.y1_dot(t) * self.y2(t)


@dataclass(frozen=True)
class PinneyCombination:
    """Superposition constants with A*B - C**2 = K / W0**2."""

    A: float
    B: float
    C: float
    K: float


@dataclass(frozen=True)
class ErmakovState:
    """Amplitude state: sigma, its rate, accumulated phase and functionals.

    Fields are floats for one sample and equal-length 1-D arrays for a
    trajectory; every consumer works elementwise, so both take one code path.
    k is the balance constant sigma'^2 + Omega^2 sigma^2 + K/sigma^2 - F;
    on constant-Omega stretches F = 0 and k is the classical integration
    constant of the auxiliary equation.
    """

    t: np.ndarray
    sigma: np.ndarray
    sigma_dot: np.ndarray
    theta: np.ndarray
    k: np.ndarray
    F: np.ndarray


def harmonic_basis(omega0, q0=1.0):
    """cos/sin basis of the constant-frequency reduced equation."""
    if omega0 <= 0.0:
        raise ParameterError("omega0 must be positive")
    return BasisPair(
        y1=lambda t: q0 * np.cos(omega0 * np.asarray(t, dtype=float)),
        y1_dot=lambda t: -q0 * omega0 * np.sin(omega0 * np.asarray(t, dtype=float)),
        y2=lambda t: q0 * np.sin(omega0 * np.asarray(t, dtype=float)),
        y2_dot=lambda t: q0 * omega0 * np.cos(omega0 * np.asarray(t, dtype=float)),
        W0=q0 * q0 * omega0,
    )


def hyperbolic_basis(L):
    """cosh/sinh basis for a constant negative effective squared frequency."""
    if L <= 0.0:
        raise ParameterError("L must be positive")
    return BasisPair(
        y1=lambda t: np.cosh(L * np.asarray(t, dtype=float)),
        y1_dot=lambda t: L * np.sinh(L * np.asarray(t, dtype=float)),
        y2=lambda t: np.sinh(L * np.asarray(t, dtype=float)),
        y2_dot=lambda t: L * np.cosh(L * np.asarray(t, dtype=float)),
        W0=L,
    )


def constraint_gap(pair, comb):
    return comb.A * comb.B - comb.C ** 2 - comb.K / pair.W0 ** 2


def sigma_from_basis(pair, comb, t):
    """Closed-form (sigma, sigma') from the superposition quadratic form.

    Raises ConstraintViolation when A*B - C^2 strays from K/W0^2 beyond
    1e-8 relative, NonRealSigma when the radicand is not positive.
    """
    target = comb.K / pair.W0 ** 2
    if abs(constraint_gap(pair, comb)) > 1e-8 * max(1.0, abs(target)):
        raise ConstraintViolation(
            f"A*B - C^2 = {comb.A * comb.B - comb.C ** 2!r} but K/W0^2 = {target!r}")
    y1, y2 = pair.y1(t), pair.y2(t)
    y1d, y2d = pair.y1_dot(t), pair.y2_dot(t)
    u = comb.A * y1 * y1 + comb.B * y2 * y2 + 2.0 * comb.C * y1 * y2
    if np.any(np.asarray(u) <= 0.0):
        raise NonRealSigma("superposition radicand is not positive")
    sigma = np.sqrt(u)
    u_dot = 2.0 * (comb.A * y1 * y1d + comb.B * y2 * y2d
                   + comb.C * (y1d * y2 + y1 * y2d))
    return sigma, u_dot / (2.0 * sigma)


def pinney_residual(pair, comb, omega2_fn, t):
    """sigma'' + Omega^2 sigma - K/sigma^3 of the closed form (analytic)."""
    sigma, sigma_dot = sigma_from_basis(pair, comb, t)
    w2 = omega2_fn(t)
    y1, y2 = pair.y1(t), pair.y2(t)
    y1d, y2d = pair.y1_dot(t), pair.y2_dot(t)
    y1dd, y2dd = -w2 * y1, -w2 * y2
    u_ddot = 2.0 * (comb.A * (y1d * y1d + y1 * y1dd)
                    + comb.B * (y2d * y2d + y2 * y2dd)
                    + comb.C * (y1dd * y2 + 2.0 * y1d * y2d + y1 * y2dd))
    sigma_ddot = (u_ddot - 2.0 * sigma_dot ** 2) / (2.0 * sigma)
    return sigma_ddot + w2 * sigma - comb.K / sigma ** 3


# ---------------------------------------------------------------------------
# constant-frequency closed-form branches and their fits

def constant_combination(omega0, K=DEFAULT_K, q0=1.0):
    """Constants giving the time-independent amplitude sigma = (K)^(1/4)/sqrt(omega0)."""
    A = math.sqrt(K) / (omega0 * q0 * q0)
    return PinneyCombination(A=A, B=A, C=0.0, K=K)


def oscillating_combination(omega0, kconst, c1, q0=1.0):
    """Constants reproducing the oscillating branch (K = 1/4) at all times.

    sigma^2 = [k - sqrt(k^2 - omega0^2) cos(2 c1 + 2 omega0 t)]/(2 omega0^2);
    requires kconst >= omega0.
    """
    if kconst < omega0:
        raise ParameterError("oscillating branch requires kconst >= omega0")
    S = math.sqrt(kconst ** 2 - omega0 ** 2)
    den = 2.0 * omega0 ** 2 * q0 * q0
    return PinneyCombination(
        A=(kconst - S * math.cos(2.0 * c1)) / den,
        B=(kconst + S * math.cos(2.0 * c1)) / den,
        C=S * math.sin(2.0 * c1) / den,
        K=DEFAULT_K,
    )


def sigma_oscillating(omega0, kconst, c1, t):
    """Oscillating constant-frequency branch: (sigma, sigma') at t."""
    S = math.sqrt(kconst ** 2 - omega0 ** 2)
    phi = 2.0 * c1 + 2.0 * omega0 * np.asarray(t, dtype=float)
    u = (kconst - S * np.cos(phi)) / (2.0 * omega0 ** 2)
    sigma = np.sqrt(u)
    u_dot = S * np.sin(phi) / omega0
    return sigma, u_dot / (2.0 * sigma)


def fit_oscillating(omega0, sigma0, sigma_dot0, t0):
    """(kconst, c1) of the oscillating branch through (sigma0, sigma0') at t0."""
    if sigma0 <= 0.0:
        raise ParameterError("sigma0 must be positive")
    u0 = sigma0 * sigma0
    kconst = sigma_dot0 ** 2 + omega0 ** 2 * u0 + 1.0 / (4.0 * u0)
    S = math.sqrt(max(kconst ** 2 - omega0 ** 2, 0.0))
    if S == 0.0:
        return kconst, 0.0
    cos_phi = (kconst - 2.0 * omega0 ** 2 * u0) / S
    sin_phi = 2.0 * omega0 * sigma0 * sigma_dot0 / S
    phi0 = math.atan2(sin_phi, cos_phi)
    return kconst, 0.5 * (phi0 - 2.0 * omega0 * t0)


def hyperbolic_combination(L, c1, c2):
    """Constants reproducing the hyperbolic branch on the cosh/sinh basis.

    With y1 = cosh(Lt), y2 = sinh(Lt) the quadratic form equals
    c1 + sqrt(c1^2 + 1/(4L^2)) cosh(2 c2 + 2 L t); K = 1/4.
    """
    R = math.sqrt(c1 * c1 + 1.0 / (4.0 * L * L))
    return PinneyCombination(A=c1 + R * math.cosh(2.0 * c2),
                             B=R * math.cosh(2.0 * c2) - c1,
                             C=R * math.sinh(2.0 * c2),
                             K=DEFAULT_K)


def sigma_hyperbolic(L, c1, c2, t):
    """Hyperbolic branch for constant negative effective squared frequency.

    sigma^2 = c1 + sqrt(c1^2 + 1/(4 L^2)) cosh(2 c2 + 2 L t).
    """
    R = math.sqrt(c1 * c1 + 1.0 / (4.0 * L * L))
    psi = 2.0 * c2 + 2.0 * L * np.asarray(t, dtype=float)
    u = c1 + R * np.cosh(psi)
    sigma = np.sqrt(u)
    u_dot = 2.0 * L * R * np.sinh(psi)
    return sigma, u_dot / (2.0 * sigma)


def fit_hyperbolic(L, sigma0, sigma_dot0, t0):
    """(c1, c2) of the hyperbolic branch through (sigma0, sigma0') at t0."""
    if sigma0 <= 0.0:
        raise ParameterError("sigma0 must be positive")
    u0 = sigma0 * sigma0
    u0_dot = 2.0 * sigma0 * sigma_dot0
    c1 = (u0 * u0 - (u0_dot ** 2 + 1.0) / (4.0 * L * L)) / (2.0 * u0)
    R = math.sqrt(c1 * c1 + 1.0 / (4.0 * L * L))
    psi0 = math.asinh(u0_dot / (2.0 * L * R))
    return c1, 0.5 * psi0 - L * t0


def conserved_k(sigma, sigma_dot, omega2_val, K=DEFAULT_K):
    """Balance sigma'^2 + Omega^2 sigma^2 + K/sigma^2 (constant when Omega is)."""
    u = sigma * sigma
    return sigma_dot * sigma_dot + omega2_val * u + K / u


# ---------------------------------------------------------------------------
# direct integration

def integrate_ep(model, K, init, t0, t1, t_eval=None, n_out=201,
                 rtol=1e-10, atol=1e-12, sigma_floor=SIGMA_FLOOR,
                 max_step=math.inf):
    """Integrate the auxiliary equation, phase and balance functional.

    State components (sigma, sigma', theta, F) evolve under the same
    adaptive 5(4) stepper; theta' = 1/sigma^2 and F' = d(Omega^2)/dt * sigma^2.
    Returns one ErmakovState of columns at t_eval (default: n_out uniform
    times).
    Raises SingularityApproached when sigma falls below sigma_floor,
    DomainError when [t0, t1] leaves the model's domain and NonFiniteResult
    when a column leaves the floating-point range.
    """
    if K < 0.0:
        raise ParameterError("K < 0 regime is not supported")
    sigma0, sigma_dot0 = init
    if not sigma0 > sigma_floor:
        raise SingularityApproached(
            f"initial sigma {sigma0} at or below floor {sigma_floor}")
    model.domain.require(t0)
    model.domain.require(t1)
    if t_eval is None:
        t_eval = np.linspace(t0, t1, n_out)

    coeffs = model.coeffs

    def rhs(t, y):
        sigma, sigma_dot, _, _ = y.tolist()
        if not 1e-100 < abs(sigma) < 1e100:
            # past these bounds the powers below can overflow or divide by
            # zero, which raises on a float; a numpy scalar gives inf
            sigma = np.float64(sigma)
        w2, w2_dot = coeffs(t)
        u = sigma ** 2
        return (sigma_dot, -w2 * sigma + K / sigma ** 3, 1.0 / u, w2_dot * u)

    def guard(t, y):
        if y[0] < sigma_floor:
            raise SingularityApproached(
                f"sigma reached {y[0]:.3e} at t={t:.6g}")

    y0 = np.array([sigma0, sigma_dot0, 0.0, 0.0])
    ts, ys = dopri.solve(rhs, t0, t1, y0, rtol=rtol, atol=atol,
                         t_eval=t_eval, max_step=max_step, step_callback=guard)
    sigma, sigma_dot, theta, F = np.reshape(ys, (-1, 4)).T
    k = conserved_k(sigma, sigma_dot, models.omega2(model, ts), K) - F
    state = ErmakovState(t=ts, sigma=sigma, sigma_dot=sigma_dot, theta=theta,
                         k=k, F=F)
    for name, column in vars(state).items():
        bad = ~np.isfinite(column)
        if bad.any():
            raise NonFiniteResult(
                f"{model.name}: {name} is first not finite at "
                f"t={float(ts[bad.argmax()])!r}")
    return state


# ---------------------------------------------------------------------------
# closed-form phases

def arctan_tan_continuous(gain, psi):
    """Continuous branch of arctan(gain * tan(psi)): adds pi per pole crossing."""
    psi = np.asarray(psi, dtype=float)
    n = np.floor((psi + 0.5 * math.pi) / math.pi)
    wrapped = psi - n * math.pi
    branch = math.pi if gain >= 0.0 else -math.pi
    out = np.arctan(gain * np.tan(wrapped)) + n * branch
    return float(out) if out.ndim == 0 else out


PHASE_CASES = ("harmonic_const", "harmonic_oscillating", "kc_hyperbolic",
               "exp_frequency", "tsquared", "bessel_series")


def phase_closed_form(case, params, t0, t1):
    """Accumulated phase theta(t1) - theta(t0) of a named closed-form case.

    `params` supplies the case constants (see PHASE_CASES).  Every returned
    phase is the continuous, nondecreasing branch.
    """
    if case == "harmonic_const":
        return 2.0 * params["omega0"] * (t1 - t0)
    if case == "harmonic_oscillating":
        omega0 = params["omega0"]
        kconst = params["kconst"]
        c1 = params.get("c1", 0.0)
        S = math.sqrt(kconst ** 2 - omega0 ** 2)
        gain = (kconst + S) / omega0

        def th(t):
            return 2.0 * arctan_tan_continuous(gain, c1 + omega0 * t)

        return th(t1) - th(t0)
    if case == "kc_hyperbolic":
        omega0 = params["omega0"]
        gamma = params["gamma"]
        Omega2 = omega0 ** 2 - 0.25 * gamma ** 2
        if Omega2 >= 0.0:
            raise ParameterError("hyperbolic phase requires omega0^2 < gamma^2/4")
        L = math.sqrt(-Omega2)
        c1 = params.get("c1", 0.0)
        c2 = params.get("c2", 0.0)
        gain = math.sqrt(4.0 * L * L * c1 * c1 + 1.0) - 2.0 * L * c1

        def th(t):
            return 2.0 * math.atan(gain * math.tanh(c2 + L * t))

        return th(t1) - th(t0)
    if case == "exp_frequency":
        omega0 = params["omega0"]
        gamma0 = params["gamma0"]
        return 2.0 * omega0 / gamma0 * (math.exp(-gamma0 * t0)
                                        - math.exp(-gamma0 * t1))
    if case == "tsquared":
        if min(t0, t1) <= 0.0:
            raise DomainError("tsquared phase requires positive times")
        b = params["m0"] * params["c"] ** 2
        return 1.0 / (b * t0) - 1.0 / (b * t1)
    if case == "bessel_series":
        from . import series as _series
        s = params.get("series")
        if s is None:
            s = _series.build_series(params["omega0"], params["lam"],
                                     params["mu_s"], params.get("order", 10))
        return _series.theta_series(s, t0, t1)
    raise UnknownCase(f"unknown phase case {case!r}; choose from {PHASE_CASES}")

