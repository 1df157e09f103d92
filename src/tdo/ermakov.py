"""Auxiliary-equation machinery: closed forms, integration and phases.

The auxiliary equation sigma'' + Omega^2(t) sigma = K / sigma^3 is solved
two independent ways: as the square root of a quadratic form in a
closed-form basis of the reduced linear equation y'' + Omega^2 y = 0
(superposition closed form), and as the modulus of one complex solution
z of that equation with Wronskian sqrt(K) (Milne's construction,
`integrate_ep`).  z takes one of three routes, picked by `integrate_ep`
from the model and the start: in closed form when the model declares its
exact unit-data basis and K > 0 (harmonic, kanai_caldirola,
exp_frequency, tsquared; the minimal branch of the last two excepted),
and otherwise stepped adaptively, in polar form when the start lies on
the minimal branch and in Cartesian form from any other start.  On the
stepped routes the phase theta = integral dt/sigma^2 and the balance
functional F = integral d(Omega^2)/dt * sigma^2 dt ride along as extra
state components of the same stepper, so every quadrature shares the
trajectory's error control.  A trajectory is one `ErmakovState` whose
fields are equal-length columns, one entry per output time.  The
closed-form phases of the oscillating and hyperbolic branches,
`phase_oscillating` and `phase_hyperbolic`, take the branch's constants
and the window (t0, t1); the constant branch's is 2 omega0 (t1 - t0).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dopri, models
from .errors import (BudgetExceeded, NonFiniteResult, ParameterError,
                     SingularityApproached, StepSizeUnderflow, require_finite)

DEFAULT_K = 0.25
SIGMA_FLOOR = 1e-8
# A start this close (relative) to the minimal branch is stepped in the
# polar pair.  Starts built from the closed forms lie within a few ulp,
# and the pair's gain fades fast off the branch: bessel_type (nu = 80),
# stepped over the 37.5 periods of its frequency on [0.1, 1.9] from the
# minimal start scaled by 1 + d, makes 6,976 / 6,979 / 8,959 / 10,606
# coeffs calls in it at d = 0 / 1e-9 / 1e-6 / 1e-5, and 9,097 in the
# Cartesian.
BRANCH_RTOL = 1e-9


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


def harmonic_basis(omega0):
    """cos/sin basis of the constant-frequency reduced equation."""
    models._require_positive(omega0=omega0)
    return BasisPair(
        y1=lambda t: np.cos(omega0 * np.asarray(t, dtype=float)),
        y1_dot=lambda t: -omega0 * np.sin(omega0 * np.asarray(t, dtype=float)),
        y2=lambda t: np.sin(omega0 * np.asarray(t, dtype=float)),
        y2_dot=lambda t: omega0 * np.cos(omega0 * np.asarray(t, dtype=float)),
        W0=omega0,
    )


def hyperbolic_basis(L):
    """cosh/sinh basis for a constant negative effective squared frequency."""
    models._require_positive(L=L)
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

    Raises ParameterError when A*B - C^2 strays from K/W0^2 beyond 1e-8
    relative, or when the radicand is not positive.
    """
    target = comb.K / pair.W0 ** 2
    if abs(constraint_gap(pair, comb)) > 1e-8 * max(1.0, abs(target)):
        raise ParameterError(
            f"A*B - C^2 = {comb.A * comb.B - comb.C ** 2!r} but K/W0^2 = {target!r}")
    y1, y2 = pair.y1(t), pair.y2(t)
    y1d, y2d = pair.y1_dot(t), pair.y2_dot(t)
    u = comb.A * y1 * y1 + comb.B * y2 * y2 + 2.0 * comb.C * y1 * y2
    if np.any(np.asarray(u) <= 0.0):
        raise ParameterError("superposition radicand is not positive")
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
# constant-frequency closed-form branches, their fits and phases

def _oscillating_S(omega0, kconst):
    """sqrt(kconst^2 - omega0^2) of the oscillating branch, which requires
    omega0 > 0 and kconst >= omega0."""
    models._require_positive(omega0=omega0)
    if not kconst >= omega0:
        raise ParameterError(f"oscillating branch requires kconst >= omega0, "
                             f"got kconst={kconst!r}, omega0={omega0!r}")
    # float ** raises OverflowError; products overflow to inf
    square = kconst * kconst - omega0 * omega0
    models._require_finite("kconst^2 - omega0^2", square)
    return math.sqrt(square)


def oscillating_combination(omega0, kconst, c1):
    """Constants reproducing the oscillating branch (K = 1/4) at all times.

    sigma^2 = [k - sqrt(k^2 - omega0^2) cos(2 c1 + 2 omega0 t)]/(2 omega0^2);
    requires kconst >= omega0 > 0.
    """
    S = _oscillating_S(omega0, kconst)
    den = models._divisor("2 omega0^2", 2.0 * omega0 ** 2)
    return PinneyCombination(
        A=(kconst - S * math.cos(2.0 * c1)) / den,
        B=(kconst + S * math.cos(2.0 * c1)) / den,
        C=S * math.sin(2.0 * c1) / den,
        K=DEFAULT_K,
    )


def sigma_oscillating(omega0, kconst, c1, t):
    """Oscillating constant-frequency branch: (sigma, sigma') at t."""
    S = _oscillating_S(omega0, kconst)
    den = models._divisor("2 omega0^2", 2.0 * omega0 ** 2)
    phi = 2.0 * c1 + 2.0 * omega0 * np.asarray(t, dtype=float)
    u = (kconst - S * np.cos(phi)) / den
    sigma = np.sqrt(u)
    u_dot = S * np.sin(phi) / omega0
    return sigma, u_dot / (2.0 * sigma)


def fit_oscillating(omega0, sigma0, sigma_dot0, t0):
    """(kconst, c1) of the oscillating branch through (sigma0, sigma0') at t0."""
    models._require_positive(sigma0=sigma0)
    u0 = sigma0 * sigma0
    kconst = sigma_dot0 ** 2 + omega0 ** 2 * u0 + 1.0 / (4.0 * u0)
    S = math.sqrt(max(kconst ** 2 - omega0 ** 2, 0.0))
    if S == 0.0:
        return kconst, 0.0
    cos_phi = (kconst - 2.0 * omega0 ** 2 * u0) / S
    sin_phi = 2.0 * omega0 * sigma0 * sigma_dot0 / S
    phi0 = math.atan2(sin_phi, cos_phi)
    return kconst, 0.5 * (phi0 - 2.0 * omega0 * t0)


def phase_oscillating(omega0, kconst, c1, t0, t1):
    """Phase theta(t1) - theta(t0) = integral dt/sigma^2 on the oscillating
    branch: 2 arctan(gain tan(c1 + omega0 t)) with gain = (kconst +
    sqrt(kconst^2 - omega0^2))/omega0, on its continuous, nondecreasing
    branch."""
    gain = (kconst + _oscillating_S(omega0, kconst)) / omega0
    models._require_finite("(kconst + sqrt(kconst^2 - omega0^2))/omega0",
                           gain)

    def th(t):
        # arctan(gain tan(psi)) continued by pi across each pole of tan
        psi = np.asarray(c1 + omega0 * t, dtype=float)
        n = np.floor((psi + 0.5 * math.pi) / math.pi)
        out = np.arctan(gain * np.tan(psi - n * math.pi)) + n * math.pi
        return 2.0 * (float(out) if out.ndim == 0 else out)

    return th(t1) - th(t0)


def _four_L2(L):
    """4 L^2 of the hyperbolic branch, which requires L > 0."""
    models._require_positive(L=L)
    return models._divisor("4 L^2", 4.0 * L * L)


def _hyperbolic_R(L, c1):
    """sqrt(c1^2 + 1/(4 L^2)) of the hyperbolic branch."""
    square = c1 * c1 + 1.0 / _four_L2(L)
    models._require_finite("c1^2 + 1/(4 L^2)", square)
    return math.sqrt(square)


def hyperbolic_combination(L, c1, c2):
    """Constants reproducing the hyperbolic branch on the cosh/sinh basis.

    With y1 = cosh(Lt), y2 = sinh(Lt) the quadratic form equals
    c1 + sqrt(c1^2 + 1/(4L^2)) cosh(2 c2 + 2 L t); K = 1/4.
    """
    R = _hyperbolic_R(L, c1)
    return PinneyCombination(A=c1 + R * math.cosh(2.0 * c2),
                             B=R * math.cosh(2.0 * c2) - c1,
                             C=R * math.sinh(2.0 * c2),
                             K=DEFAULT_K)


def sigma_hyperbolic(L, c1, c2, t):
    """Hyperbolic branch for constant negative effective squared frequency.

    sigma^2 = c1 + sqrt(c1^2 + 1/(4 L^2)) cosh(2 c2 + 2 L t).
    """
    R = _hyperbolic_R(L, c1)
    psi = 2.0 * c2 + 2.0 * L * np.asarray(t, dtype=float)
    u = c1 + R * np.cosh(psi)
    sigma = np.sqrt(u)
    u_dot = 2.0 * L * R * np.sinh(psi)
    return sigma, u_dot / (2.0 * sigma)


def fit_hyperbolic(L, sigma0, sigma_dot0, t0):
    """(c1, c2) of the hyperbolic branch through (sigma0, sigma0') at t0."""
    models._require_positive(sigma0=sigma0)
    four_L2 = _four_L2(L)
    u0 = sigma0 * sigma0
    u0_dot = 2.0 * sigma0 * sigma_dot0
    c1 = (u0 * u0 - (u0_dot ** 2 + 1.0) / four_L2) / (2.0 * u0)
    R = _hyperbolic_R(L, c1)
    psi0 = math.asinh(u0_dot / (2.0 * L * R))
    return c1, 0.5 * psi0 - L * t0


def phase_hyperbolic(L, c1, c2, t0, t1):
    """Phase theta(t1) - theta(t0) = integral dt/sigma^2 on the hyperbolic
    branch: 2 arctan(gain tanh(c2 + L t)) with gain = sqrt(4 L^2 c1^2 + 1)
    - 2 L c1."""
    models._require_positive(L=L)
    square = 4.0 * L * L * c1 * c1
    models._require_finite("4 L^2 c1^2", square)
    gain = math.sqrt(square + 1.0) - 2.0 * L * c1

    def th(t):
        return 2.0 * math.atan(gain * math.tanh(c2 + L * t))

    return th(t1) - th(t0)


def conserved_k(sigma, sigma_dot, omega2_val, K=DEFAULT_K):
    """Balance sigma'^2 + Omega^2 sigma^2 + K/sigma^2 (constant when Omega is)."""
    u = sigma * sigma
    return sigma_dot * sigma_dot + omega2_val * u + K / u


# ---------------------------------------------------------------------------
# integration

def _on_a_branch(model, K, sigma0, sigma_dot0, t0):
    """Whether (sigma0, sigma0') at t0 lies, within BRANCH_RTOL, on the
    minimal branch (nu(t0) = 0: K/sigma0^4 = omega^2, sigma0'/sigma0 = M/2).
    Rates are measured against z's turning rate sqrt(K)/sigma0^2; K = 0
    and non-finite intermediates give False."""
    sigma0, sigma_dot0 = float(sigma0), float(sigma_dot0)
    # float ** raises OverflowError; products overflow to inf, quotients to 0
    rate2 = float(K) / (sigma0 * sigma0) / (sigma0 * sigma0)
    if not 0.0 < rate2 < math.inf:
        return False
    t0 = float(t0)
    with np.errstate(all="ignore"):
        w = float(model.omega(t0))
        half_M = 0.5 * float(model.m_dot(t0) / model.m(t0))
    # a nan or inf target fails its comparison
    return (abs(rate2 - w * w) <= BRANCH_RTOL * rate2
            and abs(sigma_dot0 / sigma0 - half_M)
            <= BRANCH_RTOL * math.sqrt(rate2))


def integrate_ep(model, K, init, t0, t1, t_eval=None, rtol=1e-10):
    """Integrate the auxiliary equation, phase and balance functional.

    sigma is the modulus of z = sigma exp(i sqrt(K) theta), the complex
    solution of the linear equation z'' + Omega^2 z = 0 with z(t0) = sigma0
    and z'(t0) = sigma0' + i sqrt(K)/sigma0, whose Wronskian x v' - x' v
    is sqrt(K) (Milne, Phys. Rev. 35, 863, 1930; Pinney, Proc. AMS 1, 681,
    1950).  z takes one of three routes, picked from the model and the
    start, never by the caller:

    - exact, when the model declares its unit basis
      (`ModelDescriptor.unit_basis`: harmonic, kanai_caldirola,
      exp_frequency, tsquared) and K > 0: z and F are evaluated in closed
      form at the output times and theta = arg z / sqrt(K) takes its turn
      from the basis's turn variable (`_propagate`).  A start on the
      minimal branch of a time-dependent Omega^2 (d(Omega^2)/dt != 0 at
      t0) is the exception and is stepped in the polar pair.
    - polar, stepped, when init starts the minimal branch (nu(t0) = 0;
      `_on_a_branch`), where sigma moves slowly while z still turns: the
      state is (sigma, sigma', theta, F/s) under the auxiliary equation
      sigma'' + Omega^2 sigma = K/sigma^3 itself.
    - Cartesian, stepped, from any other start: the state is (x, x', v,
      v', theta, F/s) with z = x + i v and a linear right-hand side.  z
      turns once per period whatever sigma does, so this is the cheaper
      pair when sigma oscillates.

    The stepped routes (K = 0, bessel_type, tables and that exception)
    use the adaptive 8th-order stepper (dopri.solve, DOP853, absolute
    tolerance 1e-12) with theta' = 1/sigma^2 and F' = d(Omega^2)/dt *
    sigma^2 riding along, and read the rows from its continuous extension
    between steps.  F, which enters the results only through k, is
    stepped as F/s with s = max(1, rtol |k0| / 1e-12) and k0 the balance
    at t0; its absolute tolerance is so 1e-12 s, on k's scale.  The exact
    and the Cartesian route share what follows: sigma = hypot(x, v),
    sigma' = (x x' + v v')/sigma and, for K > 0, theta = arg z / sqrt(K)
    on the turn the stepped (or counted) theta lies on.  Returns one
    ErmakovState of columns at t_eval (default: 201 uniform times).

    Raises NonFiniteResult when k0 or a column leaves the floating-point
    range, SingularityApproached when sigma falls below SIGMA_FLOOR at an
    accepted step and DomainError when [t0, t1] leaves the model's
    domain.  The stepper's StepSizeUnderflow and BudgetExceeded come back
    with the model's name and the sigma of the last accepted step added
    to their message; the exact route raises StepSizeUnderflow when the
    float times cannot resolve the basis's fastest half turn.
    """
    if K < 0.0:
        raise ParameterError("K < 0 regime is not supported")
    sigma0, sigma_dot0 = init
    if not sigma0 > SIGMA_FLOOR:
        raise SingularityApproached(
            f"initial sigma {sigma0} at or below floor {SIGMA_FLOOR}")
    model.domain.require(t0)
    model.domain.require(t1)
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 201)

    w2, w2_dot = model.coeffs(float(t0))
    k0 = conserved_k(sigma0, sigma_dot0, w2, K)
    if not math.isfinite(k0):
        raise NonFiniteResult(
            f"{model.name}: k is first not finite at t={float(t0)!r}")

    exact = model.unit_basis is not None and K > 0.0
    # a minimal-branch start on a time-dependent Omega^2 still steps the
    # polar pair: the benchmark's traced-count test needs that stepped call
    # (bench/test_bench.py; see ROADMAP)
    polar = ((not exact or w2_dot != 0.0)
             and _on_a_branch(model, K, sigma0, sigma_dot0, t0))
    if exact and not polar:
        ts, ys = _propagate(model, K, sigma0, sigma_dot0, t0, t1, t_eval)
    else:
        ts, ys = _step(model, K, sigma0, sigma_dot0, t0, t1, t_eval, rtol,
                       k0, polar)
    # what leaves the float range is reported below
    with np.errstate(all="ignore"):
        if polar:
            sigma, sigma_dot, theta, F = ys.T
        else:
            x, x_dot, v, v_dot, theta, F = ys.T
            sigma = np.hypot(x, v)
            sigma_dot = (x * x_dot + v * v_dot) / sigma
            if K > 0.0:
                # sqrt(K) theta is the angle of z (arg z0 = 0), as accurate
                # as z itself; the stepped or counted theta picks its turn.
                # Where theta stalls, the angle's rounding (a few ulp) must
                # not turn it back
                root_k = math.sqrt(K)
                turn = np.arctan2(v, x) - root_k * theta
                turn -= 2.0 * math.pi * np.round(turn / (2.0 * math.pi))
                theta = np.maximum.accumulate(theta + turn / root_k)
        k = conserved_k(sigma, sigma_dot, models.omega2(model, ts), K) - F
    state = ErmakovState(t=ts, sigma=sigma, sigma_dot=sigma_dot, theta=theta,
                         k=k, F=F)
    require_finite(model.name, ts, vars(state))
    return state


def _propagate(model, K, sigma0, sigma_dot0, t0, t1, t_eval):
    """Rows (x, x', v, v', theta, F) of z = x + i v at t_eval in closed
    form, for a model that declares its unit basis, and K > 0.

    With the basis C, S of z'' + Omega^2 z = 0 from t0
    (`ModelDescriptor.unit_basis`), z = sigma0 C + (sigma0' + i
    sqrt(K)/sigma0) S and F = sigma0^2 I_CC + 2 sigma0 sigma0' I_CS +
    (sigma0'^2 + K/sigma0^2) I_SS.  theta = arg z / sqrt(K) takes its turn
    from the basis's turn variable phi: z(phi + pi) = -z up to a positive
    factor and arg z grows, so where phi lies in [n pi, (n + 1) pi), arg z
    does too, however far apart the rows are.  Where the basis does not
    turn (Omega^2 <= 0), v >= 0 and arg z stays in [0, pi].  Returns (ts,
    ys) as dopri.solve does for the Cartesian pair, output times up to
    1e-12 outside [t0, t1] taking the state at the nearer end.

    Raises StepSizeUnderflow when the half period pi/rate at the basis's
    fastest turn lies below the stepper's floor 1e-14 max(1, |t0|, |t1|),
    where float times cannot resolve it.
    """
    t0, t1 = float(t0), float(t1)
    ts = dopri.output_times(t0, t1, t_eval)
    basis = model.unit_basis(t0, np.clip(ts, t0, t1))
    half = math.pi / basis.rate if basis.rate > 0.0 else math.inf
    floor = 1e-14 * max(1.0, abs(t0), abs(t1))
    if half < floor:
        raise StepSizeUnderflow(
            f"{model.name}: no usable first step at t={t0!r}: the half "
            f"period {half!r} is below the step floor {floor!r}")
    root_k = math.sqrt(K)
    # past the float range the columns turn inf or nan, which the caller
    # reports
    with np.errstate(all="ignore"):
        c, c_dot, s, s_dot, phi = basis[:5]
        x = sigma0 * c + sigma_dot0 * s
        x_dot = sigma0 * c_dot + sigma_dot0 * s_dot
        v, v_dot = root_k / sigma0 * s, root_k / sigma0 * s_dot
        F = (sigma0 * (sigma0 * basis.i_cc + 2.0 * sigma_dot0 * basis.i_cs)
             + (sigma_dot0 * sigma_dot0 + K / (sigma0 * sigma0)) * basis.i_ss)
        # the true angle lies within pi/2 of its half turn's middle
        phase = np.arctan2(v, x)
        middle = (np.floor(phi / math.pi) + 0.5) * math.pi
        phase += 2.0 * math.pi * np.round((middle - phase) / (2.0 * math.pi))
    return ts, np.column_stack((x, x_dot, v, v_dot, phase / root_k, F))


def _step(model, K, sigma0, sigma_dot0, t0, t1, t_eval, rtol, k0, polar):
    """Rows of the polar pair (sigma, sigma', theta, F) or of the Cartesian
    pair (x, x', v, v', theta, F) at t_eval, stepped by dopri.solve with F
    as F/s; see integrate_ep."""
    atol = 1e-12
    s = max(1.0, rtol * abs(k0) / atol)
    coeffs = model.coeffs
    if polar:
        def rhs(t, y):
            sigma, sigma_dot, _, _ = y
            if not 1e-100 < abs(sigma) < 1e100:
                # past these bounds the powers below can overflow or divide
                # by zero, which raises on a float; a numpy scalar gives inf
                sigma = np.float64(sigma)
            w2, w2_dot = coeffs(t)
            u = sigma ** 2
            return (sigma_dot, -w2 * sigma + K / sigma ** 3, 1.0 / u,
                    w2_dot * u / s)

        y0 = [sigma0, sigma_dot0, 0.0, 0.0]
    else:
        def rhs(t, y):
            x, x_dot, v, v_dot, _, _ = y
            w2, w2_dot = coeffs(t)
            u = x * x + v * v
            # u underflows to 0 or overflows to inf on a float without
            # raising; only the division must be kept off 0
            return (x_dot, -w2 * x, v_dot, -w2 * v,
                    1.0 / u if u else math.inf, w2_dot * u / s)

        y0 = [sigma0, sigma_dot0, 0.0, math.sqrt(K) / sigma0, 0.0, 0.0]

    last = [sigma0]  # sigma of the last accepted step

    def guard(t, y):
        sigma = y[0] if polar else math.hypot(y[0], y[2])
        if sigma < SIGMA_FLOOR:
            raise SingularityApproached(
                f"sigma reached {sigma:.3e} at t={t:.6g}")
        last[0] = sigma

    try:
        ts, ys = dopri.solve(rhs, t0, t1, y0, rtol=rtol, atol=atol,
                             t_eval=t_eval, step_callback=guard)
    except (StepSizeUnderflow, BudgetExceeded) as exc:
        raise type(exc)(f"{model.name}: {exc}; last accepted "
                        f"sigma={float(last[0])!r}") from exc
    return ts, np.column_stack((ys[:, :-1], s * ys[:, -1]))
