"""Auxiliary-equation machinery: closed forms, integration and phases.

The auxiliary equation sigma'' + Omega^2(t) sigma = K / sigma^3 is solved
as the modulus of one complex solution z of the reduced linear equation
z'' + Omega^2 z = 0 with Wronskian sqrt(K) (Milne's construction,
`integrate_ep`), Pinney's superposition z = sigma0 C + (sigma0' + i
sqrt(K)/sigma0) S on the unit basis C, S of the linear equation, so that
sigma^2 = |z|^2 is a quadratic form in the basis (`pinney_residual`).  The
basis is the model's declared closed form where it has one and K > 0
(harmonic, kanai_caldirola, exp_frequency, tsquared; the minimal branch of
the last two excepted), and is otherwise stepped adaptively from unit
data, its turn variable and balance integrals riding along as extra
state components.  Either way the phase theta = integral dt/sigma^2 and
the balance functional F = integral d(Omega^2)/dt * sigma^2 dt follow
from the basis by algebra.  The independent checks are the closed-form
branches of a constant Omega^2 (`sigma_oscillating`, `sigma_hyperbolic`)
with their fits, and `verify`'s nonlinear oracle.  A trajectory is one
`ErmakovState` of equal-length columns, one entry per output time.  The
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
# sigma below this absolute floor raises SingularityApproached; it does not
# scale with sigma0, so a scale-equivalent start that is tiny enough trips it
SIGMA_FLOOR = 1e-8
# A start this close (relative) to the minimal branch of a time-dependent
# Omega^2 steps the basis even where the model declares it (integrate_ep);
# starts built from the closed forms lie within a few ulp.
BRANCH_RTOL = 1e-9


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
    1950).  Every start takes one route, `_propagate`'s algebra on the
    unit basis C, S of the linear equation from t0.  The basis is the
    model's declared one (`ModelDescriptor.unit_basis`) when K > 0, and is
    otherwise stepped from unit data (`_stepped_basis`): on bessel_type,
    tables, K = 0 and, on a time-dependent Omega^2 (d(Omega^2)/dt != 0
    at t0), from a start on the minimal branch (`_on_a_branch`).  Returns
    one ErmakovState of columns at t_eval (default: 201 uniform times).

    Raises NonFiniteResult when k0 or a column leaves the floating-point
    range, SingularityApproached when sigma = |z| falls below the absolute
    SIGMA_FLOOR at an accepted step or, for K = 0, when the real z changes
    sign across one, and DomainError when [t0, t1] leaves the model's
    domain.  The stepper's StepSizeUnderflow and BudgetExceeded come back
    with the model's name and the sigma of the last accepted step added
    to their message; a declared basis raises StepSizeUnderflow when the
    float times cannot resolve its fastest half turn.
    """
    if K < 0.0:
        raise ParameterError("K < 0 regime is not supported")
    sigma0, sigma_dot0 = init
    if not sigma0 > SIGMA_FLOOR:
        raise SingularityApproached(
            f"initial sigma {sigma0} at or below floor {SIGMA_FLOOR}")
    model.domain.require([t0, t1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, 201)

    w2, w2_dot = model.coeffs(float(t0))
    k0 = conserved_k(sigma0, sigma_dot0, w2, K)
    if not math.isfinite(k0):
        raise NonFiniteResult(
            f"{model.name}: k is first not finite at t={float(t0)!r}")

    t0, t1 = float(t0), float(t1)
    ts = dopri.output_times(t0, t1, t_eval)
    # a minimal-branch start on a time-dependent Omega^2 steps the basis:
    # the benchmark's traced-count test needs that stepped call
    # (bench/test_bench.py; see ROADMAP)
    if (model.unit_basis is not None and K > 0.0
            and not (w2_dot != 0.0
                     and _on_a_branch(model, K, sigma0, sigma_dot0, t0))):
        basis = _declared_basis(model, t0, t1, ts)
    else:
        basis = _stepped_basis(model, K, sigma0, sigma_dot0, t0, t1, ts,
                               rtol, w2)
    x, x_dot, v, v_dot, theta, F = _propagate(K, sigma0, sigma_dot0, basis)
    # what leaves the float range is reported below
    with np.errstate(all="ignore"):
        sigma = np.hypot(x, v)
        sigma_dot = (x * x_dot + v * v_dot) / sigma
        k = conserved_k(sigma, sigma_dot, models.omega2(model, ts), K) - F
    state = ErmakovState(t=ts, sigma=sigma, sigma_dot=sigma_dot, theta=theta,
                         k=k, F=F)
    require_finite(model.name, ts, vars(state))
    return state


def _propagate(K, sigma0, sigma_dot0, basis):
    """Columns (x, x', v, v', theta, F) of z = x + i v = sigma0 C +
    (sigma0' + i sqrt(K)/sigma0) S on a unit basis, with F = sigma0^2 I_CC
    + 2 sigma0 sigma0' I_CS + (sigma0'^2 + K/sigma0^2) I_SS.

    For K > 0, theta = arg z / sqrt(K) takes its turn from the basis's turn
    variable phi: z(phi + pi) = -z up to a positive factor and arg z grows,
    so where phi lies in [n pi, (n + 1) pi), arg z does too, however far
    apart the rows are.  For K = 0, z is real and W(z, S/sigma0) = 1, so
    theta = S/(sigma0 z).
    """
    # columns past the float range turn inf or nan; the caller reports them
    with np.errstate(all="ignore"):
        c, c_dot, s, s_dot, phi = basis[:5]
        root_k = math.sqrt(K)
        x = sigma0 * c + sigma_dot0 * s
        x_dot = sigma0 * c_dot + sigma_dot0 * s_dot
        v, v_dot = root_k / sigma0 * s, root_k / sigma0 * s_dot
        F = (sigma0 * (sigma0 * basis.i_cc + 2.0 * sigma_dot0 * basis.i_cs)
             + (sigma_dot0 * sigma_dot0 + K / (sigma0 * sigma0)) * basis.i_ss)
        if K > 0.0:
            # the true angle lies within pi/2 of its half turn's middle
            angle = np.arctan2(v, x)
            middle = (np.floor(phi / math.pi) + 0.5) * math.pi
            theta = (angle + 2.0 * math.pi
                     * np.round((middle - angle) / (2.0 * math.pi))) / root_k
            # sqrt(K) theta rounds apart from the angle; the remainder,
            # modulo 2 pi, goes back into theta
            rest = angle - root_k * theta
            rest -= 2.0 * math.pi * np.round(rest / (2.0 * math.pi))
            theta = theta + rest / root_k
        else:
            theta = s / (sigma0 * x)
        # where theta stalls, rounding must not turn it back
        theta = np.maximum.accumulate(theta)
    return x, x_dot, v, v_dot, theta, F


def _declared_basis(model, t0, t1, ts):
    """The model's declared unit basis at ts (clipped to [t0, t1]); raises
    StepSizeUnderflow when the half period pi/rate of its fastest turn is
    below the stepper's floor 1e-14 max(1, |t0|, |t1|)."""
    basis = model.unit_basis(t0, np.clip(ts, t0, t1))
    half = math.pi / basis.rate if basis.rate > 0.0 else math.inf
    floor = 1e-14 * max(1.0, abs(t0), abs(t1))
    if half < floor:
        raise StepSizeUnderflow(
            f"{model.name}: no usable first step at t={t0!r}: the half "
            f"period {half!r} is below the step floor {floor!r}")
    return basis


def pinney_residual(model, K, init, t0, t):
    """sigma'' + Omega^2 sigma - K/sigma^3 of the superposition closed form
    at the sorted times t >= t0, for a model that declares its unit basis,
    and K > 0.

    sigma^2 = A C^2 + 2 D C S + B S^2 with A = sigma0^2, D = sigma0
    sigma0' and B = sigma0'^2 + K/sigma0^2 (so A B - D^2 = K) is |z|^2 for
    z = x + i v from `_propagate`: sigma = hypot(x, v), sigma' = (x x' + v
    v')/sigma and, as x'' = -Omega^2 x and v'' = -Omega^2 v, sigma'' =
    (x'^2 + v'^2 - Omega^2 sigma^2 - sigma'^2)/sigma, all analytic.
    """
    if model.unit_basis is None or not K > 0.0:
        raise ParameterError(f"{model.name}: the superposition closed form "
                             f"needs a declared unit basis and K > 0")
    t = np.asarray(t, dtype=float)
    x, x_dot, v, v_dot, _, _ = _propagate(K, *init, model.unit_basis(t0, t))
    w2 = models.omega2(model, t)
    sigma = np.hypot(x, v)
    sigma_dot = (x * x_dot + v * v_dot) / sigma
    sigma_ddot = (x_dot * x_dot + v_dot * v_dot - w2 * (x * x + v * v)
                  - sigma_dot * sigma_dot) / sigma
    return sigma_ddot + w2 * sigma - K / sigma ** 3


def _stepped_basis(model, K, sigma0, sigma_dot0, t0, t1, ts, rtol, w2):
    """The unit basis at ts, stepped from unit data by dopri.solve (DOP853,
    absolute tolerance 1e-12) with the balance integrands d(Omega^2)/dt
    (C^2, C S, S^2) riding along.

    S is stepped as a S with a = sqrt|Omega^2(t0)| (1 where that is 0),
    so that C + i a S turns at the rate of the motion; phi, its unwrapped
    arg, has phi' = a/(C^2 + a^2 S^2), and rate is the fastest phi' at an
    accepted step.  The integrals run as I/s with s = max(1, 4 rtol
    max(|Omega^2(t0)|, 1) / 1e-12): F, the integrals' combination, enters
    k only, whose other terms carry the rows' error of a few rtol.  The
    steps do not depend on the start, which only feeds the guard on z.
    """
    atol = 1e-12
    a = math.sqrt(abs(w2)) or 1.0
    s = max(1.0, 4.0 * rtol * max(abs(w2), 1.0) / atol)
    coeffs = model.coeffs

    def rhs(t, y):
        c, c_dot, sa, sa_dot, _, _, _, _ = y
        w2, w2_dot = coeffs(t)
        u = c * c + sa * sa
        w = w2_dot / s
        # u underflows to 0 or overflows to inf on a float without raising;
        # only the division must be kept off 0
        return (c_dot, -w2 * c, sa_dot, -w2 * sa, a / u if u else math.inf,
                w * c * c, w * c * sa, w * sa * sa)

    x_rate, v_rate = sigma_dot0 / a, math.sqrt(K) / sigma0 / a
    last = [t0, sigma0, a]  # t and sigma of the last accepted step, rate

    def guard(t, y):
        c, _, sa = y[:3]
        x = sigma0 * c + x_rate * sa
        sigma = math.hypot(x, v_rate * sa)
        if sigma < SIGMA_FLOOR:
            raise SingularityApproached(
                f"sigma reached {sigma:.3e} at t={t:.6g}")
        if x < 0.0 and not K:
            raise SingularityApproached(
                f"z changed sign in the step from t={last[0]:.6g} to "
                f"t={t:.6g}")
        last[:] = t, sigma, max(last[2], a / (c * c + sa * sa))

    try:
        _, ys = dopri.solve(rhs, t0, t1, [1.0, 0.0, 0.0, a] + [0.0] * 4,
                            rtol=rtol, atol=atol, t_eval=ts,
                            step_callback=guard)
    except (StepSizeUnderflow, BudgetExceeded) as exc:
        raise type(exc)(f"{model.name}: {exc}; last accepted "
                        f"sigma={float(last[1])!r}") from exc
    c, c_dot, sa, sa_dot, phi, i_cc, i_cs, i_ss = ys.T
    return models.UnitBasis(c, c_dot, sa / a, sa_dot / a, phi, last[2],
                            s * i_cc, s * i_cs / a, s * i_ss / a / a)
