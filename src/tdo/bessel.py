"""First-kind Bessel function J_rho built from its defining expansions.

Points at or below the switchover |x| = 12 take the ascending power series,
points above it the Hankel asymptotic expansion.  Each region is evaluated
in one array pass: every point keeps its own truncation rule through a
"still converging" mask, so a point's sum stops where a scalar loop over
that point would stop.  Values come with analytic first and second
derivatives (termwise differentiation of whichever expansion is in use), so
ODE residual checks need no finite differencing.  `jv` documents the
supported domain; outside it the evaluator raises rather than return a
wrong value.
"""

import math

import numpy as np

from .errors import ParameterError

SWITCHOVER = 12.0
# below X_MIN the series' x^2 and J'' ~ x^(rho - 2) leave the float range
X_MIN = 1e-150
# a Hankel point whose first omitted term, weighted as in J'', exceeds this
# raises: the expansion cannot reach the evaluator's accuracy there
HANKEL_TOL = 1e-10
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _jv_series(rho, gamma, x):
    # J = sum_m (-1)^m (x/2)^(2m+rho) / (m! Gamma(m+rho+1)); termwise d/dx.
    # A point stops once m > x/2 and its next term is below 1e-18 of each
    # of its three sums, so J' and J'' get their first nonzero terms even
    # where J's leading term alone already meets the bound.
    half = 0.5 * x
    term = half ** rho / gamma
    s0, s1, s2 = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    live = np.ones(x.shape, dtype=bool)
    m = 0
    while True:
        p = 2 * m + rho
        t = np.where(live, term, 0.0)
        s0 += t
        s1 += t * p
        s2 += t * p * (p - 1.0)
        m += 1
        term *= -(half * half) / (m * (m + rho))
        p = 2 * m + rho
        size = np.abs(term)
        live &= ~((size < 1e-18 * (np.abs(s0) + 1e-300))
                  & (size * p < 1e-18 * (np.abs(s1) + 1e-300))
                  & (size * p * (p - 1.0) < 1e-18 * (np.abs(s2) + 1e-300))
                  & (m > half))
        if m > 400 or not live.any():  # m > 400 is unreachable for x <= 12
            break
    return s0, s1 / x, s2 / (x * x)


def _jv_asymptotic(rho, x):
    # Hankel expansion J = F(x) cos(chi) + G(x) sin(chi) with
    # chi = x - rho*pi/2 - pi/4,
    # F =  sqrt(2/pi) * sum_{k even} (-1)^(k//2) A_k x^(-1/2-k),
    # G = -sqrt(2/pi) * sum_{k odd}  (-1)^(k//2) A_k x^(-1/2-k),
    # A_k = prod_{j<=k} (4 rho^2 - (2j-1)^2) / (k! 8^k).
    # Each term is an exact power of x, so F', F'', G', G'' are termwise.
    # The expansion is asymptotic: terms may grow while (2k-1)^2 < 4 rho^2,
    # and past that a point stops at its smallest term.  It also stops once
    # its next term, weighted as in J'', is below 1e-18, or past k = 60.
    # A point whose weighted first omitted term exceeds HANKEL_TOL raises.
    mu4 = 4.0 * rho * rho
    chi = x - rho * math.pi / 2.0 - math.pi / 4.0
    cc, ss = np.cos(chi), np.sin(chi)
    pref = _SQRT_2_OVER_PI / np.sqrt(x)
    F = [np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)]
    G = [np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)]
    live = np.ones(x.shape, dtype=bool)
    t = np.ones_like(x)  # running A_k / x^k
    err = np.zeros_like(x)
    k = 0
    while True:
        p = -0.5 - k
        v = np.where(live, pref * t * (-1.0) ** (k // 2), 0.0)
        if k % 2 == 1:
            v = -v
            acc = G
        else:
            acc = F
        acc[0] += v
        acc[1] += v * p / x
        acc[2] += v * p * (p - 1.0) / (x * x)
        k += 1
        t_next = t * (mu4 - (2 * k - 1) ** 2) / (8.0 * k * x)
        weight = np.maximum(1.0, (k + 0.5) * (k + 1.5) / (x * x))
        size = np.abs(t_next) * weight
        stop = (size < 1e-18) | (((2 * k - 1) ** 2 > mu4)
                                 & (np.abs(t_next) >= np.abs(t)))
        err = np.where(live, pref * size, err)
        live &= ~stop
        if k > 60 or not live.any():
            break
        t = np.where(live, t_next, 0.0)
    (Fv, Fd, Fdd), (Gv, Gd, Gdd) = F, G
    j = Fv * cc + Gv * ss
    dj = (Fd + Gv) * cc + (Gd - Fv) * ss
    d2j = (Fdd + 2.0 * Gd - Fv) * cc + (Gdd - 2.0 * Fd - Gv) * ss
    bad = x[err > HANKEL_TOL]
    if bad.size:
        raise ParameterError(
            f"J_{rho:g} at x = {float(bad[0])!r}: the Hankel expansion "
            f"cannot reach {HANKEL_TOL:g} there (order too high for x)")
    return j, dj, d2j


def jv(rho, x):
    """J_rho(x) with first and second derivatives, as a (J, J', J'') triple.

    x may be a scalar or an array; each output has the shape of x, and a
    scalar x gives floats.  Inside the supported domain J, J' and J'' match
    a library reference to about 1e-10 of max(1, |value|); outside it a
    ParameterError is raised.  The domain: a finite order rho >= 0 whose
    1/Gamma(rho + 1) does not overflow (rho below about 170), finite
    x >= X_MIN, and above the switchover a Hankel error estimate of at most
    HANKEL_TOL.  The estimate holds for every x > 12 below order 7.9; at
    higher orders, half-integers aside (their expansion terminates), it
    fails just above 12: on about (12, 12.6] at rho = 10, (12, 34] at 50.
    """
    if not 0.0 <= rho < math.inf:
        raise ParameterError(f"order rho must be finite and >= 0, got {rho!r}")
    try:
        gamma = math.gamma(rho + 1.0)
    except OverflowError:
        raise ParameterError(f"order rho = {rho!r} overflows the series "
                             "prefactor 1/Gamma(rho + 1)")
    xs = np.asarray(x, dtype=float)
    if not np.all((xs >= X_MIN) & (xs < math.inf)):
        raise ParameterError(f"Bessel evaluator requires finite x >= {X_MIN}")
    flat = xs.ravel()
    out = np.empty((3, flat.size))
    low = flat <= SWITCHOVER
    if low.any():
        out[:, low] = _jv_series(rho, gamma, flat[low])
    if not low.all():
        out[:, ~low] = _jv_asymptotic(rho, flat[~low])
    if xs.ndim == 0:
        return tuple(float(v) for v in out[:, 0])
    return tuple(v.reshape(xs.shape) for v in out)


def defining_ode_residual(rho, x, values=None):
    """Residual of Z'' + Z'/x + (1 - rho^2/x^2) Z at x (scalar or array).

    `values` is the (J, J', J'') triple of `jv(rho, x)` when the caller
    already holds it.
    """
    j, dj, d2j = jv(rho, x) if values is None else values
    xs = np.asarray(x, dtype=float)
    return d2j + dj / xs + (1.0 - rho * rho / (xs * xs)) * j
