"""Embedded Dormand-Prince 5(4) Runge-Kutta stepper with PI step-size control.

The 5th-order solution is propagated; the embedded 4th-order solution gives
the local error estimate.  Steps are clipped so they land exactly on the
requested output times, which removes the need for a dense-output
interpolant.  Quadrature components (phases, accumulated functionals) ride
along as extra state entries and therefore share the same error control as
the dynamical variables.

The step loop runs on Python floats: the state and the seven stages are
lists, and each stage combination is written out term by term.  On the
short states this package integrates (four components) numpy's per-call
cost would outweigh the arithmetic.  The right-hand side still receives a
fresh 1-D float ndarray.  The FSAL pattern costs 2 evaluations before the
first step (the slope and the initial-step probe), then 6 per attempt.
Every step attempt counts against a budget of MAX_STEPS plus one per
output time; past it the run stops with BudgetExceeded.
"""

import math

import numpy as np

from .errors import BudgetExceeded, StepSizeUnderflow

MAX_STEPS = 10 ** 6  # step attempts allowed beyond one per output time

# Butcher tableau (Dormand & Prince 1980), FSAL; c6 = c7 = 1
C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
# 5th-order weights (a72 = 0); the 7th stage is evaluated at their result
A71, A73, A74, A75, A76 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                           11 / 84)
# 5th- minus 4th-order weights (e2 = 0)
E1 = 35 / 384 - 5179 / 57600
E3 = 500 / 1113 - 7571 / 16695
E4 = 125 / 192 - 393 / 640
E5 = -2187 / 6784 + 92097 / 339200
E6 = 11 / 84 - 187 / 2100
E7 = -1 / 40

# PI controller constants (Hairer's dopri5 defaults)
_SAFETY = 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_FAC_MIN = 0.2
_FAC_MAX = 10.0


def _error_norm(e, scale):
    return float(np.sqrt(np.mean((e / scale) ** 2)))


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    """Cheap two-evaluation guess for the first step size."""
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise StepSizeUnderflow(
            f"no usable first step in dopri.solve at t={t0!r}: the slope "
            f"gives h={h0!r}")
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(t0 + h0, y1), dtype=float)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0)


def _floats(v, n):
    """A right-hand-side value as a list of n Python floats."""
    if type(v) is tuple and len(v) == n:
        return [*map(float, v)]
    return np.asarray(v, dtype=float).reshape(n).tolist()


def solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None, max_step=np.inf,
          step_callback=None):
    """Integrate y' = f(t, y) forward from t0 to t1.

    Parameters
    ----------
    f : callable(t, y) -> array_like of len(y0) values; y is a fresh 1-D
        float ndarray.
    t_eval : increasing times in [t0, t1] at which to record the solution;
        defaults to (t0, t1).
    step_callback : callable(t, y), invoked after every accepted step with
        the state as an ndarray; may raise to abort the run.

    Returns
    -------
    (ts, ys) : recorded times (ndarray) and states (ndarray, one row per time)

    Raises StepSizeUnderflow when the step falls below the resolution of
    the time axis and BudgetExceeded after len(t_eval) + MAX_STEPS step
    attempts.
    """
    t0 = float(t0)
    t1 = float(t1)
    if not t1 >= t0:
        raise ValueError("t1 must be >= t0")
    y_arr = np.array(y0, dtype=float)
    if y_arr.ndim != 1:
        raise ValueError("y0 must be one-dimensional")
    if t_eval is None:
        t_eval = np.array([t0, t1])
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.size and (t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12):
            raise ValueError("t_eval outside [t0, t1]")
        if np.any(np.diff(t_eval) < 0):
            raise ValueError("t_eval must be nondecreasing")
    t_out = t_eval.tolist()
    n_out = len(t_out)
    y = y_arr.tolist()
    n = len(y)

    out_t, out_y = [], []
    i_next = 0
    t = t0
    while i_next < n_out and t_out[i_next] <= t:
        out_t.append(t_out[i_next])
        out_y.append(y)
        i_next += 1
    if t1 == t0:
        return np.array(out_t), np.array(out_y)

    f1 = np.asarray(f(t, y_arr), dtype=float)
    h = min(_initial_step(f, t, y_arr, f1, t1, rtol, atol), max_step)
    k1 = f1.reshape(n).tolist()
    err_prev = 1e-4  # bootstrap value for the PI controller
    budget = n_out + MAX_STEPS
    attempts = 0

    while t < t1:
        h = min(h, max_step)
        h_try = min(h, t1 - t)
        # land exactly on t1 / output points to avoid one-ulp residual steps
        target = t1 if h_try == t1 - t else None
        if i_next < n_out and t_out[i_next] - t <= h_try:
            h_try = t_out[i_next] - t
            target = t_out[i_next]
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(
                f"step size underflow in dopri.solve at t={t!r}, h={h_try!r}")
        attempts += 1
        if attempts > budget:
            raise BudgetExceeded(
                f"step budget exhausted in dopri.solve at t={t!r}, "
                f"h={h_try!r}: {attempts - 1} step attempts")

        k2 = _floats(f(t + C2 * h_try, np.array(
            [y_ + h_try * (A21 * a) for y_, a in zip(y, k1)])), n)
        k3 = _floats(f(t + C3 * h_try, np.array(
            [y_ + h_try * (A31 * a + A32 * b)
             for y_, a, b in zip(y, k1, k2)])), n)
        k4 = _floats(f(t + C4 * h_try, np.array(
            [y_ + h_try * (A41 * a + A42 * b + A43 * c)
             for y_, a, b, c in zip(y, k1, k2, k3)])), n)
        k5 = _floats(f(t + C5 * h_try, np.array(
            [y_ + h_try * (A51 * a + A52 * b + A53 * c + A54 * d)
             for y_, a, b, c, d in zip(y, k1, k2, k3, k4)])), n)
        k6 = _floats(f(t + h_try, np.array(
            [y_ + h_try * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
             for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])), n)
        # the 7th stage argument is the 5th-order solution itself (FSAL)
        y_new = [
            y_ + h_try * (A71 * a + A73 * c + A74 * d + A75 * e + A76 * g)
            for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        new_arr = np.array(y_new)
        k7 = _floats(f(t + h_try, new_arr), n)

        sq = 0.0
        for y_, yn, a, c, d, e, g, p in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            r = (h_try * (E1 * a + E3 * c + E4 * d + E5 * e + E6 * g + E7 * p)
                 / (atol + rtol * max(abs(yn), abs(y_))))
            sq += r * r
        err = math.sqrt(sq / n)

        if not math.isfinite(err):
            h = 0.2 * h_try
            continue
        if err <= 1.0:
            t = target if target is not None else t + h_try
            y, k1 = y_new, k7
            while i_next < n_out and t_out[i_next] <= t:
                out_t.append(t_out[i_next])
                out_y.append(y)
                i_next += 1
            if step_callback is not None:
                step_callback(t, new_arr)
            if err == 0.0:
                factor = _FAC_MAX
            else:
                factor = min(_FAC_MAX, max(
                    _FAC_MIN, _SAFETY * err ** (-_EXPO) * err_prev ** _BETA))
            err_prev = max(err, 1e-10)
            h = h_try * factor
        else:
            h = h_try * max(_FAC_MIN, min(1.0, _SAFETY * err ** (-0.2)))

    return np.array(out_t), np.array(out_y)
