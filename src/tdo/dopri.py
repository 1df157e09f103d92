"""Embedded Dormand-Prince 5(4) Runge-Kutta stepper with PI step-size control.

The 5th-order solution is propagated; the embedded 4th-order solution gives
the local error estimate.  Steps are clipped so they land exactly on the
requested output times, which removes the need for a dense-output
interpolant.  Quadrature components (phases, accumulated functionals) ride
along as extra state entries and therefore share the same error control as
the dynamical variables.
"""

import numpy as np

from .errors import StepSizeUnderflow

# Butcher tableau (Dormand & Prince 1980), FSAL
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# 5th-order weights equal the last tableau row (FSAL); error weights below
_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)

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
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(t0 + h0, y1), dtype=float)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0)


def solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None, max_step=np.inf,
          step_callback=None):
    """Integrate y' = f(t, y) forward from t0 to t1.

    Parameters
    ----------
    f : callable(t, y) -> array_like
    t_eval : increasing times in [t0, t1] at which to record the solution;
        defaults to (t0, t1).
    step_callback : callable(t, y), invoked after every accepted step; may
        raise to abort the run.

    Returns
    -------
    (ts, ys) : recorded times (ndarray) and states (ndarray, one row per time)
    """
    t0 = float(t0)
    t1 = float(t1)
    if not t1 >= t0:
        raise ValueError("t1 must be >= t0")
    y = np.array(y0, dtype=float)
    if t_eval is None:
        t_eval = np.array([t0, t1])
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.size and (t_eval[0] < t0 - 1e-12 or t_eval[-1] > t1 + 1e-12):
            raise ValueError("t_eval outside [t0, t1]")
        if np.any(np.diff(t_eval) < 0):
            raise ValueError("t_eval must be nondecreasing")

    out_t, out_y = [], []
    i_next = 0
    t = t0
    while i_next < len(t_eval) and t_eval[i_next] <= t:
        out_t.append(t_eval[i_next])
        out_y.append(y.copy())
        i_next += 1
    if t1 == t0:
        return np.array(out_t), np.array(out_y)

    k = [None] * 7
    k[0] = np.asarray(f(t, y), dtype=float)
    h = min(_initial_step(f, t, y, k[0], t1, rtol, atol), max_step)
    err_prev = 1e-4  # bootstrap value for the PI controller

    while t < t1:
        h = min(h, max_step)
        h_try = min(h, t1 - t)
        # land exactly on t1 / output points to avoid one-ulp residual steps
        target = t1 if h_try == t1 - t else None
        if i_next < len(t_eval) and t_eval[i_next] - t <= h_try:
            h_try = t_eval[i_next] - t
            target = t_eval[i_next]
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(
                f"step size underflow in dopri.solve at t={float(t)!r}, "
                f"h={float(h_try)!r}")

        for i in range(1, 7):
            yi = y + h_try * sum(a * k[j] for j, a in enumerate(_A[i]))
            k[i] = np.asarray(f(t + _C[i] * h_try, yi), dtype=float)
        # the 7th stage argument is the 5th-order solution itself (FSAL)
        y_new = yi
        err_vec = h_try * sum(e * k[j] for j, e in enumerate(_E))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(err_vec, scale)

        if not np.isfinite(err):
            h = 0.2 * h_try
            continue
        if err <= 1.0:
            t = target if target is not None else t + h_try
            y = y_new
            k[0] = k[6]
            while i_next < len(t_eval) and t_eval[i_next] <= t:
                out_t.append(t_eval[i_next])
                out_y.append(y.copy())
                i_next += 1
            if step_callback is not None:
                step_callback(t, y)
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
