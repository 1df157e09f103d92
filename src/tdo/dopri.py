"""Embedded Dormand-Prince 5(4) Runge-Kutta stepper with PI step-size control.

The 5th-order solution is propagated; the embedded 4th-order solution gives
the local error estimate.  Quadrature components (phases, accumulated
functionals) ride along as extra state entries and therefore share the same
error control as the dynamical variables.

Output times do not shorten steps; only t1 is landed on exactly, so the
accepted steps do not depend on t_eval.  An output time inside an accepted
step is read from a quintic continuous extension: the free quartic of the
pair (Hairer, Norsett & Wanner, Solving ODEs I, II.6) supplies two extra
slopes at a third and two thirds of the step, and the quintic matching the
step-end value and the four slopes is 5th order (the bootstrap of Enright,
Jackson, Norsett & Thomsen, ACM TOMS 12, 193, 1986).  It is built from
y_new - y and h*f terms only and y is added last, so a slowly moving
component (a phase that has stalled) keeps its increments' sign instead of
drowning in the rounding of y.  An output time equal to a step end takes
the step's solution itself.

The step loop runs on Python floats: the state and the seven stages are
lists, and each stage combination is written out term by term.  On the
short states this package integrates (four components) numpy's per-call
cost would outweigh the arithmetic, so the right-hand side receives the
state as a list of Python floats too, and a tuple of the right length it
returns is used as it is.  The FSAL pattern costs 2 evaluations before the
first step (the slope and the initial-step probe), then 6 per attempt,
plus 2 per accepted step that holds an output time inside it.  Every step
attempt counts against a budget of MAX_STEPS plus one per output time;
past it the run stops with BudgetExceeded.
"""

import math

import numpy as np

from .errors import BudgetExceeded, ParameterError, StepSizeUnderflow

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
# free 4th-order continuous extension (Hairer's dopri5 contd5, d2 = 0)
D1 = -12715105075 / 11282082432
D3 = 87487479700 / 32700410799
D4 = -10690763975 / 1880347072
D5 = 701980252875 / 199316789632
D6 = -1453857185 / 822651844
D7 = 69997945 / 29380423

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
    f0 = np.array(f0, dtype=float)
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise StepSizeUnderflow(
            f"no usable first step in dopri.solve at t={t0!r}: the slope "
            f"gives h={h0!r}")
    y1 = y0 + h0 * f0
    f1 = np.array(_floats(f(t0 + h0, y1.tolist()), len(y0)), dtype=float)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0)


def _floats(v, n):
    """A right-hand-side value as a sequence of n floats.

    A tuple of length n is taken as it is; anything else is converted.
    """
    if type(v) is tuple and len(v) == n:
        return v
    v = np.asarray(v, dtype=float)
    if v.size != n:
        raise ParameterError(
            f"the right-hand side returned {v.size} values for a state of "
            f"{n}")
    return v.reshape(n).tolist()


def _table(out_t, out_y, late, y):
    """The recorded rows as arrays; the output times left over, which lie
    at most 1e-12 past t1, take the final state y."""
    return np.array(out_t + late), np.array(out_y + [y] * len(late))


def _quintic(f, t, h, y, y_new, k1, k3, k4, k5, k6, k7):
    """Per component, (y, c1, ..., c5) of p(s) = y + c1 s + ... + c5 s^5.

    p is the continuous extension over the accepted step [t, t + h]: it
    matches y_new at s = 1 and the slopes h*k1 at s = 0, h*k7 at s = 1 and
    h*f at s = 1/3 and s = 2/3, where f is taken on the free quartic.
    """
    n = len(y)
    dy = [b - a for a, b in zip(y, y_new)]
    hk1 = [h * a for a in k1]
    hk7 = [h * a for a in k7]
    # the quartic is y + s*(dy + (1-s)*(bspl + s*(r4 + (1-s)*r5)))
    bspl = [a - d for a, d in zip(hk1, dy)]
    r4 = [d - a - b for d, a, b in zip(dy, hk7, bspl)]
    r5 = [h * (D1 * a + D3 * c + D4 * d + D5 * e + D6 * g + D7 * p)
          for a, c, d, e, g, p in zip(k1, k3, k4, k5, k6, k7)]
    g1 = _floats(f(t + h / 3, [
        y_ + (d + (b + (q + r * (2 / 3)) / 3) * (2 / 3)) / 3
        for y_, d, b, q, r in zip(y, dy, bspl, r4, r5)]), n)
    g2 = _floats(f(t + 2 * h / 3, [
        y_ + (d + (b + (q + r / 3) * (2 / 3)) / 3) * (2 / 3)
        for y_, d, b, q, r in zip(y, dy, bspl, r4, r5)]), n)
    # the quintic's coefficients as combinations of increments only
    return [
        (y_, a,
         30 * d - 13 / 2 * a - 13 / 4 * e - 27 / 4 * p - 27 / 2 * q,
         -110 * d + 67 / 4 * a + 49 / 4 * e + 135 / 4 * p + 189 / 4 * q,
         135 * d - 18 * a - 63 / 4 * e - 189 / 4 * p - 54 * q,
         -54 * d + 27 / 4 * a + 27 / 4 * e + 81 / 4 * p + 81 / 4 * q)
        for y_, d, a, e, p, q in zip(
            y, dy, hk1, hk7, [h * a for a in g1], [h * a for a in g2])]


def solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None, max_step=np.inf,
          step_callback=None):
    """Integrate y' = f(t, y) forward from t0 to t1.

    Parameters
    ----------
    f : callable(t, y) -> len(y0) values, as a tuple of floats or anything
        numpy reads as an array of that size; y is a list of len(y0) Python
        floats, which f must not modify.
    t_eval : nondecreasing times in [t0, t1] at which to record the
        solution; defaults to (t0, t1).  They do not move the steps.  Times
        up to 1e-12 outside [t0, t1] take the state at the nearer end.
    step_callback : callable(t, y), invoked after every accepted step with
        the state as the same kind of list; may raise to abort the run.

    Returns
    -------
    (ts, ys) : recorded times (ndarray) and states (ndarray, one row per time)

    Raises ParameterError for t1 < t0, a y0 that is not 1-D, a t_eval
    outside [t0, t1] or decreasing or an f value of the wrong size,
    StepSizeUnderflow when the step falls below the resolution of the time
    axis and BudgetExceeded after len(t_eval) + MAX_STEPS step attempts.
    A step that would leave t1 a residual below that resolution is
    stretched to land on t1.
    """
    t0 = float(t0)
    t1 = float(t1)
    if not t1 >= t0:
        raise ParameterError("t1 must be >= t0")
    y_arr = np.array(y0, dtype=float)
    if y_arr.ndim != 1:
        raise ParameterError("y0 must be one-dimensional")
    if t_eval is None:
        t_eval = np.array([t0, t1])
    else:
        t_eval = np.asarray(t_eval, dtype=float)
        # written so that a nan fails it too
        if not np.all((t0 - 1e-12 <= t_eval) & (t_eval <= t1 + 1e-12)):
            raise ParameterError("t_eval outside [t0, t1]")
        if np.any(np.diff(t_eval) < 0):
            raise ParameterError("t_eval must be nondecreasing")
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
        return _table(out_t, out_y, t_out[i_next:], y)

    k1 = _floats(f(t, y), n)
    h = min(_initial_step(f, t, y_arr, k1, t1, rtol, atol), max_step)
    err_prev = 1e-4  # bootstrap value for the PI controller
    budget = n_out + MAX_STEPS
    attempts = 0

    while t < t1:
        h = min(h, max_step)
        h_try = min(h, t1 - t)
        floor = 1e-14 * max(1.0, abs(t))
        if t1 - t - h_try < floor:
            # a step that would leave t1 a residual below the floor, which
            # the next step could not take, is stretched to land on t1
            h_try = t1 - t
        if h_try < floor:
            raise StepSizeUnderflow(
                f"step size underflow in dopri.solve at t={t!r}, h={h_try!r}")
        attempts += 1
        if attempts > budget:
            raise BudgetExceeded(
                f"step budget exhausted in dopri.solve at t={t!r}, "
                f"h={h_try!r}: {attempts - 1} step attempts")

        k2 = _floats(f(t + C2 * h_try, [
            y_ + h_try * (A21 * a) for y_, a in zip(y, k1)]), n)
        k3 = _floats(f(t + C3 * h_try, [
            y_ + h_try * (A31 * a + A32 * b)
            for y_, a, b in zip(y, k1, k2)]), n)
        k4 = _floats(f(t + C4 * h_try, [
            y_ + h_try * (A41 * a + A42 * b + A43 * c)
            for y_, a, b, c in zip(y, k1, k2, k3)]), n)
        k5 = _floats(f(t + C5 * h_try, [
            y_ + h_try * (A51 * a + A52 * b + A53 * c + A54 * d)
            for y_, a, b, c, d in zip(y, k1, k2, k3, k4)]), n)
        k6 = _floats(f(t + h_try, [
            y_ + h_try * (A61 * a + A62 * b + A63 * c + A64 * d + A65 * e)
            for y_, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]), n)
        # the 7th stage argument is the 5th-order solution itself (FSAL)
        y_new = [
            y_ + h_try * (A71 * a + A73 * c + A74 * d + A75 * e + A76 * g)
            for y_, a, c, d, e, g in zip(y, k1, k3, k4, k5, k6)]
        k7 = _floats(f(t + h_try, y_new), n)

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
            # land exactly on t1 to avoid a one-ulp residual step
            t_new = t1 if h_try == t1 - t else t + h_try
            if i_next < n_out and t_out[i_next] < t_new:
                coef = _quintic(f, t, h_try, y, y_new, k1, k3, k4, k5, k6, k7)
                while i_next < n_out and t_out[i_next] < t_new:
                    s = (t_out[i_next] - t) / h_try
                    out_t.append(t_out[i_next])
                    out_y.append([
                        y_ + s * (a + s * (b + s * (c + s * (d + s * e))))
                        for y_, a, b, c, d, e in coef])
                    i_next += 1
            t, y, k1 = t_new, y_new, k7
            while i_next < n_out and t_out[i_next] <= t:
                out_t.append(t_out[i_next])
                out_y.append(y)
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

    return _table(out_t, out_y, t_out[i_next:], y)
