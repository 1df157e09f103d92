"""Stepper tests against problems with known analytical solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdo import BudgetExceeded, StepSizeUnderflow, dopri


def _decay(t, y):
    # y' = -y  =>  y = y0 exp(-t)
    return -y


def _harmonic(t, y):
    # y0' = y1, y1' = -y0  =>  (cos t, -sin t) for (1, 0) start
    return np.array([y[1], -y[0]])


def test_exponential_decay():
    ts, ys = dopri.solve(_decay, 0.0, 5.0, [1.0], rtol=1e-10, atol=1e-12)
    assert ys[-1, 0] == pytest.approx(math.exp(-5.0), rel=1e-9)


def test_harmonic_long_run_accuracy():
    ts, ys = dopri.solve(_harmonic, 0.0, 20.0 * math.pi, [1.0, 0.0],
                         rtol=1e-10, atol=1e-12)
    assert ys[-1, 0] == pytest.approx(1.0, abs=1e-7)
    assert ys[-1, 1] == pytest.approx(0.0, abs=1e-7)


def test_t_eval_grid_is_respected():
    grid = np.linspace(0.0, 2.0, 17)
    ts, ys = dopri.solve(_decay, 0.0, 2.0, [1.0], t_eval=grid)
    np.testing.assert_array_equal(ts, grid)
    np.testing.assert_allclose(ys[:, 0], np.exp(-grid), rtol=1e-9)


def test_t_eval_without_endpoints():
    ts, ys = dopri.solve(_decay, 0.0, math.pi, [1.0], t_eval=[0.5, 1.5])
    assert list(ts) == [0.5, 1.5]
    np.testing.assert_allclose(ys[:, 0], np.exp(-np.array([0.5, 1.5])),
                               rtol=1e-9)


def test_tolerance_actually_controls_error():
    coarse = dopri.solve(_harmonic, 0.0, 10.0, [1.0, 0.0],
                         rtol=1e-5, atol=1e-8)[1][-1, 0]
    fine = dopri.solve(_harmonic, 0.0, 10.0, [1.0, 0.0],
                       rtol=1e-12, atol=1e-14)[1][-1, 0]
    exact = math.cos(10.0)
    assert abs(fine - exact) < abs(coarse - exact)
    assert abs(fine - exact) < 1e-10


def test_quadrature_component_shares_error_control():
    # append z' = y as an extra component: z(t) = sin(t) for the cos start
    def rhs(t, y):
        return np.array([y[1], -y[0], y[0]])

    ts, ys = dopri.solve(rhs, 0.0, 7.0, [1.0, 0.0, 0.0], rtol=1e-11)
    assert ys[-1, 2] == pytest.approx(math.sin(7.0), abs=1e-9)


def test_step_callback_can_abort():
    class Boom(RuntimeError):
        pass

    def guard(t, y):
        if y[0] < 0.5:
            raise Boom

    with pytest.raises(Boom):
        dopri.solve(_decay, 0.0, 5.0, [1.0], step_callback=guard)


def test_blow_up_raises_step_size_underflow():
    # y' = y^2, y(0) = 1 has y = 1/(1 - t): the step shrinks to nothing at t = 1
    with pytest.raises(StepSizeUnderflow, match=r"t=0\.9.*h="):
        dopri.solve(lambda t, y: y * y, 0.0, 2.0, [1.0])


def test_zero_span_returns_initial_state():
    ts, ys = dopri.solve(_decay, 1.0, 1.0, [2.0], t_eval=[1.0])
    assert list(ts) == [1.0]
    assert ys[0, 0] == 2.0


def test_invalid_inputs():
    with pytest.raises(ValueError):
        dopri.solve(_decay, 1.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.5, 0.2])
    with pytest.raises(ValueError):
        dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.0, 2.0])


def test_max_step_is_honored():
    seen = []

    def rhs(t, y):
        seen.append(t)
        return -y

    dopri.solve(rhs, 0.0, 1.0, [1.0], max_step=0.05)
    # stage times never jump farther than max_step from a step start
    diffs = np.diff(sorted(set(seen)))
    assert np.max(diffs) <= 0.05 + 1e-12


def test_nonfinite_rhs_recovers_by_shrinking():
    # a right-hand side that blows up for y <= 0.1 must not poison the run
    def rhs(t, y):
        if y[0] <= 0.1:
            return np.array([np.nan])
        return -y

    ts, ys = dopri.solve(rhs, 0.0, 2.0, [1.0])
    assert ys[-1, 0] == pytest.approx(math.exp(-2.0), rel=1e-8)


def test_step_budget_raises_budget_exceeded(monkeypatch):
    monkeypatch.setattr(dopri, "MAX_STEPS", 1000)
    # 1000 periods need far more than 1000 + 2 step attempts
    with pytest.raises(BudgetExceeded, match=r"t=.*h=.*1002 step attempts"):
        dopri.solve(_harmonic, 0.0, 2000.0 * math.pi, [1.0, 0.0])


def test_step_budget_leaves_room_for_every_output_time(monkeypatch):
    monkeypatch.setattr(dopri, "MAX_STEPS", 10)
    grid = np.linspace(0.0, 1.0, 101)
    ts, _ = dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=grid)
    np.testing.assert_array_equal(ts, grid)


@pytest.mark.parametrize("slope", [1e305, np.nan])
def test_unusable_first_step_raises_step_size_underflow(slope):
    with pytest.raises(StepSizeUnderflow, match="first step"), \
            np.errstate(over="ignore", invalid="ignore"):
        dopri.solve(lambda t, y: slope * y, 0.0, 1.0, [1.0])


# ---------------------------------------------------------------------------
# The numpy stepper the float loop replaced, kept verbatim as its oracle:
# the float loop must give the same bits and the same number of RHS calls.

_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_E = (
    35 / 384 - 5179 / 57600,
    0.0,
    500 / 1113 - 7571 / 16695,
    125 / 192 - 393 / 640,
    -2187 / 6784 + 92097 / 339200,
    11 / 84 - 187 / 2100,
    -1 / 40,
)


def _ref_error_norm(e, scale):
    return float(np.sqrt(np.mean((e / scale) ** 2)))


def _ref_initial_step(f, t0, y0, f0, t1, rtol, atol):
    scale = atol + rtol * np.abs(y0)
    d0 = _ref_error_norm(y0, scale)
    d1 = _ref_error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = np.asarray(f(t0 + h0, y1), dtype=float)
    d2 = _ref_error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t1 - t0)


def _reference_solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None,
                     max_step=np.inf, step_callback=None):
    t0 = float(t0)
    t1 = float(t1)
    y = np.array(y0, dtype=float)
    if t_eval is None:
        t_eval = np.array([t0, t1])
    else:
        t_eval = np.asarray(t_eval, dtype=float)
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
    h = min(_ref_initial_step(f, t, y, k[0], t1, rtol, atol), max_step)
    err_prev = 1e-4
    while t < t1:
        h = min(h, max_step)
        h_try = min(h, t1 - t)
        target = t1 if h_try == t1 - t else None
        if i_next < len(t_eval) and t_eval[i_next] - t <= h_try:
            h_try = t_eval[i_next] - t
            target = t_eval[i_next]
        if h_try < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflow(f"t={float(t)!r}, h={float(h_try)!r}")
        for i in range(1, 7):
            yi = y + h_try * sum(a * k[j] for j, a in enumerate(_REF_A[i]))
            k[i] = np.asarray(f(t + _REF_C[i] * h_try, yi), dtype=float)
        y_new = yi
        err_vec = h_try * sum(e * k[j] for j, e in enumerate(_REF_E))
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _ref_error_norm(err_vec, scale)
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
                factor = 10.0
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** (-(0.2 - 0.75 * 0.04))
                                       * err_prev ** 0.04))
            err_prev = max(err, 1e-10)
            h = h_try * factor
        else:
            h = h_try * max(0.2, min(1.0, 0.9 * err ** (-0.2)))
    return np.array(out_t), np.array(out_y)


def _assert_same_run(f, t0, t1, y0, **kwargs):
    """dopri.solve and the oracle give the same bits and RHS-call count."""
    runs = []
    for solver in (dopri.solve, _reference_solve):
        calls = []

        def counted(t, y):
            calls.append(t)
            return f(t, y)

        ts, ys = solver(counted, t0, t1, y0, **kwargs)
        runs.append((ts.shape, ys.shape, ts.tobytes(), ys.tobytes(),
                     len(calls)))
    assert runs[0] == runs[1]


def _quadrature(t, y):
    return np.array([y[1], -y[0], y[0]])


def _cut_below(t, y):
    return np.array([np.nan]) if y[0] <= 0.1 else -y


@pytest.mark.parametrize("f, t0, t1, y0, kwargs", [
    (_decay, 0.0, 5.0, [1.0], {}),
    (_harmonic, 0.0, 20.0 * math.pi, [1.0, 0.0], {}),
    (_decay, 0.0, 2.0, [1.0], {"t_eval": np.linspace(0.0, 2.0, 17)}),
    (_decay, 0.0, math.pi, [1.0], {"t_eval": [0.5, 1.5]}),
    (_harmonic, 0.0, 10.0, [1.0, 0.0], {"rtol": 1e-5, "atol": 1e-8}),
    (_harmonic, 0.0, 10.0, [1.0, 0.0], {"rtol": 1e-12, "atol": 1e-14}),
    (_quadrature, 0.0, 7.0, [1.0, 0.0, 0.0], {"rtol": 1e-11}),
    (_decay, 0.0, 1.0, [1.0], {"max_step": 0.05}),
    (_cut_below, 0.0, 2.0, [1.0], {}),
    (_decay, 1.0, 1.0, [2.0], {"t_eval": [1.0]}),
], ids=["decay", "harmonic", "grid", "inner-grid", "coarse", "fine",
        "quadrature", "max-step", "nonfinite", "zero-span"])
def test_float_loop_matches_reference(f, t0, t1, y0, kwargs):
    _assert_same_run(f, t0, t1, y0, **kwargs)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4),
       rtol=st.sampled_from([1e-6, 1e-8, 1e-10]),
       t1=st.floats(0.1, 6.0), with_grid=st.booleans())
def test_forced_linear_systems_match_reference(data, n, rtol, t1, with_grid):
    # y' = A y + sin t
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    A = np.array(data.draw(st.lists(entry, min_size=n * n, max_size=n * n)))
    A = A.reshape(n, n)
    y0 = data.draw(st.lists(entry, min_size=n, max_size=n))
    grid = None
    if with_grid:
        # output times on a lattice, so no two lie closer than the step floor
        ticks = data.draw(st.lists(st.integers(0, 64), min_size=1, max_size=12))
        grid = [t1 * i / 64 for i in sorted(ticks)]
    _assert_same_run(lambda t, y: A @ y + math.sin(t), 0.0, t1, y0,
                     rtol=rtol, atol=1e-12, t_eval=grid)
