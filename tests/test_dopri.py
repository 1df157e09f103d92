"""Stepper tests against problems with known analytical solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdo import BudgetExceeded, ParameterError, StepSizeUnderflow, dopri


def _decay(t, y):
    # y' = -y  =>  y = y0 exp(-t)
    return np.negative(y)


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


def test_dense_output_between_steps_is_as_accurate_as_step_ends():
    grid = np.linspace(0.0, 20.0 * math.pi, 2001)
    ts, ys = dopri.solve(_harmonic, 0.0, 20.0 * math.pi, [1.0, 0.0],
                         rtol=1e-10, atol=1e-12, t_eval=grid)
    assert np.max(np.abs(ys[1:-1, 0] - np.cos(ts[1:-1]))) <= 1e-9


def test_dense_output_error_inside_a_step_is_that_of_its_end():
    # over the first steps the error is still local: a 5th-order extension
    # stays at the step-end error, a 4th-order one (the free quartic) is
    # 10-50x above it
    def exact(t):
        return np.array([math.cos(t), -math.sin(t)])

    steps = []
    dopri.solve(_harmonic, 0.0, 20.0, [1.0, 0.0], rtol=1e-8, atol=1e-10,
                step_callback=lambda t, y: steps.append((t, y.copy())))
    for (a, _), (b, y_b) in zip(steps[:5], steps[1:6]):
        grid = np.linspace(a, b, 12)[1:-1]
        ts, ys = dopri.solve(_harmonic, 0.0, 20.0, [1.0, 0.0], rtol=1e-8,
                             atol=1e-10, t_eval=grid)
        inside = max(np.max(np.abs(y - exact(t))) for t, y in zip(ts, ys))
        assert inside <= 2.0 * np.max(np.abs(y_b - exact(b))) + 1e-15


def test_output_times_on_step_ends_take_the_step_state():
    calls, steps = [], []

    def counted(t, y):
        calls.append(t)
        return _harmonic(t, y)

    dopri.solve(counted, 0.0, 10.0, [1.0, 0.0],
                step_callback=lambda t, y: steps.append(
                    (t, np.array(y).tobytes())))
    nfev = len(calls)
    grid = [0.0] + [t for t, _ in steps]
    ts, ys = dopri.solve(counted, 0.0, 10.0, [1.0, 0.0], t_eval=grid)
    assert [row.tobytes() for row in ys[1:]] == [y for _, y in steps]
    # no output time lies strictly inside a step: no dense-output calls
    assert len(calls) == 2 * nfev


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
        dopri.solve(lambda t, y: np.multiply(y, y), 0.0, 2.0, [1.0])


def test_zero_span_returns_initial_state():
    ts, ys = dopri.solve(_decay, 1.0, 1.0, [2.0], t_eval=[1.0])
    assert list(ts) == [1.0]
    assert ys[0, 0] == 2.0


def test_invalid_inputs():
    with pytest.raises(ParameterError):
        dopri.solve(_decay, 1.0, 0.0, [1.0])
    with pytest.raises(ParameterError):
        dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.5, 0.2])
    with pytest.raises(ParameterError):
        dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.0, 2.0])
    with pytest.raises(ParameterError):
        dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.5, np.nan, 1.0])
    with pytest.raises(ParameterError):
        dopri.solve(_decay, 0.0, 1.0, [[1.0]])


def test_max_step_is_honored():
    seen = []

    def rhs(t, y):
        seen.append(t)
        return np.negative(y)

    dopri.solve(rhs, 0.0, 1.0, [1.0], max_step=0.05)
    # stage times never jump farther than max_step from a step start
    diffs = np.diff(sorted(set(seen)))
    assert np.max(diffs) <= 0.05 + 1e-12


def test_nonfinite_rhs_recovers_by_shrinking():
    # a right-hand side that blows up for y <= 0.1 must not poison the run
    def rhs(t, y):
        if y[0] <= 0.1:
            return np.array([np.nan])
        return np.negative(y)

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
        dopri.solve(lambda t, y: np.multiply(slope, y), 0.0, 1.0, [1.0])


def test_step_leaving_a_residual_below_the_floor_lands_on_t1():
    # 50 steps of max_step = 0.2 sum to 9.999999999999996, one rounding
    # short of t1; the 3.6e-15 left is below the 1e-14 |t| underflow
    # floor, so the 50th step is stretched onto t1
    steps = []
    ts, ys = dopri.solve(lambda t, y: (y[1], -y[0]), 0, 10, [1.0, 0.0],
                         rtol=1e-3, atol=1e3, max_step=0.2,
                         step_callback=lambda t, y: steps.append(t))
    assert list(ts) == [0.0, 10.0]
    assert len(steps) == 50 and steps[-1] == 10.0


def test_output_times_just_past_t1_take_the_final_state():
    ts, ys = dopri.solve(_decay, 0.0, 1.0, [1.0], t_eval=[0.5, 1.0 + 5e-13])
    assert list(ts) == [0.5, 1.0 + 5e-13]
    end = dopri.solve(_decay, 0.0, 1.0, [1.0])[1][-1]
    assert ys[-1].tobytes() == end.tobytes()
    ts, ys = dopri.solve(_decay, 1.0, 1.0, [2.0],
                         t_eval=[1.0 - 5e-13, 1.0, 1.0 + 5e-13])
    assert len(ts) == 3 and list(ys[:, 0]) == [2.0, 2.0, 2.0]


@pytest.mark.parametrize("f, size", [
    (lambda t, y: np.zeros(3), 3),
    (lambda t, y: (1.0,), 1),
    # right at the first slope, one too many at the initial-step probe
    (lambda t, y: (y[1], -y[0]) if t == 0.0 else (y[1], -y[0], 0.0), 3),
], ids=["array", "short-tuple", "long-tuple"])
def test_rhs_value_of_the_wrong_size_is_a_parameter_error(f, size):
    with pytest.raises(ParameterError,
                       match=f"returned {size} values for a state of 2"):
        dopri.solve(f, 0.0, 1.0, [1.0, 0.0])


@pytest.mark.parametrize("f, t1, y0, grid, rejects", [
    (lambda t, y: (y[1], -y[0]), 10.0, [1.0, 0.0], np.linspace(0, 10, 7),
     True),
    (_decay, 2.0, [1.0], [0.3, 1.0, 1.0, 1.7, 2.0], False),
], ids=["harmonic-tuple", "decay-array"])
def test_rhs_and_callback_receive_lists_of_floats(f, t1, y0, grid, rejects):
    """Each f call, the two before the first step included, gets a list of
    n floats, the callback gets the accepted state (that of the step's last
    stage), and f is called 2 + 6 per attempt + 2 per step holding an
    output time strictly inside it."""
    n = len(y0)
    events = []

    def rhs(t, y):
        assert type(y) is list and len(y) == n
        assert all(type(v) is float for v in y)
        events.append(("f", t, list(y)))
        return f(t, y)

    ts, ys = dopri.solve(rhs, 0.0, t1, y0, t_eval=grid,
                         step_callback=lambda t, y: events.append(
                             ("cb", t, list(y))))
    assert events[0] == ("f", 0.0, y0)
    assert events[1][0] == "f"
    i, t, attempts, rejected, bearing = 2, 0.0, 0, 0, 0
    while i < len(events):
        stages = events[i:i + 6]
        assert [e[0] for e in stages] == ["f"] * 6
        attempts += 1
        i += 6
        if i + 2 < len(events) and events[i + 2][0] == "cb":
            # two dense-output calls, at a third and two thirds of the step
            assert all(e[0] == "f" and t < e[1] < events[i + 2][1]
                       for e in events[i:i + 2])
            bearing += 1
            i += 2
        if i < len(events) and events[i][0] == "cb":
            assert events[i][2] == stages[-1][2]
            assert events[i][1] == pytest.approx(stages[-1][1], rel=1e-15)
            t = events[i][1]
            i += 1
        else:
            rejected += 1
    assert t == t1 and ys[-1].tolist() == events[-1][2]
    steps = [0.0] + [e[1] for e in events if e[0] == "cb"]
    assert bearing == sum(any(a < s < b for s in grid)
                          for a, b in zip(steps, steps[1:])) > 0
    assert len(events) - len(steps) + 1 == 2 + 6 * attempts + 2 * bearing
    assert (rejected > 0) == rejects


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


def _assert_same_run(f, t0, t1, y0, t_eval=None, **kwargs):
    """dopri.solve takes the oracle's steps, bit for bit.

    Output times do not move the steps, so the oracle runs without them:
    the accepted steps and states match exactly, and each step holding an
    output time strictly inside it costs two more RHS calls.  Without
    output times the whole result matches too.
    """
    runs = []
    for solver, grid in ((dopri.solve, t_eval), (_reference_solve, None)):
        calls, steps = [], []

        def counted(t, y):
            calls.append(t)
            return f(t, y)

        def record(t, y):
            steps.append((t, np.array(y).tobytes()))

        ts, ys = solver(counted, t0, t1, y0, t_eval=grid,
                        step_callback=record, **kwargs)
        runs.append((ts, ys, len(calls), steps))
    (ts, ys, nfev, steps), (ref_ts, ref_ys, ref_nfev, ref_steps) = runs
    assert steps == ref_steps
    ends = [float(t0)] + [t for t, _ in steps]
    grid = [] if t_eval is None else list(t_eval)
    bearing = sum(any(a < s < b for s in grid) for a, b in zip(ends, ends[1:]))
    assert nfev == ref_nfev + 2 * bearing
    if t_eval is None:
        assert (ts.tobytes(), ys.shape, ys.tobytes()) == (
            ref_ts.tobytes(), ref_ys.shape, ref_ys.tobytes())
    else:
        np.testing.assert_array_equal(ts, grid)
        if grid[-1] == t1:
            assert ys[-1].tobytes() == ref_ys[-1].tobytes()


def _quadrature(t, y):
    return np.array([y[1], -y[0], y[0]])


def _cut_below(t, y):
    return np.array([np.nan]) if y[0] <= 0.1 else np.negative(y)


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
        # output times on a lattice, so some fall on t0 and t1 and repeat
        ticks = data.draw(st.lists(st.integers(0, 64), min_size=1, max_size=12))
        grid = [t1 * i / 64 for i in sorted(ticks)]
    _assert_same_run(lambda t, y: A @ y + math.sin(t), 0.0, t1, y0,
                     rtol=rtol, atol=1e-12, t_eval=grid)
