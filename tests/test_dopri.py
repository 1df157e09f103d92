"""Stepper tests against problems with known analytical solutions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
# Hairer's dop853 constants as scipy ships them; a local file, read only here
from scipy.integrate._ivp import dop853_coefficients as DOP853

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
    with pytest.raises(StepSizeUnderflow, match=r"t=(0\.9999|1\.0000).*h="):
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


def test_step_leaving_a_residual_below_the_floor_lands_on_t1(monkeypatch):
    # a first step of 0.2 that never grows: 50 steps of 0.2 sum to
    # 9.999999999999996, one rounding short of t1; the 3.6e-15 left is
    # below the 1e-14 |t| underflow floor, so the 50th step is stretched
    # onto t1
    monkeypatch.setattr(dopri, "_initial_step", lambda *args: 0.2)
    monkeypatch.setattr(dopri, "_FAC_MAX", 1.0)
    steps = []
    ts, ys = dopri.solve(lambda t, y: (y[1], -y[0]), 0, 10, [1.0, 0.0],
                         rtol=1e-3, atol=1e3,
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
    # a frequency growing with t makes the controller reject steps
    (lambda t, y: (y[1], -(1.0 + t * t) * y[0]), 10.0, [1.0, 0.0],
     np.linspace(0, 10, 7), True),
    (_decay, 2.0, [1.0], [0.3, 1.0, 1.0, 1.7, 2.0], False),
], ids=["harmonic-tuple", "decay-array"])
def test_rhs_and_callback_receive_lists_of_floats(f, t1, y0, grid, rejects):
    """Each f call, the two before the first step included, gets a list of
    n floats, the callback gets the accepted state (that of the step's last
    stage), and f is called 2 + 12 per attempt + 3 per step holding an
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
        stages = events[i:i + 12]
        assert [e[0] for e in stages] == ["f"] * 12
        attempts += 1
        i += 12
        if i + 3 < len(events) and events[i + 3][0] == "cb":
            # three extra stages of the continuous extension, inside the step
            assert all(e[0] == "f" and t < e[1] < events[i + 3][1]
                       for e in events[i:i + 3])
            bearing += 1
            i += 3
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
    assert len(events) - len(steps) + 1 == 2 + 12 * attempts + 3 * bearing
    assert (rejected > 0) == rejects


# ---------------------------------------------------------------------------
# The constants against the DOP853 coefficients that ship with scipy, and the
# order they give the step and the continuous extension.

def _named(pattern):
    """dopri's constants whose names match pattern, keyed by the name's
    numbers (counted from 1, as in Hairer's dop853)."""
    named = {}
    for name, value in vars(dopri).items():
        m = re.fullmatch(pattern, name)
        if m:
            named[tuple(map(int, m.groups()))] = value
    return named


def _nonzero(array, first=1):
    """The nonzero entries of a coefficient array, keyed by their indices
    counted from 1 (the first index from `first`)."""
    entries = {}
    for index in np.argwhere(array):
        key = (int(index[0]) + first,) + tuple(int(i) + 1 for i in index[1:])
        entries[key] = float(array[tuple(index)])
    return entries


def test_constants_match_scipy_dop853_coefficients():
    # the nodes c12 = c13 = 1 are written as t + h, c1 = 0 is not written
    assert (DOP853.C[0], DOP853.C[11], DOP853.C[12]) == (0.0, 1.0, 1.0)
    nodes = _nonzero(DOP853.C)
    del nodes[(12,)], nodes[(13,)]
    assert _named(r"C(\d+)") == nodes
    A = DOP853.A.copy()
    A[DOP853.N_STAGES] = 0.0  # the row of the 8th-order weights
    assert _named(r"A(\d+)_(\d+)") == _nonzero(A)
    assert _named(r"B(\d+)") == _nonzero(DOP853.B)
    assert _named(r"E5_(\d+)") == _nonzero(DOP853.E5)
    assert _named(r"E3_(\d+)") == _nonzero(DOP853.E3)
    # contd8's rows are the coefficients of degree 4 ... 7
    assert _named(r"D(\d+)_(\d+)") == _nonzero(DOP853.D, first=4)


def _powers(t, degrees):
    return [t ** k / math.factorial(k) for k in range(degrees + 1)]


def _chain(t, y):
    # y_k' = y_(k-1): y_k = t^k / k! from exact initial values
    return (0.0,) + tuple(y[:-1])


def test_one_step_is_exact_on_polynomials_up_to_degree_8():
    t0, t1 = 0.25, 0.75
    steps = []
    ts, ys = dopri.solve(_chain, t0, t1, _powers(t0, 9), rtol=1.0, atol=1.0,
                         step_callback=lambda t, y: steps.append(t))
    assert steps == [t1]
    error = np.abs(ys[-1] - _powers(t1, 9))
    assert np.max(error[:9]) <= 1e-15  # a few roundings of y
    assert error[9] > 1e-12  # degree 9 is past the order


def test_dense_output_inside_a_step_is_exact_to_degree_7():
    t0, t1 = 0.25, 0.75
    grid = np.linspace(t0, t1, 9)[1:-1]
    steps = []
    ts, ys = dopri.solve(_chain, t0, t1, _powers(t0, 8), rtol=1.0, atol=1.0,
                         t_eval=grid,
                         step_callback=lambda t, y: steps.append(t))
    assert steps == [t1]
    error = np.abs(ys - [_powers(t, 8) for t in grid])
    assert np.max(error[:, :8]) <= 1e-15
    assert np.min(error[:, 8]) > 1e-12  # degree 8 is past the extension's


def test_one_step_error_on_exponential_is_of_order_8():
    # y' = y over one step of h: the local error falls as h^9, the error
    # per unit step as h^8
    hs = np.array([0.6, 0.45, 0.3, 0.2])
    per_unit = []
    for h in hs:
        steps = []
        ts, ys = dopri.solve(lambda t, y: (y[0],), 0.0, h, [1.0], rtol=1.0,
                             atol=1.0,
                             step_callback=lambda t, y: steps.append(t))
        assert steps == [h]
        per_unit.append(abs(ys[-1, 0] - math.exp(h)) / h)
    slope = np.polyfit(np.log(hs), np.log(per_unit), 1)[0]
    assert 7.7 <= slope <= 8.5


# ---------------------------------------------------------------------------
# A numpy DOP853 built on scipy's coefficient arrays, kept as the float
# loop's oracle: dopri.solve must make the same RHS calls, take the same
# steps and record the same rows, bit for bit.  Each weighted sum adds its
# nonzero terms in stage order, as the float loop writes them out.

def _ref_sum(weights, k):
    return sum(w * k[j] for j, w in enumerate(weights) if w)


def _ref_squares(e, scale):
    return sum(r * r for r in (e / scale).tolist())


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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t1 - t0)


def _reference_solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None,
                     step_callback=None):
    C, A, B, D = DOP853.C, DOP853.A, DOP853.B, DOP853.D
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
        out_y.append(y)
        i_next += 1

    k = [None] * 16
    if t1 > t0:
        k[0] = np.asarray(f(t, y), dtype=float)
        h = _ref_initial_step(f, t, y, k[0], t1, rtol, atol)
    rejected = False
    while t < t1:
        h_try = min(h, t1 - t)
        floor = 1e-14 * max(1.0, abs(t))
        if t1 - t - h_try < floor:
            h_try = t1 - t
        if h_try < floor:
            raise StepSizeUnderflow(f"t={t!r}, h={h_try!r}")
        for i in range(1, 12):
            yi = y + h_try * _ref_sum(A[i, :i], k)
            k[i] = np.asarray(f(t + C[i] * h_try, yi), dtype=float)
        y_new = y + h_try * _ref_sum(B, k)
        k[12] = np.asarray(f(t + h_try, y_new), dtype=float)
        scale = atol + rtol * np.maximum(np.abs(y_new), np.abs(y))
        sq5 = _ref_squares(_ref_sum(DOP853.E5, k), scale)
        sq3 = _ref_squares(_ref_sum(DOP853.E3, k), scale)
        den = (sq5 + 0.01 * sq3) * len(y)
        if not np.isfinite(den):
            h = 0.333 * h_try
            rejected = True
            continue
        err = h_try * sq5 / math.sqrt(den) if den else 0.0
        if err > 1.0:
            h = h_try * max(0.333, 0.9 * err ** (-1 / 8))
            rejected = True
            continue
        t_new = t1 if h_try == t1 - t else t + h_try
        if i_next < len(t_eval) and t_eval[i_next] < t_new:
            for s in range(13, 16):
                ys = y + h_try * _ref_sum(A[s, :s], k)
                k[s] = np.asarray(f(t + C[s] * h_try, ys), dtype=float)
            dy = y_new - y
            F = [dy, h_try * k[0] - dy, 2 * dy - h_try * (k[12] + k[0])]
            F += [h_try * _ref_sum(d, k) for d in D]
            while i_next < len(t_eval) and t_eval[i_next] < t_new:
                x = (t_eval[i_next] - t) / h_try
                p = 0.0
                for j, c in enumerate(reversed(F)):
                    p = (p + c) * (x if j % 2 == 0 else 1.0 - x)
                out_t.append(t_eval[i_next])
                out_y.append(y + p)
                i_next += 1
        t, y, k[0] = t_new, y_new, k[12]
        while i_next < len(t_eval) and t_eval[i_next] <= t:
            out_t.append(t_eval[i_next])
            out_y.append(y)
            i_next += 1
        if step_callback is not None:
            step_callback(t, y)
        factor = 6.0 if err == 0.0 else min(6.0, max(0.333,
                                                     0.9 * err ** (-1 / 8)))
        if rejected:
            factor = min(factor, 1.0)
            rejected = False
        h = h_try * factor
    late = list(t_eval[i_next:])
    return np.array(out_t + late), np.array(out_y + [y] * len(late))


def _assert_same_run(f, t0, t1, y0, **kwargs):
    """dopri.solve makes the oracle's RHS calls (each time, in order), takes
    its steps (each t and state through step_callback) and returns its
    rows, bit for bit."""
    runs = []
    for solver in (dopri.solve, _reference_solve):
        calls, steps = [], []

        def counted(t, y):
            calls.append(t)
            return f(t, y)

        def record(t, y):
            steps.append((t, np.array(y).tobytes()))

        ts, ys = solver(counted, t0, t1, y0, step_callback=record, **kwargs)
        runs.append((calls, steps, ts, ys))
    (calls, steps, ts, ys), (ref_calls, ref_steps, ref_ts, ref_ys) = runs
    assert steps == ref_steps
    assert calls == ref_calls
    assert (ts.tobytes(), ys.shape, ys.tobytes()) == (
        ref_ts.tobytes(), ref_ys.shape, ref_ys.tobytes())


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
    # steps holding fewer and more than ARRAY_ROWS output times
    (_quadrature, 0.0, 7.0, [1.0, 0.0, 0.0],
     {"rtol": 1e-6, "t_eval": np.linspace(0.0, 7.0, 301)}),
    (_harmonic, 0.0, 100.0 * math.pi, [1.0, 0.0],
     {"t_eval": np.linspace(0.0, 100.0 * math.pi, 41)}),
    (_cut_below, 0.0, 2.0, [1.0], {}),
    (_decay, 1.0, 1.0, [2.0], {"t_eval": [1.0]}),
], ids=["decay", "harmonic", "grid", "inner-grid", "coarse", "fine",
        "quadrature", "dense-rows", "many-steps", "nonfinite", "zero-span"])
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


def _step_ends(f, t0, t1, y0):
    ends = [t0]
    dopri.solve(f, t0, t1, y0, step_callback=lambda t, y: ends.append(t))
    return ends


def _array_rows_grid():
    # ARRAY_ROWS output times strictly inside the first step, then t1: one
    # step's rows in the array pass, whatever the row count of the others
    a, b = _step_ends(_harmonic, 0.0, 3.0, [1.0, 0.0])[:2]
    inside = np.linspace(a, b, dopri.ARRAY_ROWS + 2)[1:-1]
    assert a < inside[0] and inside[-1] < b
    return np.append(inside, 3.0)


@pytest.mark.parametrize("t0, t1, t_eval", [
    (0.0, 3.0, []),
    (0.0, 3.0, None),
    (1.0, 1.0, [1.0 - 1e-12, 1.0, 1.0 + 1e-12]),
    (0.0, 3.0, [0.0, 1.5, 3.0, 3.0 + 5e-13, 3.0 + 1e-12]),
    (0.0, 3.0, _array_rows_grid()),
    (0.0, 3.0, np.linspace(0.0, 3.0, 41)[::2]),  # a strided t_eval
], ids=["empty", "default", "zero-span", "past-t1", "array-rows",
        "strided"])
def test_solution_arrays_have_one_row_per_output_time(t0, t1, t_eval):
    ts, ys = dopri.solve(_harmonic, t0, t1, [1.0, 0.0], t_eval=t_eval)
    n_out = 2 if t_eval is None else len(t_eval)
    for a in (ts, ys):
        assert a.dtype == np.float64 and a.flags.c_contiguous
    assert ts.shape == (n_out,) and ys.shape == (n_out, 2)
    if t_eval is not None:
        np.testing.assert_array_equal(ts, np.asarray(t_eval, dtype=float))
        assert not np.shares_memory(ts, t_eval)
    assert np.all(np.isfinite(ys))
