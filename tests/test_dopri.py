"""Stepper tests against problems with known analytical solutions."""

import math

import numpy as np
import pytest

from tdo import StepSizeUnderflow, dopri


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
