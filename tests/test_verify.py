"""`verify.run_suite`: one shared trajectory per call, timings on request."""

import json

import numpy as np

from tdo import ermakov, models, verify

SUITE_ORDER = ["models", "ermakov", "quantum", "minimum", "series", "bessel"]


def test_shared_trajectory_is_integrated_once_per_call(monkeypatch):
    calls = []
    integrate_ep = ermakov.integrate_ep

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return integrate_ep(*args, **kwargs)

    monkeypatch.setattr(ermakov, "integrate_ep", counted)
    first = verify.run_suite("all")
    assert len(calls) == 14
    timings = {}
    second = verify.run_suite("all", timings=timings)
    assert len(calls) == 28  # the second call reuses nothing of the first
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert first["pass"]
    assert list(timings) == SUITE_ORDER
    assert all(seconds > 0.0 for seconds in timings.values())


def test_shared_rows_match_separate_integrations():
    shared = verify.SharedRuns()
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    for n in (201, 200):
        alone = ermakov.integrate_ep(models.harmonic(), 0.25,
                                     (float(s0), float(sd0)), 0.0, 20.0,
                                     n_out=n)
        rows = vars(shared.harmonic_oscillating[n])
        for key, col in vars(alone).items():
            np.testing.assert_array_equal(rows[key], col)


def test_single_suite_timings_name_only_that_suite():
    timings = {}
    report = verify.run_suite("quantum", timings=timings)
    assert report == verify.run_suite("quantum")
    assert list(timings) == ["quantum"]
