"""Command-line surface tests: formats, exit codes and config precedence."""

import contextlib
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdo import cli, dopri, ermakov, g17, models, quantum, verify


def run(args):
    return cli.main(args)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows


def test_catalog_lists_five_models(capsys):
    assert run(["catalog"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [m["name"] for m in data["models"]] == [
        "harmonic", "kanai_caldirola", "exp_frequency", "tsquared",
        "bessel_type"]


def test_solve_constant_trajectory(tmp_path):
    out = tmp_path / "traj.csv"
    code = run(["solve", "--model", "harmonic", "--omega0", "1",
                "--sigma0", "0.70710678118654752", "--t0", "0", "--t1", "10",
                "--dt-out", "0.5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "sigma", "sigma_dot", "theta", "k", "F"]
    assert rows.shape[0] == 21
    assert np.max(np.abs(rows[:, 1] - 2.0 ** -0.5)) < 1e-8
    assert rows[-1, 3] == pytest.approx(20.0, abs=1e-7)  # theta = 2 w0 t


@pytest.mark.parametrize("model,t0,t1", [("harmonic", "0", "3"),
                                         ("exp_frequency", "0", "2")])
def test_default_amplitude_follows_K(tmp_path, model, t0, t1):
    # constant branch (harmonic) and minimal branch (exp_frequency): the
    # default start scales by (4K)^(1/4), so sigma/sqrt(m) stays constant
    out = tmp_path / "k.csv"
    assert run(["solve", "--model", model, "--t0", t0, "--t1", t1,
                "--dt-out", "0.25", "--K", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    ratio = rows[:, 1] / np.sqrt(models.get_model(model).m(rows[:, 0]))
    assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9


def test_solve_domain_error_exit_code(tmp_path, capsys):
    code = run(["solve", "--model", "tsquared", "--t0", "0", "--t1", "2",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DomainError:")
    assert "\n" not in err.strip()


def test_solve_matches_hyperbolic_closed_form(tmp_path):
    from tdo import ermakov
    out = tmp_path / "kc.csv"
    code = run(["solve", "--model", "kanai_caldirola", "--omega0", "0.3",
                "--gamma", "1", "--sigma0", "1.0", "--t0", "0", "--t1", "3",
                "--dt-out", "0.1", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    c1, c2 = ermakov.fit_hyperbolic(0.4, 1.0, 0.0, 0.0)
    for t, sigma in zip(rows[:, 0], rows[:, 1]):
        ref = float(ermakov.sigma_hyperbolic(0.4, c1, c2, t)[0])
        assert abs(sigma - ref) / ref < 1e-6


def test_uncertainty_minimum_model_saturates(tmp_path):
    out = tmp_path / "unc.csv"
    code = run(["uncertainty", "--model", "exp_frequency", "--t0", "0",
                "--t1", "2", "--dt-out", "0.1", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "varQ", "varP", "product",
                      "mu_re", "mu_im", "nu_re", "nu_im"]
    assert np.max(np.abs(rows[:, 3] - 0.5)) < 1e-9
    assert np.max(np.abs(rows[:, 4] - 1.0)) < 1e-9
    assert np.max(np.abs(rows[:, 6])) < 1e-9


def test_uncertainty_empty_range_is_config_error(capsys):
    assert run(["uncertainty", "--model", "harmonic",
                "--t0", "2", "--t1", "1"]) == 2
    assert capsys.readouterr().err.startswith("config_error:")


def test_non_numeric_config_value_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t0": "x"}))
    assert run(["solve", "--model", "harmonic", "--t1", "1",
                "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config_error:")


def test_nan_initial_sigma_is_config_error(capsys):
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--sigma0", "nan"]) == 2
    assert capsys.readouterr().err.startswith("config_error:")


@pytest.fixture
def undeclared(monkeypatch):
    """The CLI builds harmonic and kanai_caldirola with their unit basis
    undeclared, as a table has it, so integrate_ep steps them."""
    def stepped(factory):
        @functools.wraps(factory)
        def build(**params):
            return dataclasses.replace(factory(**params), unit_basis=None)
        return build

    for name in ("harmonic", "kanai_caldirola"):
        monkeypatch.setitem(models._FACTORIES, name,
                            stepped(models._FACTORIES[name]))


def _solve_widths(monkeypatch):
    """Spy on dopri.solve: the state width of each integration (8 is the
    stepped basis)."""
    solve, widths = dopri.solve, []

    def spy(rhs, t0, t1, y0, *args, **kwargs):
        widths.append(len(y0))
        return solve(rhs, t0, t1, y0, *args, **kwargs)

    monkeypatch.setattr(dopri, "solve", spy)
    return widths


@pytest.mark.parametrize("argv,polar", [
    (["--model", "harmonic"], True),
    (["--model", "exp_frequency"], True),
    # the constant branch of the frozen Omega^2, not the minimal one
    (["--model", "kanai_caldirola"], False),
    (["--model", "kanai_caldirola", "--sigma-dot0", "0.1"], False),
    (["--model", "kanai_caldirola", "--gamma", "2.2"], False),
    (["--model", "harmonic", "--sigma0", "0.8"], False),
    (["--model", "harmonic", "--K", "0"], False),
    (["--model", "harmonic", "--sigma0", "0.7071067811865476"], True),
])
def test_default_initial_data_step_in_the_polar_pair(tmp_path, monkeypatch,
                                                     undeclared, argv, polar):
    # the CLI steps one basis (8 components) from any start; the same
    # start stepped in the polar pair of verify's nonlinear oracle gives
    # the same rows.  polar marks the starts on the minimal branch: the
    # default where m*omega is constant, or the same start typed out
    calls, widths = [], _solve_widths(monkeypatch)
    integrate_ep = ermakov.integrate_ep

    def spy(*args, **kwargs):
        calls.append((args, kwargs, integrate_ep(*args, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(ermakov, "integrate_ep", spy)
    assert run(["solve", *argv, "--t0", "0", "--t1", "1",
                "--out", str(tmp_path / "x.csv")]) == 0
    assert widths == [8]
    ((model, K, init, t0, t1), kwargs, got), = calls
    assert ermakov._on_a_branch(model, K, *init, t0) == polar
    ref = verify._nonlinear_run(model, K, init, t0, t1, kwargs["t_eval"],
                                rtol=1e-12)
    assert np.max(np.abs(got.sigma / ref.sigma - 1.0)) <= 1e-8
    assert np.max(np.abs(got.sigma_dot - ref.sigma_dot)) <= 1e-8
    assert np.max(np.abs(got.theta[1:] / ref.theta[1:] - 1.0)) <= 1e-8


@pytest.mark.parametrize("argv,widths", [
    (["--model", "harmonic"], []),
    (["--model", "harmonic", "--sigma0", "0.8", "--K", "2"], []),
    (["--model", "kanai_caldirola"], []),
    (["--model", "kanai_caldirola", "--gamma", "2.2"], []),
    (["--model", "kanai_caldirola", "--gamma", "2"], []),  # Omega^2 = 0
    (["--model", "harmonic", "--K", "0"], [8]),
    (["--model", "kanai_caldirola", "--K", "0"], [8]),
    (["--model", "exp_frequency"], [8]),
    (["--model", "exp_frequency", "--sigma0", "0.8"], []),
    (["--model", "tsquared", "--t0", "1", "--t1", "2"], [8]),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--sigma0", "0.8"],
     []),
    (["--model", "bessel_type", "--t0", "0.1", "--t1", "0.8"], [8]),
    (["--model", "bessel_type", "--t0", "0.1", "--t1", "0.8",
      "--sigma0", "0.3"], [8]),
    (["--model", "exp_frequency", "--sigma0", "0.8", "--sigma-dot0", "-0.3",
      "--K", "2"], []),
    (["--model", "exp_frequency", "--K", "0"], [8]),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--sigma0", "1.3",
      "--sigma-dot0", "0.4", "--K", "0.1"], []),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--K", "0"], [8]),
])
def test_the_model_and_K_pick_the_exact_route(tmp_path, monkeypatch, argv,
                                              widths):
    # a declared unit basis with K > 0 is evaluated in closed form, with no
    # stepper call, except from the minimal branch of a time-dependent
    # Omega^2 (exp_frequency and tsquared by default); there, for K = 0 and
    # on bessel_type, the basis is stepped as 8 components
    seen, exact = _solve_widths(monkeypatch), []
    declared = ermakov._declared_basis

    def spy(*args, **kwargs):
        exact.append(args[0].name)
        return declared(*args, **kwargs)

    monkeypatch.setattr(ermakov, "_declared_basis", spy)
    window = [] if "--t0" in argv else ["--t0", "0", "--t1", "1"]
    assert run(["solve", *argv, *window,
                "--out", str(tmp_path / "x.csv")]) == 0
    assert seen == widths
    assert len(exact) == (0 if widths else 1)


@pytest.mark.parametrize("argv,line", [
    pytest.param(["--model", "harmonic", "--sigma0", "1e200"],
                 "NonFiniteResult: harmonic: k is first not finite at t=0.0",
                 id="harmonic-k0-overflows"),
    pytest.param(["--model", "exp_frequency", "--sigma0", "1e200"],
                 "NonFiniteResult: exp_frequency: k is first not finite at "
                 "t=0.0", id="exp_frequency-k0-overflows"),
])
def test_huge_amplitudes_fail_as_solver_errors(capsys, argv, line):
    # K/sigma0^4 overflows or underflows in the branch test without raising;
    # a start whose balance k0 leaves the float range fails before any route
    assert run(["solve", "--t0", "0", "--t1", "1", *argv]) == 3
    assert capsys.readouterr().err == line + "\n"


def _scaled_rows(tmp_path, argv, scale, K=1.0, rate=0.0):
    """Rows of `tdo solve argv` from sigma0 = scale, sigma0' = rate scale
    and K scale^4, the start of scale 1 scaled."""
    out = tmp_path / f"{scale!r}.csv"
    assert run(["solve", *argv, "--K", repr(scale ** 4 * K),
                "--sigma0", repr(scale), "--sigma-dot0", repr(rate * scale),
                "--out", str(out)]) == 0
    return read_csv(out)[1]


# t, sigma, sigma', theta, k, F scale by lam to these powers
_SCALE_POWERS = [0.0, 1.0, 1.0, -2.0, 2.0, 2.0]
# (model, t0, t1, K): the closed form, the stepped basis (bessel_type, and
# every model at K = 0) and, at rate 0, the minimal branch of exp_frequency
# and tsquared, whose basis is stepped too
_SCALE_CASES = [("exp_frequency", "0", "1", 1.0), ("tsquared", "1", "2", 1.0),
                ("bessel_type", "0.1", "0.8", 1.0),
                ("harmonic", "0", "1", 0.0), ("exp_frequency", "0", "1", 0.0)]
_LAMS = {"1e30": 1e30, "1e75": 1e75, "2^100": 2.0 ** 100, "2^-20": 2.0 ** -20}


@pytest.mark.parametrize("model,t0,t1,K,lam,rate", [
    pytest.param(model, t0, t1, K, lam, rate,
                 id="-".join((repr(rate), lam, model, t0, t1))
                 + ("" if K else "-K0"))
    for model, t0, t1, K in _SCALE_CASES for lam in _LAMS
    for rate in (0.0, 0.3)
    if K or lam.startswith("2^")])
def test_scale_equivalent_starts_are_solved_exactly(tmp_path, model, t0, t1,
                                                    K, lam, rate):
    # sigma -> lam sigma, K -> lam^4 K: z = sigma0 C + (sigma0' + i
    # sqrt(K)/sigma0) S on a basis from unit data, declared or stepped,
    # scales its rows by lam (sigma, sigma'), 1/lam^2 (theta) and lam^2
    # (k, F); bit for bit at a power of two, and at most 7.1e-16 relative
    # measured at lam = 1e30 and 1e75, where the stepper once found no
    # first step
    argv = ["--model", model, "--t0", t0, "--t1", t1]
    scale = _LAMS[lam]
    ref = _scaled_rows(tmp_path, argv, 1.0, K, rate)
    got = _scaled_rows(tmp_path, argv, scale, K, rate)
    for column, power in enumerate(_SCALE_POWERS):
        want = ref[:, column] * scale ** power
        if lam.startswith("2^"):
            assert np.array_equal(got[:, column], want)
        else:
            assert np.max(np.abs(got[:, column] - want)) \
                <= 2e-15 * np.max(np.abs(want))


def test_a_huge_start_on_a_stepped_model_is_solved(tmp_path):
    # the scale-equivalent start that once ended in StepSizeUnderflow (the
    # zero components' slopes grew like sigma0 while atol stayed 1e-12)
    # steps the same unit basis as sigma0 = 1, K = 1
    argv = ["--model", "bessel_type", "--t0", "0.1", "--t1", "1"]
    rows = []
    for K, sigma0 in (("1", "1"), ("1e300", "1e75")):
        out = tmp_path / f"{sigma0}.csv"
        assert run(["solve", *argv, "--K", K, "--sigma0", sigma0,
                    "--out", str(out)]) == 0
        rows.append(read_csv(out)[1])
    ref, got = rows
    for column, power in enumerate(_SCALE_POWERS):
        want = ref[:, column] * 1e75 ** power
        assert np.max(np.abs(got[:, column] - want)) \
            <= 2e-15 * np.max(np.abs(want))


def test_a_huge_K_on_a_constant_omega2_is_solved_exactly(tmp_path):
    # the default start scales to the constant branch sigma = 1e75, which
    # the closed form keeps where the stepper finds no step
    out = tmp_path / "x.csv"
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--K", "1e300", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert np.max(np.abs(rows[:, 1] / 1e75 - 1.0)) <= 1e-15


_UNC = ["uncertainty", "--model", "harmonic"]
_RUN = {"t0": 0.0, "t1": 1.0, "sigma0": 0.8}
_SOLVE = ["solve", "--model", "harmonic", "--t0", "0", "--t1", "1"]


@pytest.mark.parametrize("argv,config", [
    pytest.param(_UNC, {**_RUN, key: value}, id=f"{key}-{value}")
    for key, value in [("t1", "inf"), ("dt_out", "x"),
                       ("sigma_dot0", "1e999"), ("dt_out", True),
                       ("hbar", "nan"), ("K", "x"), ("K", -1.0),
                       ("hbar", 0.0), ("hbar", -1.0)]
] + [
    # once an OverflowError traceback
    pytest.param(_UNC, {**_RUN, "sigma0": 10 ** 400},
                 id="sigma0-integer-past-the-float-range"),
    pytest.param(_SOLVE + ["--K", "-1"], {}, id="solve-K-negative"),
    pytest.param(["check-min", "--model", "harmonic", "--t0", "2",
                  "--t1", "1"], {}, id="check-min-empty-window"),
    # harmonic's default window is [0, 2], so t0 = 5 alone leaves it empty
    pytest.param(["check-min", "--model", "harmonic", "--t0", "5"], {},
                 id="check-min-t0-past-the-default-window"),
    pytest.param(["check-min", "--model", "harmonic", "--samples", "1"], {},
                 id="check-min-samples-1"),
    pytest.param(["check-min", "--model", "harmonic"], {"samples": 0},
                 id="check-min-samples-0"),
    pytest.param(_SOLVE, {"omega0": "x"}, id="solve-omega0-x"),
    pytest.param(["check-min", "--model", "harmonic"], {"samples": "x"},
                 id="check-min-samples-x"),
    pytest.param(["series", "--lambda", "1"], {"omega0": "x"},
                 id="series-omega0-x"),
    pytest.param(["series", "--lambda", "2"], {"order": "x"},
                 id="series-order-x"),
    pytest.param(["series", "--lambda", "2"], {"order": 8.5},
                 id="series-order-8.5"),
    pytest.param(["solve", "--model", "bessel_type", "--t0", "0.1",
                  "--t1", "1"], {"order": 8.5}, id="bessel-order-8.5"),
    pytest.param(_SOLVE + ["--sweep", "foo=1:2:2"], {}, id="sweep-unknown-key"),
    pytest.param(_SOLVE + ["--sweep", "gamma=1:2:2"], {},
                 id="sweep-key-the-model-ignores"),
    pytest.param(_SOLVE + ["--sweep", "hbar=1:2:2"], {},
                 id="sweep-hbar-on-solve"),
    pytest.param(_SOLVE + ["--sweep", "sigma0=1:2:1001"], {}, id="sweep-cap"),
    pytest.param(_SOLVE + ["--sweep", "sigma0=1:2:100000000"], {},
                 id="sweep-cap-huge"),
    # each once failed on a member value nobody wrote: "got nan"
    pytest.param(_UNC + ["--sweep", "hbar=1:inf:2"], _RUN,
                 id="sweep-hbar-to-inf"),
    pytest.param(_SOLVE + ["--sweep", "sigma0=inf:inf:2"], {},
                 id="sweep-sigma0-inf"),
    pytest.param(_SOLVE + ["--sweep", "sigma0=1e308:-1e308:3"], {},
                 id="sweep-step-overflows"),
    pytest.param(_SOLVE + ["--dt-out", "1e-9"], {}, id="row-cap"),
    pytest.param(["check-min", "--model", "harmonic", "--samples", "1000001"],
                 {}, id="samples-cap"),
    pytest.param(["solve", "--t0", "0", "--t1", "1"], {"model": ["harmonic"]},
                 id="model-not-a-string"),
    pytest.param(_SOLVE, {"format": "xml"}, id="format-not-a-choice"),
    pytest.param(_SOLVE + ["--out", "{tmp}/missing/u.csv"], {},
                 id="out-in-missing-directory"),
    pytest.param(_SOLVE + ["--sigma0", "1", "--omega0", "1e200"], {},
                 id="omega0-squared-overflows"),
    pytest.param(["solve", "--model", "kanai_caldirola", "--t0", "0",
                  "--t1", "1", "--gamma", "1e155"], {},
                 id="gamma-squared-overflows"),
    pytest.param(["solve", "--model", "exp_frequency", "--c", "1e-200",
                  "--t0", "0", "--t1", "1"], {},
                 id="exp-frequency-mass-divisor-underflows"),
    pytest.param(["solve", "--model", "tsquared", "--m0", "1e-200",
                  "--c", "1e-100", "--t0", "1", "--t1", "2"], {},
                 id="tsquared-frequency-divisor-underflows"),
])
def test_non_finite_run_values_are_config_errors(tmp_path, capsys, argv,
                                                 config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run(argv[:1] + ["--config", str(cfg),
                           "--out", str(tmp_path / "u.csv")] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config_error:") and "\n" not in err.strip()


@pytest.mark.parametrize("model,flag,t0", [
    ("exp_frequency", "--m0", "0"), ("tsquared", "--omega0", "1")])
def test_model_flag_the_factory_ignores_changes_nothing(tmp_path, model, flag,
                                                        t0):
    argv = ["solve", "--model", model, "--t0", t0, "--t1", "2"]
    assert run(argv + ["--out", str(tmp_path / "a.csv")]) == 0
    assert run(argv + [flag, "2", "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_HARMONIC = {"model": "harmonic", "t0": 0.0, "t1": 1.0, "dt_out": 0.25}
_KC = {**_HARMONIC, "model": "kanai_caldirola"}
_EXP = {**_HARMONIC, "model": "exp_frequency"}
_BESSEL = {"model": "bessel_type", "t0": 0.1, "t1": 1.0, "dt_out": 0.1}

# key: (its flag, command, value, the other settings of the run)
KEY_CASES = {
    "out": ("--out", "solve", "out.csv", _HARMONIC),
    "format": ("--format", "solve", "json", _HARMONIC),
    "model": ("--model", "solve", "kanai_caldirola", _HARMONIC),
    "suite": ("--suite", "verify", "series", {}),
    # the sidecar lands outside the compared directory: its seconds differ
    "timings": ("--timings", "verify", "../timings.json", {"suite": "models"}),
    "m0": ("--m0", "uncertainty", 1.5, _KC),
    "omega0": ("--omega0", "solve", 1.5, _HARMONIC),
    "gamma": ("--gamma", "solve", 0.5, _KC),
    "gamma0": ("--gamma0", "solve", 0.5, _EXP),
    "c": ("--c", "uncertainty", 0.8, _EXP),
    "k0": ("--k0", "solve", 0.4, _BESSEL),
    "nu": ("--nu", "solve", 1.2, _BESSEL),
    "lam": ("--lambda", "solve", 2.4, _BESSEL),
    "mu": ("--mu", "solve", 0.8, _BESSEL),
    "order": ("--order", "solve", 6, _BESSEL),
    "t0": ("--t0", "solve", 0.5, {**_HARMONIC, "t0": None}),
    "t1": ("--t1", "solve", 0.5, {**_HARMONIC, "t1": None}),
    "dt_out": ("--dt-out", "solve", 0.5, {**_HARMONIC, "dt_out": None}),
    "hbar": ("--hbar", "uncertainty", 0.5, _KC),
    "tol": ("--tol", "solve", 1e-6, _HARMONIC),
    "K": ("--K", "solve", 0.5, _HARMONIC),
    "sigma0": ("--sigma0", "solve", 0.9, _HARMONIC),
    "sigma_dot0": ("--sigma-dot0", "solve", 0.1, _HARMONIC),
    "samples": ("--samples", "check-min", 11, {"model": "kanai_caldirola"}),
    "sweep": ("--sweep", "solve", "sigma0=0.8:0.9:2", _HARMONIC),
}


@pytest.mark.parametrize("key", list(cli.KEYS))
def test_flag_and_config_key_give_identical_bytes(tmp_path, monkeypatch, key):
    flag, command, value, settings = KEY_CASES[key]
    outputs = []
    for via in ("flag", "config"):
        workdir = tmp_path / via
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        config = dict(settings)
        argv = [command, "--config", str(tmp_path / f"{via}.json")]
        if via == "flag":
            argv += [flag, str(value)]
        else:
            config[key] = value
        if key != "out":
            argv += ["--out", "out.csv"]
        (tmp_path / f"{via}.json").write_text(json.dumps(config))
        assert run(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in workdir.iterdir()})
    assert outputs[0] and outputs[0] == outputs[1]


def test_numeric_strings_in_config_parse(tmp_path):
    argv = ["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"omega0": "1.5", "order": "6"}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(argv + ["--config", str(cfg), "--out", str(a)]) == 0
    assert run(argv + ["--omega0", "1.5", "--order", "6", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


_BESSEL_SOLVE = ["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1"]
_SOLVE_08 = _SOLVE + ["--sigma0", "0.8"]


@pytest.mark.parametrize("argv,key,flag,value", [
    (_BESSEL_SOLVE, "order", "--order", "1e1"),
    (_BESSEL_SOLVE, "order", "--order", "1.2e1"),
    (_SOLVE_08, "sigma_dot0", "--sigma-dot0", "-1e-3"),
    (_SOLVE_08, "sigma_dot0", "--sigma-dot0", "-.25"),
    (["solve", "--model", "harmonic", "--t1", "1"], "t0", "--t0", "-1e-3"),
])
def test_flag_values_parse_as_config_values(tmp_path, argv, key, flag, value):
    # one typing for both: a value that reads as a number in the config
    # file reads the same as a flag, a negative one in exponent form too
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    a, b = tmp_path / "flag.csv", tmp_path / "config.csv"
    assert run(argv + [flag, value, "--out", str(a)]) == 0
    assert run(argv + ["--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# (command with the settings it requires, flag, bad value); argparse once
# answered most of these with its multi-line usage block, and the others
# named --lambda and --sigma-dot0 by their keys
BAD_FLAG_VALUES = [
    (_SOLVE_08[:5], "--t0", "abc"),
    (["catalog"], "--format", "xml"),
    (_SOLVE, "--format", "CSV"),
    (["series", "--lambda", "2"], "--order", "x"),
    (["series", "--lambda", "2"], "--mu", "1/2"),
    (["series", "--lambda", "2"], "--order", "1.5"),
    (["series"], "--lambda", "nan"),
    (_SOLVE_08, "--sigma-dot0", "-1e999"),
    (_SOLVE_08, "--sigma-dot0", "inf"),
    (_SOLVE, "--K", "-1e-3"),
    (_SOLVE, "--tol", "-1"),
    (["uncertainty", "--model", "harmonic", "--t0", "0", "--t1", "1"],
     "--hbar", "0"),
    (["check-min", "--model", "harmonic"], "--samples", "2.5"),
    (["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1"],
     "--lambda", "x"),
]


@pytest.mark.parametrize("argv,flag,value", BAD_FLAG_VALUES,
                         ids=[f"{argv[0]}{flag}={value}"
                              for argv, flag, value in BAD_FLAG_VALUES])
def test_bad_flag_values_are_one_line_config_errors(capsys, argv, flag,
                                                    value):
    assert run(argv + [flag, value]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    line, = out.err.splitlines()
    assert line.startswith(f"config_error: {flag} ")


def test_format_help_lists_its_values(capsys):
    assert run(["solve", "--help"]) == 0
    assert "--format {csv,json}" in capsys.readouterr().out


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_help_lists_exactly_the_flags_of_the_command(capsys, command):
    groups = set(cli.COMMANDS[command][0].split())
    want = ["--config"] + [cli._flag(key)
                           for key, (_, key_groups, _) in cli.KEYS.items()
                           if groups & set(key_groups.split())]
    for form in ("--help", "-h"):
        assert run([command, form]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert [line.split()[0] for line in out.out.splitlines()
                if line.startswith("  --")] == want
    # every flag has a reader: output format for the table writers only,
    # hbar for uncertainty only
    assert ("--format" in want) == (command in ("catalog", "solve",
                                                "uncertainty"))
    assert ("--hbar" in want) == (command == "uncertainty")


def test_suite_help_lists_the_suites(capsys):
    assert run(["verify", "--help"]) == 0
    assert ("  --suite {models,ermakov,quantum,minimum,series,bessel,all}"
            "  suite to run") in capsys.readouterr().out.splitlines()


def test_help_without_a_command_lists_the_commands(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"  {name} " in out for name in cli.COMMANDS)


def test_joined_and_separate_flag_values_write_the_same_bytes(tmp_path):
    pairs = [("--t0", "-1e-3"), ("--t1", "1"), ("--sigma0", "0.8"),
             ("--sigma-dot0", "-.25"), ("--dt-out", "0.25")]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["uncertainty", "--model", "harmonic"]
               + [tok for pair in pairs for tok in pair]
               + ["--out", str(a)]) == 0
    assert run(["uncertainty", "--model=harmonic"]
               + ["=".join(pair) for pair in pairs]
               + [f"--out={b}"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_a_repeated_flag_takes_its_last_value(tmp_path):
    a, b, first = (tmp_path / name for name in ("a.csv", "b.csv", "x.csv"))
    assert run(_SOLVE + ["--sigma0", "0.5", "--sigma0=0.9",
                         "--out", str(first), "--out", str(a)]) == 0
    assert run(_SOLVE + ["--sigma0", "0.9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert not first.exists()


@pytest.mark.parametrize("dt_out", ["10", "1.0000001"])
@pytest.mark.parametrize("start", [[], ["--sigma0", "1"]],
                         ids=["default-start", "sigma0"])
def test_dt_out_past_the_window_is_a_config_error(tmp_path, capsys, dt_out,
                                                  start):
    # the default start once ended in `DomainError: empty sampling window`
    # (exit 3) and --sigma0 in a file holding only the t0 row (exit 0)
    out = tmp_path / "x.csv"
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--dt-out", dt_out, "--out", str(out)] + start) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("config_error: --dt-out ")
    assert not out.exists()


def test_dt_out_equal_to_the_window_writes_both_ends(tmp_path):
    out = tmp_path / "x.csv"
    assert run(_SOLVE + ["--dt-out", "1", "--out", str(out)]) == 0
    assert read_csv(out)[1][:, 0].tolist() == [0.0, 1.0]


def test_sweep_over_series_alias_writes_distinct_runs(tmp_path):
    out = tmp_path / "lam.csv"
    assert run(["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1",
                "--sweep", "lam=3:4:2", "--out", str(out)]) == 0
    a, b = (tmp_path / f"lam_{i:03d}.csv" for i in range(2))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_size_underflow_is_solver_error(tmp_path, capsys):
    # the basis runs away like exp(500 t) and its slopes leave the float
    # range near t = 1.3889; 1.389 is about the shortest window that still
    # reaches the underflow.  K = 0 keeps the run on the stepper
    code = run(["solve", "--model", "exp_frequency", "--gamma0", "1e3",
                "--t0", "0", "--t1", "1.389", "--sigma0", "1", "--K", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("StepSizeUnderflow:")
    assert "t=1.388" in err and "h=" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,kind,fragments", [
    pytest.param(_SOLVE + ["--sigma0", "1", "--omega0", "1e150"],
                 "StepSizeUnderflow", ["first step", "t=0.0"],
                 id="first-step-underflows"),
    pytest.param(["solve", "--model", "exp_frequency", "--gamma0", "1e3",
                  "--t0", "0", "--t1", "0.7", "--sigma0", "1",
                  "--dt-out", "0.1"],
                 "NonFiniteResult", ["exp_frequency", "k", "t=0.7"],
                 id="run-leaves-float-range"),
    pytest.param(_SOLVE[:3] + ["--K", "0", "--sigma0", "1", "--t0", "0",
                               "--t1", "5"],
                 "SingularityApproached",
                 ["z changed sign in the step from t=1.33849 to t=1.66604"],
                 id="K-zero-sigma-reaches-zero"),
    # Omega^2 = 1 - 2500: cosh(L t) overflows near t = 14.2
    pytest.param(["solve", "--model", "kanai_caldirola", "--gamma", "100",
                  "--t0", "0", "--t1", "100"],
                 "NonFiniteResult", ["kanai_caldirola", "sigma", "t=14.5"],
                 id="closed-form-leaves-float-range"),
    # hbar/m overflows in every row at m0 = 1e-320
    pytest.param(_UNC + ["--m0", "1e-320", "--t0", "0", "--t1", "1",
                         "--dt-out", "0.5"],
                 "NonFiniteResult", ["harmonic: varQ", "t=0.0"],
                 id="quantum-column-leaves-float-range"),
    # an hbar sweep shares (mu, nu) but still computes them after the
    # quadratures, so it fails as a lone call does
    pytest.param(_UNC + ["--m0", "1e-320", "--t0", "0", "--t1", "1",
                         "--dt-out", "0.5", "--sweep", "hbar=1:2:2"],
                 "NonFiniteResult", ["harmonic: varQ", "t=0.0"],
                 id="quantum-column-leaves-float-range-in-an-hbar-sweep"),
    pytest.param(_UNC + ["--omega0", "1e-320", "--sigma0", "1", "--t0", "0",
                         "--t1", "1", "--dt-out", "0.5"],
                 "ParameterError", ["reference m0 omega0 = 1e-320"],
                 id="reference-product-underflows"),
    # m*omega under- and overflows at gamma0 = 800; the report once went
    # out as JSON with NaN or Infinity and exit 0
    pytest.param(["check-min", "--model", "exp_frequency", "--gamma0", "800",
                  "--t0", "-1", "--t1", "1"],
                 "NonFiniteResult", ["exp_frequency", "[-1.0, 1.0]",
                                     "c=nan, max_violation=nan"],
                 id="check-min-report-is-nan"),
    pytest.param(["check-min", "--model", "exp_frequency", "--gamma0", "800",
                  "--t0", "0", "--t1", "0.92"],
                 "NonFiniteResult", ["exp_frequency", "[0.0, 0.92]",
                                     "max_violation=inf"],
                 id="check-min-violation-is-inf"),
])
def test_solver_errors_exit_3_with_one_line(tmp_path, capsys, argv, kind,
                                            fragments):
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    err, = captured.err.splitlines()
    assert err.startswith(kind + ":")
    assert all(fragment in err for fragment in fragments)


def test_step_budget_is_solver_error(tmp_path, capsys, monkeypatch):
    # the frequency nu/t with nu = 50 turns z some 23 times on [0.1, 1.9],
    # more than 400 step attempts' worth of the stepped basis
    from tdo import dopri
    monkeypatch.setattr(dopri, "MAX_STEPS", 200)
    code = run(["solve", "--model", "bessel_type", "--nu", "50",
                "--sigma0", "0.3", "--t0", "0.1", "--t1", "1.9",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("BudgetExceeded:") and "401 step attempts" in err


@pytest.mark.parametrize("argv,code", [
    (["--model", "harmonic", "--sigma0", "1", "--t0", "0", "--t1", "2"], 3),
    (["--model", "bessel_type", "--sigma0", "0.3", "--t0", "0.1",
      "--t1", "0.8"], 3),
    (["--model", "harmonic", "--sigma0", "1", "--sigma-dot0", "0.5",
      "--t0", "0", "--t1", "1"], 0),
], ids=["harmonic-reaches-zero", "bessel_type-reaches-zero",
        "harmonic-stays-off-zero"])
def test_k_zero_starts_keep_their_outcome(tmp_path, capsys, argv, code):
    # K = 0: z = sigma is real and the run fails where it reaches zero
    assert run(["solve", "--K", "0", *argv,
                "--out", str(tmp_path / "x.csv")]) == code
    err = capsys.readouterr().err
    assert err.startswith("SingularityApproached:") if code else err == ""


def test_k_zero_sign_change_inside_one_step_is_reported(tmp_path, capsys,
                                                       monkeypatch):
    # z = cos t changes sign at pi/2 inside one long accepted step, with
    # rows only at the window's ends: the run fails and names that step
    # instead of returning theta = tan t across its pole
    ends, solve = [0.0], dopri.solve

    def spy(f, t0, t1, y0, *args, step_callback, **kwargs):
        def callback(t, y):
            ends.append(t)
            step_callback(t, y)

        return solve(f, t0, t1, y0, *args, step_callback=callback, **kwargs)

    monkeypatch.setattr(dopri, "solve", spy)
    assert run(["solve", "--model", "harmonic", "--K", "0", "--sigma0", "1",
                "--t0", "0", "--t1", "2", "--dt-out", "2",
                "--out", str(tmp_path / "x.csv")]) == 3
    err = capsys.readouterr().err
    lo, hi = (float(v) for v in re.findall(r"t=(\S+)", err))
    assert ends[-2] < math.pi / 2 < ends[-1]
    assert ends[-1] - ends[-2] > 0.1
    assert (lo, hi) == pytest.approx((ends[-2], ends[-1]), rel=1e-5)


def test_series_json(capsys):
    assert run(["series", "--omega0", "1", "--lambda", "2", "--mu", "1",
                "--order", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 5
    assert data["a"][1] == pytest.approx(-0.0824786, abs=1e-7)
    assert data["a_tilde"][0] == 1.0


def test_series_requires_lambda(capsys):
    assert run(["series", "--omega0", "1"]) == 2


@pytest.mark.parametrize("args", [["--lambda", "0.5"], ["--order", "0"],
                                  ["--order", "201"]])
def test_series_parameter_errors_are_config_errors(capsys, args):
    assert run(["series", "--lambda", "2"] + args) == 2
    assert capsys.readouterr().err.startswith("config_error:")


_BESSEL_SOLVE = ["solve", "--model", "bessel_type", "--t0", "0.1",
                 "--t1", "0.5"]


# each of these ended in a traceback or wrote non-finite or all-zero
# coefficients before build_series checked what it returns
@pytest.mark.parametrize("argv,name", [
    (_BESSEL_SOLVE + ["--k0", "1e308"], "mu"),
    (_BESSEL_SOLVE + ["--nu", "1e308"], "lambda"),
    (_BESSEL_SOLVE + ["--lambda", "1e200"], "lambda"),
    (_BESSEL_SOLVE + ["--mu", "1e200"], "mu"),
    (["series", "--lambda", "2", "--mu", "1e200"], "mu"),
    (["series", "--lambda", "2", "--omega0", "1e308", "--order", "3"],
     "omega0"),
    (["series", "--lambda", "1e200"], "lambda"),
    (["series", "--lambda", "2", "--mu", "1e20", "--order", "30"], "order"),
], ids=["solve-k0", "solve-nu", "solve-lambda", "solve-mu", "series-mu",
        "series-omega0", "series-lambda", "series-order"])
def test_series_past_the_float_range_is_a_config_error(capsys, argv, name):
    assert run(argv) == 2
    out = capsys.readouterr()
    line, = out.err.splitlines()
    assert line.startswith("config_error: ") and out.out == ""
    assert f"{name} = " in line or f"{name} must" in line


def test_check_min_reports(capsys):
    assert run(["check-min", "--model", "exp_frequency"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_minimum"] is True
    assert data["c"] == pytest.approx(2.0 ** -0.5, rel=1e-9)

    assert run(["check-min", "--model", "kanai_caldirola"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_minimum"] is False


def test_verify_suite_exit_code(capsys):
    assert run(["verify", "--suite", "quantum"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is True
    assert all(set(c) == {"name", "pass", "max_err", "tol"}
               for c in data["checks"])


def test_verify_unknown_suite(capsys):
    assert run(["verify", "--suite", "nope"]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line == ("config_error: --suite must be models or ermakov or "
                    "quantum or minimum or series or bessel or all, "
                    "got 'nope'")


def test_verify_failing_check_exits_nonzero(capsys, monkeypatch):
    from tdo import verify
    bad = [{"name": "synthetic", "pass": False, "max_err": 1.0, "tol": 0.0}]
    monkeypatch.setitem(verify.SUITES, "synthetic", lambda: bad)
    monkeypatch.setitem(cli.KEYS, "suite",
                        (("synthetic",),) + cli.KEYS["suite"][1:])
    assert run(["verify", "--suite", "synthetic"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False


def test_verify_reads_no_order(tmp_path, monkeypatch, capsys):
    # the release gate is one fixed report: an order in a shared config
    # file leaves it alone, and verify has no --order flag
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order": 12}))
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    assert run(["verify", "--suite", "series"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert run(["verify", "--order", "8"]) == 2


def test_nonpositive_tolerance_is_config_error(capsys):
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--tol", "-1"]) == 2
    assert run(["check-min", "--model", "harmonic", "--tol", "0"]) == 2


def test_sweep_fans_out(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--dt-out", "0.5", "--sweep", "omega0=1:2:3",
                "--out", str(out)])
    assert code == 0
    for i, w0 in enumerate((1.0, 1.5, 2.0)):
        _, rows = read_csv(tmp_path / f"sweep_{i:03d}.csv")
        # default initial condition is the constant branch 1/sqrt(2 w0)
        assert rows[0, 1] == pytest.approx((2.0 * w0) ** -0.5, rel=1e-12)


@pytest.mark.parametrize("argv,spec", [
    (_UNC + ["--t0", "0", "--t1", "1"], "hbar=1:inf:2"),
    (_SOLVE, "sigma0=inf:inf:2"),
    (_SOLVE, "sigma0=1e308:-1e308:3"),
])
def test_a_non_finite_sweep_is_named_by_its_spec(tmp_path, capsys, argv,
                                                 spec):
    assert run(argv + ["--sweep", spec, "--out", str(tmp_path / "u.csv")]) \
        == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config_error: --sweep {spec}: ")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("sweep,runs", [("hbar=0.5:2:3", 1),
                                        ("sigma0=0.6:1.2:3", 3)])
def test_only_an_hbar_sweep_shares_its_trajectory(tmp_path, monkeypatch,
                                                  sweep, runs):
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    spy(ermakov, "integrate_ep")
    spy(quantum, "bogolubov")
    assert run(_UNC + ["--t0", "0", "--t1", "1", "--sweep", sweep,
                       "--out", str(tmp_path / "u.csv")]) == 0
    assert sorted(calls) == ["bogolubov"] * runs + ["integrate_ep"] * runs
    assert len(list(tmp_path.iterdir())) == 3


def test_sweep_requires_file_output(capsys):
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--sweep", "omega0=1:2:2"]) == 2


def test_bad_sweep_spec(capsys):
    assert run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1",
                "--sweep", "omega0"]) == 2


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"model": "harmonic", "t0": 0.0, "t1": 1.0,
                               "dt_out": 0.5, "omega0": 4.0}))
    out = tmp_path / "a.csv"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows[0, 1] == pytest.approx(8.0 ** -0.5, rel=1e-12)  # omega0 = 4
    # CLI flag beats the config value
    out2 = tmp_path / "b.csv"
    assert run(["solve", "--config", str(cfg), "--omega0", "1",
                "--out", str(out2)]) == 0
    _, rows = read_csv(out2)
    assert rows[0, 1] == pytest.approx(2.0 ** -0.5, rel=1e-12)


def test_env_var_config_fallback(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "env.json"
    cfg.write_text(json.dumps({"model": "harmonic", "t0": 0.0, "t1": 1.0,
                               "dt_out": 1.0}))
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
    out = tmp_path / "env.csv"
    assert run(["solve", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert rows.shape[0] == 2


def test_broken_config_file(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["solve", "--config", str(cfg), "--model", "harmonic",
                "--t0", "0", "--t1", "1"]) == 2


@pytest.mark.parametrize("text", [b"\xff\xfe{}",
                                  b'{"sigma0": ' + b"1" * 5000 + b"}"],
                         ids=["not-utf-8", "past-the-digit-limit"])
def test_unreadable_config_files_are_one_line_config_errors(tmp_path, capsys,
                                                            text):
    # each once ended in a traceback (UnicodeDecodeError, ValueError)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    assert run(["solve", "--config", str(cfg), "--model", "harmonic",
                "--t0", "0", "--t1", "1"]) == 2
    line, = capsys.readouterr().err.splitlines()
    assert line.startswith("config_error: ")


ARGUMENT_ERRORS = {
    "unknown-flag": ["solve", "--modle", "harmonic"],
    "no-command": [],
    "unknown-command": ["sovle", "--model", "harmonic"],
    "no-value": ["solve", "--t0"],
    "a-flag-for-a-value": _SOLVE[:3] + ["--t0", "--t1", "1"],
    "newline-in-a-value": ["catalog", "a\nb"],
    "stray-token": _SOLVE + ["harmonic"],
    "single-dash-flag": _SOLVE + ["-t0", "0"],
    "format-on-series": ["series", "--lambda", "2", "--format", "csv"],
    "format-on-verify": ["verify", "--suite", "models", "--format", "json"],
    "format-on-check-min": ["check-min", "--model", "harmonic",
                            "--format=json"],
    "hbar-on-solve": _SOLVE + ["--hbar", "1"],
    "samples-on-solve": _SOLVE + ["--samples", "5"],
    "abbreviated-flag": ["solve", "--mod", "harmonic", "--t0", "0",
                         "--t1", "1"],
}


@pytest.mark.parametrize("argv", list(ARGUMENT_ERRORS.values()),
                         ids=list(ARGUMENT_ERRORS))
def test_argument_errors_are_one_line_config_errors(capsys, argv):
    # argparse once answered these with its multi-line usage block, and
    # series, verify and check-min took --format only to write JSON anyway
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("config_error: ") and out.err.count("\n") == 1


def _program_env():
    """The environment that runs `python -m tdo.cli` from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    return env


def test_the_module_runs_as_a_program():
    env = _program_env()
    cmd = [sys.executable, "-m", "tdo.cli", "solve"]
    bad = subprocess.run(cmd + ["--t0"], capture_output=True, text=True,
                         env=env, timeout=120)
    assert (bad.returncode, bad.stdout) == (2, "")
    assert bad.stderr == "config_error: --t0 expects a value\n"
    help_ = subprocess.run(cmd + ["--help"], capture_output=True, text=True,
                           env=env, timeout=120)
    assert (help_.returncode, help_.stderr) == (0, "")
    assert "  --sigma0" in help_.stdout.splitlines()


def test_no_call_keeps_state_for_the_next(tmp_path, monkeypatch, capsys):
    # each call in one process writes what it writes in a fresh interpreter
    def config(name, **values):
        path = tmp_path / name
        path.write_text(json.dumps({"t0": 0.0, "t1": 1.0, "dt_out": 0.25,
                                    **values}))
        return str(path)

    env_a = config("a.json", model="harmonic", omega0=2.0)
    env_b = config("b.json", model="kanai_caldirola", gamma=0.5)
    file_c = config("c.json", model="exp_frequency", c=0.7)
    calls = [
        (env_a, ["solve", "--out", "env_a.csv"]),
        (env_b, ["solve", "--out", "env_b.csv"]),
        (None, ["uncertainty", "--config", file_c, "--out", "file.csv"]),
        (None, ["uncertainty", "--config", file_c, "--c", "0.9",
                "--out", "flag.csv"]),
        (None, ["uncertainty", "--config", file_c, "--c", "0.9",
                "--sweep", "c=0.5:0.6:2", "--out", "sweep.csv"]),
        (None, ["uncertainty", "--model", "exp_frequency", "--t0", "0",
                "--t1", "1", "--dt-out", "0.25", "--out", "plain.csv"]),
    ]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    base = _program_env()
    base.pop(cli.ENV_CONFIG, None)
    for env_config, argv in calls:
        if env_config is None:
            monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        else:
            monkeypatch.setenv(cli.ENV_CONFIG, env_config)
        rc = run(argv)
        out, err = capsys.readouterr()
        env = base if env_config is None else {**base,
                                               cli.ENV_CONFIG: env_config}
        ref = subprocess.run([sys.executable, "-m", "tdo.cli", *argv],
                             cwd=fresh, env=env, capture_output=True,
                             text=True, timeout=120)
        assert (rc, out, err) == (ref.returncode, ref.stdout, ref.stderr)
    written = sorted(p.name for p in here.iterdir())
    assert written == sorted(p.name for p in fresh.iterdir())
    for name in written:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
    # every layer took effect: no two outputs are alike
    assert len({(here / name).read_bytes() for name in written}) == 7


def test_repeated_runs_are_byte_identical(tmp_path):
    args = ["uncertainty", "--model", "kanai_caldirola", "--t0", "0",
            "--t1", "2", "--dt-out", "0.25"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_uses_17_significant_digits(tmp_path):
    out = tmp_path / "digits.csv"
    run(["solve", "--model", "harmonic", "--sigma0", str(1.0 / 3.0),
         "--t0", "0", "--t1", "1", "--dt-out", "1", "--out", str(out)])
    text = out.read_text()
    assert "0.33333333333333331" in text  # exact shortest-17g round trip


def test_csv_rows_format_special_values_as_17g(tmp_path):
    # one printf-style pattern per row writes what per-value 17g writes
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2e-308,
              1.0 / 3.0, -1e300, 123456789.0, 1e16, 2.5e-5]
    out = tmp_path / "special.csv"
    cli._write_table(str(out), "csv", {"a": values, "b": values[::-1]})
    expected = ["a,b"] + [f"{x:.17g},{y:.17g}"
                          for x, y in zip(values, values[::-1])]
    assert out.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("rows,n_cols", [
    (1, 3), (7, 1), (g17.BLOCK // 3, 3), (g17.BLOCK // 3 + 1, 3),
    (2 * g17.BLOCK + 5, 1), (0, 2)],
    ids=["one-row", "one-column", "one-block", "past-a-block-edge",
         "three-blocks", "no-rows"])
def test_json_tables_are_json_dumps_in_blocks(tmp_path, rows, n_cols):
    special = [-0.0, 5e-324, 1e300, 1e-300, -1e300, 1e16, 0.1, math.nan,
               math.inf]
    values = np.resize(
        np.concatenate([special, np.random.default_rng(7).normal(size=64)]),
        rows * n_cols)
    columns = {f"c{j}": values[j::n_cols] for j in range(n_cols)}
    # c0 ends with the special values, so only its last block is non-finite
    columns["c0"][-len(special):] = special[:rows]
    out = tmp_path / "table.json"
    cli._write_table(str(out), "json", columns)
    rows_ = np.column_stack(list(columns.values())).tolist()
    assert out.read_text() == json.dumps(
        {"columns": list(columns), "rows": rows_}, sort_keys=True,
        indent=2) + "\n"


CATALOG_WINDOWS = [("harmonic", "0", "3"), ("kanai_caldirola", "0", "2"),
                   ("exp_frequency", "0", "10"), ("tsquared", "0.5", "3"),
                   ("bessel_type", "0.1", "1.9")]


def _per_value_17g(table):
    """A JSON table's rows as CSV, written out value by value; JSON floats
    round-trip, so these are the values the CSV run wrote."""
    lines = [table["columns"]] + [["%.17g" % x for x in row]
                                  for row in table["rows"]]
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize("command", ["solve", "uncertainty"])
@pytest.mark.parametrize("model,t0,t1", CATALOG_WINDOWS)
def test_csv_bytes_are_per_value_17g(tmp_path, capsys, command, model, t0,
                                     t1):
    # 701 rows of 6 or 8 columns take the block kernel across a block edge
    argv = [command, "--model", model, "--t0", t0, "--t1", t1,
            "--dt-out", repr((float(t1) - float(t0)) / 700)]
    sweep = ["--sweep", "sigma0=0.6:1.2:2"]
    assert run(argv + sweep + ["--format", "json",
                               "--out", str(tmp_path / "s.json")]) == 0
    assert run(argv + sweep + ["--out", str(tmp_path / "s.csv")]) == 0
    for i in range(2):
        table = json.loads((tmp_path / f"s_{i:03d}.json").read_text())
        assert len(table["rows"]) == 701
        assert (tmp_path / f"s_{i:03d}.csv").read_text() \
            == _per_value_17g(table)
    # the default start, written to stdout
    assert run(argv + ["--format", "json",
                       "--out", str(tmp_path / "d.json")]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out \
        == _per_value_17g(json.loads((tmp_path / "d.json").read_text()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("model,t0,t1", CATALOG_WINDOWS)
def test_an_hbar_sweep_writes_what_separate_calls_write(tmp_path, model, t0,
                                                        t1, fmt):
    # 201 rows of 8 columns take the block kernel
    argv = ["uncertainty", "--model", model, "--t0", t0, "--t1", t1,
            "--dt-out", repr((float(t1) - float(t0)) / 200),
            "--format", fmt]
    assert run(argv + ["--sweep", "hbar=0.5:2:3",
                       "--out", str(tmp_path / f"s.{fmt}")]) == 0
    for i, hbar in enumerate(np.linspace(0.5, 2.0, 3).tolist()):
        lone = tmp_path / f"lone.{fmt}"
        assert run(argv + ["--hbar", repr(hbar), "--out", str(lone)]) == 0
        assert (tmp_path / f"s_{i:03d}.{fmt}").read_bytes() \
            == lone.read_bytes()


def test_verify_timings_sidecar_leaves_stdout_unchanged(tmp_path, capsys):
    assert run(["verify", "--suite", "quantum"]) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "timings.json"
    assert run(["verify", "--suite", "quantum", "--timings", str(path)]) == 0
    assert capsys.readouterr().out == plain
    timings = json.loads(path.read_text())
    assert list(timings) == ["quantum"] and timings["quantum"] > 0.0

    out = tmp_path / "report.json"
    assert run(["verify", "--suite", "quantum", "--out", str(out),
                "--timings", str(path)]) == 0
    assert out.read_text() == plain


def test_verify_timings_needs_a_file(capsys):
    assert run(["verify", "--suite", "quantum", "--timings", "-"]) == 2
    assert capsys.readouterr().out == ""


# --- fuzzed command lines --------------------------------------------------

# flag values: non-finite and extreme numbers, signed zero, strings and
# counts far past every cap, with a few sweep specs and valid choices
FUZZ_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "-0", "0",
                     "1", "0.5", "2", "-1", "1e-300", "1e9", "10" * 12,
                     "0.3", "1.5", "1e-3", "100",
                     "x", "", "-x", "all", "ermakov", "csv", "json",
                     "sigma0=0:1:1000000000", "t1=0:1e308:3", "K=nan:1:2",
                     "sigma0=0.5:1:2", "nu=1:2:2", *models.CATALOG_NAMES]),
    st.text(max_size=8))
# config values: the same strings, JSON numbers (huge integers too),
# booleans, lists and nulls, which count as unset; a config file is such a
# JSON object or bytes that are not one
CONFIG_VALUES = st.one_of(
    FUZZ_VALUES, st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True), st.just([1.0]))
FUZZ_WINDOWS = [("0", "1"), ("0.5", "2"), ("0.2", "0.6"), ("-1", "1e308")]


def _fuzz_value(key, value, tmp):
    """Outputs stay in tmp: an --out or --timings value is one of its paths
    or stdout."""
    if key in ("out", "timings") and value is not None:
        paths = ["-", f"{tmp}/o.csv", f"{tmp}/missing/o.csv"]
        return paths[len(str(value)) % 3]
    return value


def _reject_constant(name):
    raise AssertionError(f"stdout JSON holds {name}")


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(["catalog", "solve", "uncertainty", "verify",
                                "series", "check-min"]),
       model=st.sampled_from(models.CATALOG_NAMES),
       window=st.sampled_from(FUZZ_WINDOWS),
       flags=st.dictionaries(st.sampled_from(list(cli.KEYS)), FUZZ_VALUES,
                             max_size=5),
       config=st.one_of(
           st.dictionaries(st.sampled_from(list(cli.KEYS)), CONFIG_VALUES,
                           max_size=5),
           st.sampled_from([b"\xff\xfe{}", b"[1]", b"{", b"null",
                            b'{"sigma0": ' + b"1" * 5000 + b"}"])),
       joined=st.lists(st.booleans(), min_size=5, max_size=5),
       stray=st.one_of(st.none(), st.tuples(st.integers(0, 20), FUZZ_VALUES)))
def test_fuzzed_command_lines_exit_with_one_line(command, model, window,
                                                 flags, config, joined, stray):
    # every run ends in a documented exit code with at most one stderr line
    # and no traceback; the caps are lowered so that every grid, sweep and
    # stepped run stays small
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.multiple(cli, MAX_ROWS=2000, MAX_SWEEP=3), \
            mock.patch.object(dopri, "MAX_STEPS", 500), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "wb") as fh:
            fh.write(config if isinstance(config, bytes) else json.dumps(
                {key: _fuzz_value(key, value, tmp)
                 for key, value in config.items()}).encode())
        argv = [command, "--config", cfg]
        if command in ("solve", "uncertainty", "check-min"):
            argv += ["--model", model, "--t0", window[0], "--t1", window[1]]
        # each flag as `--flag value` or `--flag=value`, and maybe one stray
        # token anywhere
        for (key, value), join in zip(flags.items(), joined):
            pair = [cli._flag(key), _fuzz_value(key, value, tmp)]
            argv += ["=".join(pair)] if join else pair
        if stray is not None:
            argv.insert(stray[0] % (len(argv) + 1), stray[1])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    err = err.getvalue()
    assert "Traceback" not in err
    assert err.count("\n") + err.count("\r") + len(caught) <= 1, \
        (err, [str(w.message) for w in caught])
    # JSON on stdout is strict JSON: no NaN, Infinity or -Infinity
    out = out.getvalue()
    if code == 0 and out.startswith("{"):
        json.loads(out, parse_constant=_reject_constant)
