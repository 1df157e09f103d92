"""Command-line surface tests: formats, exit codes and config precedence."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from tdo import cli, dopri, ermakov, models


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


def _count_pairs(monkeypatch):
    """Spy on dopri.solve: the state width of each integration (4 is the
    polar pair, 6 the Cartesian) and the right-hand-side calls it made."""
    solve, seen = dopri.solve, []

    def spy(rhs, t0, t1, y0, *args, **kwargs):
        calls = [len(y0), 0]
        seen.append(calls)

        def counted(t, y):
            calls[1] += 1
            return rhs(t, y)

        return solve(counted, t0, t1, y0, *args, **kwargs)

    monkeypatch.setattr(dopri, "solve", spy)
    return seen


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
    # the minimal branch (the default where m*omega is constant, or the
    # same start typed out) moves slowly, so its sigma is stepped itself;
    # any other start steps x + iv
    seen = _count_pairs(monkeypatch)
    assert run(["solve", *argv, "--t0", "0", "--t1", "1",
                "--out", str(tmp_path / "x.csv")]) == 0
    assert [width for width, _ in seen] == [4 if polar else 6]


@pytest.mark.parametrize("argv,widths", [
    (["--model", "harmonic"], []),
    (["--model", "harmonic", "--sigma0", "0.8", "--K", "2"], []),
    (["--model", "kanai_caldirola"], []),
    (["--model", "kanai_caldirola", "--gamma", "2.2"], []),
    (["--model", "kanai_caldirola", "--gamma", "2"], []),  # Omega^2 = 0
    (["--model", "harmonic", "--K", "0"], [6]),
    (["--model", "kanai_caldirola", "--K", "0"], [6]),
    (["--model", "exp_frequency"], [4]),
    (["--model", "exp_frequency", "--sigma0", "0.8"], []),
    (["--model", "tsquared", "--t0", "1", "--t1", "2"], [4]),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--sigma0", "0.8"],
     []),
    (["--model", "bessel_type", "--t0", "0.1", "--t1", "0.8"], [4]),
    (["--model", "bessel_type", "--t0", "0.1", "--t1", "0.8",
      "--sigma0", "0.3"], [6]),
    (["--model", "exp_frequency", "--sigma0", "0.8", "--sigma-dot0", "-0.3",
      "--K", "2"], []),
    (["--model", "exp_frequency", "--K", "0"], [6]),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--sigma0", "1.3",
      "--sigma-dot0", "0.4", "--K", "0.1"], []),
    (["--model", "tsquared", "--t0", "1", "--t1", "2", "--K", "0"], [6]),
])
def test_the_model_and_K_pick_the_exact_route(tmp_path, monkeypatch, argv,
                                              widths):
    # a declared unit basis with K > 0 is evaluated in closed form, with no
    # stepper call, except from the minimal branch of a time-dependent
    # Omega^2 (exp_frequency and tsquared by default); K = 0 and
    # bessel_type are stepped in the polar (4) or the Cartesian (6) pair
    seen, exact = _count_pairs(monkeypatch), []
    propagate = ermakov._propagate

    def spy(*args, **kwargs):
        exact.append(args[0].name)
        return propagate(*args, **kwargs)

    monkeypatch.setattr(ermakov, "_propagate", spy)
    window = [] if "--t0" in argv else ["--t0", "0", "--t1", "1"]
    assert run(["solve", *argv, *window,
                "--out", str(tmp_path / "x.csv")]) == 0
    assert [width for width, _ in seen] == widths
    assert len(exact) == (0 if widths else 1)


def test_a_typed_branch_start_is_stepped_cheaply(tmp_path, monkeypatch,
                                                 undeclared):
    # the minimal branch typed as --sigma0 takes the polar pair by itself:
    # over 40 periods it needs under a quarter of the Cartesian pair's calls
    argv = ["solve", "--model", "harmonic", "--sigma0", "0.7071067811865476",
            "--t0", "0", "--t1", "250", "--out", str(tmp_path / "x.csv")]
    seen = _count_pairs(monkeypatch)
    assert run(argv) == 0
    monkeypatch.setattr(ermakov, "_on_a_branch", lambda *args: False)
    assert run(argv) == 0
    (polar, polar_calls), (cartesian, cartesian_calls) = seen
    assert (polar, cartesian) == (4, 6)
    assert 4 * polar_calls < cartesian_calls


@pytest.mark.parametrize("argv,line", [
    pytest.param(["--model", "harmonic", "--sigma0", "1e200"],
                 "NonFiniteResult: harmonic: k is first not finite at t=0.0",
                 id="harmonic-k0-overflows"),
    pytest.param(["--model", "exp_frequency", "--sigma0", "1e200"],
                 "NonFiniteResult: exp_frequency: k is first not finite at "
                 "t=0.0", id="exp_frequency-k0-overflows"),
    # a stepped model finds no first step at a scale-equivalent start,
    # whose zero components' slopes grow like sigma0 while atol stays 1e-12
    pytest.param(["--model", "bessel_type", "--t0", "0.1", "--K", "1e300",
                  "--sigma0", "1e75"],
                 "StepSizeUnderflow: bessel_type: step size underflow in "
                 "dopri.solve at t=0.1, h=1.4106166675083393e-79; last "
                 "accepted sigma=1e+75", id="stepper-finds-no-step"),
])
def test_huge_amplitudes_fail_as_solver_errors(capsys, argv, line):
    # K/sigma0^4 overflows or underflows in the branch test without raising;
    # a start whose balance k0 leaves the float range fails before any route
    assert run(["solve", "--t0", "0", "--t1", "1", *argv]) == 3
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("model,t0,t1", [("exp_frequency", "0", "1"),
                                         ("tsquared", "1", "2")])
@pytest.mark.parametrize("lam", ["1e30", "1e75"])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_scale_equivalent_starts_are_solved_exactly(tmp_path, model, t0, t1,
                                                    lam, rate):
    # sigma -> lam sigma, K -> lam^4 K (at rate 0 the stepper's repros):
    # the closed form scales its rows by lam (sigma, sigma'), 1/lam^2
    # (theta) and lam^2 (k, F), where the stepper found no first step; at
    # most 7.1e-16 relative measured
    rows = []
    for scale in (1.0, float(lam)):
        out = tmp_path / f"{scale!r}.csv"
        assert run(["solve", "--model", model, "--t0", t0, "--t1", t1,
                    "--K", repr(scale ** 4), "--sigma0", repr(scale),
                    "--sigma-dot0", repr(rate * scale),
                    "--out", str(out)]) == 0
        rows.append(read_csv(out)[1])
    ref, got = rows
    powers = [0.0, 1.0, 1.0, -2.0, 2.0, 2.0]  # t, sigma, sigma', theta, k, F
    for column, power in enumerate(powers):
        want = ref[:, column] * float(lam) ** power
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
    with pytest.raises(SystemExit):
        run(["solve", "--help"])
    assert "--format {csv,json}" in capsys.readouterr().out


def test_sweep_over_series_alias_writes_distinct_runs(tmp_path):
    out = tmp_path / "lam.csv"
    assert run(["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1",
                "--sweep", "lam=3:4:2", "--out", str(out)]) == 0
    a, b = (tmp_path / f"lam_{i:03d}.csv" for i in range(2))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_size_underflow_is_solver_error(tmp_path, capsys):
    # sigma runs away near t = 0.7112; 0.712 is about the shortest window
    # that still reaches the underflow.  K = 0 keeps the run on the stepper
    code = run(["solve", "--model", "exp_frequency", "--gamma0", "1e3",
                "--t0", "0", "--t1", "0.712", "--sigma0", "1", "--K", "0",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("StepSizeUnderflow:")
    assert "t=0.711" in err and "h=" in err


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
                 "SingularityApproached", ["t=1.5708"],
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
    pytest.param(_UNC + ["--omega0", "1e-320", "--sigma0", "1", "--t0", "0",
                         "--t1", "1", "--dt-out", "0.5"],
                 "ParameterError", ["reference m0 omega0 = 1e-320"],
                 id="reference-product-underflows"),
])
def test_solver_errors_exit_3_with_one_line(tmp_path, capsys, argv, kind,
                                            fragments):
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith(kind + ":")
    assert all(fragment in err for fragment in fragments)


def test_step_budget_is_solver_error(tmp_path, capsys, monkeypatch):
    # the frequency nu/t with nu = 50 turns z some 23 times on [0.1, 1.9],
    # more than 1000 step attempts' worth
    from tdo import dopri
    monkeypatch.setattr(dopri, "MAX_STEPS", 1000)
    code = run(["solve", "--model", "bessel_type", "--nu", "50",
                "--sigma0", "0.3", "--t0", "0.1", "--t1", "1.9",
                "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("BudgetExceeded:") and "1201 step attempts" in err


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


def test_verify_failing_check_exits_nonzero(capsys, monkeypatch):
    from tdo import verify
    bad = [{"name": "synthetic", "pass": False, "max_err": 1.0, "tol": 0.0}]
    monkeypatch.setitem(verify.SUITES, "synthetic", lambda: bad)
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
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--order", "8"])
    assert exc.value.code == 2


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
