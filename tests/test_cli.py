"""Command-line surface tests: formats, exit codes and config precedence."""

import json
import math

import numpy as np
import pytest

from tdo import cli


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


_UNC = ["uncertainty", "--model", "harmonic"]
_RUN = {"t0": 0.0, "t1": 1.0, "sigma0": 0.8}
_SOLVE = ["solve", "--model", "harmonic", "--t0", "0", "--t1", "1"]


@pytest.mark.parametrize("argv,config", [
    pytest.param(_UNC, {**_RUN, key: value}, id=f"{key}-{value}")
    for key, value in [("t1", "inf"), ("dt_out", "x"),
                       ("sigma_dot0", "1e999"), ("dt_out", True),
                       ("hbar", "nan"), ("K", "x")]
] + [
    pytest.param(_SOLVE, {"omega0": "x"}, id="solve-omega0-x"),
    pytest.param(["check-min", "--model", "harmonic"], {"samples": "x"},
                 id="check-min-samples-x"),
    pytest.param(["series", "--lambda", "1"], {"omega0": "x"},
                 id="series-omega0-x"),
    pytest.param(["verify"], {"order": "x"}, id="verify-order-x"),
    pytest.param(["verify"], {"order": 8.5}, id="verify-order-8.5"),
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


def test_sweep_over_series_alias_writes_distinct_runs(tmp_path):
    out = tmp_path / "lam.csv"
    assert run(["solve", "--model", "bessel_type", "--t0", "0.1", "--t1", "1",
                "--sweep", "lam=3:4:2", "--out", str(out)]) == 0
    a, b = (tmp_path / f"lam_{i:03d}.csv" for i in range(2))
    assert a.read_bytes() != b.read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_size_underflow_is_solver_error(tmp_path, capsys):
    # sigma runs away near t = 0.7112; 0.712 is about the shortest window
    # that still reaches the underflow
    code = run(["solve", "--model", "exp_frequency", "--gamma0", "1e3",
                "--t0", "0", "--t1", "0.712", "--sigma0", "1",
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
])
def test_solver_errors_exit_3_with_one_line(tmp_path, capsys, argv, kind,
                                            fragments):
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith(kind + ":")
    assert all(fragment in err for fragment in fragments)


def test_step_budget_is_solver_error(tmp_path, capsys, monkeypatch):
    from tdo import dopri
    monkeypatch.setattr(dopri, "MAX_STEPS", 1000)
    code = run(["solve", "--model", "harmonic", "--t0", "0", "--t1", "1e9",
                "--dt-out", "1e8", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("BudgetExceeded:") and "1011 step attempts" in err


def test_series_json(capsys):
    assert run(["series", "--omega0", "1", "--lambda", "2", "--mu", "1",
                "--order", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["order"] == 5
    assert data["a"][1] == pytest.approx(-0.0824786, abs=1e-7)
    assert data["a_tilde"][0] == 1.0


def test_series_requires_lambda(capsys):
    assert run(["series", "--omega0", "1"]) == 2


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
    bad = [verify.Check(name="synthetic", passed=False, max_err=1.0, tol=0.0)]
    monkeypatch.setitem(verify.SUITES, "synthetic", lambda: bad)
    assert run(["verify", "--suite", "synthetic"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["pass"] is False


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
