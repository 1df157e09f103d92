"""Command-line surface: trajectories, uncertainty reports, criterion checks,
series builds, and the verification suites.

Subcommands: catalog, solve, uncertainty, verify, series, check-min.
Configuration precedence is CLI flags > JSON config file (--config, falling
back to $TDO_DEFAULT_CONFIG) > model defaults.  All outputs are
deterministic: CSV carries 17 significant digits, JSON is key-sorted.
Errors leave a single `error_kind: message` line on stderr; exit codes are
2 for configuration problems, 3 for solver errors, 1 for failed
verification checks.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import ermakov, minimum, models, quantum, series, verify
from .errors import TdoError

ENV_CONFIG = "TDO_DEFAULT_CONFIG"

MODEL_PARAM_FLAGS = ("m0", "omega0", "gamma", "gamma0", "c", "k0", "nu",
                     "lam", "order")


class ConfigError(Exception):
    pass


def _fmt(x):
    return f"{x:.17g}"


def _write_table(path, fmt, columns):
    """Write named equal-length columns as CSV (17 digits) or JSON rows."""
    header = list(columns)
    rows = np.column_stack(list(columns.values())).tolist()
    if fmt == "json":
        _write_json(path, {"columns": header, "rows": rows})
        return
    lines = [",".join(header)]
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_config(path):
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


class _Resolver:
    """CLI flags beat config-file values beat defaults."""

    def __init__(self, args, config):
        self.args = vars(args)
        self.config = config

    def get(self, key, default=None):
        val = self.args.get(key)
        if val is not None:
            return val
        if key in self.config:
            return self.config[key]
        return default


def _model_params(res):
    params = {}
    for key in MODEL_PARAM_FLAGS:
        val = res.get(key)
        if val is None:
            continue
        if key == "lam":
            params["lambda"] = val
        else:
            params[key] = val
    return params


def _build_model(res):
    name = res.get("model")
    if not name:
        raise ConfigError("--model is required")
    params = _model_params(res)
    lam = params.pop("lambda", None)
    mu = res.get("mu")
    if name == "bessel_type":
        # series parameters may be given directly as lambda/mu with the
        # dimensionless split Omega0 = 1
        if lam is not None:
            params["nu"] = lam / 2.0
        if mu is not None:
            params["k0"] = mu / 2.0
        params.setdefault("order", 10)
        params["order"] = int(params["order"])
        params.pop("gamma", None)
        params.pop("gamma0", None)
        params.pop("c", None)
    else:
        for alien in ("k0", "nu", "order"):
            params.pop(alien, None)
        if name != "kanai_caldirola":
            params.pop("gamma", None)
        if name != "exp_frequency":
            params.pop("gamma0", None)
        if name in ("harmonic", "kanai_caldirola"):
            params.pop("c", None)
    try:
        return models.get_model(name, **params)
    except TdoError as exc:
        raise ConfigError(str(exc))


def _number(res, key, default=None):
    """A finite float from flags or config; ConfigError for anything else."""
    val = res.get(key)
    if val is None:
        val = default
    try:
        if isinstance(val, bool):
            raise TypeError
        num = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key} must be a number, got {val!r}")
    if not math.isfinite(num):
        raise ConfigError(f"--{key} must be finite, got {val!r}")
    return num


def _time_grid(res):
    if res.get("t0") is None or res.get("t1") is None:
        raise ConfigError("--t0 and --t1 are required")
    t0, t1 = _number(res, "t0"), _number(res, "t1")
    if not t1 > t0:
        raise ConfigError("need t1 > t0")
    dt = _number(res, "dt_out", (t1 - t0) / 200.0)
    if not dt > 0.0:
        raise ConfigError("need dt_out > 0")
    n = int(math.floor((t1 - t0) / dt + 1e-9))
    return t0 + dt * np.arange(n + 1)


def _tolerance(res, key, default):
    val = _number(res, key, default)
    if not val > 0.0:
        raise ConfigError(f"--{key} must be positive")
    return val


def _initial_conditions(res, model, t0, t1):
    sigma_dot0 = _number(res, "sigma_dot0", 0.0)
    if res.get("sigma0") is not None:
        return _number(res, "sigma0"), sigma_dot0
    # default: minimal branch when the criterion holds, else the constant
    # branch of the frozen effective frequency, else unit amplitude
    report = minimum.check_criterion(model, t0=t0, t1=t1)
    if report.is_minimum:
        m = float(model.m(t0))
        return (report.c * math.sqrt(m),
                0.5 * report.c * float(model.m_dot(t0)) / math.sqrt(m))
    w2 = float(models.omega2(model, t0))
    if w2 > 0.0:
        return (2.0 * math.sqrt(w2)) ** -0.5, sigma_dot0
    return 1.0, sigma_dot0


def _sweep_jobs(res):
    spec = res.get("sweep")
    if spec is None:
        return [(None, None)]
    try:
        key, rng = spec.split("=", 1)
        lo, hi, n = rng.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError("--sweep expects param=lo:hi:n")
    if n < 1:
        raise ConfigError("sweep count must be >= 1")
    values = np.linspace(lo, hi, n)
    return [(key, float(v)) for v in values]


def _suffixed(path, index):
    if path == "-":
        raise ConfigError("--sweep requires a file --out")
    root, ext = os.path.splitext(path)
    return f"{root}_{index:03d}{ext}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_catalog(args):
    res = _Resolver(args, _load_config(args.config))
    entries = [{"name": m.name, "params": m.params} for m in models.catalog()]
    if res.get("format", "json") == "csv":
        header = ["name", "params"]
        rows = [[m["name"], json.dumps(m["params"], sort_keys=True)]
                for m in entries]
        text = "\n".join([",".join(header)] +
                         ['%s,"%s"' % (r[0], r[1].replace('"', '""'))
                          for r in rows]) + "\n"
        sys.stdout.write(text)
    else:
        _write_json(res.get("out", "-"), {"models": entries})
    return 0


def _run_solve_like(args, columns):
    """Write the columns built for each job (one, or one per sweep value)."""
    config = _load_config(args.config)
    base_res = _Resolver(args, config)
    jobs = _sweep_jobs(base_res)
    out = base_res.get("out", "-")
    for index, (key, value) in enumerate(jobs):
        res = base_res
        if key is not None:
            override = dict(vars(args))
            override[key] = value
            res = _Resolver(argparse.Namespace(**override), config)
        path = out if key is None else _suffixed(out, index)
        _write_table(path, res.get("format", "csv"), columns(res))
    return 0


def _trajectory(res):
    model = _build_model(res)
    grid = _time_grid(res)
    init = _initial_conditions(res, model, grid[0], grid[-1])
    traj = ermakov.integrate_ep(
        model, _number(res, "K", ermakov.DEFAULT_K), init,
        grid[0], grid[-1], t_eval=grid, rtol=_tolerance(res, "tol", 1e-10))
    return model, traj


def _solve_columns(res):
    return vars(_trajectory(res)[1])


def _uncertainty_columns(res):
    hbar = _number(res, "hbar", 1.0)
    model, s = _trajectory(res)
    rep = quantum.quadratures(model, s, hbar)
    pair = quantum.bogolubov(model, s,
                             quantum.default_reference(model, s.t[0]))
    return {"t": s.t, "varQ": rep.varQ, "varP": rep.varP,
            "product": rep.product, "mu_re": pair.mu.real,
            "mu_im": pair.mu.imag, "nu_re": pair.nu.real,
            "nu_im": pair.nu.imag}


def cmd_solve(args):
    return _run_solve_like(args, _solve_columns)


def cmd_uncertainty(args):
    return _run_solve_like(args, _uncertainty_columns)


def cmd_verify(args):
    res = _Resolver(args, _load_config(args.config))
    suite = res.get("suite", "all")
    try:
        report = verify.run_suite(suite, order=int(res.get("order", 8)))
    except KeyError as exc:
        raise ConfigError(str(exc))
    _write_json(res.get("out", "-"), report)
    return 0 if report["pass"] else 1


def cmd_series(args):
    res = _Resolver(args, _load_config(args.config))
    lam = res.get("lam")
    if lam is None:
        raise ConfigError("--lambda is required")
    s = series.build_series(float(res.get("omega0", 1.0)), float(lam),
                            float(res.get("mu", 0.0)),
                            int(res.get("order", 10)))
    _write_json(res.get("out", "-"), s.to_json_dict())
    return 0


def cmd_check_min(args):
    res = _Resolver(args, _load_config(args.config))
    model = _build_model(res)
    report = minimum.check_criterion(
        model, tol=_tolerance(res, "tol", 1e-8),
        t0=res.get("t0"), t1=res.get("t1"),
        samples=int(res.get("samples", 201)))
    _write_json(res.get("out", "-"), report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.add_argument("--out", help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), help="output format")


def _add_model_flags(p):
    p.add_argument("--model", help="catalog model name")
    p.add_argument("--m0", type=float)
    p.add_argument("--omega0", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--gamma0", type=float)
    p.add_argument("--c", type=float)
    p.add_argument("--k0", type=float)
    p.add_argument("--nu", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--order", type=int)


def _add_run_flags(p):
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--dt-out", dest="dt_out", type=float)
    p.add_argument("--hbar", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--sigma-dot0", dest="sigma_dot0", type=float)
    p.add_argument("--sweep", help="param=lo:hi:n fan-out")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tdo",
        description="Time-dependent oscillator amplitudes, phases and "
                    "uncertainty products.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list the model catalog")
    _add_common(p)
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("solve", help="integrate the auxiliary equation")
    _add_common(p)
    _add_model_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("uncertainty", help="variances, product and "
                                            "transformation coefficients")
    _add_common(p)
    _add_model_flags(p)
    _add_run_flags(p)
    p.set_defaults(func=cmd_uncertainty)

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument("--suite", default=None,
                   help="models|ermakov|quantum|minimum|series|bessel|all")
    p.add_argument("--order", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("series", help="build the scale-function series")
    _add_common(p)
    p.add_argument("--omega0", type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--order", type=int)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("check-min", help="minimum-uncertainty criterion check")
    _add_common(p)
    _add_model_flags(p)
    p.add_argument("--t0", type=float)
    p.add_argument("--t1", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--samples", type=int)
    p.set_defaults(func=cmd_check_min)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config_error: {exc}", file=sys.stderr)
        return 2
    except TdoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
