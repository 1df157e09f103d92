"""Command-line surface: trajectories, uncertainty reports, criterion checks,
series builds, and the verification suites.

Subcommands: catalog, solve, uncertainty, verify, series, check-min.  Every
key a subcommand reads is one row of `KEYS`: the argparse flags, the config
values and the --sweep keys all come from that table, and every read goes
through the typed check in `_value`.  A model key reaches a catalog factory
only when the factory's signature names it.  Precedence is sweep member >
CLI flags > JSON config file (--config, falling back to $TDO_DEFAULT_CONFIG;
null counts as unset) > model defaults.  Outputs are deterministic: CSV
carries 17 significant digits, JSON is key-sorted.  Errors leave a single
`error_kind: message` line on stderr; exit codes are 2 for configuration
problems (bad values, grids above MAX_ROWS, sweeps above MAX_SWEEP), 3 for
solver errors, 1 for failed verification checks.
"""

import argparse
import collections
import json
import math
import os
import sys

import numpy as np

from . import ermakov, minimum, models, quantum, series, verify
from .errors import TdoError

ENV_CONFIG = "TDO_DEFAULT_CONFIG"
MAX_ROWS = 10 ** 6  # the stepper lands on every output row
MAX_SWEEP = 1000  # sweep outputs carry a three-digit _NNN suffix

# key: (type or string choices, key groups, help).  A command reads the keys
# of its groups; the table order is the flag order of `tdo <command> --help`.
KEYS = {
    "out": (str, "io", "output path, or - for stdout"),
    "format": (("csv", "json"), "io", "output format"),
    "model": (str, "model", "catalog model name"),
    "suite": (str, "verify",
              "models|ermakov|quantum|minimum|series|bessel|all"),
    "m0": (float, "model", None),
    "omega0": (float, "model series", None),
    "gamma": (float, "model", None),
    "gamma0": (float, "model", None),
    "c": (float, "model", None),
    "k0": (float, "model", None),
    "nu": (float, "model", None),
    # series parameters lam = 2*nu and mu = 2*k0 (Omega0 = 1); they come
    # after nu and k0, so they win when both are given
    "lam": (float, "model series", None),
    "mu": (float, "model series", None),
    "order": (int, "model series verify", None),
    "t0": (float, "run check", None),
    "t1": (float, "run check", None),
    "dt_out": (float, "run", None),
    "hbar": (float, "run", None),
    "tol": (float, "run check", None),
    "K": (float, "run", None),
    "sigma0": (float, "run", None),
    "sigma_dot0": (float, "run", None),
    "samples": (int, "check", None),
    "sweep": (str, "run", "param=lo:hi:n fan-out"),
}

_SERIES_ALIASES = {"lam": "nu", "mu": "k0"}


class ConfigError(Exception):
    pass


def _flag(key):
    # `lambda` is a Python keyword, so its key is `lam`
    return "--lambda" if key == "lam" else "--" + key.replace("_", "-")


def _numeric_keys(group):
    return [key for key, (kind, groups, _) in KEYS.items()
            if kind in (float, int) and group in groups.split()]


def _write_table(path, fmt, columns):
    """Write named equal-length columns as CSV (17 digits) or JSON rows."""
    header = list(columns)
    rows = np.column_stack(list(columns.values())).tolist()
    if fmt == "json":
        _write_json(path, {"columns": header, "rows": rows})
        return
    lines = [",".join(header)]
    lines.extend(",".join(f"{x:.17g}" for x in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_text(path, text):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}")


def _load_config(path):
    """The non-null values of the JSON config file, if there is one."""
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
    return {key: val for key, val in cfg.items() if val is not None}


def _value(res, key, default=None):
    """`key` as its table type, or `default` when unset; else ConfigError."""
    val = res.get(key, default)
    kind = KEYS[key][0]
    if val is None:
        return None
    if kind is str or isinstance(kind, tuple):
        if isinstance(val, str) and (kind is str or val in kind):
            return val
        want = "a string" if kind is str else " or ".join(kind)
        raise ConfigError(f"--{key} must be {want}, got {val!r}")
    try:
        if isinstance(val, bool):
            raise TypeError
        num = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"--{key} must be a number, got {val!r}")
    if not math.isfinite(num):
        raise ConfigError(f"--{key} must be finite, got {val!r}")
    if kind is int:
        if not num.is_integer():
            raise ConfigError(f"--{key} must be an integer, got {val!r}")
        return int(num)
    return num


def _model_keys(res):
    """The model name and the model keys its factory's signature takes."""
    name = _value(res, "model")
    if not name:
        raise ConfigError("--model is required")
    try:
        accepted = models.parameter_names(name)
    except TdoError as exc:
        raise ConfigError(str(exc))
    return name, [key for key in _numeric_keys("model")
                  if _SERIES_ALIASES.get(key, key) in accepted]


def _build_model(res):
    name, keys = _model_keys(res)
    params = {}
    for key in keys:
        val = _value(res, key)
        if val is not None:
            alias = _SERIES_ALIASES.get(key)
            params[alias or key] = val / 2.0 if alias else val
    try:
        return models.get_model(name, **params)
    except TdoError as exc:
        raise ConfigError(str(exc))


def _time_grid(res):
    t0, t1 = _value(res, "t0"), _value(res, "t1")
    if t0 is None or t1 is None:
        raise ConfigError("--t0 and --t1 are required")
    if not t1 > t0:
        raise ConfigError("need t1 > t0")
    dt = _value(res, "dt_out", (t1 - t0) / 200.0)
    if not dt > 0.0:
        raise ConfigError("need dt_out > 0")
    span = (t1 - t0) / dt + 1e-9
    if not span < MAX_ROWS:
        raise ConfigError(f"the output grid would exceed {MAX_ROWS} rows")
    return t0 + dt * np.arange(int(math.floor(span)) + 1)


def _tolerance(res, key, default):
    val = _value(res, key, default)
    if not val > 0.0:
        raise ConfigError(f"--{key} must be positive")
    return val


def _initial_conditions(res, model, t0, t1):
    sigma_dot0 = _value(res, "sigma_dot0", 0.0)
    sigma0 = _value(res, "sigma0")
    if sigma0 is not None:
        return sigma0, sigma_dot0
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


def _sweep_members(res, spec, unread):
    """One {key: value} layer per sweep member of `spec` = key=lo:hi:n."""
    try:
        key, rng = spec.split("=", 1)
        lo, hi, n = rng.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError("--sweep expects param=lo:hi:n")
    if not 1 <= n <= MAX_SWEEP:
        raise ConfigError(f"sweep count must be between 1 and {MAX_SWEEP}")
    readable = [k for k in _numeric_keys("run") + _model_keys(res)[1]
                if k not in unread]
    if key not in readable:
        raise ConfigError(f"--sweep {key}: not a key this run reads; "
                          f"choose from {', '.join(readable)}")
    return [{key: float(v)} for v in np.linspace(lo, hi, n)]


def _suffixed(path, index):
    if path == "-":
        raise ConfigError("--sweep requires a file --out")
    root, ext = os.path.splitext(path)
    return f"{root}_{index:03d}{ext}"


# ---------------------------------------------------------------------------
# subcommands

def cmd_catalog(res):
    entries = [{"name": m.name, "params": m.params} for m in models.catalog()]
    out = _value(res, "out", "-")
    if _value(res, "format", "json") == "csv":
        lines = ["name,params"] + [
            '%s,"%s"' % (m["name"], json.dumps(
                m["params"], sort_keys=True).replace('"', '""'))
            for m in entries]
        _write_text(out, "\n".join(lines) + "\n")
    else:
        _write_json(out, {"models": entries})
    return 0


def _run_solve_like(res, columns, unread=()):
    """Write the columns built for each job (one, or one per sweep value)."""
    out, fmt = _value(res, "out", "-"), _value(res, "format", "csv")
    spec = _value(res, "sweep")
    jobs = [(out, res)] if spec is None else [
        (_suffixed(out, index), res.new_child(member))
        for index, member in enumerate(_sweep_members(res, spec, unread))]
    for path, job in jobs:
        _write_table(path, fmt, columns(job))
    return 0


def _trajectory(res):
    model = _build_model(res)
    grid = _time_grid(res)
    init = _initial_conditions(res, model, grid[0], grid[-1])
    traj = ermakov.integrate_ep(
        model, _value(res, "K", ermakov.DEFAULT_K), init,
        grid[0], grid[-1], t_eval=grid, rtol=_tolerance(res, "tol", 1e-10))
    return model, traj


def _solve_columns(res):
    return vars(_trajectory(res)[1])


def _uncertainty_columns(res):
    hbar = _value(res, "hbar", 1.0)
    model, s = _trajectory(res)
    rep = quantum.quadratures(model, s, hbar)
    pair = quantum.bogolubov(model, s,
                             quantum.default_reference(model, s.t[0]))
    return {"t": s.t, "varQ": rep.varQ, "varP": rep.varP,
            "product": rep.product, "mu_re": pair.mu.real,
            "mu_im": pair.mu.imag, "nu_re": pair.nu.real,
            "nu_im": pair.nu.imag}


def cmd_solve(res):
    # solve takes --hbar alongside uncertainty but has no use for it
    return _run_solve_like(res, _solve_columns, unread=("hbar",))


def cmd_uncertainty(res):
    return _run_solve_like(res, _uncertainty_columns)


def cmd_verify(res):
    try:
        report = verify.run_suite(_value(res, "suite", "all"),
                                  order=_value(res, "order", 8))
    except KeyError as exc:
        raise ConfigError(str(exc))
    _write_json(_value(res, "out", "-"), report)
    return 0 if report["pass"] else 1


def cmd_series(res):
    lam = _value(res, "lam")
    if lam is None:
        raise ConfigError("--lambda is required")
    s = series.build_series(_value(res, "omega0", 1.0), lam,
                            _value(res, "mu", 0.0), _value(res, "order", 10))
    _write_json(_value(res, "out", "-"), s.to_json_dict())
    return 0


def cmd_check_min(res):
    model = _build_model(res)
    samples = _value(res, "samples", 201)
    if samples > MAX_ROWS:
        raise ConfigError(f"--samples must not exceed {MAX_ROWS}")
    report = minimum.check_criterion(
        model, tol=_tolerance(res, "tol", 1e-8),
        t0=_value(res, "t0"), t1=_value(res, "t1"), samples=samples)
    _write_json(_value(res, "out", "-"), report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="tdo",
        description="Time-dependent oscillator amplitudes, phases and "
                    "uncertainty products.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # name: (handler, key groups, help)
        "catalog": (cmd_catalog, "io", "list the model catalog"),
        "solve": (cmd_solve, "io model run",
                  "integrate the auxiliary equation"),
        "uncertainty": (cmd_uncertainty, "io model run",
                        "variances, product and transformation coefficients"),
        "verify": (cmd_verify, "io verify", "run verification suites"),
        "series": (cmd_series, "io series", "build the scale-function series"),
        "check-min": (cmd_check_min, "io model check",
                      "minimum-uncertainty criterion check"),
    }
    for name, (func, groups, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config",
                       help="JSON config file (flags take precedence)")
        for key, (kind, key_groups, key_help) in KEYS.items():
            if set(groups.split()) & set(key_groups.split()):
                p.add_argument(
                    _flag(key), dest=key, help=key_help,
                    type=kind if kind in (float, int) else None,
                    choices=kind if isinstance(kind, tuple) else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = {key: getattr(args, key) for key in KEYS
             if getattr(args, key, None) is not None}
    try:
        # non-finite results surface as TdoErrors, not as numpy warnings
        with np.errstate(all="ignore"):
            return args.func(
                collections.ChainMap(flags, _load_config(args.config)))
    except ConfigError as exc:
        print(f"config_error: {exc}", file=sys.stderr)
        return 2
    except TdoError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
