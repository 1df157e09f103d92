"""Command-line surface: trajectories, uncertainty reports, criterion checks,
series builds, and the verification suites.

`tdo <command> [--flag value | --flag=value] ...`, for the commands in
`COMMANDS`.  A token starting with `--` is a flag, so a value may start
with one `-`; a flag's last value wins; `-h`/`--help` lists the flags.
Every key a command reads is one row of `KEYS`: its flags, the config
values and the --sweep keys all come from that table, and `_value` alone
types flag and config values.  The key groups and each command's flags are
derived from `KEYS` and `COMMANDS` once per process; nothing read from
argv, the environment or a config file is kept between calls.  Each job
reads one plain dict, resolved once, so precedence is sweep member > CLI
flags > JSON config file (--config, falling back to $TDO_DEFAULT_CONFIG;
null counts as unset) > model defaults.  A sweep over a key of the
`quantum` group (hbar) computes the model, the trajectory and (mu, nu) once
per call and only the quadratures per member; every other sweep runs each
member in full, and each member writes what a separate call with its value
writes.  Outputs are deterministic: each CSV value is the bytes of
`"%.17g" % value` (`g17` writes the rows in blocks), JSON is key-sorted.
Errors leave a single `error_kind: message` line on stderr; exit codes are
2 for configuration problems (bad values, argv mistakes, unreadable config
files, grids above MAX_ROWS, sweeps above MAX_SWEEP or with a non-finite
member), 3 for solver errors, 1 for failed verification checks.
"""

import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import ermakov, g17, minimum, models, quantum, series, verify
from .errors import TdoError

ENV_CONFIG = "TDO_DEFAULT_CONFIG"
# the columns of every output row are held in memory; their text is not
MAX_ROWS = 10 ** 6
MAX_SWEEP = 1000  # sweep outputs carry a three-digit _NNN suffix

# key: (type or string choices, key groups, help).  A command reads the keys
# of its groups; the table order is the flag order of `tdo <command> --help`.
KEYS = {
    "out": (str, "io", "output path, or - for stdout"),
    "format": (("csv", "json"), "table", "output format"),
    "model": (str, "model", "catalog model name"),
    "suite": ((*verify.SUITES, "all"), "verify", "suite to run"),
    "timings": (str, "verify",
                "write each suite's wall time in seconds as JSON to this file"),
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
    "order": (int, "model series", None),
    "t0": (float, "run check", None),
    "t1": (float, "run check", None),
    "dt_out": (float, "run", None),
    "hbar": (float, "quantum", None),
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


@functools.cache
def _keys(groups):
    """The keys of any of the space-separated `groups`, in table order."""
    groups = set(groups.split())
    return tuple(key for key, (_, key_groups, _) in KEYS.items()
                 if groups & set(key_groups.split()))


@functools.cache
def _numeric_keys(groups):
    return tuple(key for key in _keys(groups) if KEYS[key][0] in (float, int))


def _write_table(path, fmt, columns):
    """Write named equal-length columns as CSV or JSON rows; a CSV value
    reads as its `"%.17g"`, and either format streams its rows in blocks."""
    header = list(columns)
    if fmt == "json":
        _write_text(path, _json_table(header, list(columns.values())))
        return
    _write_text(path, itertools.chain([",".join(header) + "\n"],
                                      g17.csv_rows(columns.values())))


# what separates two rows, and two values of a row, in a JSON table
_JSON_ROW, _JSON_VALUE = "\n    ],\n    [\n      ", ",\n      "


def _json_table(header, columns):
    """The text of `json.dumps({"columns": header, "rows": rows},
    sort_keys=True, indent=2) + "\\n"` in chunks of at most `g17.BLOCK`
    values (or one row), `rows` being the rows of `columns`."""
    empty = json.dumps({"columns": header, "rows": []}, sort_keys=True,
                       indent=2)
    if not len(columns[0]):
        yield empty + "\n"
        return
    yield empty[:-len("[]\n}")] + "[\n    [\n      "
    step = max(1, g17.BLOCK // len(columns))
    for r0 in range(0, len(columns[0]), step):
        block = np.column_stack([col[r0:r0 + step] for col in columns])
        # json writes a finite number as its repr
        number = repr if np.isfinite(block).all() else json.dumps
        yield (_JSON_ROW if r0 else "") + _JSON_ROW.join(
            _JSON_VALUE.join(map(number, row)) for row in block.tolist())
    yield "\n    ]\n  ]\n}\n"


def _write_json(path, obj):
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _write_text(path, chunks):
    """Write the text chunks, taken one at a time, to `path` or stdout."""
    if path == "-":
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(path, "w") as fh:
            for chunk in chunks:
                fh.write(chunk)
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
    except (OSError, ValueError) as exc:
        # ValueError: not JSON, not UTF-8, or an integer past Python's
        # digit limit
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
        raise ConfigError(f"{_flag(key)} must be {want}, got {val!r}")
    try:
        if isinstance(val, bool):
            raise TypeError
        num = float(val)
    except OverflowError:
        num = math.inf  # an integer past the float range
    except (TypeError, ValueError):
        raise ConfigError(f"{_flag(key)} must be a number, got {val!r}")
    if not math.isfinite(num):
        raise ConfigError(f"{_flag(key)} must be finite, got {val!r}")
    if kind is int:
        if not num.is_integer():
            raise ConfigError(f"{_flag(key)} must be an integer, got {val!r}")
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
    if not 0.0 < dt <= t1 - t0:
        raise ConfigError(f"--dt-out must lie in (0, t1 - t0], got {dt!r}")
    span = (t1 - t0) / dt + 1e-9
    if not span < MAX_ROWS:
        raise ConfigError(f"the output grid would exceed {MAX_ROWS} rows")
    return t0 + dt * np.arange(int(math.floor(span)) + 1)


def _positive(res, key, default):
    val = _value(res, key, default)
    if not val > 0.0:
        raise ConfigError(f"{_flag(key)} must be positive")
    return val


def _initial_conditions(res, model, t0, t1, K):
    """(sigma0, sigma0') from the flags, else from the model."""
    sigma_dot0 = _value(res, "sigma_dot0", 0.0)
    sigma0 = _value(res, "sigma0")
    if sigma0 is not None:
        return sigma0, sigma_dot0
    # default: minimal branch when the criterion holds, else the constant
    # branch of the frozen effective frequency, else unit amplitude; the
    # first two solve K = 1/4, and (4K)^(1/4) sigma solves K
    scale = (4.0 * K) ** 0.25 if K > 0.0 else 1.0
    report = minimum.check_criterion(model, t0=t0, t1=t1)
    if report.is_minimum:
        sigma, sigma_dot = minimum.minimal_amplitude(model, report.c, t0)
        return scale * sigma, scale * sigma_dot
    w2 = float(models.omega2(model, t0))
    if w2 > 0.0:
        return scale * (2.0 * math.sqrt(w2)) ** -0.5, sigma_dot0
    return 1.0, sigma_dot0


def _sweep(res, spec, groups):
    """The key and the member values of `spec` = key=lo:hi:n."""
    try:
        key, rng = spec.split("=", 1)
        lo, hi, n = rng.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError("--sweep expects param=lo:hi:n")
    if not 1 <= n <= MAX_SWEEP:
        raise ConfigError(f"sweep count must be between 1 and {MAX_SWEEP}")
    readable = [*_numeric_keys(groups), *_model_keys(res)[1]]
    if key not in readable:
        raise ConfigError(f"--sweep {key}: not a key this run reads; "
                          f"choose from {', '.join(readable)}")
    # finite bounds far apart overflow linspace's step
    values = np.linspace(lo, hi, n)
    if not (math.isfinite(lo) and math.isfinite(hi)
            and np.isfinite(values).all()):
        raise ConfigError(f"--sweep {spec}: the bounds and every member "
                          "must be finite")
    return key, values.tolist()


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
        _write_text(out, ["\n".join(lines) + "\n"])
    else:
        _write_json(out, {"models": entries})
    return 0


def _run_solve_like(res, tables, groups):
    """Write the table of each job: one, or one per sweep value.  A sweep
    may vary a model key or a numeric key of `groups`.  `tables(jobs,
    quantum_only)` yields the columns of each job in turn; `quantum_only`
    says that the jobs differ only in a key that just the quantum columns
    read."""
    out, fmt = _value(res, "out", "-"), _value(res, "format", "csv")
    spec = _value(res, "sweep")
    key, jobs, paths = None, [res], [out]
    if spec is not None:
        key, values = _sweep(res, spec, groups)
        jobs = [{**res, key: value} for value in values]
        paths = [_suffixed(out, index) for index in range(len(values))]
    for path, columns in zip(paths, tables(jobs, key in _keys("quantum"))):
        _write_table(path, fmt, columns)
    return 0


def _trajectory(res):
    model = _build_model(res)
    grid = _time_grid(res)
    K = _value(res, "K", ermakov.DEFAULT_K)
    if not K >= 0.0:
        raise ConfigError("--K must not be negative")
    init = _initial_conditions(res, model, grid[0], grid[-1], K)
    traj = ermakov.integrate_ep(
        model, K, init, grid[0], grid[-1], t_eval=grid,
        rtol=_positive(res, "tol", 1e-10))
    return model, traj


def _solve_tables(jobs, quantum_only):
    for res in jobs:
        yield vars(_trajectory(res)[1])


def _uncertainty_tables(jobs, quantum_only):
    """The uncertainty columns of each job.  hbar scales the quadratures
    alone, so jobs that differ only in it share the first one's model,
    trajectory and (mu, nu); each is computed where a lone job computes it,
    so the first job fails as a lone one would."""
    pair = None
    for res in jobs:
        hbar = _positive(res, "hbar", 1.0)
        fresh = pair is None or not quantum_only
        if fresh:
            model, s = _trajectory(res)
        rep = quantum.quadratures(model, s, hbar)
        if fresh:
            pair = quantum.bogolubov(
                model, s, quantum.default_reference(model, s.t[0]))
        yield {"t": s.t, "varQ": rep.varQ, "varP": rep.varP,
               "product": rep.product, "mu_re": pair.mu.real,
               "mu_im": pair.mu.imag, "nu_re": pair.nu.real,
               "nu_im": pair.nu.imag}


def cmd_solve(res):
    return _run_solve_like(res, _solve_tables, "run")


def cmd_uncertainty(res):
    return _run_solve_like(res, _uncertainty_tables, "run quantum")


def cmd_verify(res):
    timings_path = _value(res, "timings")
    if timings_path == "-":
        raise ConfigError("--timings needs a file path, not stdout")
    timings = None if timings_path is None else {}
    report = verify.run_suite(_value(res, "suite", "all"), timings)
    _write_json(_value(res, "out", "-"), report)
    if timings is not None:
        _write_json(timings_path, timings)
    return 0 if report["pass"] else 1


def cmd_series(res):
    lam = _value(res, "lam")
    if lam is None:
        raise ConfigError("--lambda is required")
    try:
        s = series.build_series(_value(res, "omega0", 1.0), lam,
                                _value(res, "mu", 0.0),
                                _value(res, "order", 10))
    except TdoError as exc:
        raise ConfigError(str(exc))
    _write_json(_value(res, "out", "-"), s.to_json_dict())
    return 0


def cmd_check_min(res):
    model = _build_model(res)
    samples = _value(res, "samples", 201)
    if not 2 <= samples <= MAX_ROWS:
        raise ConfigError(f"--samples must be between 2 and {MAX_ROWS}")
    lo, hi = model.domain.sampling_window()
    t0, t1 = _value(res, "t0", lo), _value(res, "t1", hi)
    if not t1 > t0:
        raise ConfigError(f"need t1 > t0, got the window [{t0}, {t1}]")
    report = minimum.check_criterion(
        model, tol=_positive(res, "tol", minimum.CRITERION_TOL),
        t0=t0, t1=t1, samples=samples)
    _write_json(_value(res, "out", "-"), report.to_json_dict())
    return 0


# ---------------------------------------------------------------------------

def _fail(kind, message, code):
    """Report `kind: message` on one stderr line, whatever text the message
    echoes, and return the exit code."""
    text = str(message).replace("\r", "\\r").replace("\n", "\\n")
    print(f"{kind}: {text}", file=sys.stderr)
    return code


# name: (key groups, help); `cmd_<name>` handles the command, with `-` as `_`
COMMANDS = {
    "catalog": ("io table", "list the model catalog"),
    "solve": ("io table model run", "integrate the auxiliary equation"),
    "uncertainty": ("io table model run quantum",
                    "variances, product and transformation coefficients"),
    "verify": ("io verify", "run verification suites"),
    "series": ("io series", "build the scale-function series"),
    "check-min": ("io model check", "minimum-uncertainty criterion check"),
}


# command: {flag: key} of the flags it takes
_FLAGS = {command: {_flag(key): key for key in ("config", *_keys(groups))}
          for command, (groups, _) in COMMANDS.items()}


def _help(command):
    """Print the commands, or the flags `command` takes, to stdout."""
    if command is None:
        rows = [f"  {name:12} {text}" for name, (_, text) in COMMANDS.items()]
    else:
        rows = [COMMANDS[command][1], "",
                "  --config  JSON config file (flags take precedence)"]
        for key in _keys(COMMANDS[command][0]):
            kind, _, text = KEYS[key]
            flag = _flag(key) + (" {%s}" % ",".join(kind)
                                 if isinstance(kind, tuple) else "")
            rows.append(f"  {flag}  {text}" if text else f"  {flag}")
    sys.stdout.write(f"usage: tdo {command or '<command>'} [--flag value | "
                     "--flag=value] ...\n\n" + "\n".join(rows) + "\n")


def _parse(argv):
    """(command, {key: string value}) from argv, or (command, None) when
    argv asks for help, the command being None before any command."""
    command = argv[0] if argv else ""
    if command in ("-h", "--help"):
        return None, None
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from "
                          + ", ".join(COMMANDS))
    known = _FLAGS[command]
    flags, tokens = {}, iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        flag, joined, val = token.partition("=")
        if flag not in known:
            raise ConfigError(f"tdo {command} takes no argument {token!r}; "
                              f"see tdo {command} --help")
        if not joined:
            val = next(tokens, None)
            if val is None or val.startswith("--"):
                raise ConfigError(f"{flag} expects a value")
        flags[known[flag]] = val
    return command, flags


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, flags = _parse(argv)
        if flags is None:
            _help(command)
            return 0
        config = _load_config(flags.pop("config", None))
        res = {**config, **flags}
        # looked up per call, so that a wrapper set on the module is used
        handler = globals()["cmd_" + command.replace("-", "_")]
        # non-finite results surface as TdoErrors, not as numpy warnings
        with np.errstate(all="ignore"):
            return handler(res)
    except ConfigError as exc:
        return _fail("config_error", exc, 2)
    except TdoError as exc:
        return _fail(type(exc).__name__, exc, 3)


if __name__ == "__main__":
    sys.exit(main())
