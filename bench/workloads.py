"""Seeded job generators for the benchmark workloads.

A workload is an endless sequence of blocks; a block is a short list of
jobs, one per job kind.  A job is one `tdo` CLI call (its argv) together
with what the correctness gate needs to know about it.  The dimensionless
design of each kind (periods, rows, offset from the constant branch) is
fixed, and the seed draws the physical scales (frequency, mass, c, hbar)
that the equations scale out, so every block does the same work with new
models.  The program under test sees only the generated argv.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

K = 0.25  # the CLI's default auxiliary-equation constant
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Job:
    """One CLI call and the facts its correctness oracles rely on.

    `argv` ends with `--out` and the output file name, relative to the
    directory the runner gives it.  `outputs` lists the file names the call
    must write (one per sweep member), `hbars` the hbar of each output and
    `inits` the initial (sigma, sigma') of each output; `inits` is empty
    when the CLI picks initial data the benchmark does not know.
    """

    command: str  # "solve", "uncertainty" or "verify"
    model: str
    params: tuple  # ((name, value), ...) model parameters set on the CLI
    t0: float
    dt: float
    rows: int  # expected rows per output file
    argv: tuple
    outputs: tuple
    hbars: tuple = ()
    inits: tuple = ()
    minimal: bool = False  # default initial data on the minimal branch

    def param(self, name):
        return dict(self.params)[name]


def _num(x):
    return repr(float(x))


def _model_argv(model, params):
    out = ["--model", model]
    for name, value in params:
        out += ["--" + name, _num(value)]
    return out


def constant_branch_sigma(omega2):
    """Time-independent amplitude (K / Omega^2)^(1/4) of a constant Omega^2 > 0."""
    return (K / omega2) ** 0.25


# ---------------------------------------------------------------------------
# long_horizon: 20-40 periods per job at rtol 1e-10, one row per period

# kind: (periods, sigma0 / constant-branch sigma, sigma0' / (sigma_c Omega)).
# The amplitude starts off the constant branch.  These dimensionless values
# are fixed, so every block does the same work; the seed draws the scales
# (frequency, mass, c), which the auxiliary equation scales out.
LONG_KINDS = {
    "harmonic": (40, 1.4, 0.05),
    "kc_oscillating": (35, 0.7, -0.05),
    "kc_hyperbolic": (30, 1.3, 0.05),
    "exp_frequency": (25, 0.75, 0.05),
    "tsquared": (20, 1.25, -0.05),
}


def _long_job(kind, rng):
    periods, ratio, rate = LONG_KINDS[kind]
    omega0 = rng.uniform(0.8, 1.4)
    t0 = 0.0
    if kind == "harmonic":
        params = (("m0", rng.uniform(0.5, 2.0)), ("omega0", omega0))
        model, w2, dt = "harmonic", omega0 ** 2, TWO_PI / omega0
    elif kind == "kc_oscillating":
        params = (("m0", rng.uniform(0.5, 2.0)), ("omega0", omega0),
                  ("gamma", 1.0 * omega0))
        model, w2 = "kanai_caldirola", 0.75 * omega0 ** 2
        dt = TWO_PI / math.sqrt(w2)
    elif kind == "kc_hyperbolic":
        # Omega^2 = -0.21 omega0^2: no period of its own, so the bare one
        params = (("m0", rng.uniform(0.5, 2.0)), ("omega0", omega0),
                  ("gamma", 2.2 * omega0))
        model, w2, dt = "kanai_caldirola", 0.21 * omega0 ** 2, TWO_PI / omega0
    elif kind == "exp_frequency":
        gamma0 = 0.002 * omega0
        params = (("omega0", omega0), ("gamma0", gamma0),
                  ("c", rng.uniform(0.5, 1.0)))
        # the frequency's phase covers `periods` cycles by t1
        t1 = -math.log(1.0 - TWO_PI * periods * gamma0 / omega0) / gamma0
        model, w2, dt = "exp_frequency", omega0 ** 2 - 0.25 * gamma0 ** 2, t1 / periods
    else:
        m0, c = rng.uniform(0.5, 1.0), rng.uniform(0.6, 1.0)
        b = 1.0 / (2.0 * m0 * c * c)
        # q = cos(b/t): `periods` cycles between t0 and t_end = b/2
        t_end = 0.5 * b
        t0 = b / (b / t_end + TWO_PI * periods)
        params = (("m0", m0), ("c", c))
        model, w2, dt = "tsquared", (b / t0 ** 2) ** 2, (t_end - t0) / periods
    sigma0 = ratio * constant_branch_sigma(w2)
    sigma_dot0 = rate * sigma0 / ratio * math.sqrt(w2)
    t1 = t0 + periods * dt
    argv = (["solve"] + _model_argv(model, params)
            + ["--t0", _num(t0), "--t1", _num(t1), "--dt-out", _num(dt),
               "--tol", "1e-10", "--sigma0", _num(sigma0),
               "--sigma-dot0", _num(sigma_dot0), "--out", "job.csv"])
    return Job(command="solve", model=model, params=params, t0=t0, dt=dt,
               rows=periods + 1, argv=tuple(argv), outputs=("job.csv",),
               inits=((sigma0, sigma_dot0),))


def long_horizon(seed):
    rng = random.Random(seed)
    while True:
        yield [_long_job(kind, rng) for kind in LONG_KINDS]


# ---------------------------------------------------------------------------
# dense_sweep: a quarter period per job, 1100-2500 rows per job, 2-3 jobs
# per sweep

# model: (jobs per sweep, rows per job).  Fixed, like LONG_KINDS; bessel_type
# samples cost several times more (series evaluations), so it has fewer.
# Small sweeps keep a block near 3 s, so a run repeats it about ten times.
SWEEP_MODELS = {
    "harmonic": (2, 2000),
    "kanai_caldirola": (2, 2500),
    "exp_frequency": (3, 1500),
    "tsquared": (2, 1800),
    "bessel_type": (2, 1100),
}
# models whose m*omega is constant, so default initial data is minimal
_MINIMAL = ("harmonic", "exp_frequency", "tsquared", "bessel_type")


def _sweep_job(model, sweep_hbar, rng):
    n, rows = SWEEP_MODELS[model]
    omega0 = rng.uniform(0.8, 1.4)
    t0 = 0.0
    if model == "harmonic":
        params = (("m0", rng.uniform(0.5, 2.0)), ("omega0", omega0))
        w2 = omega0 ** 2
    elif model == "kanai_caldirola":
        params = (("m0", rng.uniform(0.5, 2.0)), ("omega0", omega0),
                  ("gamma", 1.0 * omega0))
        w2 = 0.75 * omega0 ** 2
    elif model == "exp_frequency":
        params = (("omega0", omega0), ("gamma0", 0.5 * omega0),
                  ("c", rng.uniform(0.5, 1.0)))
        w2 = omega0 ** 2 - 0.25 * (0.5 * omega0) ** 2
    elif model == "tsquared":
        m0, c = rng.uniform(0.5, 2.0), rng.uniform(0.7, 1.4)
        params = (("m0", m0), ("c", c))
        t0 = 1.0 / (2.0 * m0 * c * c)  # b: Omega = 1/b at t0 = b
        w2 = t0 ** -2
    else:
        # the scale function fixes the frequency scale; only the mass scales
        params = (("m0", rng.uniform(0.5, 2.0)),)
        t0 = 0.1
        w2 = 0.25 + (1.0 / t0) ** 2  # Omega^2 ~ k0^2 + nu^2/t^2 (defaults)
    width = 0.25 * TWO_PI / math.sqrt(w2)
    dt = width / (rows - 1)
    t1 = t0 + (rows - 1) * dt
    argv = (["uncertainty"] + _model_argv(model, params)
            + ["--t0", _num(t0), "--t1", _num(t1), "--dt-out", _num(dt),
               "--tol", "1e-10"])
    sigma_ref = constant_branch_sigma(w2)
    if sweep_hbar:
        lo, hi = rng.uniform(0.5, 1.0), rng.uniform(1.5, 2.0)
        sweep, hbars, inits = f"hbar={_num(lo)}:{_num(hi)}:{n}", _linspace(lo, hi, n), ()
        if model in ("harmonic", "kanai_caldirola"):
            # default initial data: the constant branch of the constant Omega
            inits = ((sigma_ref, 0.0),) * n
    else:
        lo, hi = 0.85 * sigma_ref, 1.2 * sigma_ref
        sweep, hbars = f"sigma0={_num(lo)}:{_num(hi)}:{n}", (1.0,) * n
        inits = tuple((x, 0.0) for x in _linspace(lo, hi, n))
        argv += ["--hbar", "1", "--sigma-dot0", "0"]
    argv += ["--sweep", sweep, "--out", "job.csv"]
    return Job(command="uncertainty", model=model, params=params, t0=t0,
               dt=dt, rows=rows, argv=tuple(argv),
               outputs=tuple(f"job_{i:03d}.csv" for i in range(n)),
               hbars=hbars, inits=inits,
               minimal=sweep_hbar and model in _MINIMAL)


def _linspace(lo, hi, n):
    # the CLI's sweep values: numpy.linspace(lo, hi, n), element by element
    return tuple(float(v) for v in np.linspace(lo, hi, n))


def dense_sweep(seed):
    rng = random.Random(seed)
    j = 0
    while True:
        # each model alternates between a sigma0 sweep and an hbar sweep
        yield [_sweep_job(model, (i + j) % 2 == 1, rng)
               for i, model in enumerate(SWEEP_MODELS)]
        j += 1


# ---------------------------------------------------------------------------
# verify_gate: the release gate, which has no inputs to vary

VERIFY_CHECKS = 60


def verify_gate(seed):
    job = Job(command="verify", model="", params=(), t0=0.0, dt=0.0,
              rows=VERIFY_CHECKS,
              argv=("verify", "--suite", "all", "--out", "job.json"),
              outputs=("job.json",))
    while True:
        yield [job]


# Why each workload exists is told in README.md.
WORKLOADS = {"long_horizon": long_horizon, "dense_sweep": dense_sweep,
             "verify_gate": verify_gate}
