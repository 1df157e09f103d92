"""tdo benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload long_horizon --seed 1 --seconds 40 --trace 0

Run from the repository root.  Calls go in-process through
`tdo.cli.main(argv)` from `src/`, one at a time, each writing its output to
a scratch directory under `.bench_out/`; every call passes the correctness
gate in `gate.py` or counts as failed.  With `--trace 0` the run times
whole blocks of equal-work jobs for about `--seconds`, after a one-call
warm-up, and reports the end-to-end metrics as medians and totals over the
whole run; with `--trace 1` it alternates an untraced and a traced pass
over the first block for about `--seconds` and reports the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it are a table and the run's environment.  See README.md for the workloads and metrics.
"""

import argparse
import importlib.metadata
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 5  # at least this many `import tdo` samples per timed run
IMPORTTIME_REPEATS = 3


# ---------------------------------------------------------------------------
# environment and host calibration

def _commit():
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    return {
        "python": sys.version.split()[0],
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def calibrate(n=200_000):
    """Time (ms) of a fixed pure-Python loop: host speed, not tdo's.

    Runs sample it before every block or pass, so a slow host phase shows
    next to the calls it slowed.
    """
    t = perf_counter()
    acc = 0.0
    for i in range(n):
        acc += i * 0.5
    return 1e3 * (perf_counter() - t)


# ---------------------------------------------------------------------------
# interpreter set-up, each sample in a fresh interpreter

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import tdo; "
                 "print(time.perf_counter() - t)")


def _python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)


def setup_time():
    """`import tdo` wall time in a fresh interpreter."""
    return float(_python(["-c", _IMPORT_TIMER]).stdout)


def import_breakdown(repeats):
    """Median cumulative import time (s) of numpy and scipy.integrate."""
    samples = {"numpy": [], "scipy.integrate": []}
    for _ in range(repeats):
        for line in _python(["-X", "importtime", "-c", "import tdo"]).stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in samples:
                samples[parts[2].strip()].append(1e-6 * float(parts[1]))
    return {k: statistics.median(v) for k, v in samples.items()}


# ---------------------------------------------------------------------------
# calls

class Stats:
    def __init__(self):
        self.attempted = self.failed = self.rows = self.bytes = 0
        self.errors = []


def run_call(main, job, outdir, stats):
    """One gated CLI call; returns its wall time in seconds."""
    for name in job.outputs:
        path = os.path.join(outdir, name)
        if os.path.exists(path):
            os.remove(path)
    argv = list(job.argv)
    argv[-1] = os.path.join(outdir, argv[-1])
    t = perf_counter()
    try:
        rc = main(argv)
    except (Exception, SystemExit):
        rc = traceback.format_exc(limit=1).strip().splitlines()[-1]
    elapsed = perf_counter() - t
    stats.attempted += 1
    try:
        rows, nbytes = gate.check(job, rc, outdir)
    except (gate.GateFailure, OSError, ValueError) as exc:
        stats.failed += 1
        stats.errors.append(f"{' '.join(job.argv)}: {exc}")
        return elapsed
    stats.rows += rows
    stats.bytes += nbytes
    return elapsed


def _time_left(start, seconds, rounds):
    """Whether another round fits: rounds run whole, so stop once half of
    an average round would overrun `seconds`."""
    elapsed = perf_counter() - start
    return not rounds or elapsed + 0.5 * elapsed / rounds < seconds


def timed_run(main, blocks, seconds, outdir, stats, host, setup):
    """Closed loop over whole blocks for about `seconds`, after a warm-up.

    The warm-up is the first job of the first block, gated but not timed,
    so lazy imports and first-call caches are paid before timing; `setup_s`
    reports import cost on its own.  Before every block the run takes one
    `import tdo` sample in a fresh interpreter (into `setup`) and one
    calibration sample.  The host's speed drifts in phases of seconds to
    minutes, so every figure is a median or a total over the whole run:
    that spreads a slow phase over all samples instead of letting it pick
    the one sample a minimum rests on.  Latency is the mean over all timed
    calls: a block holds calls of unequal kinds, and their median jumps
    between kinds from run to run.
    """
    warm = next(blocks)[0]
    run_call(main, warm, outdir, stats)
    times, n_blocks = [], 0
    rows0 = stats.rows
    start = perf_counter()
    while _time_left(start, seconds, n_blocks):
        setup.append(setup_time())
        host.append(calibrate())
        times += [run_call(main, job, outdir, stats) for job in next(blocks)]
        n_blocks += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_time())
    metrics = {
        "job_mean_ms": 1e3 * statistics.fmean(times),
        "rows_per_s": (stats.rows - rows0) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    info = {"blocks": n_blocks, "call_s": [round(x, 6) for x in times],
            "setup_s": setup, "percentiles": percentiles(times)}
    return metrics, info


def percentiles(times):
    """The median call time and, as the tail, the highest whole percentile
    with at least ten calls beyond it (none when a run has too few calls)."""
    out = {"job_p50_ms": 1e3 * statistics.median(times)}
    pct = int(100 * (1 - 10 / len(times)))
    if pct > 50:
        out[f"job_p{pct}_ms"] = 1e3 * statistics.quantiles(times, n=100)[pct - 1]
    return out


def traced_run(main, blocks, seconds, outdir, stats, span_path, host):
    """Untraced and traced passes over the first block for about `seconds`.

    The block is fixed, so the counts of every traced pass repeat exactly.
    """
    jobs = next(blocks)
    plain, traced, passes, fingerprints = [], [], [], []
    start = perf_counter()
    while _time_left(start, seconds, len(passes)):
        host.append(calibrate())
        plain.append(sum(run_call(main, job, outdir, stats) for job in jobs))

        tr = tracing.Tracer()
        rows0, bytes0 = stats.rows, stats.bytes
        undo = tracing.install(tr)
        busy = 0.0
        try:
            for op, job in enumerate(jobs):
                tr.op_id = op
                busy += run_call(main, job, outdir, stats)
        finally:
            tracing.uninstall(undo)
        traced.append(busy)
        m, fp = tracing.layer_metrics(tr)
        m["cli.bytes_out"] = fp["cli.bytes_out"] = stats.bytes - bytes0
        fp["cli.rows_out"] = stats.rows - rows0
        if not passes:
            tr.save(span_path)
        passes.append(m)
        fingerprints.append(fp)
    metrics = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / statistics.median(plain)
    repeat = all(fp == fingerprints[0] for fp in fingerprints)
    info = {"passes": len(passes), "jobs_per_pass": len(jobs),
            "untraced_pass_s": plain, "traced_pass_s": traced,
            "counts_repeat": repeat, "fingerprint": fingerprints[0]}
    return metrics, info, repeat


# ---------------------------------------------------------------------------

def _units(trace_mode):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_mode else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tdo" / "__init__.py").is_file():
        print(f"error: no tdo package under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    host = env["calibration_ms"] = []
    sys.path.insert(0, str(SRC))
    import tdo.cli as cli

    def call(argv):  # looked up per call, so tracing wrappers are seen
        return cli.main(argv)

    blocks = WORKLOADS[args.workload](args.seed)
    stats = Stats()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    outdir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT)
    try:
        if args.trace:
            setup = import_breakdown(IMPORTTIME_REPEATS)
            metrics, info, repeat = traced_run(
                call, blocks, args.seconds, outdir, stats,
                OUT / f"spans-{args.workload}-seed{args.seed}.npz", host)
            metrics["setup.numpy_s"] = setup["numpy"]
            metrics["setup.scipy_integrate_s"] = setup["scipy.integrate"]
        else:
            metrics, info = timed_run(call, blocks, args.seconds, outdir,
                                      stats, host, [])
            repeat = True
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if args.trace:
        metrics["host.calibration_ms"] = statistics.median(host)

    units = _units(args.trace)
    fail_ratio = stats.failed / max(1, stats.attempted)
    for name in sorted(units):
        print(f"{name:34s} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'fail_ratio':34s} {fail_ratio:>16.6g} ratio "
          f"({stats.failed} of {stats.attempted} calls)")
    for name, value in info.get("percentiles", {}).items():
        print(f"{name:34s} {value:>16.6g} ms "
              f"(of {len(info['call_s'])} timed calls; no bound)")
    for err in stats.errors[:5]:
        print("failed:", err)
    env.update(info)
    print("env " + json.dumps(env, sort_keys=True))
    (OUT / f"report-{tag}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "errors": stats.errors}, indent=1,
        sort_keys=True))
    result = {
        "correct": stats.failed == 0 and repeat,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
