"""Tests of the benchmark itself: job generators, gate and trace counts."""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import tdo.cli  # noqa: E402


def _jobs(name, seed, blocks=2):
    gen = workloads.WORKLOADS[name](seed)
    return [job for block in itertools.islice(gen, blocks) for job in block]


def _small_sweep():
    """A 101-row, two-member hbar sweep on the minimal branch."""
    argv = ("uncertainty", "--model", "exp_frequency", "--t0", "0.0",
            "--t1", "1.0", "--dt-out", "0.01", "--tol", "1e-10",
            "--sweep", "hbar=0.5:1.5:2", "--out", "job.csv")
    return workloads.Job(command="uncertainty", model="exp_frequency",
                         params=(), t0=0.0, dt=0.01, rows=101, argv=argv,
                         outputs=("job_000.csv", "job_001.csv"),
                         hbars=(0.5, 1.5), minimal=True)


def _hyperbolic_solve():
    """The cheapest long_horizon kind: Omega^2 < 0, so steps grow."""
    job = _jobs("long_horizon", 0, 1)[list(workloads.LONG_KINDS).index("kc_hyperbolic")]
    assert gate.constant_omega2(job) < 0.0
    return job


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    assert _jobs(name, 7) == _jobs(name, 7)
    if name != "verify_gate":  # the release gate has no inputs to vary
        assert _jobs(name, 7) != _jobs(name, 8)


def test_closed_form_sigma_keeps_the_constant_branch():
    sigma = workloads.constant_branch_sigma(0.7)
    s = np.linspace(0.0, 30.0, 7)
    assert np.allclose(gate.closed_form_sigma(0.7, sigma, 0.0, s), sigma,
                       rtol=1e-14)


def test_corrupted_output_counts_as_failure(tmp_path):
    job = _small_sweep()
    good = tmp_path / "good"
    good.mkdir()
    stats = run.Stats()
    run.run_call(tdo.cli.main, job, str(good), stats)
    assert (stats.attempted, stats.failed) == (1, 0)

    def corrupting_main(argv):
        out = Path(argv[-1]).parent
        for name in job.outputs:
            shutil.copy(good / name, out / name)
        path = out / job.outputs[-1]
        lines = path.read_text().splitlines()
        row = lines[len(lines) // 2].split(",")
        row[3] = repr(0.5 * job.hbars[-1] * (1.0 - 1e-9))  # product < hbar/2
        lines[len(lines) // 2] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
        return 0

    bad = tmp_path / "bad"
    bad.mkdir()
    run.run_call(corrupting_main, job, str(bad), stats)
    assert (stats.attempted, stats.failed) == (2, 1)
    assert "below hbar/2" in stats.errors[0]


def _traced_counts(jobs, outdir):
    tr = tracing.Tracer()
    stats = run.Stats()
    undo = tracing.install(tr)
    try:
        for op, job in enumerate(jobs):
            tr.op_id = op
            run.run_call(lambda argv: tdo.cli.main(argv), job, outdir, stats)
    finally:
        tracing.uninstall(undo)
    assert stats.failed == 0, stats.errors
    return tracing.layer_metrics(tr)[1], stats.rows, stats.bytes


def test_traced_counts_repeat_exactly(tmp_path):
    jobs = [_hyperbolic_solve(), _small_sweep()]
    first = _traced_counts(jobs, str(tmp_path))
    second = _traced_counts(jobs, str(tmp_path))
    assert first == second
    counts = first[0]
    assert counts["dopri.nfev"] > 0 and counts["quantum.samples"] > 0
    # every wrapper is gone again
    assert tdo.cli.main.__module__ == "tdo.cli"
    assert not hasattr(tdo.cli.main, "__wrapped__")


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify_gate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
