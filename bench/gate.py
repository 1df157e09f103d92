"""Per-call correctness gate.

The oracles live here and import nothing from `tdo`: the constant-Omega
amplitude is rebuilt from a basis of the reduced linear equation, the
quantum identities are checked on the written columns, and the verify
report is read back.  Tolerances are those of `tdo verify`.
"""

import json
import math
import os

import numpy as np

from workloads import K, VERIFY_CHECKS

SIGMA_REL_TOL = 1e-6  # closed form vs integration ("... branch vs integration (rel)")
NORM_TOL = 1e-10  # |mu|^2 - |nu|^2 - 1
BOUND_TOL = 1e-12  # product >= hbar/2 - BOUND_TOL
MINIMAL_TOL = 1e-10  # |product - hbar/2| on the minimal branch
GRID_REL_TOL = 1e-9

SOLVE_HEADER = ["t", "sigma", "sigma_dot", "theta", "k", "F"]
UNCERTAINTY_HEADER = ["t", "varQ", "varP", "product",
                      "mu_re", "mu_im", "nu_re", "nu_im"]


class GateFailure(Exception):
    pass


def _require(cond, what):
    if not cond:
        raise GateFailure(what)


def constant_omega2(job):
    """Omega^2 of a constant-Omega job, or None when Omega^2 varies."""
    if job.model == "harmonic":
        return job.param("omega0") ** 2
    if job.model == "kanai_caldirola":
        return job.param("omega0") ** 2 - 0.25 * job.param("gamma") ** 2
    return None


def closed_form_sigma(omega2, sigma0, sigma_dot0, s):
    """sigma at elapsed times s for constant Omega^2 (either sign).

    sigma^2 = A y1^2 + 2 C y1 y2 + B y2^2 with y1(0) = 1, y1'(0) = 0,
    y2(0) = 0, y2'(0) = 1 solving y'' + Omega^2 y = 0 (Wronskian 1), so
    A = sigma0^2, C = sigma0 sigma0' and A B - C^2 = K.
    """
    if omega2 > 0.0:
        w = math.sqrt(omega2)
        y1, y2 = np.cos(w * s), np.sin(w * s) / w
    else:
        L = math.sqrt(-omega2)
        y1, y2 = np.cosh(L * s), np.sinh(L * s) / L
    A, C = sigma0 * sigma0, sigma0 * sigma_dot0
    B = (K + C * C) / A
    return np.sqrt(A * y1 * y1 + 2.0 * C * y1 * y2 + B * y2 * y2)


def _mass(job, t):
    m0 = job.param("m0")
    if job.model == "kanai_caldirola":
        return m0 * np.exp(job.param("gamma") * t)
    return m0 * np.ones_like(t)


def read_csv(path, header):
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0].split(",") == header,
             f"{os.path.basename(path)}: header is not {','.join(header)}")
    data = np.array([line.split(",") for line in lines[1:]], dtype=float)
    return data.reshape(len(lines) - 1, len(header))


def _check_grid(job, t):
    _require(len(t) == job.rows, f"{len(t)} rows, grid has {job.rows}")
    grid = job.t0 + job.dt * np.arange(job.rows)
    _require(np.all(np.abs(t - grid) <= GRID_REL_TOL * np.maximum(1.0, np.abs(grid))),
             "output times are not the grid")


def _check_solve(job, data):
    t, sigma, theta = data[:, 0], data[:, 1], data[:, 3]
    _check_grid(job, t)
    _require(np.all(np.diff(theta) >= 0.0), "theta decreases")
    return sigma


def _check_uncertainty(job, data, hbar):
    t, varQ, product = data[:, 0], data[:, 1], data[:, 3]
    mu = data[:, 4] + 1j * data[:, 5]
    nu = data[:, 6] + 1j * data[:, 7]
    _check_grid(job, t)
    norm = np.abs(np.abs(mu) ** 2 - np.abs(nu) ** 2 - 1.0)
    _require(np.all(norm <= NORM_TOL), f"|mu|^2-|nu|^2-1 = {norm.max():.3e}")
    _require(np.all(product >= 0.5 * hbar - BOUND_TOL),
             f"product {float(product.min())!r} below hbar/2 = {0.5 * hbar!r}")
    if job.minimal:
        gap = np.abs(product - 0.5 * hbar).max()
        _require(gap <= MINIMAL_TOL, f"minimal branch off hbar/2 by {gap:.3e}")
    if constant_omega2(job) is not None:
        return np.sqrt(varQ * _mass(job, t) / hbar)
    return None


def _check_verify(path):
    with open(path) as fh:
        report = json.load(fh)
    checks = report.get("checks", [])
    _require(report.get("suite") == "all", "report is not for suite all")
    _require(len(checks) == VERIFY_CHECKS
             and len({c["name"] for c in checks}) == VERIFY_CHECKS,
             f"{len(checks)} checks, expected {VERIFY_CHECKS} distinct")
    failed = [c["name"] for c in checks
              if not (c["pass"] is True and c["max_err"] <= c["tol"])]
    _require(not failed, f"checks failed: {failed}")
    _require(report.get("pass") is True, "report pass is not true")
    return len(checks)


def check(job, rc, outdir):
    """Gate one finished call; returns (rows, bytes) or raises GateFailure."""
    _require(rc == 0, f"exit code {rc}")
    paths = [os.path.join(outdir, name) for name in job.outputs]
    for p in paths:
        _require(os.path.isfile(p), f"missing output {os.path.basename(p)}")
    nbytes = sum(os.path.getsize(p) for p in paths)
    if job.command == "verify":
        return _check_verify(paths[0]), nbytes
    omega2 = constant_omega2(job)
    rows = 0
    for i, p in enumerate(paths):
        if job.command == "solve":
            data = read_csv(p, SOLVE_HEADER)
            _require(np.all(np.isfinite(data)), "non-finite value")
            sigma = _check_solve(job, data)
        else:
            data = read_csv(p, UNCERTAINTY_HEADER)
            _require(np.all(np.isfinite(data)), "non-finite value")
            sigma = _check_uncertainty(job, data, job.hbars[i])
        if omega2 is not None and sigma is not None and job.inits:
            sigma0, sigma_dot0 = job.inits[i]
            ref = closed_form_sigma(omega2, sigma0, sigma_dot0,
                                    data[:, 0] - job.t0)
            err = np.max(np.abs(sigma - ref) / ref)
            _require(err <= SIGMA_REL_TOL,
                     f"sigma off the closed form by {err:.3e} (rel)")
        rows += len(data)
    return rows, nbytes
