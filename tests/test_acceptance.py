"""Acceptance gate: one test per release criterion, each printing a
pass/fail line with the worst observed error against its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is produced by an independent route (closed
form, exact rational recursion, adaptive quadrature, shooting integration,
or a library reference); no tolerance is tuned to the implementation.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from tdo import bessel, ermakov, minimum, models, quantum, series

HBAR = 1.0
SQ2 = 2.0 ** -0.5


def report(criterion, label, worst, tol, passed=None):
    if passed is None:
        passed = worst <= tol
    flag = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {criterion} ({label}): {flag} "
          f"(worst={worst:.3e}, tol={tol:.1e})")
    return passed


def _min_init(model, t0, c):
    m0 = float(model.m(t0))
    return c * math.sqrt(m0), 0.5 * c * float(model.m_dot(t0)) / math.sqrt(m0)


def _run(model, init, t0, t1, n=200):
    """integrate_ep at K = 1/4 from init over [t0, t1], n uniform rows."""
    return ermakov.integrate_ep(model, 0.25, init, t0, t1,
                                t_eval=np.linspace(t0, t1, n))


def catalog_trajectories():
    """One 200-sample trajectory per catalog model (minimal branch where
    the criterion holds, generic data otherwise)."""
    out = {}
    mh = models.harmonic()
    out["harmonic"] = (mh, _run(mh, (SQ2, 0.0), 0.0, 20.0), 0.0)
    mk = models.kanai_caldirola()
    out["kanai_caldirola"] = (mk, _run(mk, (0.9, 0.1), 0.0, 3.0), 0.0)
    me = models.exp_frequency()
    cme = minimum.check_criterion(me).c
    out["exp_frequency"] = (
        me, _run(me, _min_init(me, 0.0, cme), 0.0, 2.0), 0.0)
    mt = models.tsquared()
    cmt = minimum.check_criterion(mt, t0=1.0, t1=3.0).c
    out["tsquared"] = (mt, _run(mt, _min_init(mt, 1.0, cmt), 1.0, 3.0), 1.0)
    mb = models.bessel_type()
    cmb = minimum.check_criterion(mb, t0=0.1, t1=0.8).c
    out["bessel_type"] = (
        mb, _run(mb, _min_init(mb, 0.1, cmb), 0.1, 0.8), 0.1)
    return out


MINIMAL = ("harmonic", "exp_frequency", "tsquared", "bessel_type")


def test_criterion_1_heisenberg_bound_and_saturation():
    trajs = catalog_trajectories()
    worst_gap = 0.0
    worst_sat = 0.0
    for name, (model, states, _) in trajs.items():
        product = quantum.quadratures(model, states, HBAR).product
        worst_gap = max(worst_gap, np.max(0.5 * HBAR - product))
        if name in MINIMAL:
            worst_sat = max(worst_sat, np.max(np.abs(product - 0.5 * HBAR)))
    ok = report(1, "product >= hbar/2 on all five models", worst_gap, 1e-12)
    ok &= report(1, "|product - hbar/2| on minimum-uncertainty models",
                 worst_sat, 1e-9)
    assert ok


def test_criterion_2_bogolubov_normalization():
    trajs = catalog_trajectories()
    worst_norm = 0.0
    for name, (model, states, t0) in trajs.items():
        ref = quantum.default_reference(model, t0)
        pair = quantum.bogolubov(model, states, ref)
        worst_norm = max(worst_norm, np.max(np.abs(
            np.abs(pair.mu) ** 2 - np.abs(pair.nu) ** 2 - 1.0)))
    ok = report(2, "|mu|^2 - |nu|^2 = 1 everywhere sampled", worst_norm, 1e-10)

    worst_mu = worst_nu = 0.0
    for name in MINIMAL:
        model, states, t0 = trajs[name]
        mm = minimum.minimum_model(model, t0=t0, t1=states.t[-1])
        ref = quantum.default_reference(model, t0)
        s = minimum.sigma_minimum_trajectory(
            mm, np.linspace(t0, states.t[-1], 50))
        pair = quantum.bogolubov(model, s, ref)
        worst_mu = max(worst_mu, np.max(np.abs(pair.mu - 1.0)))
        worst_nu = max(worst_nu, np.max(np.abs(pair.nu)))
    ok &= report(2, "|mu - 1| at minimum uncertainty", worst_mu, 1e-9)
    ok &= report(2, "|nu| at minimum uncertainty", worst_nu, 1e-9)
    assert ok


def test_criterion_3_closed_form_vs_numeric():
    mh = models.harmonic()
    states = _run(mh, (SQ2, 0.0), 0.0, 20.0)
    worst_const = np.max(np.abs(states.sigma - SQ2) / SQ2)
    ok = report(3, "harmonic constant branch rel error on [0, 20]",
                worst_const, 1e-6)

    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    states = _run(mh, (float(s0), float(sd0)), 0.0, 20.0)
    ref = ermakov.sigma_oscillating(1.0, 2.0, 0.0, states.t)[0]
    worst_osc = np.max(np.abs(states.sigma - ref) / ref)
    ok &= report(3, "harmonic oscillating branch (k=2) rel error on [0, 20]",
                 worst_osc, 1e-6)

    mk = models.kanai_caldirola(omega0=0.3, gamma=1.0)
    L = math.sqrt(0.25 - 0.09)
    c1, c2 = ermakov.fit_hyperbolic(L, 1.0, 0.0, 0.0)
    states = _run(mk, (1.0, 0.0), 0.0, 3.0)
    ref = ermakov.sigma_hyperbolic(L, c1, c2, states.t)[0]
    worst_hyp = np.max(np.abs(states.sigma - ref) / ref)
    ok &= report(3, "damped hyperbolic branch rel error on [0, 3]",
                 worst_hyp, 1e-6)
    assert ok


def test_criterion_4_conservation_drift():
    mh = models.harmonic()
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    states = _run(mh, (float(s0), float(sd0)), 0.0, 20.0 * math.pi, n=300)
    drift_h = np.max(np.abs(states.k - states.k[0]))
    ok = report(4, "conserved k drift, harmonic, 20 periods", drift_h, 1e-8)

    mk = models.kanai_caldirola()  # constant Omega^2 = 0.75
    Om = math.sqrt(0.75)
    states = _run(mk, (1.0, 0.0), 0.0, 20.0 * math.pi / Om, n=300)
    drift_k = np.max(np.abs(states.k - states.k[0]))
    ok &= report(4, "conserved k drift, damped constant-frequency, 20 "
                 "periods", drift_k, 1e-8)

    me = models.exp_frequency()
    states = _run(me, (1.0, 0.3), 0.0, 2.0)
    drift_e = np.max(np.abs(states.k - states.k[0]))
    mb = models.bessel_type()
    states = _run(mb, (0.3, 0.2), 0.1, 0.8)
    drift_b = np.max(np.abs(states.k - states.k[0]))
    ok &= report(4, "generalized balance drift with F, time-dependent "
                 "frequency", max(drift_e, drift_b), 1e-7)
    assert ok


def test_criterion_5_phase_cross_checks():
    worst = 0.0
    mh = models.harmonic()
    states = ermakov.integrate_ep(mh, 0.25, (SQ2, 0.0), 0.0, 20.0)
    # 2 omega0 (t1 - t0) with omega0 = 1
    worst = max(worst, abs(2.0 * (20.0 - 0.0) - states.theta[-1]))

    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    states = ermakov.integrate_ep(mh, 0.25, (float(s0), float(sd0)), 0.0, 20.0)
    worst = max(worst, abs(ermakov.phase_oscillating(1.0, 2.0, 0.0, 0.0, 20.0)
                           - states.theta[-1]))

    mk = models.kanai_caldirola(omega0=0.3, gamma=1.0)
    L = math.sqrt(0.25 - 0.09)
    c1, c2 = ermakov.fit_hyperbolic(L, 1.0, 0.0, 0.0)
    states = ermakov.integrate_ep(mk, 0.25, (1.0, 0.0), 0.0, 3.0)
    worst = max(worst, abs(ermakov.phase_hyperbolic(L, c1, c2, 0.0, 3.0)
                           - states.theta[-1]))

    me = models.exp_frequency()
    cme = minimum.check_criterion(me).c
    states = ermakov.integrate_ep(me, 0.25, _min_init(me, 0.0, cme), 0.0, 1.0)
    th = models.exp_frequency_phase(1.0, 1.0, 0.0, 1.0)
    assert th == pytest.approx(1.2642411176571153, abs=1e-12)
    worst = max(worst, abs(th - states.theta[-1]))

    mt = models.tsquared()
    cmt = minimum.check_criterion(mt, t0=1.0, t1=3.0).c
    states = ermakov.integrate_ep(mt, 0.25, _min_init(mt, 1.0, cmt), 1.0, 2.0)
    th = models.tsquared_phase(1.0, 1.0, 1.0, 2.0)
    assert th == pytest.approx(0.5, abs=1e-12)
    worst = max(worst, abs(th - states.theta[-1]))

    mb = models.bessel_type()
    cmb = minimum.check_criterion(mb, t0=0.1, t1=0.8).c
    states = ermakov.integrate_ep(mb, 0.25, _min_init(mb, 0.5, cmb), 0.5, 0.8)
    sser = series.build_series(1.0, 2.0, 1.0, 10)
    worst = max(worst, abs(series.theta_series(sser, 0.5, 0.8)
                           - states.theta[-1]))

    assert report(5, "closed-form vs integrated phases, all six cases",
                  worst, 1e-6)


def test_criterion_6_series_correctness():
    s = series.build_series(1.0, 2.0, 1.0, 10)
    pf = series.product_form_ratios(2.0, 1.0, 10)
    ok_exact = list(s.ratios) == pf
    ok = report(6, "exact ratio recursion == product form through order 10",
                0.0 if ok_exact else 1.0, 0.0, passed=ok_exact)

    res = series.symbolic_residual(s)
    ok &= report(6, "symbolic residual vanishes in retained powers",
                 max(abs(r) for r in res), 1e-12)

    vals = [series.alpha_numeric_check(series.build_series(1.0, 2.0, 1.0, n),
                                       0.1, 0.8) for n in range(3, 9)]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    ok &= report(6, "order-8 numeric residual on [0.1, 0.8]", vals[-1], 1e-6)
    ok &= report(6, "residual strictly decreasing, orders 3 to 8",
                 0.0 if decreasing else 1.0, 0.0, passed=decreasing)

    def rhs(t, y):
        al, ald = y
        return [ald, (ald ** 2 + 4.0 - al ** 2 * (1.0 + 4.0 / t ** 2))
                / (2.0 * al)]

    eps = 1e-3
    sol = solve_ivp(rhs, (eps, 0.5), [s.a1 * eps, s.a1], rtol=1e-12,
                    atol=1e-14, dense_output=True)
    grid = np.linspace(0.1, 0.5, 33)
    shoot_err = float(np.max(np.abs(sol.sol(grid)[0] - s.alpha(grid))))
    ok &= report(6, "series vs shooting solution on [0.1, 0.5]",
                 shoot_err, 1e-6)
    assert ok


def test_criterion_7_bessel_reduction():
    xs = np.linspace(0.1, 20.0, 500)
    worst = max(float(np.max(np.abs(bessel.defining_ode_residual(rho, xs))))
                for rho in (0.0, 1.0 / 3.0, 0.5, 1.0))
    ok = report(7, "in-artifact evaluator vs its defining equation",
                worst, 1e-8)

    red = series.bessel_reduction_check(1.0, 1.0, 0.5,
                                        np.linspace(0.5, 10.0, 200))
    ok &= report(7, "sqrt(t) Z_rho(l t) solves the reduced equation",
                 red, 1e-7)

    pl = series.power_law_check(1.0, math.sqrt(3.0) / 4.0,
                                np.linspace(0.2, 5.0, 150))
    ok &= report(7, "power-law trajectories t^(+-1/4)", pl, 1e-10)
    assert ok


def test_criterion_8_vacuum_constants():
    worst_q = worst_p = worst_h = 0.0
    for model, (lo, hi) in [
        (models.harmonic(), (0.0, 2.0)),
        (models.exp_frequency(), (0.0, 2.0)),
        (models.tsquared(), (1.0, 3.0)),
        (models.bessel_type(), (0.1, 0.8)),
    ]:
        mm = minimum.minimum_model(model, t0=lo, t1=hi)
        s = minimum.sigma_minimum_trajectory(mm, np.linspace(lo, hi, 40))
        q2, p2, energy = quantum.vacuum_expectations(model, s, HBAR)
        worst_q = max(worst_q, np.max(np.abs(q2 - HBAR * mm.c ** 2))
                      / (HBAR * mm.c ** 2))
        worst_p = max(worst_p, np.max(np.abs(p2 - HBAR / (4.0 * mm.c ** 2)))
                      / (HBAR / (4.0 * mm.c ** 2)))
        ref = 0.5 * HBAR * model.omega(s.t)
        worst_h = max(worst_h, np.max(np.abs(energy - ref) / ref))
    ok = report(8, "<Q^2> = hbar c^2 (rel)", worst_q, 1e-10)
    ok &= report(8, "<P^2> = hbar/(4c^2) (rel)", worst_p, 1e-10)
    ok &= report(8, "<H> = hbar omega(t)/2 (rel)", worst_h, 1e-9)
    assert ok


def test_criterion_9_determinism_and_runtime(tmp_path):
    cmd = [sys.executable, "-m", "tdo.cli", "verify", "--suite", "all"]
    # the subprocess imports tdo from this checkout's src/, as pytest does
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, text=True, env=env)
    elapsed = time.monotonic() - start
    second = subprocess.run(cmd, capture_output=True, text=True, env=env)
    identical = first.stdout == second.stdout and first.returncode == 0 \
        and second.returncode == 0
    ok = report(9, "verify --suite all byte-identical across runs",
                0.0 if identical else 1.0, 0.0, passed=identical)
    ok &= report(9, "verify --suite all wall time (s)", elapsed, 60.0)
    payload = json.loads(first.stdout)
    ok &= report(9, "verify --suite all passes",
                 0.0 if payload["pass"] else 1.0, 0.0,
                 passed=bool(payload["pass"]))
    assert ok
