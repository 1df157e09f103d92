"""`verify.run_suite`: a fixed report, fresh trajectories per call, timings
on request."""

import json

import scipy.integrate
import scipy.special

from tdo import ermakov, verify

SUITE_ORDER = ["models", "ermakov", "quantum", "minimum", "series", "bessel"]

# (name, tol) of every row of `tdo verify --suite all`, in report order
REPORT_ROWS = [
    ("models: harmonic: analytic derivatives vs finite differences", 1e-06),
    ("models: kanai_caldirola: analytic derivatives vs finite "
     "differences", 1e-06),
    ("models: exp_frequency: analytic derivatives vs finite "
     "differences", 1e-06),
    ("models: tsquared: analytic derivatives vs finite differences", 1e-06),
    ("models: bessel_type: analytic derivatives vs finite differences", 1e-06),
    ("models: exp_frequency: m*omega constant", 1e-12),
    ("models: harmonic: Omega^2 == omega0^2 exactly", 0.0),
    ("models: kanai_caldirola: Omega^2 == omega0^2 - gamma^2/4 exactly", 0.0),
    ("models: catalog: Omega^2 shortcut vs generic expression", 1e-10),
    ("models: tsquared: closed-form trajectory satisfies the equation of "
     "motion", 1e-09),
    ("models: exp_frequency: closed-form trajectory satisfies the equation of "
     "motion", 1e-09),
    ("ermakov: harmonic constant branch vs integration (rel)", 1e-06),
    ("ermakov: harmonic oscillating branch vs integration (rel)", 1e-06),
    ("ermakov: damped hyperbolic branch vs integration (rel)", 1e-06),
    ("ermakov: superposition form: auxiliary-equation residual", 1e-08),
    ("ermakov: hyperbolic superposition: auxiliary-equation residual", 1e-08),
    ("ermakov: basis Wronskian drift (rel)", 1e-08),
    ("ermakov: harmonic: conserved k drift over 20 periods", 1e-08),
    ("ermakov: kanai_caldirola: conserved k drift over 20 periods", 1e-08),
    ("ermakov: exp_frequency: balance constant with co-integrated F", 1e-07),
    ("ermakov: bessel_type: balance constant with co-integrated F", 1e-07),
    ("ermakov: phase: constant branch", 1e-06),
    ("ermakov: phase: oscillating branch (branch-corrected arctan)", 1e-06),
    ("ermakov: phase: hyperbolic branch", 1e-06),
    ("ermakov: phase: exp_frequency minimal branch", 1e-06),
    ("ermakov: phase: tsquared minimal branch", 1e-06),
    ("ermakov: phase: bessel-type series branch", 1e-06),
    ("ermakov: theta nondecreasing along trajectories", 0.0),
    ("quantum: normalization |mu|^2 - |nu|^2 = 1 along catalog "
     "trajectories", 1e-10),
    ("quantum: uncertainty product >= hbar/2", 1e-12),
    ("quantum: product route equivalence (pairwise rel)", 1e-10),
    ("quantum: mu+nu and mu-nu construction identities", 1e-12),
    ("quantum: moduli via balance identity vs direct moduli", 1e-08),
    ("minimum: minimal branch: product == hbar/2", 1e-10),
    ("minimum: minimal branch: |mu - 1|", 1e-09),
    ("minimum: minimal branch: |nu|", 1e-09),
    ("minimum: vacuum <Q^2>, <P^2> constants (rel)", 1e-10),
    ("minimum: vacuum energy = hbar*omega/2 (rel)", 1e-09),
    ("minimum: rescaled energy m(t)<H>/m0 constant (rel)", 1e-09),
    ("minimum: mass-form auxiliary residual on minimal branch", 1e-08),
    ("minimum: criterion holds for exp_frequency", 0.0),
    ("minimum: criterion rejects kanai_caldirola", 0.0),
    ("minimum: product grows quadratically away from the minimum", 0.0001),
    ("series: ratio recursion == closed product form (exact, k <= 10)", 0.0),
    ("series: leading coefficients a1, a3, a5", 1e-12),
    ("series: symbolic residual vanishes in retained powers", 1e-12),
    ("series: reciprocal series identity (exact)", 0.0),
    ("series: determinant form of reciprocal coefficients (k <= 6)", 0.0),
    ("series: constraint residual strictly decreasing with "
     "order", 0.999999999999),
    ("series: constraint residual at order 8 on [0.1, 0.8]", 1e-06),
    ("series: phase series vs adaptive quadrature", 1e-08),
    ("series: series vs shooting solution of the constraint", 1e-06),
    ("series: mu_s = 0 linear case: residual at any order", 1e-12),
    ("series: mu_s = 0 phase reduces to a logarithm", 1e-14),
    ("series: power-law trajectories t^(+-1/4) satisfy their equation of "
     "motion", 1e-10),
    ("series: oscillatory approximation: trajectory residual (loose)", 0.05),
    ("bessel: evaluator satisfies the defining equation (rho in {0, 1/3, 1/2, "
     "1})", 1e-08),
    ("bessel: evaluator matches the library Bessel reference", 1e-10),
    ("bessel: reduced trajectory sqrt(t) Z_0 satisfies its equation", 1e-07),
    ("bessel: rho = 1/2 elementary fallback", 1e-10),
]


def test_shared_trajectory_is_integrated_once_per_call(monkeypatch):
    # each trajectory, through integrate_ep or the nonlinear oracle, is
    # integrated once per call; ermakov and quantum each evaluate the
    # harmonic oscillating branch, which costs microseconds in closed form,
    # so they share none
    calls = []
    for owner, name in ((ermakov, "integrate_ep"),
                        (verify, "_nonlinear_run")):
        def counted(*args, _run=getattr(owner, name), **kwargs):
            calls.append(args[0].name)
            return _run(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    first = verify.run_suite("all")
    assert len(calls) == 15
    timings = {}
    second = verify.run_suite("all", timings=timings)
    assert len(calls) == 30  # the second call reuses nothing of the first
    assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                           sort_keys=True)
    assert first["pass"]
    assert list(timings) == SUITE_ORDER
    assert all(seconds > 0.0 for seconds in timings.values())


def test_single_suite_timings_name_only_that_suite():
    timings = {}
    report = verify.run_suite("quantum", timings=timings)
    assert report == verify.run_suite("quantum")
    assert list(timings) == ["quantum"]


def test_report_rows_are_pinned():
    report = verify.run_suite("all")
    assert [(c["name"], c["tol"]) for c in report["checks"]] == REPORT_ROWS


def test_the_gate_calls_no_scipy(monkeypatch):
    # quadrature, stepping and the Bessel reference all come from the
    # package; tier-1 keeps the scipy cross-checks
    def refuse(*args, **kwargs):
        raise AssertionError("the gate called scipy")

    for module, name in ((scipy.integrate, "quad"),
                         (scipy.integrate, "solve_ivp"),
                         (scipy.special, "jv")):
        monkeypatch.setattr(module, name, refuse)
    report = verify.run_suite("all")
    assert len(report["checks"]) == len(REPORT_ROWS)
    assert [c["name"] for c in report["checks"] if not c["pass"]] == []
