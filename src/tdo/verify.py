"""Deterministic verification suites behind the `verify` command.

Every check pits a closed form against an independent route (direct
integration, quadrature, exact rational recursion, a frozen library
reference) and reports the worst error against a pinned tolerance.  No
randomness enters anywhere, so repeated runs produce byte-identical
reports.

The gate runs on the package alone: stepping is `tdo.dopri`, quadrature
the composite Gauss-Legendre rule of `tdo.minimum`'s 16-point table, and
the library Bessel reference is scipy.special.jv on the bessel suite's
grid, frozen in the package data file BESSEL_TABLE.  Tier-1 tests keep the
scipy cross-checks and recompute that table.
"""

import dataclasses
import math
from functools import partial
from pathlib import Path
from time import perf_counter

import numpy as np

from . import bessel, dopri, ermakov, minimum, models, quantum, series

SERIES_ORDER = 8  # truncation order of the series suite's numeric checks
# the bessel suite's orders and grid, and scipy.special.jv on them, one row
# per order
BESSEL_ORDERS = (0.0, 1.0 / 3.0, 0.5, 1.0)
BESSEL_GRID = np.linspace(0.1, 20.0, 500)
BESSEL_TABLE = Path(__file__).with_name("bessel_reference.npy")


def _check(name, max_err, tol):
    """One report row."""
    return {"name": name, "pass": bool(max_err <= tol),
            "max_err": float(max_err), "tol": float(tol)}


def _rel(a, b):
    """Worst relative difference of two values or columns."""
    return np.max(np.abs(a - b)
                  / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300))


def _gauss_legendre(f, lo, hi):
    """Integral of f over [lo, hi] by the 16-point Gauss-Legendre rule on
    1, 2, 4, ... equal panels, up to 1024 of them.

    f takes an array of nodes.  The panels halve until two levels agree
    within 1e-13, absolute and relative; the finest level's sum is
    returned if none do.
    """
    previous = math.nan
    for level in range(11):
        edges = np.linspace(lo, hi, 2 ** level + 1)
        half = 0.5 * np.diff(edges)[:, None]
        nodes = edges[:-1, None] + half * (1.0 + minimum._X)
        total = float(np.sum(half * minimum._W * f(nodes)))
        if abs(total - previous) <= 1e-13 * max(1.0, abs(total)):
            break
        previous = total
    return total


# ---------------------------------------------------------------------------
# models

_MODEL_WINDOWS = {
    "harmonic": (0.0, 2.0),
    "kanai_caldirola": (0.0, 2.0),
    "exp_frequency": (0.0, 2.0),
    "tsquared": (0.5, 2.5),
    "bessel_type": (0.1, 1.5),
}


def suite_models():
    checks = []
    shortcut_err = 0.0  # analytic Omega^2 shortcuts vs the generic expression
    for model in models.catalog():
        lo, hi = _MODEL_WINDOWS[model.name]
        ts = np.linspace(lo, hi, 102)[1:-1]  # interior points
        h = 1e-6 * (1.0 + np.abs(ts))
        worst = 0.0
        for f, df in ((model.m, model.m_dot), (model.omega, model.omega_dot)):
            exact = df(ts)
            central = (f(ts + h) - f(ts - h)) / (2.0 * h)
            worst = max(worst, np.max(np.abs(central - exact)
                                      / (1.0 + np.abs(exact))))
        checks.append(_check(f"{model.name}: analytic derivatives vs finite "
                             "differences", worst, 1e-6))
        ts = np.linspace(lo + 0.05, hi, 40)
        M = model.m_dot(ts) / model.m(ts)
        generic = (model.omega(ts) ** 2
                   - 0.5 * (model.m_ddot(ts) / model.m(ts) - M ** 2)
                   - 0.25 * M ** 2)
        shortcut_err = max(shortcut_err,
                           _rel(models.omega2(model, ts), generic))

    me = models.exp_frequency()
    ts = np.linspace(0.0, 2.0, 101)
    prod = np.asarray(me.m(ts)) * np.asarray(me.omega(ts))
    checks.append(_check("exp_frequency: m*omega constant",
                         float(np.max(np.abs(prod / prod[0] - 1.0))), 1e-12))

    ts = np.linspace(-3.0, 3.0, 21)
    mh = models.harmonic()
    err = np.max(np.abs(models.omega2(mh, ts) - mh.params["omega0"] ** 2))
    checks.append(_check("harmonic: Omega^2 == omega0^2 exactly", err, 0.0))
    mk = models.kanai_caldirola()
    target = mk.params["omega0"] ** 2 - 0.25 * mk.params["gamma"] ** 2
    err = np.max(np.abs(models.omega2(mk, ts) - target))
    checks.append(_check("kanai_caldirola: Omega^2 == omega0^2 - gamma^2/4 "
                         "exactly", err, 0.0))

    checks.append(_check("catalog: Omega^2 shortcut vs generic expression",
                         shortcut_err, 1e-10))

    q, dq, d2q = models.tsquared_solution(m0=1.0, c=2.0 ** -0.5)
    mt = models.tsquared(m0=1.0, c=2.0 ** -0.5)
    err = np.max(np.abs(models.eom_residual(mt, q, dq, d2q,
                                            np.array([0.5, 1.0, 2.0]))))
    checks.append(_check("tsquared: closed-form trajectory satisfies the "
                         "equation of motion", err, 1e-9))
    q, dq, d2q = models.exp_frequency_solution(c1=1.0, c2=0.7)
    err = np.max(np.abs(models.eom_residual(me, q, dq, d2q,
                                            np.linspace(0.0, 2.0, 41))))
    checks.append(_check("exp_frequency: closed-form trajectory satisfies "
                         "the equation of motion", err, 1e-9))
    return checks


# ---------------------------------------------------------------------------
# ermakov

def _oscillating_run(n):
    """The harmonic oscillating branch (kconst = 2) on [0, 20], n rows."""
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    return ermakov.integrate_ep(models.harmonic(), 0.25,
                                (float(s0), float(sd0)), 0.0, 20.0,
                                t_eval=np.linspace(0.0, 20.0, n))


def _stepped(model):
    """model with its unit basis undeclared, so that integrate_ep steps it
    and a row pits the closed forms against stepping."""
    return dataclasses.replace(model, unit_basis=None)


def _minimal_run(model, t0, t1, n=201):
    """Stepped minimal branch of `model` from its exact state at t0."""
    c = minimum.minimum_model(model).c
    return ermakov.integrate_ep(_stepped(model), 0.25,
                                minimum.minimal_amplitude(model, c, t0),
                                t0, t1, t_eval=np.linspace(t0, t1, n))


def suite_ermakov():
    checks = []
    mh = models.harmonic()

    # closed form vs integration, constant branch.  Both models declare
    # the unit basis of their constant Omega^2, so integrate_ep evaluates z
    # in closed form from the initial data, a route independent of the
    # branch closed forms and their fits; this run, the oscillating and the
    # hyperbolic one below also give the phase checks
    st_c = ermakov.integrate_ep(mh, 0.25, (2.0 ** -0.5, 0.0), 0.0, 20.0)
    err = _rel(st_c.sigma, 2.0 ** -0.5)
    checks.append(_check("harmonic constant branch vs integration (rel)",
                         err, 1e-6))

    # oscillating branch, kconst = 2
    s0, sd0 = ermakov.sigma_oscillating(1.0, 2.0, 0.0, 0.0)
    st_o = _oscillating_run(201)
    err = _rel(st_o.sigma, ermakov.sigma_oscillating(1.0, 2.0, 0.0, st_o.t)[0])
    checks.append(_check("harmonic oscillating branch vs integration (rel)",
                         err, 1e-6))

    # hyperbolic branch of the damped model with negative Omega^2
    mk = models.kanai_caldirola(omega0=0.3, gamma=1.0)
    L = math.sqrt(0.25 - 0.09)
    c1, c2 = ermakov.fit_hyperbolic(L, 1.0, 0.0, 0.0)
    st_h = ermakov.integrate_ep(mk, 0.25, (1.0, 0.0), 0.0, 3.0)
    err = _rel(st_h.sigma, ermakov.sigma_hyperbolic(L, c1, c2, st_h.t)[0])
    checks.append(_check("damped hyperbolic branch vs integration (rel)",
                         err, 1e-6))

    # the superposition closed form on the unit bases satisfies the
    # auxiliary equation, and those bases keep their unit Wronskian
    me, mt = models.exp_frequency(), models.tsquared()

    def residual(model, init, t0, t1, n):
        return np.max(np.abs(ermakov.pinney_residual(
            model, 0.25, init, t0, np.linspace(t0, t1, n))))

    err = max(residual(mh, ermakov.sigma_oscillating(1.0, 2.0, 0.3, 0.0),
                       0.0, 10.0, 101),
              residual(me, (0.9, 0.1), 0.0, 2.0, 201),
              residual(mt, (0.9, 0.1), 1.0, 3.0, 201))
    checks.append(_check("superposition form: auxiliary-equation residual",
                         err, 1e-8))
    checks.append(_check("hyperbolic superposition: auxiliary-equation "
                         "residual", residual(mk, (1.0, 0.0), 0.0, 3.0, 61),
                         1e-8))
    err = 0.0
    for model, (t0, t1) in ((mh, (0.0, 20.0)), (mk, (0.0, 3.0)),
                            (me, (0.0, 2.0)), (mt, (1.0, 3.0))):
        b = model.unit_basis(t0, np.linspace(t0, t1, 201))
        err = max(err, np.max(np.abs(b.c * b.s_dot - b.c_dot * b.s - 1.0)))
    checks.append(_check("basis Wronskian drift (rel)", err, 1e-8))

    # conserved k over 20 periods on constant-Omega models, and the
    # generalized balance with co-integrated F on time-dependent Omega,
    # stepped
    mb = models.bessel_type()
    for label, model, init, (t0, t1, n), tol in (
            ("harmonic: conserved k drift over 20 periods", mh,
             (float(s0), float(sd0)), (0.0, 20.0 * math.pi, 401), 1e-8),
            ("kanai_caldirola: conserved k drift over 20 periods",
             models.kanai_caldirola(omega0=1.0, gamma=1.0), (1.0, 0.0),
             (0.0, 20.0 * math.pi / math.sqrt(0.75), 401), 1e-8),
            ("exp_frequency: balance constant with co-integrated F",
             _stepped(me), (1.0, 0.3), (0.0, 2.0, 201), 1e-7),
            ("bessel_type: balance constant with co-integrated F", mb,
             (0.3, 0.2), (0.1, 0.8, 201), 1e-7)):
        st = ermakov.integrate_ep(model, 0.25, init, t0, t1,
                                  t_eval=np.linspace(t0, t1, n))
        checks.append(_check(label, np.max(np.abs(st.k - st.k[0])), tol))

    # phases: closed form of the window (t0, t1) vs integrated theta, all
    # six cases; the constant branch's is 2 omega0 (t1 - t0), omega0 = 1
    st_b = _minimal_run(mb, 0.5, 0.8)
    sseries = series.build_series(1.0, 2.0, 1.0, mb.params["order"])
    for label, phase, st in (
            ("constant branch", lambda t0, t1: 2.0 * (t1 - t0), st_c),
            ("oscillating branch (branch-corrected arctan)",
             partial(ermakov.phase_oscillating, 1.0, 2.0, 0.0), st_o),
            ("hyperbolic branch",
             partial(ermakov.phase_hyperbolic, L, c1, c2), st_h),
            ("exp_frequency minimal branch",
             partial(models.exp_frequency_phase, 1.0, 1.0),
             _minimal_run(me, 0.0, 1.0)),
            ("tsquared minimal branch",
             partial(models.tsquared_phase, 1.0, 1.0),
             _minimal_run(mt, 1.0, 2.0)),
            ("bessel-type series branch",
             partial(series.theta_series, sseries), st_b)):
        err = abs(phase(st.t[0], st.t[-1]) - st.theta[-1])
        checks.append(_check(f"phase: {label}", err, 1e-6))

    # theta must never decrease
    worst = max(float(np.max(np.maximum(0.0, -np.diff(states.theta))))
                for states in (st_b, st_h))
    checks.append(_check("theta nondecreasing along trajectories", worst, 0.0))
    return checks


# ---------------------------------------------------------------------------
# quantum / bogolubov

def _catalog_trajectories():
    """One representative trajectory per catalog model, 200 samples each."""
    mk = models.kanai_caldirola()
    out = [(models.harmonic(), _oscillating_run(200), 0.0),
           (mk, ermakov.integrate_ep(mk, 0.25, (0.9, 0.1), 0.0, 3.0,
                                     t_eval=np.linspace(0.0, 3.0, 200)), 0.0)]
    for model, (t0, t1) in ((models.exp_frequency(), (0.0, 2.0)),
                            (models.tsquared(), (1.0, 3.0)),
                            (models.bessel_type(), (0.1, 0.8))):
        out.append((model, _minimal_run(model, t0, t1, n=200), t0))
    return out


def suite_quantum():
    checks = []
    norm_err = bound_gap = route_err = ident_err = balance_err = 0.0
    for i, (model, s, t0) in enumerate(_catalog_trajectories()):
        ref = quantum.default_reference(model, t0)
        rep = quantum.quadratures(model, s)
        pair = quantum.bogolubov(model, s, ref)
        mu2, nu2 = np.abs(pair.mu) ** 2, np.abs(pair.nu) ** 2
        norm_err = max(norm_err, np.max(np.abs(mu2 - nu2 - 1.0)))
        bound_gap = max(bound_gap, np.max(0.5 - rep.product))
        via_bogo = quantum.uncertainty_via_bogolubov(pair)
        via_var = np.sqrt(rep.varQ * rep.varP)
        route_err = max(route_err, _rel(via_bogo, rep.product),
                        _rel(via_var, rep.product), _rel(via_bogo, via_var))
        m = model.m(s.t)
        m0, w0 = ref
        ident_err = max(
            ident_err,
            np.max(np.abs(pair.mu + pair.nu
                          - np.sqrt(2.0 * m / (m0 * w0)) * rep.eta)),
            np.max(np.abs(pair.mu - pair.nu
                          - np.sqrt(2.0 * m0 * w0 / m) * s.sigma)))
        if i < 3:  # balance route on harmonic, kanai_caldirola, exp_frequency
            bal_mu2, bal_nu2 = quantum.moduli_from_balance(model, s, ref)
            balance_err = max(balance_err, np.max(np.abs(bal_mu2 - mu2)),
                              np.max(np.abs(bal_nu2 - nu2)))
    checks.append(_check("normalization |mu|^2 - |nu|^2 = 1 along catalog "
                         "trajectories", norm_err, 1e-10))
    checks.append(_check("uncertainty product >= hbar/2", bound_gap, 1e-12))
    checks.append(_check("product route equivalence (pairwise rel)",
                         route_err, 1e-10))
    checks.append(_check("mu+nu and mu-nu construction identities",
                         ident_err, 1e-12))
    checks.append(_check("moduli via balance identity vs direct moduli",
                         balance_err, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# minimum

def suite_minimum():
    checks = []
    prod_err = mu_err = nu_err = vac_err = energy_err = resc_err = 0.0
    mass_res = 0.0
    for model, (lo, hi) in ((models.harmonic(), (0.0, 2.0)),
                            (models.exp_frequency(), (0.0, 2.0)),
                            (models.tsquared(), (1.0, 3.0)),
                            (models.bessel_type(), (0.1, 0.8))):
        mm = minimum.minimum_model(model, t0=lo, t1=hi)
        ts = np.linspace(lo, hi, 60)
        s = minimum.sigma_minimum_trajectory(mm, ts)
        ref = quantum.default_reference(model, lo)
        m0 = float(model.m(lo))
        rep = quantum.quadratures(model, s)
        prod_err = max(prod_err, np.max(np.abs(rep.product - 0.5)))
        pair = quantum.bogolubov(model, s, ref)
        mu_err = max(mu_err, np.max(np.abs(pair.mu - 1.0)))
        nu_err = max(nu_err, np.max(np.abs(pair.nu)))
        q2, p2, energy = quantum.vacuum_expectations(model, s)
        vac_err = max(vac_err, _rel(q2, mm.c ** 2), _rel(p2, 0.25 / mm.c ** 2))
        energy_err = max(energy_err, _rel(energy, 0.5 * model.omega(s.t)))
        resc_err = max(resc_err, _rel(energy * model.m(s.t) / m0,
                                      0.5 * float(model.omega(lo))))
        mass_res = max(mass_res, float(np.max(np.abs(
            minimum.mass_constraint_residual(mm, ts)))))
    checks.append(_check("minimal branch: product == hbar/2", prod_err, 1e-10))
    checks.append(_check("minimal branch: |mu - 1|", mu_err, 1e-9))
    checks.append(_check("minimal branch: |nu|", nu_err, 1e-9))
    checks.append(_check("vacuum <Q^2>, <P^2> constants (rel)", vac_err, 1e-10))
    checks.append(_check("vacuum energy = hbar*omega/2 (rel)", energy_err, 1e-9))
    checks.append(_check("rescaled energy m(t)<H>/m0 constant (rel)",
                         resc_err, 1e-9))
    checks.append(_check("mass-form auxiliary residual on minimal branch",
                         mass_res, 1e-8))

    rep = minimum.check_criterion(models.exp_frequency())
    checks.append(_check("criterion holds for exp_frequency",
                         0.0 if rep.is_minimum else 1.0, 0.0))
    rep = minimum.check_criterion(models.kanai_caldirola())
    checks.append(_check("criterion rejects kanai_caldirola",
                         0.0 if not rep.is_minimum else 1.0, 0.0))

    # quadratic growth of the product under a sigma' perturbation
    mh = models.harmonic()
    mmh = minimum.minimum_model(mh)
    base = minimum.sigma_minimum_trajectory(mmh, [0.0, 0.5])
    worst = 0.0
    for eps in (1e-3, 1e-4):
        pert = dataclasses.replace(base, sigma_dot=base.sigma_dot + eps)
        gap = quantum.quadratures(mh, pert).product[-1] - 0.5
        worst = max(worst, abs(gap / (base.sigma[-1] ** 2 * eps ** 2) - 1.0))
    checks.append(_check("product grows quadratically away from the minimum",
                         worst, 1e-4))
    return checks


# ---------------------------------------------------------------------------
# series

def suite_series():
    checks = []
    s10 = series.build_series(1.0, 2.0, 1.0, 10)
    pf = series.product_form_ratios(2.0, 1.0, 10)
    exact = all(pf[k] == s10.ratios[k] for k in range(10))
    checks.append(_check("ratio recursion == closed product form (exact, "
                         "k <= 10)", 0.0 if exact else 1.0, 0.0))

    err = max(abs(s10.a[0] - 1.1547005383792517),
              abs(s10.a[1] + 0.08247860988423227),
              abs(s10.a[2] - 0.0032557346006933784))
    checks.append(_check("leading coefficients a1, a3, a5", err, 1e-12))

    res = series.symbolic_residual(s10)
    checks.append(_check("symbolic residual vanishes in retained powers",
                         max(abs(r) for r in res), 1e-12))

    rec = series.reciprocal_identity_coefficients(s10)
    exact = rec[0] == 0 and all(r == 0 for r in rec[1:])
    checks.append(_check("reciprocal series identity (exact)",
                         0.0 if exact else 1.0, 0.0))

    exact = all(series.determinant_tilde(s10, k) == s10.tilde_ratios[k]
                for k in range(7))
    checks.append(_check("determinant form of reciprocal coefficients "
                         "(k <= 6)", 0.0 if exact else 1.0, 0.0))

    vals = [series.alpha_numeric_check(series.build_series(1.0, 2.0, 1.0, n),
                                       0.1, 0.8)
            for n in range(3, SERIES_ORDER + 1)]
    ratio = max(b / a for a, b in zip(vals, vals[1:]))
    checks.append(_check("constraint residual strictly decreasing with "
                         "order", ratio, 1.0 - 1e-12))
    checks.append(_check(f"constraint residual at order {SERIES_ORDER} on "
                         "[0.1, 0.8]", vals[-1], 1e-6))

    s = series.build_series(1.0, 2.0, 1.0, SERIES_ORDER)
    th = series.theta_series(s, 0.5, 0.8)
    ref = _gauss_legendre(lambda t: 2.0 / s.alpha(t), 0.5, 0.8)
    checks.append(_check("phase series vs adaptive quadrature", abs(th - ref),
                         1e-8))

    # shooting comparison: integrate the constraint as an ODE from t ~ 0
    w0_sq, mu_sq, lam_sq = 1.0, 1.0, 4.0

    def rhs(t, y):
        al, ald = y
        return (ald, (ald * ald + 4.0 * w0_sq
                      - al * al * (mu_sq + lam_sq / (t * t))) / (2.0 * al))

    eps = 1e-3
    grid = np.linspace(0.1, 0.5, 41)
    _, ys = dopri.solve(rhs, eps, 0.5, [s.a1 * eps, s.a1], rtol=1e-12,
                        atol=1e-14, t_eval=grid)
    err = float(np.max(np.abs(ys[:, 0] - s.alpha(grid))))
    checks.append(_check("series vs shooting solution of the constraint",
                         err, 1e-6))

    s_lin = series.build_series(1.0, 2.0, 0.0, SERIES_ORDER)
    err = series.alpha_numeric_check(s_lin, 0.1, 5.0)
    checks.append(_check("mu_s = 0 linear case: residual at any order",
                         err, 1e-12))
    th = series.theta_series(s_lin, 0.5, 0.8)
    err = abs(th - 2.0 / s_lin.a1 * math.log(0.8 / 0.5))
    checks.append(_check("mu_s = 0 phase reduces to a logarithm", err, 1e-14))

    err = series.power_law_check(1.0, math.sqrt(3.0) / 4.0,
                                 np.linspace(0.2, 5.0, 101))
    checks.append(_check("power-law trajectories t^(+-1/4) satisfy their "
                         "equation of motion", err, 1e-10))

    # oscillatory approximation: returned pair satisfies the induced dynamics
    ts = np.linspace(0.0, 1.0, 2001)
    alpha, q = series.large_k0_approx(1.0, 2.0, 1.0, 1.0, 0.0, ts)
    h = ts[1] - ts[0]
    dq = np.gradient(q, h, edge_order=2)
    d2q = np.gradient(dq, h, edge_order=2)
    amp = math.sqrt(1.0 - 1.0 / 4.0)
    alpha_dot = 2.0 * 2.0 * amp * np.cos(2.0 * 2.0 * ts)
    res = d2q + (alpha_dot / alpha) * dq + (1.0 / alpha) ** 2 * q
    err = float(np.max(np.abs(res[5:-5])))
    checks.append(_check("oscillatory approximation: trajectory residual "
                         "(loose)", err, 0.05))
    return checks


# ---------------------------------------------------------------------------
# bessel

def suite_bessel():
    checks = []
    xs = BESSEL_GRID
    ode_err = ref_err = 0.0
    for rho, reference in zip(BESSEL_ORDERS, np.load(BESSEL_TABLE)):
        values = bessel.jv(rho, xs)
        ode_err = max(ode_err, float(np.max(np.abs(
            bessel.defining_ode_residual(rho, xs, values)))))
        ref_err = max(ref_err, float(np.max(np.abs(values[0] - reference))))
    checks.append(_check("evaluator satisfies the defining equation "
                         "(rho in {0, 1/3, 1/2, 1})", ode_err, 1e-8))
    checks.append(_check("evaluator matches the library Bessel reference",
                         ref_err, 1e-10))

    err = series.bessel_reduction_check(1.0, 1.0, 0.5, np.linspace(0.5, 10.0, 200))
    checks.append(_check("reduced trajectory sqrt(t) Z_0 satisfies its "
                         "equation", err, 1e-7))
    err = series.bessel_reduction_check(1.0, 1.0, 0.0, np.linspace(0.5, 10.0, 200))
    checks.append(_check("rho = 1/2 elementary fallback", err, 1e-10))
    return checks


# ---------------------------------------------------------------------------

# every suite returns its rows; "all" runs them in this order
SUITES = {
    "models": suite_models,
    "ermakov": suite_ermakov,
    "quantum": suite_quantum,
    "minimum": suite_minimum,
    "series": suite_series,
    "bessel": suite_bessel,
}


def run_suite(name, timings=None):
    """Run one suite (or 'all') and return the JSON-ready report dict.

    When `timings` is a dict, each suite's wall time in seconds is stored
    in it under the suite's name; otherwise nothing is timed.
    """
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = list(SUITES) if name == "all" else [name]
    checks = []
    for suite_name in names:
        start = perf_counter() if timings is not None else 0.0
        suite_checks = SUITES[suite_name]()
        if timings is not None:
            timings[suite_name] = perf_counter() - start
        if name == "all":
            suite_checks = [{**c, "name": f"{suite_name}: {c['name']}"}
                            for c in suite_checks]
        checks.extend(suite_checks)
    return {"suite": name, "checks": checks,
            "pass": all(c["pass"] for c in checks)}
