"""Solving the auxiliary equation sigma'' + Omega^2(t) sigma = K/sigma^3.

`integrate_ep` takes sigma as the modulus of a complex solution z of the
reduced linear equation.  On a model that declares its unit-data basis
(harmonic, kanai_caldirola, exp_frequency, tsquared) z is evaluated in
closed form, and sigma^2 = |z|^2 is Pinney's superposition, a quadratic
form in that basis; elsewhere z is stepped adaptively, with the phase
theta = integral dt/sigma^2 as an extra state component.  The closed-form
branches of a constant Omega^2 are compared with it below.
`integrate_ep` returns the trajectory as one `ErmakovState` whose fields
are columns over the output times.  Each branch's closed-form phase is a
plain function of that branch's constants and the window (t0, t1):
`phase_oscillating` and `phase_hyperbolic`.
"""

import math

import numpy as np

from tdo import ermakov, models

SQ2 = 2.0 ** -0.5

# --- constant-frequency oscillator: two exact branches -----------------------

m = models.harmonic(omega0=1.0)

# branch 1: the time-independent amplitude sigma = 1/sqrt(2 omega0)
states = ermakov.integrate_ep(m, 0.25, (SQ2, 0.0), 0.0, 20.0)
drift = np.max(np.abs(states.sigma - SQ2))
print(f"constant branch: max |sigma - 1/sqrt(2)| = {drift:.2e}")
print(f"phase theta(20) = {states.theta[-1]:.12f}   (2*omega0*t = 40)")

# branch 2: oscillating amplitude fixed by the first integral
#   sigma'^2 + omega0^2 sigma^2 + 1/(4 sigma^2) = k
kconst = 2.0
s0, sd0 = ermakov.sigma_oscillating(1.0, kconst, 0.0, 0.0)
print(f"\noscillating branch (k={kconst}): sigma(0)^2 = {float(s0)**2:.10f}"
      f"   ((2-sqrt(3))/2 = {(2 - math.sqrt(3)) / 2:.10f})")
states = ermakov.integrate_ep(m, 0.25, (float(s0), float(sd0)), 0.0, 20.0)
closed, _ = ermakov.sigma_oscillating(1.0, kconst, 0.0, states.t)
worst = np.max(np.abs(states.sigma - closed))
print(f"closed form vs integration: max |diff| = {worst:.2e}")
kdrift = np.max(np.abs(states.k - kconst))
print(f"first-integral drift: {kdrift:.2e}")

th = ermakov.phase_oscillating(1.0, kconst, 0.0, 0.0, 20.0)
print(f"branch-corrected arctan phase: {th:.10f}  "
      f"(integrated: {states.theta[-1]:.10f})")

# --- damped model with negative effective frequency: hyperbolic branch -------

mk = models.kanai_caldirola(omega0=0.3, gamma=1.0)   # Omega^2 = -0.16
L = math.sqrt(0.16)
c1, c2 = ermakov.fit_hyperbolic(L, 1.0, 0.0, 0.0)
print(f"\ndamped model, Omega^2 = -0.16: fitted c1={c1:.6f}, c2={c2:.6f}")
states = ermakov.integrate_ep(mk, 0.25, (1.0, 0.0), 0.0, 3.0)
closed, _ = ermakov.sigma_hyperbolic(L, c1, c2, states.t)
worst = np.max(np.abs(states.sigma - closed))
print(f"cosh-form closed branch vs integration: max |diff| = {worst:.2e}")
print(f"sigma grows to {states.sigma[-1]:.4f} by t=3 "
      "(tanh-arctan phase stays bounded):")
print(f"theta(3) = {states.theta[-1]:.10f}   (closed form: "
      f"{ermakov.phase_hyperbolic(L, c1, c2, 0.0, 3.0):.10f})")

# --- the superposition closed form on the unit basis -------------------------

# with C, S the basis of z'' + Omega^2 z = 0 from unit data at t0 (C S' - C' S
# = 1), sigma^2 = A C^2 + 2 D C S + B S^2 with A = sigma0^2, D = sigma0
# sigma0' and B = sigma0'^2 + K/sigma0^2, so A B - D^2 = K by construction
s0, sd0 = float(s0), float(sd0)
A, D, B = s0 * s0, s0 * sd0, sd0 * sd0 + 0.25 / (s0 * s0)
gap = A * B - D * D - 0.25
print(f"\nsuperposition constants: A*B - D^2 - K = {gap:.2e}")
for model, (t0, t1) in ((m, (0.0, 10.0)),
                        (models.exp_frequency(), (0.0, 2.0))):
    ts = np.linspace(t0, t1, 101)
    basis = model.unit_basis(t0, ts)
    wronskian = basis.c * basis.s_dot - basis.c_dot * basis.s
    drift = np.max(np.abs(wronskian - 1.0))
    res = np.max(np.abs(ermakov.pinney_residual(model, 0.25, (s0, sd0), t0,
                                                ts)))
    print(f"{model.name}: basis Wronskian drift {drift:.2e}, "
          f"auxiliary-equation residual {res:.2e}")
