"""The Bessel-type model: power-series scale function and linear reduction.

The scale function alpha(t) solves a nonlinear constraint whose odd power
series has exactly computable coefficients (ratio recursion, verified here
against the closed product form and by the vanishing of the symbolic
residual).  The reduced linear equation becomes the defining equation of a
first-kind cylinder function; the in-package evaluator is accepted through
that equation before use.
"""

import math

import numpy as np

from tdo import bessel, ermakov, minimum, models, quantum, series

s = series.build_series(omega0=1.0, lam=2.0, mu_s=1.0, order=10)
print("series coefficients (omega0=1, lambda=2, mu_s=1):")
print(f"  a1 = {s.a[0]:.10f}   (2/sqrt(3))")
print(f"  a3 = {s.a[1]:.10f}   (-a1/14 exactly: ratio {s.ratios[1]})")
print(f"  a5 = {s.a[2]:.10f}   (ratio {s.ratios[2]})")

res = series.symbolic_residual(s)
print(f"symbolic residual, retained powers: max = {max(abs(r) for r in res):.1e}")

print("\nconstraint residual on [0.1, 0.8] vs truncation order:")
for order in range(3, 9):
    sn = series.build_series(1.0, 2.0, 1.0, order)
    print(f"  order {order}: {series.alpha_numeric_check(sn, 0.1, 0.8):.3e}")

th = series.theta_series(s, 0.5, 0.8)
print(f"\nphase on [0.5, 0.8] from the reciprocal series: {th:.12f}")

# the induced catalog model keeps m*omega constant identically, so the full
# quantum stack saturates the uncertainty bound on it
mb = models.bessel_type(order=10)
mm = minimum.minimum_model(mb, t0=0.1, t1=0.8)
st = minimum.sigma_minimum_trajectory(mm, np.linspace(0.1, 0.8, 30))
worst = np.max(np.abs(quantum.quadratures(mb, st).product - 0.5))
print(f"bessel_type minimal branch: max |product - 1/2| = {worst:.1e}")

# linear reduction: y = sqrt(t) Z_rho(l t)
print("\nreduced linear equation, residual of sqrt(t) Z_rho(l t):")
for nu, label in ((0.5, "rho = 0"), (0.0, "rho = 1/2 (elementary)")):
    err = series.bessel_reduction_check(1.0, 1.0, nu,
                                        np.linspace(0.5, 10.0, 200))
    print(f"  {label}: {err:.2e}")

print("\nevaluator acceptance (defining-equation residual on [0.1, 20]):")
xs = np.linspace(0.1, 20.0, 400)
for rho in (0.0, 1.0 / 3.0, 0.5, 1.0):
    err = float(np.max(np.abs(bessel.defining_ode_residual(rho, xs))))
    print(f"  rho = {rho:.3f}: {err:.2e}")

# power-law special case mu_s = 0 with exponents +-1/4
err = series.power_law_check(1.0, math.sqrt(3.0) / 4.0,
                             np.linspace(0.2, 5.0, 120))
print(f"\npower-law trajectories t^(+-1/4): residual = {err:.2e}")

# dropping the 1/sigma^3 term in the amplitude equation: quantify, don't
# assume
print("\nlinearized amplitude equation, relative gap by starting amplitude:")
for s0 in (0.5, 1.0, 3.0, 6.0):
    gap = series.linearization_gap(1.0, 2.0, 0.5, 1.0, s0, 0.0, 0.5, 1.0)
    print(f"  sigma0 = {s0:3.1f}: max |sigma_full - sigma_lin|/sigma0 = "
          f"{gap / s0:.2e}")
