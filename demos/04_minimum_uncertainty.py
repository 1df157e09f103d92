"""The minimum-uncertainty criterion m(t)*omega(t) = 1/(2c^2).

Whenever the mass-frequency product is constant, sigma = c*sqrt(m) solves
the auxiliary equation exactly and saturates the uncertainty bound for all
times: product = hbar/2, (mu, nu) = (1, 0), <Q^2> = hbar c^2,
<P^2> = hbar/(4c^2) and <H> = hbar omega(t)/2.  The demo certifies this on
the three elementary families and shows a model that fails the criterion.
"""

import numpy as np

from tdo import minimum, models, quantum
from tdo.ermakov import ErmakovState

CASES = [
    (models.harmonic(), (0.0, 2.0)),
    (models.exp_frequency(), (0.0, 2.0)),
    (models.tsquared(), (1.0, 3.0)),
]

for model, (lo, hi) in CASES:
    rep = minimum.check_criterion(model, t0=lo, t1=hi)
    print(f"{model.name}: is_minimum={rep.is_minimum}, c={rep.c:.10f}, "
          f"max_violation={rep.max_violation:.2e}")

rep = minimum.check_criterion(models.kanai_caldirola())
print(f"kanai_caldirola: is_minimum={rep.is_minimum} "
      f"(m*omega grows exponentially; violation={rep.max_violation:.3f})")

print("\nminimal branch sigma = c*sqrt(m):")
for model, (lo, hi) in CASES:
    mm = minimum.minimum_model(model, t0=lo, t1=hi)
    ref = quantum.default_reference(model, lo)
    s = minimum.sigma_minimum_trajectory(mm, np.linspace(lo, hi, 40))
    worst_prod = np.max(np.abs(quantum.quadratures(model, s).product - 0.5))
    pair = quantum.bogolubov(model, s, ref)
    worst_mu = np.max(np.abs(pair.mu - 1.0))
    worst_nu = np.max(np.abs(pair.nu))
    _, _, energy = quantum.vacuum_expectations(model, s)
    worst_h = np.max(np.abs(energy / (0.5 * model.omega(s.t)) - 1.0))
    res = float(np.max(np.abs(minimum.mass_constraint_residual(
        mm, np.linspace(lo, hi, 40)))))
    print(f"  {model.name:14s} |product-1/2|<{worst_prod:.1e} "
          f"|mu-1|<{worst_mu:.1e} |nu|<{worst_nu:.1e} "
          f"|<H>/(w/2)-1|<{worst_h:.1e} mass-residual<{res:.1e}")

# perturbing away from the minimal branch costs quadratically
print("\nquadratic growth off the minimum (harmonic, sigma' -> sigma' + eps):")
mm = minimum.minimum_model(models.harmonic())
# the state at t = 0.5 is the last row of the trajectory on [0, 0.5]
base = ErmakovState(**{name: column[-1] for name, column in vars(
    minimum.sigma_minimum_trajectory(mm, [0.0, 0.5])).items()})
# one state of columns carries all three perturbations at once
eps = np.array([1e-2, 1e-3, 1e-4])
pert = ErmakovState(t=base.t, sigma=base.sigma, sigma_dot=base.sigma_dot + eps,
                    theta=base.theta, k=base.k, F=base.F)
gaps = quantum.quadratures(models.harmonic(), pert).product - 0.5
for e, gap in zip(eps, gaps):
    print(f"  eps={e:7.0e}: product - 1/2 = {gap:.3e} "
          f"(sigma^2 eps^2 = {base.sigma ** 2 * e ** 2:.3e})")
