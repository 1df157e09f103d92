"""Tour of the model catalog.

Each model carries analytic m(t), omega(t) and their derivatives; from
those the damping coefficient M = m'/m and the effective squared frequency
Omega^2 = omega^2 - M'/2 - M^2/4 follow.  Two of the five families keep
m*omega constant by construction, which is the minimum-uncertainty
criterion explored in demo 04.
"""

import numpy as np

from tdo import models

print("catalog:")
for model in models.catalog():
    print(f"  {model.name:16s} params={model.params}")

print("\ncoefficients at sample times")
print(f"{'model':16s} {'t':>5s} {'m(t)':>12s} {'omega(t)':>12s} "
      f"{'M(t)':>10s} {'Omega^2':>12s}")
for model in models.catalog():
    lo, hi = model.domain.sampling_window()
    for t in np.linspace(lo + 0.2 * (hi - lo), hi, 3):
        M = float(models.damping_coefficient(model, t))
        print(f"{model.name:16s} {t:5.2f} {float(model.m(t)):12.6f} "
              f"{float(model.omega(t)):12.6f} {M:10.4f} "
              f"{float(models.omega2(model, t)):12.6f}")

# the damped constant-frequency model has a *constant* effective frequency
# of either sign: omega0^2 - gamma^2/4; at gamma = 0 it is the harmonic
# oscillator
print("\ndamped model, effective frequency vs damping:")
for gamma in (0.0, 0.5, 1.0, 2.0, 3.0):
    m = models.kanai_caldirola(omega0=1.0, gamma=gamma)
    print(f"  gamma={gamma:3.1f}: Omega^2 = {models.omega2(m, 0.0):+.4f}")

# closed-form trajectories check out against the equation of motion
q, dq, d2q = models.tsquared_solution(m0=1.0, c=2.0 ** -0.5)
mt = models.tsquared(m0=1.0, c=2.0 ** -0.5)
res = max(abs(models.eom_residual(mt, q, dq, d2q, t)) for t in (0.5, 1.0, 2.0))
print(f"\ntsquared closed-form trajectory: max |EOM residual| = {res:.2e}")

q, dq, d2q = models.exp_frequency_solution(c1=1.0, c2=0.5)
me = models.exp_frequency()
res = max(abs(models.eom_residual(me, q, dq, d2q, t))
          for t in np.linspace(0.0, 2.0, 21))
print(f"exp_frequency closed-form trajectory: max |EOM residual| = {res:.2e}")
