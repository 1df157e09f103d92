"""Variances, the uncertainty product, and the transformation coefficients.

Along any amplitude trajectory the product (dQ)(dP) admits three equivalent
routes — the direct formula, sqrt(varQ*varP), and (hbar/2)|mu+nu||mu-nu| —
and the coefficients obey |mu|^2 - |nu|^2 = 1 identically.  On the damped
model the product oscillates above hbar/2; the gap report at the end shows
how far the oscillating branch strays from saturation as a function of its
first-integral constant.  Every quantum function takes the whole trajectory
(an `ErmakovState` of columns) and returns columns; `integrate_ep` writes
its rows at the times passed as `t_eval`.
"""

import numpy as np

from tdo import ermakov, models, quantum

m = models.kanai_caldirola(omega0=1.0, gamma=1.0)
states = ermakov.integrate_ep(m, 0.25, (0.9, 0.1), 0.0, 6.0,
                              t_eval=np.linspace(0.0, 6.0, 13))
ref = quantum.default_reference(m, 0.0)

print("damped oscillator, generic amplitude data:")
print(f"{'t':>5s} {'varQ':>10s} {'varP':>10s} {'product':>10s} "
      f"{'|mu|^2-|nu|^2':>14s} {'route spread':>13s}")
rep = quantum.quadratures(m, states)
pair = quantum.bogolubov(m, states, ref)
routes = np.array([rep.product, np.sqrt(rep.varQ * rep.varP),
                   quantum.uncertainty_via_bogolubov(pair)])
spread = routes.max(axis=0) - routes.min(axis=0)
norm = np.abs(pair.mu) ** 2 - np.abs(pair.nu) ** 2
for row in zip(states.t, rep.varQ, rep.varP, rep.product, norm, spread):
    print("{:5.2f} {:10.5f} {:10.5f} {:10.6f} {:14.10f} {:13.2e}".format(*row))

print("\nthe product never dips below hbar/2 = 0.5, and both moduli "
      "identities hold:")
mu2, nu2 = quantum.moduli_from_balance(m, states, ref)
print(f"  direct |mu|^2 = {abs(pair.mu[-1]) ** 2:.12f}, "
      f"balance route = {mu2[-1]:.12f}")
print(f"  direct |nu|^2 = {abs(pair.nu[-1]) ** 2:.12f}, "
      f"balance route = {nu2[-1]:.12f}")

# saturation gap of the oscillating branch as a function of its constant
print("\noscillating-branch saturation gap (worst product excess over "
      "hbar/2):")
gaps = quantum.oscillating_saturation_gap(1.0, [1.0, 1.2, 1.7, 2.0, 3.0])
for k, gap in gaps.items():
    print(f"  k = {k:3.1f}: max_t (product - 1/2) = {gap:.6f}")
print("the gap vanishes only at k = omega0 (the constant branch); how "
      "small is small enough is the caller's judgement")
