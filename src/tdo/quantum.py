"""Coefficient functions of the quantum layer, elementwise over a trajectory.

Everything here is an algebraic function of an amplitude state
(sigma, sigma') and the model coefficients at the same instant:

    xi  = (sigma' - M sigma/2) - i/(2 sigma)
    eta = -i conj(xi) = 1/(2 sigma) + i (M sigma/2 - sigma')

    (dQ)^2 = (hbar/m) sigma^2        (dP)^2 = hbar m |xi|^2
    dQ dP  = (hbar/2) sqrt(1 + 4 sigma^2 (sigma' - M sigma/2)^2) >= hbar/2

    mu = sqrt(m/(2 m0 w0)) [eta + (m0 w0/m) sigma]
    nu = sqrt(m/(2 m0 w0)) [eta - (m0 w0/m) sigma]      |mu|^2 - |nu|^2 = 1

with the transformation-pair identities mu+nu = sqrt(2m/(m0 w0)) eta and
mu-nu = sqrt(2 m0 w0/m) sigma, so the uncertainty product equals
(hbar/2) |mu+nu| |mu-nu|.  All quantities assume the K = 1/4 normalization
of the auxiliary equation.

An `ErmakovState` of floats gives one sample and one of columns gives a
trajectory; inputs pass through `np.asarray` and squares are written as
products, so both take the same arithmetic and agree bit for bit.  Report
fields follow the input: numpy scalars or columns.
"""

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import ParameterError


@dataclass(frozen=True)
class QuadratureReport:
    t: np.ndarray
    varQ: np.ndarray
    varP: np.ndarray
    xi: np.ndarray  # complex
    eta: np.ndarray  # complex
    product: np.ndarray
    hbar: float


@dataclass(frozen=True)
class BogolubovPair:
    mu: np.ndarray  # complex
    nu: np.ndarray  # complex
    reference: tuple  # (m0, omega0) fixing the Schroedinger-picture operator


def _check_hbar(hbar):
    if not hbar > 0.0:
        raise ParameterError(f"hbar must be positive, got {hbar}")


def _check_reference(reference):
    m0, w0 = reference
    if not (m0 > 0.0 and w0 > 0.0):
        raise ParameterError("reference mass and frequency must be positive")
    return m0, w0


def _complex(re, im):
    """re + i im exactly (re + 1j*im goes through a complex product)."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z[()]


def _sample(model, state):
    """(m, M, sigma, sigma') at the state's times, as numpy values."""
    return (np.asarray(model.m(state.t), dtype=float),
            np.asarray(models.damping_coefficient(model, state.t), dtype=float),
            np.asarray(state.sigma, dtype=float),
            np.asarray(state.sigma_dot, dtype=float))


def quadratures(model, state, hbar=1.0):
    """Variances and uncertainty product along a state or trajectory."""
    _check_hbar(hbar)
    m, M, sigma, sigma_dot = _sample(model, state)
    drift = sigma_dot - 0.5 * M * sigma
    half_inv = 0.5 / sigma
    xi_abs = np.hypot(drift, half_inv)
    return QuadratureReport(
        t=state.t, varQ=hbar / m * (sigma * sigma),
        varP=hbar * m * (xi_abs * xi_abs),
        xi=_complex(drift, -half_inv), eta=_complex(half_inv, -drift),
        product=0.5 * hbar * np.sqrt(1.0 + 4.0 * (sigma * sigma)
                                     * (drift * drift)),
        hbar=hbar)


def default_reference(model, t0):
    """Reference (m0, omega0) for the fixed annihilator: model values at t0."""
    return float(model.m(t0)), float(model.omega(t0))


def bogolubov(model, state, reference):
    """Transformation coefficients (mu, nu) relative to a fixed (m0, omega0)."""
    m0, w0 = _check_reference(reference)
    m, M, sigma, sigma_dot = _sample(model, state)
    eta = _complex(0.5 / sigma, 0.5 * M * sigma - sigma_dot)
    pref = np.sqrt(m / (2.0 * m0 * w0))
    r = m0 * w0 / m
    return BogolubovPair(mu=pref * (eta + r * sigma),
                         nu=pref * (eta - r * sigma),
                         reference=(m0, w0))


def uncertainty_via_bogolubov(pair, hbar=1.0):
    """(hbar/2) |mu+nu| |mu-nu|, the transformation form of the product."""
    _check_hbar(hbar)
    return 0.5 * hbar * np.abs(pair.mu + pair.nu) * np.abs(pair.mu - pair.nu)


def moduli_from_balance(model, state, reference):
    """(|mu|^2, |nu|^2) through the balance identity rather than directly.

    Uses the state's k + F together with the model coefficients:
        base = m/(2 m0 w0) [k+F + ((m0 w0/m)^2 + M^2/2 + M'/2 - w^2) sigma^2
                             - M sigma sigma']
        |mu|^2 = base + 1/2,   |nu|^2 = base - 1/2.
    Meaningful whenever F was co-integrated along the trajectory (F = 0 on
    constant-Omega models).
    """
    m0, w0 = _check_reference(reference)
    m, M, sigma, sigma_dot = _sample(model, state)
    Mdot = model.m_ddot(state.t) / m - M * M
    w = np.asarray(model.omega(state.t), dtype=float)
    r = m0 * w0 / m
    base = m / (2.0 * m0 * w0) * (
        np.asarray(state.k, dtype=float) + state.F
        + (r * r + 0.5 * M * M + 0.5 * Mdot - w * w) * (sigma * sigma)
        - M * sigma * sigma_dot)
    return base + 0.5, base - 0.5


def vacuum_expectations(model, state, hbar=1.0):
    """(<Q^2>, <P^2>, <H>) in the vacuum of the instantaneous annihilator."""
    rep = quadratures(model, state, hbar)
    m = np.asarray(model.m(state.t), dtype=float)
    w = np.asarray(model.omega(state.t), dtype=float)
    energy = rep.varP / (2.0 * m) + 0.5 * m * w * w * rep.varQ
    return rep.varQ, rep.varP, energy


def oscillating_saturation_gap(omega0, k_values, hbar=1.0):
    """Worst-case product excess over hbar/2 on the oscillating branch.

    For the constant-frequency oscillating amplitude the maximum over time
    is attained where sigma' is extremal and equals (hbar/2)(k/omega0 - 1);
    the threshold below which this counts as "approximately minimal" is
    left to the caller.
    """
    _check_hbar(hbar)
    out = {}
    for k in k_values:
        if k < omega0:
            raise ParameterError("oscillating branch needs k >= omega0")
        out[k] = 0.5 * hbar * (k / omega0 - 1.0)
    return out
