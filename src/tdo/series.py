"""Odd power-series solution of the nonlinear scale-function constraint.

The scale function alpha(t) of the Bessel-type oscillator model obeys

    2 a a'' - a'^2 - 4 w0^2 + a^2 (mu_s^2 + lam^2 / t^2) = 0,

solved by alpha = sum_k a_{2k+1} t^{2k+1} with a1 = 2 w0 / sqrt(lam^2 - 1)
and the ratio recursion

    a_{2k+1} / a_{2k-1} = -mu_s^2 (2k-1) / (2k [(4k^2 - 1) + lam^2]).

Coefficient arithmetic is exact (fractions on the a1-normalized ratios) up
to order 12 and floating point beyond; all structural identities
(convolution system, reciprocal series, determinant form) are available
for verification.
"""

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import bessel
from .errors import ConvergenceWarning, ParameterError

_RATIONAL_ORDER_CAP = 12
# the reciprocal recursion costs O(order^2); at lam = 2 and mu_s <= 3 every
# coefficient past index 112 has already underflowed to 0
MAX_ORDER = 200


@dataclass(frozen=True)
class AlphaSeries:
    """Truncated odd series for alpha(t) plus the reciprocal even series.

    `order` counts retained odd coefficients: a = (a1, a3, ..., a_{2*order-1}).
    `a_tilde` holds the reciprocal coefficients of a1*t/alpha(t), so
    a_tilde[0] == 1 and omega(t) = (omega0/(a1*t)) * sum a_tilde[k] t^{2k}.
    `ratios` / `tilde_ratios` keep the a1-normalized coefficients, exact
    fractions when the order allows.
    """

    omega0: float
    lam: float
    mu_s: float
    order: int
    a: tuple
    a_tilde: tuple
    ratios: tuple
    tilde_ratios: tuple

    @property
    def a1(self):
        return self.a[0]

    @cached_property
    def _rows(self):
        # Horner rows of alpha and its first three derivatives, top power
        # down to k = 1; a_0 enters alpha and alpha' only
        return tuple((ak, (2 * k + 1.0) * ak, (2 * k + 1.0) * (2 * k) * ak,
                      (2 * k + 1.0) * (2 * k) * (2 * k - 1.0) * ak)
                     for k, ak in reversed(tuple(enumerate(self.a))[1:]))

    def alpha(self, t):
        """alpha at t (float or array), on the array path of `derivatives`."""
        return self.derivatives(np.asarray(t, dtype=float))[0]

    def derivatives(self, t):
        """alpha and its first three derivatives at t, in one pass: plain
        float arithmetic on a float, elementwise on an array."""
        t2 = t * t
        p0 = p1 = p2 = p3 = 0.0
        for r0, r1, r2, r3 in self._rows:
            p0 = p0 * t2 + r0
            p1 = p1 * t2 + r1
            p2 = p2 * t2 + r2
            p3 = p3 * t2 + r3
        a0 = self.a[0]
        return t * (p0 * t2 + a0), p1 * t2 + a0, p2 * t, p3

    def radius_guard(self):
        """Conservative truncation-accuracy window (inf when mu_s == 0)."""
        return math.inf if self.mu_s == 0.0 else 2.0 / abs(self.mu_s)

    def full_coefficients(self):
        """Coefficients (a0, a1, a2, ...) with the even zeros made explicit."""
        out = [0.0] * (2 * self.order)
        out[1::2] = self.a
        return out

    def to_json_dict(self):
        return {
            "omega0": self.omega0,
            "lambda": self.lam,
            "mu_s": self.mu_s,
            "order": self.order,
            "a": list(self.a),
            "a_tilde": list(self.a_tilde),
        }


@dataclass(frozen=True)
class ConvolutionTriple:
    """Power-by-power coefficients of alpha'^2 (b), alpha^2 (c), alpha*alpha'' (d)."""

    b: tuple
    c: tuple
    d: tuple


def _ratio_step(k, lam_sq, mu_sq):
    # a_{2k+1} / a_{2k-1}
    return -mu_sq * (2 * k - 1) / (2 * k * ((4 * k * k - 1) + lam_sq))


def build_series(omega0, lam, mu_s, order):
    """Construct the truncated alpha series and its reciprocal.

    Requires 1 < lam**2 < inf (reality of a1), a finite mu_s, a positive
    finite omega0 and 1 <= order <= MAX_ORDER.  The leading coefficient is
    a1 = 2*omega0/sqrt(lam**2 - 1); higher odd coefficients follow from the
    ratio recursion; even ones vanish identically.  A series whose
    coefficients do not all come out as finite floats raises
    ParameterError naming the parameters that set them.
    """
    if not isinstance(order, int) or not 1 <= order <= MAX_ORDER:
        raise ParameterError(
            f"order must be an integer in [1, {MAX_ORDER}], got {order!r}")
    if not 1.0 < lam * lam < math.inf:
        raise ParameterError("lambda**2 must exceed 1 (real leading "
                             f"coefficient) and be finite, got lambda = {lam!r}")
    if not 0.0 < omega0 < math.inf:
        raise ParameterError(f"omega0 must be positive and finite, got {omega0!r}")
    if not math.isfinite(mu_s):
        raise ParameterError(f"mu must be finite, got {mu_s!r}")

    exact = order <= _RATIONAL_ORDER_CAP
    if exact:
        lam_sq = Fraction(lam) * Fraction(lam)
        mu_sq = Fraction(mu_s) * Fraction(mu_s)
        one = Fraction(1)
    else:
        lam_sq = lam * lam
        mu_sq = mu_s * mu_s
        one = 1.0

    ratios = [one]
    for k in range(1, order):
        ratios.append(ratios[-1] * _ratio_step(k, lam_sq, mu_sq))

    # reciprocal of 1 + r1 x + r2 x^2 + ... (x = t^2)
    tilde = [one]
    for k in range(1, order):
        acc = ratios[1] * tilde[k - 1]
        for j in range(2, k + 1):
            acc += ratios[j] * tilde[k - j]
        tilde.append(-acc)

    a1 = 2.0 * omega0 / math.sqrt(lam * lam - 1.0)
    if not 0.0 < a1 < math.inf:
        raise ParameterError(
            f"a1 = 2*omega0/sqrt(lambda**2 - 1) is {a1!r} at omega0 = "
            f"{omega0!r}, lambda = {lam!r}; it must be positive and finite")
    try:
        a = tuple(a1 * float(r) for r in ratios)
        a_tilde = tuple(float(q) for q in tilde)
        finite = all(map(math.isfinite, a + a_tilde))
    except OverflowError:  # a Fraction past the float range
        finite = False
    if not finite:
        raise ParameterError(f"the series coefficients overflow at mu = "
                             f"{mu_s!r}, order = {order} (a1 = {a1!r})")
    return AlphaSeries(float(omega0), float(lam), float(mu_s), order,
                       a, a_tilde, tuple(ratios), tuple(tilde))


def product_form_ratios(lam, mu_s, order):
    """a_{2k+1}/a1 via the closed product over odd j in 3..2k+1.

    Independent of the ratio recursion; used to confirm the two published
    coefficient formulas agree.  Exact fractions.
    """
    lam_sq = Fraction(lam) * Fraction(lam)
    mu_sq = Fraction(mu_s) * Fraction(mu_s)
    out = [Fraction(1)]
    for k in range(1, order):
        prod = Fraction(1)
        for j in range(3, 2 * k + 2, 2):
            prod *= Fraction(2 * (k + 1) - j) / ((2 * k + 3 - j) * (j * (j - 2) + lam_sq))
        out.append(Fraction((-1) ** k) * mu_sq ** k * prod)
    return out


def _convolve(x, y):
    """Cauchy product of two coefficient lists, len(x) + len(y) - 1 entries.

    Entry k starts from 0 * x[0] and adds x[j] * y[k - j] in increasing j
    over the pairs whose factors are both nonzero.  Fraction input gives
    exact Fractions, and finite float input the dense sum's value (a zero
    may differ in sign), while the even zeros of an odd series cost nothing.
    """
    n = len(x) + len(y) - 1
    if n <= 0:
        return []
    out = [0 * x[0]] * n
    y_terms = [(i, yi) for i, yi in enumerate(y) if yi != 0]
    for j, xj in enumerate(x):
        if xj != 0:
            for i, yi in y_terms:
                out[j + i] += xj * yi
    return out


def convolution_triple(a):
    """Coefficients of alpha'^2, alpha^2 and alpha*alpha'' for alpha = sum a_k t^k.

    b = a' * a', c = a * a and d = a * a'', where a' and a'' are the
    coefficient lists of the derivatives; products use the retained
    coefficients only, so entries are exact up to the truncation degree.
    """
    da = [(i + 1) * a[i + 1] for i in range(len(a) - 1)]
    dda = [(i + 2) * (i + 1) * a[i + 2] for i in range(len(a) - 2)]
    return ConvolutionTriple(tuple(_convolve(da, da)), tuple(_convolve(a, a)),
                             tuple(_convolve(a, dda)))


def residual_coefficients(a, four_omega0_sq, mu_sq, lam_sq, n_powers):
    """Power coefficients of the alpha constraint, starting at power t^(-2).

    Entry i is the coefficient of t^(i-2) in
    2*alpha*alpha'' - alpha'^2 - 4*omega0^2 + alpha^2*(mu_s^2 + lam^2/t^2).
    Works for float or Fraction coefficient sequences alike.
    """
    tri = convolution_triple(a)
    zero = 0 * a[0]

    def at(seq, k):
        return seq[k] if 0 <= k < len(seq) else zero

    out = [lam_sq * at(tri.c, 0), lam_sq * at(tri.c, 1)]
    for k in range(0, n_powers - 2):
        r = 2 * at(tri.d, k) - at(tri.b, k) + mu_sq * at(tri.c, k) \
            + lam_sq * at(tri.c, k + 2)
        if k == 0:
            r = r - four_omega0_sq
        out.append(r)
    return out


def symbolic_residual(series, a0=0.0):
    """Residual coefficients of the truncated series, powers t^-2 .. t^(2N-1).

    All entries vanish (exactly when the series keeps rational ratios and
    a0 = 0, below 1e-12 in floating point) for a series built by
    `build_series`; forcing a0 != 0 reproduces the leading obstruction
    lam^2 * a0^2 in the first entry.
    """
    n_powers = 2 * series.order + 2  # powers -2 .. 2*order - 1
    if a0 == 0.0 and isinstance(series.ratios[0], Fraction):
        # work with a1-normalized coefficients; residual scales by a1^2 and
        # 4*omega0^2 = a1^2 (lam^2 - 1)
        lam_sq = Fraction(series.lam) * Fraction(series.lam)
        mu_sq = Fraction(series.mu_s) * Fraction(series.mu_s)
        coeffs = [Fraction(0)] * (2 * series.order)
        coeffs[1::2] = series.ratios
        res = residual_coefficients(coeffs, lam_sq - 1, mu_sq, lam_sq, n_powers)
        a1_sq = series.a1 * series.a1
        return [a1_sq * float(r) for r in res]
    coeffs = series.full_coefficients()
    coeffs[0] = float(a0)
    return residual_coefficients(coeffs, 4.0 * series.omega0 ** 2,
                                 series.mu_s ** 2, series.lam ** 2, n_powers)


def constraint_residual(series, t):
    """2 a a'' - a'^2 - 4 w0^2 + a^2 (mu_s^2 + lam^2/t^2) at times t."""
    t = np.asarray(t, dtype=float)
    al, ald, aldd, _ = series.derivatives(t)
    return (2.0 * al * aldd - ald * ald - 4.0 * series.omega0 ** 2
            + al * al * (series.mu_s ** 2 + series.lam ** 2 / (t * t)))


def alpha_numeric_check(series, t_lo, t_hi):
    """Max constraint residual of the truncated series on 201 uniform times.

    Warns (ConvergenceWarning) when t_hi exceeds the 2/mu_s guard.
    """
    if not (0.0 < t_lo < t_hi):
        raise ParameterError("need 0 < t_lo < t_hi")
    if t_hi > series.radius_guard():
        warnings.warn(
            f"t_hi={t_hi} exceeds the trusted window 2/mu_s="
            f"{series.radius_guard():g}", ConvergenceWarning, stacklevel=2)
    grid = np.linspace(t_lo, t_hi, 201)
    return float(np.max(np.abs(constraint_residual(series, grid))))


def reciprocal_identity_coefficients(series):
    """Cross-term coefficients of (alpha/(a1 t)) * sum a_tilde t^{2k} - 1.

    Exact zeros through t^(2*order-2) when the reciprocal was built
    correctly; returned in the arithmetic of the stored ratios.
    """
    out = _convolve(series.ratios, series.tilde_ratios)[:series.order]
    out[0] -= 1
    return out


def determinant_tilde(series, k):
    """a_tilde[k] via the banded-determinant form (cross-check only).

    Builds the 2k x 2k matrix M[i][j] = a_{i-j+2} in the full (even-padded)
    index convention, with every entry a1-normalized so the (-1/a1)^{2k}
    prefactor reduces to (+1); exact fractions when the series carries them.
    """
    if not 0 <= k < series.order:
        raise ParameterError("determinant form needs k < series.order")
    if k == 0:
        return series.tilde_ratios[0] * 0 + 1
    m = 2 * k
    r = series.ratios

    def coeff(i):  # a_i / a1 with even zeros
        if i < 1 or i % 2 == 0 or (i - 1) // 2 >= len(r):
            return 0 * r[0]
        return r[(i - 1) // 2]

    mat = [[coeff(i - j + 2) for j in range(1, m + 1)] for i in range(1, m + 1)]
    return _det(mat)


def _det(mat):
    """Determinant by Gaussian elimination with the first nonzero pivot.

    Exact for Fraction entries.  A row update touches only the columns
    right of the pivot where the pivot row is nonzero.  The entries it
    skips would change by a signed zero or are never read again, so finite
    float input gives the full update's determinant bit for bit.
    """
    n = len(mat)
    m = [list(row) for row in mat]
    det = mat[0][0] * 0 + 1
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return det * 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pval = m[col][col]
        det = det * pval
        pivot_terms = [(j, m[col][j]) for j in range(col + 1, n)
                       if m[col][j] != 0]
        for r in range(col + 1, n):
            row = m[r]
            if row[col] != 0:
                f = row[col] / pval
                for j, v in pivot_terms:
                    row[j] -= f * v
    return det * sign


def appendix_a3_candidates(omega0, lam, mu_s, nu):
    """Both published candidates for a3 (the recursion uses lam^2; one
    printed equation uses nu^2 instead).  The recursion value is canonical."""
    a1 = 2.0 * omega0 / math.sqrt(lam * lam - 1.0)
    return {
        "recursion": -mu_s ** 2 * a1 / (2.0 * (3.0 + lam * lam)),
        "appendix_literal": -mu_s ** 2 * a1 / (2.0 * (3.0 + nu * nu)),
    }


def theta_series(series, t0, t1):
    """Phase increment 2*integral(omega) on [t0, t1] from the reciprocal series.

    theta(t) = (2*omega0/a1) [ln t + sum_{k>=1} a_tilde[k] t^{2k} / (2k)].
    """
    if not (t0 > 0.0 and t1 > 0.0):
        raise ParameterError("phase series requires positive times")
    guard = series.radius_guard()
    if max(t0, t1) > guard:
        warnings.warn(
            f"evaluation beyond the trusted window 2/mu_s={guard:g}",
            ConvergenceWarning, stacklevel=2)

    def theta(t):
        acc = math.log(t)
        t2k = 1.0
        for k in range(1, series.order):
            t2k *= t * t
            acc += series.a_tilde[k] * t2k / (2.0 * k)
        return 2.0 * series.omega0 / series.a1 * acc

    return theta(t1) - theta(t0)


def omega_series(series, t):
    """omega(t) evaluated through the reciprocal series (not via 1/alpha)."""
    t = np.asarray(t, dtype=float)
    t2 = t * t
    acc = np.zeros_like(t)
    for k in range(series.order - 1, -1, -1):
        acc = acc * t2 + series.a_tilde[k]
    return series.omega0 / (series.a1 * t) * acc


def bessel_reduction_check(Omega0, k0, nu, t_grid):
    """Max residual of y'' + Omega0^2 (k0^2 + nu^2/t^2) y for y = sqrt(t) Z_rho(l t).

    l = Omega0*k0 and rho^2 = 1/4 - Omega0^2 nu^2 (ParameterError when
    negative).  rho = 1/2 short-circuits to the elementary solution sin(l t).
    """
    rho_sq = 0.25 - (Omega0 * nu) ** 2
    if rho_sq < 0.0:
        raise ParameterError("imaginary Bessel order (rho^2 < 0) is out of scope")
    ell = Omega0 * k0
    if ell <= 0.0:
        raise ParameterError("need Omega0 * k0 > 0")
    t = np.asarray(t_grid, dtype=float)
    if np.any(t <= 0.0):
        raise ParameterError("grid must be positive")
    omega2 = Omega0 ** 2 * (k0 ** 2 + nu ** 2 / (t * t))
    rho = math.sqrt(rho_sq)
    if abs(rho - 0.5) < 1e-13:
        y = np.sin(ell * t)
        ydd = -ell * ell * y
    else:
        j, dj, d2j = bessel.jv(rho, ell * t)
        rt = np.sqrt(t)
        y = rt * j
        ydd = -0.25 * j / (t * rt) + ell * dj / rt + ell * ell * rt * d2j
    return float(np.max(np.abs(ydd + omega2 * y)))


def power_law_check(Omega0, nu, t_grid):
    """Max residual of q'' + q'/t + (Omega0^2 nu^2 - 1/4) q / t^2 for q = t^(+-beta).

    beta = sqrt(1/4 - Omega0^2 nu^2); covers the mu_s = 0 elementary case.
    """
    beta_sq = 0.25 - (Omega0 * nu) ** 2
    if beta_sq < 0.0:
        raise ParameterError("power-law exponents require Omega0^2 nu^2 <= 1/4")
    beta = math.sqrt(beta_sq)
    t = np.asarray(t_grid, dtype=float)
    worst = 0.0
    for b in (beta, -beta):
        q = t ** b
        dq = b * t ** (b - 1.0)
        d2q = b * (b - 1.0) * t ** (b - 2.0)
        res = d2q + dq / t + ((Omega0 * nu) ** 2 - 0.25) * q / (t * t)
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def linearization_gap(Omega0, k0, nu, omega0, sigma0, sigma_dot0, t0, t1):
    """Error committed by dropping the omega0^2/(4 sigma^3) restoring term.

    Integrates the full amplitude equation
        sigma'' + Omega0^2 (k0^2 + nu^2/t^2) sigma = omega0^2 / (4 sigma^3)
    and its linearization side by side from the same initial data and
    returns the largest |sigma_full - sigma_linear| on 101 uniform times.  The
    caller judges in which regime the linearization is acceptable.
    """
    from . import dopri

    if min(t0, t1) <= 0.0 or not t1 > t0:
        raise ParameterError("need 0 < t0 < t1")
    if sigma0 == 0.0:
        raise ParameterError("need sigma0 != 0: the full equation is "
                             "singular at sigma = 0")

    def w2(t):
        return Omega0 ** 2 * (k0 ** 2 + nu ** 2 / (t * t))

    K = 0.25 * omega0 ** 2

    def rhs_full(t, y):
        return (y[1], -w2(t) * y[0] + K / y[0] ** 3)

    def rhs_lin(t, y):
        return (y[1], -w2(t) * y[0])

    grid = np.linspace(t0, t1, 101)
    y0 = np.array([sigma0, sigma_dot0])
    _, yf = dopri.solve(rhs_full, t0, t1, y0, t_eval=grid,
                        rtol=1e-10, atol=1e-12)
    _, yl = dopri.solve(rhs_lin, t0, t1, y0, t_eval=grid,
                        rtol=1e-10, atol=1e-12)
    return float(np.max(np.abs(yf[:, 0] - yl[:, 0])))


def large_k0_approx(Omega0, k0, omega0, c1, c2, t):
    """Oscillatory scale-function approximation valid when k0^2 >> nu^2/t^2.

    alpha = c1 + sqrt(c1^2 - omega0^2/(Omega0 k0)^2) * sin(2 Omega0 k0 (t+c2))
    and the matching trajectory q = sin(phase(t)), phase being the
    continuous arctan form of integral(omega0/alpha dt).  Raises
    ParameterError on a negative radicand and when alpha fails to stay
    positive on the requested times.
    """
    ell = Omega0 * k0
    if ell <= 0.0:
        raise ParameterError("need Omega0 * k0 > 0")
    rad = c1 * c1 - (omega0 / ell) ** 2
    if rad < 0.0:
        raise ParameterError("require c1^2 >= omega0^2 / (Omega0 k0)^2")
    amp = math.sqrt(rad)
    t = np.asarray(t, dtype=float)
    alpha = c1 + amp * np.sin(2.0 * ell * (t + c2))
    if np.any(alpha <= 0.0):
        raise ParameterError("alpha not positive on the requested range")
    # integral of omega0/alpha is arctan[(c1 tan(l(t+c2)) + amp) l/w0],
    # continued across the tan poles (c1 > 0 whenever alpha > 0)
    psi = ell * (t + c2)
    n = np.floor((psi + 0.5 * math.pi) / math.pi)
    wrapped = psi - n * math.pi
    phase = np.arctan((c1 * np.tan(wrapped) + amp) * ell / omega0) + n * math.pi
    return alpha, np.sin(phase)
