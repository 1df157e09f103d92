"""Hairer's DOP853: an explicit Runge-Kutta pair of order 8 with step-size
control and a continuous extension of order 7.

The 12-stage 8th-order solution of Prince & Dormand (J. Comput. Appl.
Math. 7, 67, 1981) is propagated.  Its local error is estimated as in
Hairer's dop853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5): the
differences to an embedded 5th-order solution (err5) and to a 3rd-order one
(err3), both weighted per component, blend into
err = h |err5|^2 / sqrt(n (|err5|^2 + 0.01 |err3|^2)).  The controller is
Hairer's default: the step grows by 0.9 err^(-1/8), within [0.333, 6], and
does not grow right after a rejection.  Quadrature components (phases,
accumulated functionals) ride along as extra state entries and therefore
share the same error control as the dynamical variables.

Output times do not shorten steps; only t1 is landed on exactly, so the
accepted steps do not depend on t_eval.  An output time inside an accepted
step is read from the degree-7 continuous extension of Hairer's contd8
(Solving ODEs I, II.6), which costs three more stages, at 0.1, 0.2 and 7/9
of the step.  Its coefficients are y_new - y and h*f terms only and y is
added last, so a slowly moving component (a phase that has stalled) keeps
its increments' sign instead of drowning in the rounding of y.  The output
times inside one step are read row by row on floats or, from ARRAY_ROWS
of them on, in one numpy pass over a (rows x n) array, in the same
operation order and so to the same bits.  An output time equal to a step
end takes the step's solution itself.  Every row is written straight into
the one (len(t_eval), n) float64 array that `solve` returns, allocated
before the first step: a float row as it is read, an array pass by slice.

The step loop runs on Python floats: the state and the stages are lists,
and each stage combination is written out term by term.  On the short
states this package integrates (four or six components) numpy's per-call
cost would outweigh the arithmetic, so the right-hand side receives the
state as a list of Python floats too, and a tuple of the right length it
returns is used as it is.  The right-hand side is evaluated twice before
the first step (the slope and the initial-step probe), then 12 times per
attempt (11 stages and the slope at the new state, which is the next
step's first stage), plus 3 times per accepted step that holds an output
time inside it.  Every step attempt counts against a budget of MAX_STEPS
plus one per output time; past it the run stops with BudgetExceeded.
"""

import math
from bisect import bisect_left, bisect_right

import numpy as np

from .errors import BudgetExceeded, ParameterError, StepSizeUnderflow

MAX_STEPS = 10 ** 6  # step attempts allowed beyond one per output time
# rows inside one step from which one numpy pass beats a float loop: the
# pass costs ~30 us, a row of six components ~2 us
ARRAY_ROWS = 16

# Butcher tableau of the 8th-order solution, Cn for the nodes and An_j for
# stage n's weight on stage j (Hairer's dop853); c1 = 0, c12 = 1, and the
# slope at the new state is the next step's first stage
C2, C3, C4, C5, C6, C7, C8, C9, C10, C11 = (
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142)
A2_1 = 5.26001519587677318785587544488e-2
A3_1, A3_2 = (
    1.97250569845378994544595329183e-2,
    5.91751709536136983633785987549e-2)
A4_1, A4_3 = (
    2.95875854768068491816892993775e-2,
    8.87627564304205475450678981324e-2)
A5_1, A5_3, A5_4 = (
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1)
A6_1, A6_4, A6_5 = (
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1)
A7_1, A7_4, A7_5, A7_6 = (
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2)
A8_1, A8_4, A8_5, A8_6, A8_7 = (
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A9_1, A9_4, A9_5, A9_6, A9_7, A9_8 = (
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1)
A10_1, A10_4, A10_5, A10_6, A10_7, A10_8, A10_9 = (
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A11_1, A11_4, A11_5, A11_6, A11_7, A11_8, A11_9, A11_10 = (
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022)
A12_1, A12_4, A12_5, A12_6, A12_7, A12_8, A12_9, A12_10, A12_11 = (
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
# 8th-order weights (b2 ... b5 = 0)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2)
# the 8th-order weights less the 5th-order ones
E5_1, E5_6, E5_7, E5_8, E5_9, E5_10, E5_11, E5_12 = (
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1)
# the 3rd-order weights are the 8th-order ones less these
BHH1, BHH9, BHH12 = (
    0.244094488188976377952755905512,
    0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1)
E3_1, E3_6, E3_7, E3_8 = B1 - BHH1, B6, B7, B8
E3_9, E3_10, E3_11, E3_12 = B9 - BHH9, B10, B11, B12 - BHH12

# the three extra stages of the continuous extension; stage 13 is the
# slope at the new state
C14, C15, C16 = (
    0.1,
    0.2,
    0.777777777777777777777777777778)
A14_1, A14_7, A14_8, A14_9, A14_10, A14_11, A14_12, A14_13 = (
    5.61675022830479523392909219681e-2,
    2.53500210216624811088794765333e-1,
    -2.46239037470802489917441475441e-1,
    -1.24191423263816360469010140626e-1,
    1.5329179827876569731206322685e-1,
    8.20105229563468988491666602057e-3,
    7.56789766054569976138603589584e-3,
    -8.298e-3)
A15_1, A15_6, A15_7, A15_8, A15_11, A15_12, A15_13, A15_14 = (
    3.18346481635021405060768473261e-2,
    2.83009096723667755288322961402e-2,
    5.35419883074385676223797384372e-2,
    -5.49237485713909884646569340306e-2,
    -1.08347328697249322858509316994e-4,
    3.82571090835658412954920192323e-4,
    -3.40465008687404560802977114492e-4,
    1.41312443674632500278074618366e-1)
A16_1, A16_6, A16_7, A16_8, A16_9, A16_13, A16_14, A16_15 = (
    -4.28896301583791923408573538692e-1,
    -4.69762141536116384314449447206,
    7.68342119606259904184240953878,
    4.06898981839711007970213554331,
    3.56727187455281109270669543021e-1,
    -1.39902416515901462129418009734e-3,
    2.9475147891527723389556272149,
    -9.15095847217987001081870187138)
# contd8: the terms r3 ... r6 of _contd8 are h * sum_j Dn_j k_j, n = 4 ... 7
(D4_1, D4_6, D4_7, D4_8, D4_9, D4_10, D4_11, D4_12, D4_13, D4_14, D4_15,
 D4_16) = (
    -0.84289382761090128651353491142e+1,
    0.56671495351937776962531783590,
    -0.30689499459498916912797304727e+1,
    0.23846676565120698287728149680e+1,
    0.21170345824450282767155149946e+1,
    -0.87139158377797299206789907490,
    0.22404374302607882758541771650e+1,
    0.63157877876946881815570249290,
    -0.88990336451333310820698117400e-1,
    0.18148505520854727256656404962e+2,
    -0.91946323924783554000451984436e+1,
    -0.44360363875948939664310572000e+1)
(D5_1, D5_6, D5_7, D5_8, D5_9, D5_10, D5_11, D5_12, D5_13, D5_14, D5_15,
 D5_16) = (
    0.10427508642579134603413151009e+2,
    0.24228349177525818288430175319e+3,
    0.16520045171727028198505394887e+3,
    -0.37454675472269020279518312152e+3,
    -0.22113666853125306036270938578e+2,
    0.77334326684722638389603898808e+1,
    -0.30674084731089398182061213626e+2,
    -0.93321305264302278729567221706e+1,
    0.15697238121770843886131091075e+2,
    -0.31139403219565177677282850411e+2,
    -0.93529243588444783865713862664e+1,
    0.35816841486394083752465898540e+2)
(D6_1, D6_6, D6_7, D6_8, D6_9, D6_10, D6_11, D6_12, D6_13, D6_14, D6_15,
 D6_16) = (
    0.19985053242002433820987653617e+2,
    -0.38703730874935176555105901742e+3,
    -0.18917813819516756882830838328e+3,
    0.52780815920542364900561016686e+3,
    -0.11573902539959630126141871134e+2,
    0.68812326946963000169666922661e+1,
    -0.10006050966910838403183860980e+1,
    0.77771377980534432092869265740,
    -0.27782057523535084065932004339e+1,
    -0.60196695231264120758267380846e+2,
    0.84320405506677161018159903784e+2,
    0.11992291136182789328035130030e+2)
(D7_1, D7_6, D7_7, D7_8, D7_9, D7_10, D7_11, D7_12, D7_13, D7_14, D7_15,
 D7_16) = (
    -0.25693933462703749003312586129e+2,
    -0.15418974869023643374053993627e+3,
    -0.23152937917604549567536039109e+3,
    0.35763911791061412378285349910e+3,
    0.93405324183624310003907691704e+2,
    -0.37458323136451633156875139351e+2,
    0.10409964950896230045147246184e+3,
    0.29840293426660503123344363579e+2,
    -0.43533456590011143754432175058e+2,
    0.96324553959188282948394950600e+2,
    -0.39177261675615439165231486172e+2,
    -0.14972683625798562581422125276e+3)

# step-size controller (Hairer's dop853 defaults: no PI term, beta = 0)
_SAFETY = 0.9
_EXPO = 1 / 8
_FAC_MIN = 0.333
_FAC_MAX = 6.0


def _error_norm(e, scale):
    return float(np.sqrt(np.mean((e / scale) ** 2)))


def _initial_step(f, t0, y0, f0, t1, rtol, atol):
    """Cheap two-evaluation guess for the first step size."""
    f0 = np.array(f0, dtype=float)
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if not 0.0 < h0 < math.inf:
        raise StepSizeUnderflow(
            f"no usable first step in dopri.solve at t={t0!r}: the slope "
            f"gives h={h0!r}")
    y1 = y0 + h0 * f0
    f1 = np.array(_floats(f(t0 + h0, y1.tolist()), len(y0)), dtype=float)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _EXPO
    return min(100 * h0, h1, t1 - t0)


def _floats(v, n):
    """A right-hand-side value as a sequence of n floats.

    A tuple of length n is taken as it is; anything else is converted.
    """
    if type(v) is tuple and len(v) == n:
        return v
    v = np.asarray(v, dtype=float)
    if v.size != n:
        raise ParameterError(
            f"the right-hand side returned {v.size} values for a state of "
            f"{n}")
    return v.reshape(n).tolist()


def _table(ts, ys, i, y):
    """(ts, ys) once the rows from i on, whose output times lie at most
    1e-12 past t1, hold the final state y."""
    ys[i:] = y
    return ts, ys


def _dense(coef, s):
    """One contd8 row y(t + s h) from a step's coefficients (y, r0..r6),
    on floats or, the same operations, elementwise on arrays."""
    v, r0, r1, r2, r3, r4, r5, r6 = coef
    s1 = 1.0 - s
    return v + s * (r0 + s1 * (r1 + s * (r2 + s1 * (
        r3 + s * (r4 + s1 * (r5 + s * r6))))))


def _contd8(f, t, h, y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13):
    """Per component, (y, r0, ..., r6) of the continuous extension over the
    accepted step [t, t + h]:

        p(s) = y + s (r0 + (1-s) (r1 + s (r2 + (1-s) (r3
                 + s (r4 + (1-s) (r5 + s r6))))))

    p matches y_new at s = 1 and the slopes h*k1 at s = 0 and h*k13 at
    s = 1; r3 ... r6 take three more stages.
    """
    n = len(y)
    k14 = _floats(f(t + C14 * h, [
        v + h * (A14_1 * q1 + A14_7 * q7 + A14_8 * q8 + A14_9 * q9
                 + A14_10 * q10 + A14_11 * q11 + A14_12 * q12 + A14_13 * q13)
        for v, q1, q7, q8, q9, q10, q11, q12, q13
        in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)]), n)
    k15 = _floats(f(t + C15 * h, [
        v + h * (A15_1 * q1 + A15_6 * q6 + A15_7 * q7 + A15_8 * q8
                 + A15_11 * q11 + A15_12 * q12 + A15_13 * q13 + A15_14 * q14)
        for v, q1, q6, q7, q8, q11, q12, q13, q14
        in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)]), n)
    k16 = _floats(f(t + C16 * h, [
        v + h * (A16_1 * q1 + A16_6 * q6 + A16_7 * q7 + A16_8 * q8
                 + A16_9 * q9 + A16_13 * q13 + A16_14 * q14 + A16_15 * q15)
        for v, q1, q6, q7, q8, q9, q13, q14, q15
        in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)]), n)
    coef = []
    for (v, vn, q1, q6, q7, q8, q9, q10, q11, q12, q13, q14, q15,
         q16) in zip(y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14,
                     k15, k16):
        dy = vn - v
        coef.append((
            v, dy, h * q1 - dy, 2 * dy - h * (q13 + q1),
            h * (D4_1 * q1 + D4_6 * q6 + D4_7 * q7 + D4_8 * q8 + D4_9 * q9
                 + D4_10 * q10 + D4_11 * q11 + D4_12 * q12 + D4_13 * q13
                 + D4_14 * q14 + D4_15 * q15 + D4_16 * q16),
            h * (D5_1 * q1 + D5_6 * q6 + D5_7 * q7 + D5_8 * q8 + D5_9 * q9
                 + D5_10 * q10 + D5_11 * q11 + D5_12 * q12 + D5_13 * q13
                 + D5_14 * q14 + D5_15 * q15 + D5_16 * q16),
            h * (D6_1 * q1 + D6_6 * q6 + D6_7 * q7 + D6_8 * q8 + D6_9 * q9
                 + D6_10 * q10 + D6_11 * q11 + D6_12 * q12 + D6_13 * q13
                 + D6_14 * q14 + D6_15 * q15 + D6_16 * q16),
            h * (D7_1 * q1 + D7_6 * q6 + D7_7 * q7 + D7_8 * q8 + D7_9 * q9
                 + D7_10 * q10 + D7_11 * q11 + D7_12 * q12 + D7_13 * q13
                 + D7_14 * q14 + D7_15 * q15 + D7_16 * q16)))
    return coef


def output_times(t0, t1, t_eval):
    """`solve`'s output times as a float array: t_eval, or (t0, t1) when it
    is None.  Raises ParameterError for t1 < t0 and for a t_eval that
    decreases or leaves [t0, t1] by more than 1e-12."""
    if not t1 >= t0:
        raise ParameterError("t1 must be >= t0")
    if t_eval is None:
        return np.array([t0, t1], dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    # written so that a nan fails it too
    if not np.all((t0 - 1e-12 <= t_eval) & (t_eval <= t1 + 1e-12)):
        raise ParameterError("t_eval outside [t0, t1]")
    if np.any(np.diff(t_eval) < 0):
        raise ParameterError("t_eval must be nondecreasing")
    return t_eval


def solve(f, t0, t1, y0, rtol=1e-10, atol=1e-12, t_eval=None,
          step_callback=None):
    """Integrate y' = f(t, y) forward from t0 to t1 with DOP853.

    Parameters
    ----------
    f : callable(t, y) -> len(y0) values, as a tuple of floats or anything
        numpy reads as an array of that size; y is a list of len(y0) Python
        floats, which f must not modify.  It is called 2 times, then 12
        times per step attempt and 3 more times per accepted step that
        holds an output time strictly inside it.
    t_eval : nondecreasing times in [t0, t1] at which to record the
        solution; defaults to (t0, t1).  They do not move the steps: a time
        inside a step is read from the degree-7 continuous extension.
        Times up to 1e-12 outside [t0, t1] take the state at the nearer end.
    step_callback : callable(t, y), invoked after every accepted step with
        the state as the same kind of list; may raise to abort the run.

    Returns
    -------
    (ts, ys) : the output times, a copy, and the states, one row per time:
        C-contiguous float64 arrays of shapes (len(t_eval),) and
        (len(t_eval), len(y0))

    Raises ParameterError for t1 < t0, a y0 that is not 1-D, a t_eval
    outside [t0, t1] or decreasing or an f value of the wrong size,
    StepSizeUnderflow when the step falls below the resolution of the time
    axis and BudgetExceeded after len(t_eval) + MAX_STEPS step attempts.
    The step sizes come from the controller alone, uncapped; a step that
    would leave t1 a residual below that resolution is stretched onto t1.
    """
    t0 = float(t0)
    t1 = float(t1)
    t_eval = output_times(t0, t1, t_eval)
    y_arr = np.array(y0, dtype=float)
    if y_arr.ndim != 1:
        raise ParameterError("y0 must be one-dimensional")
    t_out = t_eval.tolist()
    n_out = len(t_out)
    y = y_arr.tolist()
    n = len(y)
    ts = t_eval.copy()
    ys = np.empty((n_out, n))

    t = t0
    i_next = bisect_right(t_out, t)
    ys[:i_next] = y
    if t1 == t0:
        return _table(ts, ys, i_next, y)

    k1 = _floats(f(t, y), n)
    h = _initial_step(f, t, y_arr, k1, t1, rtol, atol)
    rejected = False
    budget = n_out + MAX_STEPS
    attempts = 0

    while t < t1:
        h_try = min(h, t1 - t)
        floor = 1e-14 * max(1.0, abs(t))
        if t1 - t - h_try < floor:
            # a step that would leave t1 a residual below the floor, which
            # the next step could not take, is stretched to land on t1
            h_try = t1 - t
        if h_try < floor:
            raise StepSizeUnderflow(
                f"step size underflow in dopri.solve at t={t!r}, h={h_try!r}")
        attempts += 1
        if attempts > budget:
            raise BudgetExceeded(
                f"step budget exhausted in dopri.solve at t={t!r}, "
                f"h={h_try!r}: {attempts - 1} step attempts")

        k2 = _floats(f(t + C2 * h_try, [
            v + h_try * (A2_1 * q1) for v, q1 in zip(y, k1)]), n)
        k3 = _floats(f(t + C3 * h_try, [
            v + h_try * (A3_1 * q1 + A3_2 * q2)
            for v, q1, q2 in zip(y, k1, k2)]), n)
        k4 = _floats(f(t + C4 * h_try, [
            v + h_try * (A4_1 * q1 + A4_3 * q3)
            for v, q1, q3 in zip(y, k1, k3)]), n)
        k5 = _floats(f(t + C5 * h_try, [
            v + h_try * (A5_1 * q1 + A5_3 * q3 + A5_4 * q4)
            for v, q1, q3, q4 in zip(y, k1, k3, k4)]), n)
        k6 = _floats(f(t + C6 * h_try, [
            v + h_try * (A6_1 * q1 + A6_4 * q4 + A6_5 * q5)
            for v, q1, q4, q5 in zip(y, k1, k4, k5)]), n)
        k7 = _floats(f(t + C7 * h_try, [
            v + h_try * (A7_1 * q1 + A7_4 * q4 + A7_5 * q5 + A7_6 * q6)
            for v, q1, q4, q5, q6 in zip(y, k1, k4, k5, k6)]), n)
        k8 = _floats(f(t + C8 * h_try, [
            v + h_try * (A8_1 * q1 + A8_4 * q4 + A8_5 * q5 + A8_6 * q6
                         + A8_7 * q7)
            for v, q1, q4, q5, q6, q7 in zip(y, k1, k4, k5, k6, k7)]), n)
        k9 = _floats(f(t + C9 * h_try, [
            v + h_try * (A9_1 * q1 + A9_4 * q4 + A9_5 * q5 + A9_6 * q6
                         + A9_7 * q7 + A9_8 * q8)
            for v, q1, q4, q5, q6, q7, q8
            in zip(y, k1, k4, k5, k6, k7, k8)]), n)
        k10 = _floats(f(t + C10 * h_try, [
            v + h_try * (A10_1 * q1 + A10_4 * q4 + A10_5 * q5 + A10_6 * q6
                         + A10_7 * q7 + A10_8 * q8 + A10_9 * q9)
            for v, q1, q4, q5, q6, q7, q8, q9
            in zip(y, k1, k4, k5, k6, k7, k8, k9)]), n)
        k11 = _floats(f(t + C11 * h_try, [
            v + h_try * (A11_1 * q1 + A11_4 * q4 + A11_5 * q5 + A11_6 * q6
                         + A11_7 * q7 + A11_8 * q8 + A11_9 * q9
                         + A11_10 * q10)
            for v, q1, q4, q5, q6, q7, q8, q9, q10
            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)]), n)
        k12 = _floats(f(t + h_try, [
            v + h_try * (A12_1 * q1 + A12_4 * q4 + A12_5 * q5 + A12_6 * q6
                         + A12_7 * q7 + A12_8 * q8 + A12_9 * q9
                         + A12_10 * q10 + A12_11 * q11)
            for v, q1, q4, q5, q6, q7, q8, q9, q10, q11
            in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)]), n)
        y_new = []
        sq5 = sq3 = 0.0
        for v, q1, q6, q7, q8, q9, q10, q11, q12 in zip(
                y, k1, k6, k7, k8, k9, k10, k11, k12):
            vn = v + h_try * (B1 * q1 + B6 * q6 + B7 * q7 + B8 * q8 + B9 * q9
                              + B10 * q10 + B11 * q11 + B12 * q12)
            y_new.append(vn)
            scale = atol + rtol * max(abs(vn), abs(v))
            r = (E5_1 * q1 + E5_6 * q6 + E5_7 * q7 + E5_8 * q8 + E5_9 * q9
                 + E5_10 * q10 + E5_11 * q11 + E5_12 * q12) / scale
            sq5 += r * r
            r = (E3_1 * q1 + E3_6 * q6 + E3_7 * q7 + E3_8 * q8 + E3_9 * q9
                 + E3_10 * q10 + E3_11 * q11 + E3_12 * q12) / scale
            sq3 += r * r
        # the slope at the new state: the next step's first stage
        k13 = _floats(f(t + h_try, y_new), n)
        den = (sq5 + 0.01 * sq3) * n
        if not den < math.inf:
            # an overflow or a nan in the stages: retry a shorter step
            h = _FAC_MIN * h_try
            rejected = True
            continue
        # float(): a right-hand side past its float range may return numpy
        # scalars, which must not leak into t and h
        err = float(h_try * sq5 / math.sqrt(den)) if den else 0.0

        if err <= 1.0:
            # land exactly on t1 to avoid a one-ulp residual step
            t_new = t1 if h_try == t1 - t else t + h_try
            i_in = bisect_left(t_out, t_new, i_next)
            if i_in > i_next:
                coef = _contd8(f, t, h_try, y, y_new, k1, k6, k7, k8, k9,
                               k10, k11, k12, k13)
                if i_in - i_next < ARRAY_ROWS:
                    for i in range(i_next, i_in):
                        s = (t_out[i] - t) / h_try
                        ys[i] = [_dense(c, s) for c in coef]
                else:
                    s = (t_eval[i_next:i_in] - t) / h_try
                    ys[i_next:i_in] = _dense(np.array(coef).T, s[:, None])
            t, y, k1 = t_new, y_new, k13
            i_next = bisect_right(t_out, t, i_in)
            if i_next > i_in:
                ys[i_in:i_next] = y
            if step_callback is not None:
                step_callback(t, y)
            if err == 0.0:
                factor = _FAC_MAX
            else:
                factor = min(_FAC_MAX, max(_FAC_MIN,
                                           _SAFETY * err ** -_EXPO))
            if rejected:
                factor = min(factor, 1.0)
                rejected = False
            h = h_try * factor
        else:
            h = h_try * max(_FAC_MIN, _SAFETY * err ** -_EXPO)
            rejected = True

    return _table(ts, ys, i_next, y)
