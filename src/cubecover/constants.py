"""Bound-constant engine.

Evaluates the envelope function g, its per-dimension weighted form h_d,
the integer minimizer L_d with the resulting quality ratio m_d = 2^d h_d(L_d),
the optimal scale ratio for a given class count, the competing classical
lower bounds, and asymptotic self-checks.  Everything runs at configurable
precision (default 50 significant digits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import InputError, VerificationError

DEFAULT_DPS = 50
RESIDUAL_BOUND = 5.0

_dps = DEFAULT_DPS


def set_precision(dps: int) -> None:
    """Set the working precision in significant digits (at least 15).

    The precision is all the state this module holds; there is no memo to clear.
    """
    global _dps
    if dps < 15:
        raise InputError("working precision below double precision is not supported")
    _dps = dps


def _to_mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def g_eval(x) -> mpmath.mpf:
    """g(x) = (2x)^(1/(x+1)) * (1 + 1/x), strictly decreasing on [1, oo)."""
    with mpmath.workdps(_dps):
        t = _to_mpf(x)
        if t <= 0:
            raise InputError("g is defined for x > 0")
        return (2 * t) ** (1 / (t + 1)) * (1 + 1 / t)


def h_eval(d: int, x) -> mpmath.mpf:
    """h_d(x) = (x + 2) * g(x)^d."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    with mpmath.workdps(_dps):
        t = _to_mpf(x)
        if t <= 0:
            raise InputError("h is defined for x > 0")
        return (t + 2) * g_eval(t) ** d


def log_deriv_h(d: int, x) -> mpmath.mpf:
    """Logarithmic derivative of h_d: 1/(x+2) - d * log(2x) / (x+1)^2."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    with mpmath.workdps(_dps):
        t = _to_mpf(x)
        if t <= 0:
            raise InputError("the derivative is defined for x > 0")
        return 1 / (t + 2) - d * mpmath.log(2 * t) / (t + 1) ** 2


def scan_bound(d: int) -> int:
    """Largest integer x the minimizer scan must cover: floor(4d log(4d) + 1)."""
    return math.floor(4 * d * math.log(4 * d) + 1)


def optimize_L(d: int) -> tuple[int, mpmath.mpf, mpmath.mpf]:
    """Integer minimization of h_d over [1, scan_bound(d)].

    Returns (L_d, h_d(L_d), m_d) where L_d is the minimal argmin and
    m_d = 2^d h_d(L_d).  The logarithmic derivative of h_d is positive beyond
    the scan bound, so the scan cannot miss the minimum.

    The scan minimizes v(x) = log h_d(x) = log(x+2) + d (log(2x)/(x+1) + log(1+1/x))
    in two passes.  A float64 pass keeps each x within 1e-9 (v_min + 1) of the
    float minimum v_min; only those are evaluated again at working precision,
    and the lowest x of least value wins, exactly as in a full working-precision
    scan.  This cannot change the result: for x >= 1 every term of v is
    positive, so the float value of v(x) is within about 6 * 2^-53 * v(x) of
    the truth, and at 15 or more digits (set_precision enforces this) the
    working-precision value is as close or closer.  Let x* be the minimal
    argmin of the working-precision values and y the float argmin.  Chaining
    the two relative errors through v(x*) <= v(y) puts the float value of
    v(x*) within about 24 * 2^-53 * v_min of v_min, over 10^5 times inside the
    margin, so x* always survives, and a full working-precision scan could
    never have chosen an x the float pass drops.

    The float pass runs only near the minimum, by this lemma: v is unimodal on
    [1, oo).  Its derivative v'(x) = 1/(x+2) - d log(2x)/(x+1)^2 has the sign of
    q(x) - d, where q(x) = (x+1)^2 / ((x+2) log 2x).  On [1, 2], q < 2 (and
    q > 1.6); on [2, oo), q is strictly increasing, since (log q)' =
    (x+3)/((x+1)(x+2)) - 1/(x log 2x) is positive exactly when
    log 2x > 1 + 2/(x^2+3x), which holds at x = 2 and so beyond, the left side
    rising and the right side falling.  Hence for d >= 2, v strictly decreases
    and then strictly increases, and for d = 1 (q > 1.6 > d) it strictly
    increases.  On the integers, v strictly falls to its least value, taken at
    one x or at two neighbours, and then strictly rises.

    A bisection finds the first x with float v(x+1) >= v(x), and a walk goes
    left and right from there until float v exceeds the cutoff of the running
    minimum.  Toward the minimum, exact v falls, so the float values stay
    within 12 * 2^-53 * v of the running minimum and the walk cannot stop;
    past it, exact v only grows, so every x beyond a stop has a float value
    above the cutoff up to 12 * 2^-53 * v, far too high to win.  The walk thus
    visits x*, y and every contender, from any starting point: the bisection
    only makes it short, 2 to 22 points for d = 1..1000, 2000 and 5000.
    """
    if d < 1:
        raise InputError("dimension must be >= 1")

    def v(x: int) -> float:
        return math.log(x + 2) + d * (math.log(2 * x) / (x + 1) + math.log1p(1 / x))

    top = scan_bound(d)
    lo, hi = 1, top
    while lo < hi:
        mid = (lo + hi) // 2
        if v(mid + 1) >= v(mid):
            hi = mid
        else:
            lo = mid + 1
    approx = {lo: v(lo)}
    v_min = approx[lo]
    for step in (-1, 1):
        x = lo + step
        while 1 <= x <= top:
            approx[x] = v(x)
            v_min = min(v_min, approx[x])
            if approx[x] > v_min + 1e-9 * (v_min + 1):
                break
            x += step
    cutoff = v_min + 1e-9 * (v_min + 1)
    with mpmath.workdps(_dps):
        logs = {}
        for L in sorted(approx):
            if approx[L] <= cutoff:
                t = mpmath.mpf(L)
                logs[L] = mpmath.log(t + 2) + d * (mpmath.log(2 * t) / (t + 1) + mpmath.log(1 + 1 / t))
        best_L = min(logs, key=logs.__getitem__)  # first minimum: ties go to the lowest L
        h_min = mpmath.e ** logs[best_L]
        m = mpmath.mpf(2) ** d * h_min
    return best_L, h_min, m


def optimal_lambda(J: int) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Closed-form minimizer of lambda * (1 + 2 lambda^(1-J)) over lambda >= 1.

    J = 2 gives (1, 3); J >= 3 gives lambda* = (2(J-2))^(1/(J-1)) with minimum
    value lambda* (J-1)/(J-2).
    """
    if J < 2:
        raise InputError("class count J must be >= 2")
    with mpmath.workdps(_dps):
        if J == 2:
            return mpmath.mpf(1), mpmath.mpf(3)
        lam = (2 * (J - 2)) ** (1 / mpmath.mpf(J - 1))
        return lam, lam * (J - 1) / (J - 2)


def bdj_lambda(d: int) -> mpmath.mpf:
    """Solve 3^d - (lambda^(1/d) - 2)^d / 2 = lambda on [(5/2)^d, 3^d].

    The root is bracketed in t = lambda^(1/d) on [5/2, 3], where the defining
    function f(t) = 3^d - (t - 2)^d / 2 - t^d needs only integer powers; the
    sign change at the bracket endpoints and strict decrease at nine probes
    along the bracket are checked numerically.  The relative width of
    lambda = t^d is about d times that of t, so t is driven to tol/d, where
    tol is far below 1e-12 (ten digits short of working precision): the gap
    3^d - lambda_d approaches 1/2 from below with margin ~3^-d, so certifying
    it for d up to 30 needs absolute accuracy well beyond 1e-12 relative.

    f' = -d ((t-2)^(d-1)/2 + t^(d-1)) < 0 and f'' <= 0, so f is decreasing and
    concave on [5/2, 3], and for a bracket lo < root < hi its slope on
    [root, hi] lies between f'(hi) and f'(lo).  Hence
    hi - f(hi)/f'(lo) <= root <= hi - f(hi)/f'(hi): the upper end is Newton's
    step from hi.  Each step evaluates f at both points, each moved outward by
    a relative nudge of 2^-16 tol, and moves an end only where the sign of f
    certifies it, so rounding never breaks the bracket.  A step that does not
    at least halve the bracket is followed by one bisection step, so the
    search ends even where a certificate fails (no step needed it for
    d <= 107, 300 or 1000).  After the probes, d = 1..106 take 1 to 10
    evaluations of f; from d = 100 on, the root lies within about 3^-d / d
    of 3 and one evaluation ends the search.

    3^d and t^d cancel in f: at working precision f(3) = -1/2 is lost to
    rounding from d = 107 on.  The arithmetic therefore carries
    ceil(d log10 3) + 10 guard digits, so f is exact to far below 1/2
    absolutely, and the result is rounded to working precision.
    """
    if d < 1:
        raise InputError("dimension must be >= 1")
    with mpmath.workdps(_dps + math.ceil(d * math.log10(3)) + 10):
        three_d = mpmath.mpf(3) ** d

        def f_df(t):
            # (f(t), f'(t)) from the two powers (t-2)^(d-1) and t^(d-1)
            u, w = (t - 2) ** (d - 1), t ** (d - 1)
            return three_d - u * (t - 2) / 2 - w * t, -d * (u / 2 + w)

        lo = mpmath.mpf(5) / 2
        hi = mpmath.mpf(3)
        # nine probes at exactly representable points, the first lo, the last hi
        probes = [f_df(lo + (hi - lo) * k / 8) for k in range(9)]
        (flo, dlo), (fhi, dhi) = probes[0], probes[-1]
        if not (flo > 0 > fhi):
            raise VerificationError(f"no sign change on the bracket at d={d}")
        if any(p2[0] >= p1[0] for p1, p2 in zip(probes, probes[1:])):
            raise VerificationError(f"defining function is not decreasing on the bracket at d={d}")
        tol = min(mpmath.mpf("1e-12"), mpmath.mpf(10) ** (10 - _dps)) / d
        nudge = mpmath.ldexp(tol, -16)
        while (hi - lo) / lo > tol:
            width = hi - lo
            a = (hi - fhi / dlo) * (1 - nudge)
            b = (hi - fhi / dhi) * (1 + nudge)
            if lo < a < hi:
                fa, da = f_df(a)
                if fa > 0:
                    lo, dlo = a, da
            if lo < b < hi:
                fb, db = f_df(b)
                if fb < 0:
                    hi, fhi, dhi = b, fb, db
            if hi - lo > width / 2:
                mid = (lo + hi) / 2
                fm, dm = f_df(mid)
                if fm > 0:
                    lo, dlo = mid, dm
                else:
                    hi, fhi, dhi = mid, fm, dm
        lam = ((lo + hi) / 2) ** d
    with mpmath.workdps(_dps):
        return +lam


@dataclass(frozen=True)
class BoundsRow:
    """One dimension's bound constants and the competing lower bounds."""

    d: int
    L: int
    m: mpmath.mpf
    m_over_3d: mpmath.mpf
    vitali: mpmath.mpf
    rado: mpmath.mpf
    bdj: mpmath.mpf
    ours: mpmath.mpf


def bounds_table(d_max: int) -> list[BoundsRow]:
    """Rows for d = 1..d_max: (d, L_d, m_d, m_d/3^d) plus comparison bounds.

    Comparison columns: vitali = 3^-d, rado = (3^d - 7^-d)^-1, bdj = 1/lambda_d,
    ours = 2^-d / h_d(L_d) = 1/m_d.
    """
    if d_max < 1:
        raise InputError("d_max must be >= 1")
    rows = []
    for d in range(1, d_max + 1):
        L, h_min, m = optimize_L(d)
        with mpmath.workdps(_dps):
            three = mpmath.mpf(3) ** d
            rows.append(
                BoundsRow(
                    d=d,
                    L=L,
                    m=m,
                    m_over_3d=m / three,
                    vitali=1 / three,
                    rado=1 / (three - mpmath.mpf(7) ** -d),
                    bdj=1 / bdj_lambda(d),
                    ours=mpmath.mpf(2) ** -d / h_min,
                )
            )
    return rows


def improvement_frontier() -> int:
    """Smallest dimension from which the new bound beats 3^-d forever.

    Verifies m_d/3^d >= 1 for d <= 13, m_14/3^14 < 1, L_14 >= 9 with
    g(L_14) <= 3/2, and the induction factor (2/3) g(L_14) < 1, then
    returns 14.  Any failed check aborts with a diagnostic.
    """
    for d in range(1, 15):
        L, _, m = optimize_L(d)
        with mpmath.workdps(_dps):
            m_over_3d = m / mpmath.mpf(3) ** d
        if d < 14 and not m_over_3d >= 1:
            raise VerificationError(f"expected no improvement at d={d}, got m/3^d={m_over_3d}")
    if not m_over_3d < 1:
        raise VerificationError(f"expected improvement at d=14, got m/3^d={m_over_3d}")
    if L < 9:
        raise VerificationError(f"induction needs L_14 >= 9, got {L}")
    with mpmath.workdps(_dps):
        g14 = g_eval(L)
        if not g14 <= mpmath.mpf(3) / 2:
            raise VerificationError(f"induction needs g(L_14) <= 3/2, got {g14}")
        if not mpmath.mpf(2) / 3 * g14 < 1:
            raise VerificationError(f"induction factor (2/3) g(L_14) = {2 * g14 / 3} is not < 1")
    return 14


@dataclass(frozen=True)
class AsymptoticRow:
    d: int
    L: int
    rho: mpmath.mpf
    residual: mpmath.mpf
    log_m_over_d: mpmath.mpf


def asymptotic_check(d_list) -> list[AsymptoticRow]:
    """High-dimensional envelope checks for each listed d >= 50.

    rho_d = h_d(L_d) / (d log d * e^(1 + log log d / log d)) must land in
    [0.4, 2.5] with |rho_d - 1| * log d <= RESIDUAL_BOUND, and log(m_d)/d must
    lie within 3 log(d)/d of log 2.
    """
    rows = []
    for d in d_list:
        if d < 50:
            raise InputError("asymptotic checks start at d = 50")
        L, h_min, m = optimize_L(d)
        with mpmath.workdps(_dps):
            logd = mpmath.log(d)
            rho = h_min / (d * logd * mpmath.e ** (1 + mpmath.log(logd) / logd))
            residual = abs(rho - 1) * logd
            log_m_over_d = mpmath.log(m) / d
            if not 0.4 <= rho <= 2.5:
                raise VerificationError(f"rho({d}) = {rho} outside [0.4, 2.5]")
            if not residual <= RESIDUAL_BOUND:
                raise VerificationError(f"residual({d}) = {residual} exceeds {RESIDUAL_BOUND}")
            if not abs(log_m_over_d - mpmath.log(2)) <= 3 * logd / d:
                raise VerificationError(f"log(m_{d})/{d} = {log_m_over_d} too far from log 2")
        rows.append(AsymptoticRow(d, L, rho, residual, log_m_over_d))
    return rows
