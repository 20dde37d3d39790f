import math
from fractions import Fraction

import mpmath
import pytest

from cubecover import constants
from cubecover.errors import InputError
from cubecover.selection import certified_bound
from support import golden_section_min, load_golden_table


def test_g_at_one_is_two_sqrt_two():
    with mpmath.workdps(50):
        assert abs(constants.g_eval(1) - mpmath.sqrt(8)) < mpmath.mpf("1e-45")


def test_g_brackets_three_halves():
    g8, g9 = constants.g_eval(8), constants.g_eval(9)
    assert g9 < 1.5 < g8
    assert abs(float(g8) - 1.5309) < 1e-3
    assert abs(float(g9) - 1.4836) < 2e-3


def test_g_strictly_decreasing_sample():
    xs = [1 + k * 0.25 for k in range(400)]
    vals = [constants.g_eval(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_g_rejects_nonpositive():
    with pytest.raises(InputError):
        constants.g_eval(0)


def test_h_at_one_dimension_one():
    with mpmath.workdps(50):
        assert abs(constants.h_eval(1, 1) - 6 * mpmath.sqrt(2)) < mpmath.mpf("1e-45")
    assert abs(float(2 * constants.h_eval(1, 1)) - 16.971) < 5e-4


def test_log_deriv_matches_finite_difference():
    with mpmath.workdps(50):
        d, x = 5, mpmath.mpf(10)
        delta = mpmath.mpf("1e-8")
        fd = (mpmath.log(constants.h_eval(d, x + delta)) - mpmath.log(constants.h_eval(d, x - delta))) / (2 * delta)
        assert abs(fd - constants.log_deriv_h(d, x)) < 1e-6


def test_log_deriv_sign_change_brackets_minimum():
    assert constants.log_deriv_h(5, 1) < 0
    assert constants.log_deriv_h(5, 100) > 0


def test_optimize_L_matches_golden_rows():
    for d, L, m, m3d in load_golden_table():
        got_L, _, got_m = constants.optimize_L(d)
        assert got_L == L
        assert abs(float(got_m) - m) <= 5e-4


def _log_terms(dps, upto):
    # (log(x + 2), log g(x)) for x = 1..upto, each rounded to dps digits.
    with mpmath.workdps(dps):
        return [
            (mpmath.log(t + 2), mpmath.log(2 * t) / (t + 1) + mpmath.log(1 + 1 / t))
            for t in map(mpmath.mpf, range(1, upto + 1))
        ]


def _full_scan(dps, dmax):
    # Independent reference: every x in [1, scan_bound(d)] at working precision,
    # strict <, so ties go to the lowest x.
    terms = _log_terms(dps, constants.scan_bound(dmax))

    def scan(d):
        with mpmath.workdps(dps):
            logs = [a + d * b for a, b in terms[: constants.scan_bound(d)]]
            best = min(range(len(logs)), key=logs.__getitem__)
            h_min = mpmath.e ** logs[best]
            return best + 1, h_min, mpmath.mpf(2) ** d * h_min

    return scan


def _full_float_pass(dps, dmax):
    # Reference for dimensions where a full working-precision scan is too slow:
    # the float64 pass at every x in [1, scan_bound(d)], with the same float
    # operations and cutoff as optimize_L, then working precision on the
    # survivors.
    terms = [
        (math.log(x + 2), math.log(2 * x) / (x + 1) + math.log1p(1 / x))
        for x in range(1, constants.scan_bound(dmax) + 1)
    ]

    def scan(d):
        approx = [a + d * b for a, b in terms[: constants.scan_bound(d)]]
        v_min = min(approx)
        cutoff = v_min + 1e-9 * (v_min + 1)
        with mpmath.workdps(dps):
            logs = {}
            for L, v in enumerate(approx, start=1):
                if v <= cutoff:
                    t = mpmath.mpf(L)
                    logs[L] = mpmath.log(t + 2) + d * (mpmath.log(2 * t) / (t + 1) + mpmath.log(1 + 1 / t))
            best = min(logs, key=logs.__getitem__)
            h_min = mpmath.e ** logs[best]
            return best, h_min, mpmath.mpf(2) ** d * h_min

    return scan


@pytest.mark.parametrize(
    "dps,dims,reference",
    [
        (15, range(1, 61), _full_scan),
        (50, range(1, 61), _full_scan),
        (100, range(1, 61), _full_scan),
        (50, (100, 317, 1000), _full_scan),
        (50, range(61, 401), _full_float_pass),
        (50, (2000, 5000), _full_float_pass),
    ],
    ids=["15-dims0", "50-dims1", "100-dims2", "50-dims3", "50-dims4", "50-dims5"],
)
def test_optimize_L_bit_identical_to_full_scan(dps, dims, reference):
    # _mpf_ is the exact (sign, mantissa, exponent, bit count) tuple; repr at
    # the default 15 digits would hide a difference in the last bits.
    try:
        constants.set_precision(dps)
        scan = reference(dps, max(dims))
        for d in dims:
            L, h_min, m = constants.optimize_L(d)
            want_L, want_h, want_m = scan(d)
            assert (L, h_min._mpf_, m._mpf_) == (want_L, want_h._mpf_, want_m._mpf_), d
    finally:
        constants.set_precision(constants.DEFAULT_DPS)


def test_unimodality_lemma_inequalities():
    # q(x) = (x+1)^2 / ((x+2) log 2x).  On a piece [a, b] of [1, 2] the
    # numerator and both factors of the denominator increase, so q lies
    # between (a+1)^2 / ((b+2) log 2b) and (b+1)^2 / ((a+2) log 2a).
    with mpmath.workdps(30):
        edges = [1 + mpmath.mpf(k) / 1000 for k in range(1001)]
        for a, b in zip(edges, edges[1:]):
            assert (b + 1) ** 2 / ((a + 2) * mpmath.log(2 * a)) < 2
            assert (a + 1) ** 2 / ((b + 2) * mpmath.log(2 * b)) > 1.6
        # log 2x rises and 1 + 2/(x^2 + 3x) falls, so x = 2 settles [2, oo):
        # there q increases, and stays above q(2) > 1.6.
        assert mpmath.log(4) > 1 + mpmath.mpf(2) / (2 ** 2 + 3 * 2)


def test_optimize_L_minimizer_at_one():
    L, h_min, m = constants.optimize_L(1)
    assert L == 1
    with mpmath.workdps(50):
        assert abs(h_min - 6 * mpmath.sqrt(2)) < mpmath.mpf("1e-45")
        assert abs(m - 12 * mpmath.sqrt(2)) < mpmath.mpf("1e-45")


def test_optimize_L_is_interior_local_min():
    for d in (1, 2, 5, 14, 20):
        L, h_min, _ = constants.optimize_L(d)
        assert L < constants.scan_bound(d)
        if L > 1:
            assert constants.h_eval(d, L - 1) >= h_min
        assert constants.h_eval(d, L + 1) >= h_min


def test_optimal_lambda_small_cases():
    lam, val = constants.optimal_lambda(2)
    assert lam == 1 and val == 3
    lam3, val3 = constants.optimal_lambda(3)
    with mpmath.workdps(50):
        assert abs(lam3 - mpmath.sqrt(2)) < mpmath.mpf("1e-45")
        assert abs(val3 - mpmath.sqrt(8)) < mpmath.mpf("1e-45")
    with pytest.raises(InputError):
        constants.optimal_lambda(1)


def test_optimal_lambda_vs_golden_section():
    for J in (3, 5, 10, 25):
        _, val = constants.optimal_lambda(J)
        probe = golden_section_min(lambda lam: lam * (1 + 2 * lam ** (1 - J)), 1, 4)
        assert abs(val - probe) < 1e-9


def test_bdj_lambda_d1_closed_form():
    assert abs(constants.bdj_lambda(1) - mpmath.mpf(8) / 3) < 1e-10


def test_bdj_lambda_d2_residual():
    with mpmath.workdps(50):
        lam = constants.bdj_lambda(2)
        assert 6.25 <= lam <= 9
        residual = 3 ** 2 - (lam ** mpmath.mpf("0.5") - 2) ** 2 / 2 - lam
        assert abs(residual) < 1e-10


def test_bdj_lambda_gap_to_vitali():
    for d in range(1, 31):
        lam = constants.bdj_lambda(d)
        gap = mpmath.mpf(3) ** d - lam
        assert 0 <= gap <= 0.5
        assert 1 / lam > mpmath.mpf(3) ** -d


def _lambda_space_bdj(d, dps):
    # Independent reference: bisection in lambda itself on [(5/2)^d, 3^d],
    # taking the real power lambda^(1/d) at every step.
    with mpmath.workdps(dps):
        dm = mpmath.mpf(d)
        lo, hi = (mpmath.mpf(5) / 2) ** dm, mpmath.mpf(3) ** dm
        tol = mpmath.mpf(10) ** (10 - dps)
        while (hi - lo) / lo > tol:
            mid = (lo + hi) / 2
            if 3 ** dm - (mid ** (1 / dm) - 2) ** dm / 2 - mid > 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


def test_bdj_lambda_matches_lambda_space_bisection():
    try:
        constants.set_precision(50)
        for d in range(1, 31):
            lam = constants.bdj_lambda(d)
            want = _lambda_space_bdj(d, 50)
            with mpmath.workdps(50):
                assert abs(lam - want) / want <= mpmath.mpf("1e-38"), d
    finally:
        constants.set_precision(constants.DEFAULT_DPS)


def _t_space_bdj(d, dps):
    # Independent reference: plain bisection in t = lambda^(1/d) on [5/2, 3]
    # down to a relative width of 10^(10 - dps) / d, at working precision.
    with mpmath.workdps(dps):
        lo, hi = mpmath.mpf(5) / 2, mpmath.mpf(3)
        tol = min(mpmath.mpf("1e-12"), mpmath.mpf(10) ** (10 - dps)) / d
        while (hi - lo) / lo > tol:
            mid = (lo + hi) / 2
            if 3 ** mpmath.mpf(d) - (mid - 2) ** d / 2 - mid ** d > 0:
                lo = mid
            else:
                hi = mid
        return ((lo + hi) / 2) ** d


def test_bdj_lambda_matches_t_space_bisection():
    try:
        constants.set_precision(50)
        for d in range(1, 107):
            lam = constants.bdj_lambda(d)
            want = _t_space_bdj(d, 50)
            with mpmath.workdps(50):
                assert abs(lam - want) / want <= mpmath.mpf("1e-38"), d
    finally:
        constants.set_precision(constants.DEFAULT_DPS)


@pytest.mark.parametrize("d", [107, 300, 1000])
def test_bdj_lambda_past_working_precision(d):
    # 3^d - lambda_d is below 1/2, under the last of 50 digits of 3^d from
    # d = 107 on; lambda_d is driven to 10^-40 relative, as for every d.
    lam = constants.bdj_lambda(d)
    with mpmath.workdps(60):
        three_d = mpmath.mpf(3) ** d
        assert abs(three_d - lam) / three_d <= mpmath.mpf("1e-40")


def test_bounds_table_spot_rows():
    rows = constants.bounds_table(13)
    d9, d13 = rows[8], rows[12]
    assert d9.L == 39
    assert abs(float(d9.m) - 70264.112) <= 5e-4
    assert abs(float(d13.m_over_3d) - 1.095) <= 5e-4


def test_bounds_table_d1_comparison_columns():
    row = constants.bounds_table(1)[0]
    _, h_min, m = constants.optimize_L(1)
    with mpmath.workdps(50):
        assert abs(row.ours - mpmath.mpf(1) / (2 * h_min)) < mpmath.mpf("1e-40")
        assert abs(row.ours - 1 / m) < mpmath.mpf("1e-40")
    assert row.ours < row.vitali
    assert row.rado > row.vitali


def test_improvement_frontier_returns_14():
    assert constants.improvement_frontier() == 14


def test_improvement_frontier_skips_comparison_columns(monkeypatch):
    def refuse(d):
        raise AssertionError("bdj_lambda is not needed for the frontier")

    monkeypatch.setattr(constants, "bdj_lambda", refuse)
    assert constants.improvement_frontier() == 14


def test_improvement_frontier_induction_factor():
    L14, _, _ = constants.optimize_L(14)
    assert L14 == 69
    g14 = constants.g_eval(L14)
    assert abs(float(g14) - 1.088) < 1e-2
    assert float(2 * g14 / 3) < 1


def test_asymptotic_check_smoke():
    rows = constants.asymptotic_check([50])
    assert rows[0].d == 50
    assert 0.4 <= rows[0].rho <= 2.5
    with pytest.raises(InputError):
        constants.asymptotic_check([10])


def test_certificate_consistency_with_table():
    # The pipeline certificate at the table's own parameters reproduces the
    # tabulated lower bound up to the 1e-6 rounding of the scale ratio.
    for d in range(1, 21):
        L, h_min, _ = constants.optimize_L(d)
        J = L + 2
        lam_star, _ = constants.optimal_lambda(J)
        lam = Fraction(round(float(lam_star) * 10 ** 6), 10 ** 6)
        if lam <= 1:
            lam = Fraction(10 ** 6 + 1, 10 ** 6)
        cb = certified_bound(d, J, lam, Fraction(1, 2 ** d))
        ideal = mpmath.mpf(2) ** -d / h_min
        assert float(cb) >= (1 - 1e-6) * float(ideal)


def test_set_precision_roundtrip():
    try:
        constants.set_precision(30)
        L, _, _ = constants.optimize_L(2)
        assert L == 4
        with pytest.raises(InputError):
            constants.set_precision(5)
    finally:
        constants.set_precision(constants.DEFAULT_DPS)
