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


def _full_scan(d, dps, terms):
    # Independent reference: every x in [1, scan_bound(d)] at working precision,
    # strict <, so ties go to the lowest x.
    with mpmath.workdps(dps):
        logs = [a + d * b for a, b in terms[: constants.scan_bound(d)]]
        best = min(range(len(logs)), key=logs.__getitem__)
        h_min = mpmath.e ** logs[best]
        return best + 1, h_min, mpmath.mpf(2) ** d * h_min


@pytest.mark.parametrize(
    "dps,dims",
    [(15, range(1, 61)), (50, range(1, 61)), (100, range(1, 61)), (50, (100, 317, 1000))],
)
def test_optimize_L_bit_identical_to_full_scan(dps, dims):
    # _mpf_ is the exact (sign, mantissa, exponent, bit count) tuple; repr at
    # the default 15 digits would hide a difference in the last bits.
    try:
        constants.set_precision(dps)
        terms = _log_terms(dps, constants.scan_bound(max(dims)))
        for d in dims:
            L, h_min, m = constants.optimize_L(d)
            want_L, want_h, want_m = _full_scan(d, dps, terms)
            assert (L, h_min._mpf_, m._mpf_) == (want_L, want_h._mpf_, want_m._mpf_), d
    finally:
        constants.set_precision(constants.DEFAULT_DPS)


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
