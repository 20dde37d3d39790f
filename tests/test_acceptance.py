"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line.
The certificate-soundness suite (criteria 4 and 5) runs 200 seeded instances
through every applicable selector and is shared via a module-scoped fixture.
"""

from fractions import Fraction

import mpmath
import pytest

from cubecover import constants
from cubecover.generators import gen_cell, gen_lacunary, gen_random
from cubecover.geometry import union_volume
from cubecover.oracle import phi_exact, verify_guarantee
from cubecover.selection import (
    LacunaryStructure,
    PipelineParams,
    Window,
    auto_params,
    congruent_select,
    greedy_vitali,
    lacunary_select,
    pipeline_select,
    window_select,
)
from support import contains, golden_section_min, load_golden_table, scale


def report(number: int, ok: bool, summary: str) -> None:
    print(f"[acceptance] criterion {number} {'PASS' if ok else 'FAIL'} - {summary}")


# ----------------------------------------------------------- criteria 1-2


def test_criterion_1_table_reproduction():
    golden = load_golden_table()
    rows = constants.bounds_table(20)
    bad = []
    for row, (d, L, m, m3d) in zip(rows, golden):
        if row.L != L:
            bad.append(f"d={d}: L={row.L} != {L}")
        if abs(float(row.m) - m) > 5e-4:
            bad.append(f"d={d}: m={float(row.m)} vs {m}")
    report(1, not bad, f"L_d and m_d reproduce the published 20-row table ({len(rows)} rows)")
    assert not bad, bad


def test_criterion_2_improvement_frontier():
    rows = constants.bounds_table(20)
    bad = []
    for row in rows:
        if row.d <= 13 and not row.m_over_3d > 1:
            bad.append(f"d={row.d}: expected m/3^d > 1, got {float(row.m_over_3d)}")
        if row.d >= 14 and not row.m_over_3d < 1:
            bad.append(f"d={row.d}: expected m/3^d < 1, got {float(row.m_over_3d)}")
    frontier = constants.improvement_frontier()
    if frontier != 14:
        bad.append(f"frontier returned {frontier}")
    L14, _, _ = constants.optimize_L(14)
    if L14 < 9:
        bad.append(f"L_14 = {L14} < 9")
    if not float(2 * constants.g_eval(L14) / 3) < 1:
        bad.append("(2/3) g(L_14) >= 1")
    report(2, not bad, "m_d/3^d crosses 1 exactly at d = 14 and the induction certificate holds")
    assert not bad, bad


# ----------------------------------------------------------- criterion 3


def test_criterion_3_tight_configuration():
    bad = []
    for d in (1, 2, 3):
        c = gen_cell(d)
        target = Fraction(1, 2 ** d)
        phi, _ = phi_exact(c)
        if phi != target:
            bad.append(f"phi(cell_{d}) = {phi}")
        achieved = {
            "greedy": greedy_vitali(c).achieved_ratio,
            "congruent-sweep": congruent_select(c, "sweep").achieved_ratio,
            "congruent-exact": congruent_select(c, "exact").achieved_ratio,
            "pipeline": pipeline_select(
                c, PipelineParams(3, Fraction(2), "sweep")
            ).achieved_ratio,
        }
        for name, got in achieved.items():
            if got != target:
                bad.append(f"{name} on cell_{d}: {got} != {target}")
    report(3, not bad, "phi = 2^-d exactly on the cell configuration and every selector attains it")
    assert not bad, bad


# ----------------------------------------------------- criteria 4-5 suite


def _suite_instances():
    """200 seeded instances: 120 random (every third congruent), 80 lacunary."""
    instances = []
    laws = [
        ("uniform", Fraction(1, 2), Fraction(2)),
        ("loguniform", Fraction(1, 4), Fraction(4)),
        ("uniform", Fraction(1), Fraction(1)),
    ]
    for k in range(120):
        d = 1 + k % 3
        n = 3 + (7 * k) % 18
        instances.append((f"random-{k}", gen_random(d, n, laws[k % 3], seed=1000 + k), None))
    for k in range(80):
        d = 1 + k % 3
        lam = Fraction(3) if k % 2 else Fraction(4)
        mu = Fraction(2)
        windows = []
        lo = Fraction(1, 2)
        for _ in range(2 + k % 2):
            windows.append(Window(lo, lo * mu))
            lo = lo * mu * lam
        ls = LacunaryStructure(tuple(windows), lam, mu)
        per = 2 + k % 3
        instances.append((f"lacunary-{k}", gen_lacunary(d, ls, per, seed=2000 + k), ls))
    return instances


@pytest.fixture(scope="module")
def certificate_suite():
    """Run every applicable selector on every suite instance and verify it."""
    pipelines = [(4, Fraction(3, 2)), (3, Fraction(2)), (5, Fraction(3, 2))]
    runs = []
    for pos, (name, c, ls) in enumerate(_suite_instances()):
        mode = "exact" if pos % 3 == 0 else "sweep"
        phi, _ = phi_exact(c)
        radii = sorted({q.radius for q in c.cubes})
        selections = [("greedy", greedy_vitali(c))]
        if len(radii) == 1:
            selections.append(("congruent", congruent_select(c, mode)))
        w = Window(radii[0], radii[-1])
        selections.append(("window", window_select(c, w, mode)))
        structure = ls if ls is not None else LacunaryStructure((w,), Fraction(2), radii[-1] / radii[0] if radii[-1] > radii[0] else Fraction(1))
        selections.append(("lacunary", lacunary_select(c, structure, mode)))
        if pos % 10 == 0 and c.dim >= 2:
            params = auto_params(c.dim, mode)
        else:
            J, lam = pipelines[pos % 3]
            params = PipelineParams(J, lam, mode)
        selections.append(("pipeline", pipeline_select(c, params)))
        for algo, sel in selections:
            runs.append((name, algo, c, sel, verify_guarantee(c, sel, phi=phi)))
    return runs


def test_criterion_4_certificate_soundness(certificate_suite):
    violations = [
        f"{name}/{algo}: {[f.name for f in rep.failures()]}"
        for name, algo, _, _, rep in certificate_suite
        if not rep.ok
    ]
    instances = {name for name, *_ in certificate_suite}
    ok = not violations and len(instances) >= 200
    report(
        4,
        ok,
        f"certified <= achieved <= optimum with disjointness on {len(certificate_suite)} "
        f"selector runs over {len(instances)} instances",
    )
    assert ok, violations[:10]


def test_criterion_5_vitali_containment(certificate_suite):
    violations = []
    seen = set()
    for name, algo, c, sel, _ in certificate_suite:
        if algo != "greedy" or name in seen:
            continue
        seen.add(name)
        picked = [c.cubes[i] for i in sel.indices]
        for pos, q in enumerate(c.cubes):
            if not any(contains(scale(s, 3), q) for s in picked):
                violations.append(f"{name}: cube {pos} escapes every 3-fold inflation")
    ok = not violations and len(seen) >= 200
    report(5, ok, f"3-fold inflations of the greedy picks cover all inputs on {len(seen)} instances")
    assert ok, violations[:10]


# ----------------------------------------------------------- criterion 6


def test_criterion_6_exact_measure_cross_check():
    caps = {1: 11, 2: 11, 3: 9, 4: 7}
    instances = []
    for k in range(98):
        d = 1 + k % 4
        n = 2 + (5 * k) % caps[d]
        law = ("uniform", Fraction(1, 2), Fraction(2)) if k % 2 else ("loguniform", Fraction(1, 4), Fraction(3))
        instances.append(gen_random(d, n, law, seed=3000 + k))
    instances.append(gen_random(4, 12, ("uniform", Fraction(1, 2), Fraction(2)), seed=3098))
    instances.append(gen_random(3, 12, ("loguniform", Fraction(1, 4), Fraction(3)), seed=3099))
    mismatches = []
    for pos, c in enumerate(instances):
        a = union_volume(c, "compression")
        b = union_volume(c, "inclusion_exclusion")
        if a != b:
            mismatches.append(f"instance {pos}: {a} != {b}")
    ok = not mismatches and len(instances) == 100
    report(6, ok, f"compression equals inclusion-exclusion exactly on {len(instances)} instances")
    assert ok, mismatches


# ----------------------------------------------------------- criterion 7


def test_criterion_7_lambda_optimum():
    bad = []
    for J in range(2, 51):
        _, val = constants.optimal_lambda(J)
        if J == 2:
            if val != 3:
                bad.append(f"J=2 returned {val}")
            continue
        probe = golden_section_min(lambda lam: lam * (1 + 2 * lam ** (1 - J)), 1, 4)
        if not abs(val - probe) < 1e-9:
            bad.append(f"J={J}: closed form {val} vs numeric {probe}")
    report(7, not bad, "closed-form optimum matches golden-section search for J = 2..50")
    assert not bad, bad


# ----------------------------------------------------------- criterion 8


def test_criterion_8_L_bound_and_monotonicity():
    bad = []
    prev = 0
    for d in range(1, 201):
        L, h_min, _ = constants.optimize_L(d)
        if L > 4 * d * mpmath.log(4 * d) + 1:
            bad.append(f"d={d}: L={L} above the scan bound")
        if L < prev:
            bad.append(f"d={d}: L decreased from {prev} to {L}")
        prev = L
        if L > 1 and not constants.h_eval(d, L - 1) >= h_min:
            bad.append(f"d={d}: h({L - 1}) < h({L})")
        if not constants.h_eval(d, L + 1) >= h_min:
            bad.append(f"d={d}: h({L + 1}) < h({L})")
    xs = [1 + k * 0.25 for k in range(797)]
    vals = [constants.g_eval(x) for x in xs]
    if not all(a > b for a, b in zip(vals, vals[1:])):
        bad.append("g is not strictly decreasing on the sampled grid")
    if not constants.g_eval(9) < 1.5 < constants.g_eval(8):
        bad.append("g(9) < 3/2 < g(8) failed")
    report(8, not bad, "L_d bounded and non-decreasing for d <= 200; g strictly decreasing")
    assert not bad, bad


# ----------------------------------------------------------- criterion 9


def test_criterion_9_asymptotic_envelope():
    dims = [50, 100, 200, 400, 800, 1000]
    rows = constants.asymptotic_check(dims)
    bad = []
    for row in rows:
        if not 0.4 <= row.rho <= 2.5:
            bad.append(f"d={row.d}: rho={float(row.rho)}")
        if not row.residual <= 5:
            bad.append(f"d={row.d}: residual={float(row.residual)}")
    last = rows[-1]
    with mpmath.workdps(50):
        if not abs(last.log_m_over_d - mpmath.log(2)) < 0.05:
            bad.append(f"log(m_1000)/1000 = {float(last.log_m_over_d)} is not within 0.05 of log 2")
    report(9, not bad, f"growth-rate envelope holds for d in {dims}")
    assert not bad, bad


# ----------------------------------------------------------- criterion 10


def test_criterion_10_bdj_bound():
    bad = []
    for d in range(1, 31):
        gap = mpmath.mpf(3) ** d - constants.bdj_lambda(d)
        if not 0 <= gap <= 0.5:
            bad.append(f"d={d}: 3^d - lambda_d = {mpmath.nstr(gap, 10)}")
    if not abs(constants.bdj_lambda(1) - mpmath.mpf(8) / 3) <= 1e-10:
        bad.append(f"lambda_1 = {constants.bdj_lambda(1)} != 8/3")
    report(10, not bad, "3^d - lambda_d stays in [0, 1/2] for d <= 30 and lambda_1 = 8/3")
    assert not bad, bad
