import math
import random
from fractions import Fraction

import pytest

from cubecover.errors import EmptyCollectionError, InputError
from cubecover.generators import gen_cell, gen_dyadic, gen_lacunary, gen_random
from cubecover.geometry import Collection, Cube
from cubecover.oracle import phi_exact
from cubecover.selection import (
    LacunaryStructure,
    PipelineParams,
    Window,
    _band_exponents,
    _floor_log,
    auto_params,
    certified_bound,
    congruent_select,
    greedy_vitali,
    lacunary_select,
    pipeline_select,
    unit_gamma,
    window_select,
)
from support import box, contains, dilate, scale


# ---------------------------------------------------------------- greedy


def test_greedy_dyadic_selects_parent_only():
    c = gen_dyadic(2, 1)
    sel = greedy_vitali(c)
    assert sel.indices == (0,)
    assert sel.achieved_ratio == 1
    assert sel.certified_bound == Fraction(1, 9)


def test_greedy_cell_single_cube():
    sel = greedy_vitali(gen_cell(2))
    assert len(sel.indices) == 1
    assert sel.achieved_ratio == Fraction(1, 4)
    assert sel.achieved_ratio >= Fraction(1, 9)


def test_greedy_random_vs_oracle():
    c = gen_random(2, 10, ("uniform", Fraction(1, 2), Fraction(2)), seed=1)
    sel = greedy_vitali(c)
    phi, _ = phi_exact(c)
    assert Fraction(1, 9) <= sel.achieved_ratio <= phi


def test_greedy_empty_rejected():
    with pytest.raises(EmptyCollectionError):
        greedy_vitali(Collection(2, ()))


def test_greedy_triple_inflation_covers_input():
    c = gen_random(2, 14, ("loguniform", Fraction(1, 4), Fraction(4)), seed=42)
    sel = greedy_vitali(c)
    picked = [c.cubes[i] for i in sel.indices]
    for q in c.cubes:
        assert any(contains(scale(s, 3), q) for s in picked)


def test_greedy_permutation_equivariant_for_distinct_sizes():
    cubes = tuple(
        Cube((Fraction(k), Fraction(k % 3)), Fraction(1, 2) + Fraction(k, 100)) for k in range(9)
    )
    c = Collection(2, cubes)
    perm = list(range(9))
    random.Random(3).shuffle(perm)
    shuffled = Collection(2, tuple(cubes[i] for i in perm))
    chosen = {c.cubes[i] for i in greedy_vitali(c).indices}
    chosen_shuffled = {shuffled.cubes[i] for i in greedy_vitali(shuffled).indices}
    assert chosen == chosen_shuffled
    assert greedy_vitali(c).achieved_ratio == greedy_vitali(shuffled).achieved_ratio


def test_greedy_dilation_invariant():
    c = gen_random(2, 8, ("loguniform", Fraction(1, 2), Fraction(3)), seed=15)
    t = Fraction(5, 3)
    a = greedy_vitali(c)
    b = greedy_vitali(dilate(c, t))
    assert a.indices == b.indices
    assert a.achieved_ratio == b.achieved_ratio


# ---------------------------------------------------------------- congruent


@pytest.mark.parametrize("mode", ["sweep", "exact"])
def test_congruent_cell_is_tight(mode):
    sel = congruent_select(gen_cell(2), mode)
    assert len(sel.indices) == 1
    assert sel.achieved_ratio == Fraction(1, 4)
    assert sel.certified_bound == unit_gamma(2, mode)


def test_congruent_two_disjoint_cubes():
    c = Collection(2, (box((0, 0), 1), box((2, 0), 1)))
    sel = congruent_select(c)
    assert sel.indices == (0, 1)
    assert sel.achieved_ratio == 1


def test_congruent_exact_meets_optimal_constant():
    c = gen_random(2, 12, ("uniform", Fraction(1, 2), Fraction(1, 2)), seed=2)
    sel = congruent_select(c, "exact")
    assert sel.achieved_ratio >= Fraction(1, 4)
    assert sel.certified_bound == Fraction(1, 4)


def test_congruent_rejects_mixed_radii():
    c = Collection(1, (Cube((Fraction(0),), Fraction(1)), Cube((Fraction(5),), Fraction(2))))
    with pytest.raises(InputError):
        congruent_select(c)


def test_congruent_sweep_vs_oracle_empirically():
    # The sweep usually reaches the optimal 2^-d constant for equal cubes,
    # but only 3^-d is certified; compare against the oracle, never assume.
    for seed in range(5):
        c = gen_random(2, 10, ("uniform", Fraction(1), Fraction(1)), seed=seed)
        sel = congruent_select(c, "sweep")
        phi, _ = phi_exact(c)
        assert Fraction(1, 9) <= sel.achieved_ratio <= phi


# ---------------------------------------------------------------- window


def test_window_degenerate_equals_congruent():
    c = gen_random(2, 9, ("uniform", Fraction(1, 2), Fraction(1, 2)), seed=7)
    w = Window(Fraction(1, 2), Fraction(1, 2))
    assert window_select(c, w) == congruent_select(c)


def test_window_hand_checked_interval_pair():
    # Intervals [0, 1] and [1/2, 5/2]: disjoint interiors overlap after
    # inflating both to the larger radius, so only one survives.
    c = Collection(1, (Cube((Fraction(1, 2),), Fraction(1, 2)), Cube((Fraction(3, 2),), Fraction(1))))
    w = Window(Fraction(1, 2), Fraction(1))
    sel = window_select(c, w, "sweep")
    assert sel.indices == (0,)
    assert sel.achieved_ratio == Fraction(2, 5)
    assert sel.certified_bound == Fraction(1, 2) * Fraction(1, 3)
    exact = window_select(c, w, "exact")
    assert exact.certified_bound == Fraction(1, 2) * Fraction(1, 2)
    assert exact.achieved_ratio >= exact.certified_bound


def test_window_random_vs_oracle():
    c = gen_random(2, 10, ("uniform", Fraction(1), Fraction(2)), seed=3)
    sel = window_select(c, Window(Fraction(1), Fraction(2)), "exact")
    phi, _ = phi_exact(c)
    assert sel.achieved_ratio >= sel.certified_bound >= Fraction(1, 16)
    assert sel.achieved_ratio <= phi


def test_window_rejects_radius_outside():
    c = Collection(1, (Cube((Fraction(0),), Fraction(3)),))
    with pytest.raises(InputError):
        window_select(c, Window(Fraction(1), Fraction(2)))


def test_window_scaled_instance_matches():
    c = gen_random(2, 8, ("uniform", Fraction(1), Fraction(2)), seed=19)
    w = Window(Fraction(1), Fraction(2))
    t = Fraction(7, 4)
    a = window_select(c, w)
    b = window_select(dilate(c, t), Window(w.lo * t, w.hi * t))
    assert a.indices == b.indices
    assert a.achieved_ratio == b.achieved_ratio


# ---------------------------------------------------------------- lacunary


def test_lacunary_single_window_reduces_to_window_select():
    c = gen_random(2, 8, ("uniform", Fraction(1), Fraction(2)), seed=8)
    w = Window(Fraction(1), Fraction(2))
    ls = LacunaryStructure((w,), Fraction(4), Fraction(2))
    assert lacunary_select(c, ls) == window_select(c, w)


def test_lacunary_nested_intervals_prune_small():
    c = Collection(1, (Cube((Fraction(0),), Fraction(1)), Cube((Fraction(0),), Fraction(10))))
    ls = LacunaryStructure((Window(1, 1), Window(10, 10)), Fraction(10), Fraction(1))
    sel = lacunary_select(c, ls, "sweep")
    assert sel.indices == (1,)
    assert sel.achieved_ratio == 1
    assert sel.certified_bound == Fraction(5, 6) * Fraction(1, 3)


def test_lacunary_two_windows_vs_oracle():
    ls = LacunaryStructure((Window(1, 2), Window(8, 16)), Fraction(4), Fraction(2))
    c = gen_lacunary(2, ls, 6, seed=4)
    sel = lacunary_select(c, ls, "sweep")
    expected_cert = Fraction(1, 4) * Fraction(4, 9) * Fraction(1, 9)
    assert sel.certified_bound == expected_cert
    phi, _ = phi_exact(c)
    assert sel.achieved_ratio >= sel.certified_bound
    assert sel.achieved_ratio <= phi


def test_lacunary_rejects_uncovered_radius():
    c = Collection(1, (Cube((Fraction(0),), Fraction(5)),))
    ls = LacunaryStructure((Window(1, 2), Window(8, 16)), Fraction(4), Fraction(2))
    with pytest.raises(InputError):
        lacunary_select(c, ls)


def test_lacunary_structure_validation():
    with pytest.raises(InputError):
        LacunaryStructure((), Fraction(2), Fraction(2))
    with pytest.raises(InputError):
        LacunaryStructure((Window(1, 2), Window(3, 4)), Fraction(2), Fraction(2))
    with pytest.raises(InputError):
        LacunaryStructure((Window(1, 4),), Fraction(2), Fraction(2))
    with pytest.raises(InputError):
        LacunaryStructure((Window(1, 2),), Fraction(1), Fraction(2))


def test_lacunary_scaled_instance_matches():
    ls = LacunaryStructure((Window(1, 2), Window(8, 16)), Fraction(4), Fraction(2))
    c = gen_lacunary(2, ls, 4, seed=29)
    t = Fraction(3, 2)
    scaled_ls = LacunaryStructure(
        tuple(Window(w.lo * t, w.hi * t) for w in ls.windows), ls.lam, ls.mu
    )
    a = lacunary_select(c, ls)
    b = lacunary_select(dilate(c, t), scaled_ls)
    assert a.indices == b.indices
    assert a.achieved_ratio == b.achieved_ratio


# ---------------------------------------------------------------- pipeline


@pytest.mark.parametrize("mode", ["sweep", "exact"])
def test_pipeline_degenerate_equals_congruent(mode):
    c = gen_cell(2)
    params = PipelineParams(3, Fraction(2), mode)
    sel = pipeline_select(c, params)
    base = congruent_select(c, mode)
    assert sel.indices == base.indices
    assert sel.achieved_ratio == base.achieved_ratio == Fraction(1, 4)


def test_pipeline_congruent_random_instance():
    c = gen_random(2, 11, ("uniform", Fraction(3, 4), Fraction(3, 4)), seed=33)
    params = PipelineParams(4, Fraction(3, 2), "sweep")
    sel = pipeline_select(c, params)
    base = congruent_select(c, "sweep")
    assert sel.indices == base.indices
    assert sel.achieved_ratio == base.achieved_ratio


def test_pipeline_mixed_radii_certificate():
    c = gen_random(2, 20, ("loguniform", Fraction(1, 4), Fraction(4)), seed=5)
    params = PipelineParams(5, Fraction(3, 2), "sweep")
    sel = pipeline_select(c, params)
    assert sel.certified_bound == certified_bound(2, 5, Fraction(3, 2), Fraction(1, 9))
    assert sel.achieved_ratio >= sel.certified_bound


def test_pipeline_exact_mode_vs_oracle():
    c = gen_random(2, 20, ("loguniform", Fraction(1, 4), Fraction(4)), seed=5)
    params = PipelineParams(5, Fraction(3, 2), "exact")
    sel = pipeline_select(c, params)
    phi, _ = phi_exact(c)
    assert sel.certified_bound <= sel.achieved_ratio <= phi


def test_pipeline_dilation_by_full_period():
    c = gen_random(2, 12, ("loguniform", Fraction(1, 2), Fraction(4)), seed=37)
    lam = Fraction(3, 2)
    params = PipelineParams(4, lam, "sweep")
    a = pipeline_select(c, params)
    b = pipeline_select(dilate(c, lam ** 4), params)
    assert a.indices == b.indices
    assert a.achieved_ratio == b.achieved_ratio


# 1001/1000 gives more bands than radii, where each radius takes its own logarithm.
@pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(2), Fraction(1_276_543, 10 ** 6), Fraction(1001, 1000)])
def test_band_exponents_equal_per_cube_floor_log(lam):
    radii = []
    for seed in range(4):
        radii += [q.radius for q in gen_random(2, 50, ("loguniform", Fraction(1, 16), Fraction(4)), seed=seed).cubes]
    # Radii exactly at powers of lam, and one step either side of them.
    for m in (-3, 0, 1, 4):
        radii += [lam ** m, lam ** m * Fraction(10 ** 9 - 1, 10 ** 9), lam ** m * Fraction(10 ** 9 + 1, 10 ** 9)]
    rdenom = math.lcm(*(r.denominator for r in radii))
    ints = [int(r * rdenom) for r in radii]
    exps = _band_exponents(lam, ints, rdenom)
    assert exps == [_floor_log(lam, r, rdenom) for r in ints]
    assert all(lam ** m <= r < lam ** (m + 1) for m, r in zip(exps, radii))
    top = lam ** 5
    assert _band_exponents(lam, [top.numerator] * 3, top.denominator) == [5] * 3


def test_pipeline_params_validation():
    with pytest.raises(InputError):
        PipelineParams(2, Fraction(2), "sweep")
    with pytest.raises(InputError):
        PipelineParams(3, Fraction(1), "sweep")
    with pytest.raises(InputError):
        PipelineParams(3, Fraction(2), "fancy")


# ---------------------------------------------------------------- parameters


def test_auto_params_known_dimensions():
    assert auto_params(2).J == 6
    assert auto_params(14).J == 71


def test_auto_params_d3_lambda_close_to_closed_form():
    p = auto_params(3)
    assert p.J == 10
    assert abs(float(p.lam) - 16 ** (1 / 9)) <= 1e-6
    assert p.lam > 1


def test_auto_params_gamma_tracks_mode():
    c = gen_random(3, 12, ("loguniform", Fraction(1, 4), Fraction(4)), seed=8)
    for mode, gamma in (("sweep", Fraction(1, 27)), ("exact", Fraction(1, 8))):
        p = auto_params(3, mode)
        assert unit_gamma(3, mode) == gamma
        assert pipeline_select(c, p).certified_bound == certified_bound(3, p.J, p.lam, gamma)


def test_auto_params_rejects_d1():
    with pytest.raises(InputError):
        auto_params(1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_certified_bound_vitali_regime(d):
    assert certified_bound(d, 2, 1, 1) == Fraction(1, 2) * Fraction(1, 3 ** d)


def test_certified_bound_near_sqrt2():
    lam = Fraction("1.414214")
    for d in (1, 2, 3):
        got = certified_bound(d, 3, lam, Fraction(1, 2 ** d))
        want = (1 / 3) * (2 * math.sqrt(2)) ** -d * 2 ** -d
        assert abs(float(got) - want) <= 1e-4 * want


def test_certified_bound_direct_arithmetic():
    assert certified_bound(1, 4, 2, Fraction(1, 2)) == Fraction(1, 20)


def test_certified_bound_validation():
    with pytest.raises(InputError):
        certified_bound(0, 4, 2, Fraction(1, 2))
    with pytest.raises(InputError):
        certified_bound(1, 1, 2, Fraction(1, 2))
    with pytest.raises(InputError):
        certified_bound(1, 4, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(InputError):
        certified_bound(1, 4, 2, 0)
