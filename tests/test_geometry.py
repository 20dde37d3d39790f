import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecover.errors import CapExceededError, EmptyCollectionError, NotDisjointError, VerificationError
from cubecover.generators import gen_cell, gen_random
from cubecover.geometry import (
    Collection,
    Cube,
    Selection,
    _compress,
    _planar_sweep,
    _recursive_sweep,
    as_scalar,
    intersects,
    make_selection,
    union_volume,
)
from support import box, contains, dilate, ratio, scale


def random_cube(rng, d, coord_range=8, denom=16):
    center = tuple(Fraction(rng.randrange(-coord_range * denom, coord_range * denom), denom) for _ in range(d))
    radius = Fraction(rng.randrange(1, 4 * denom), denom)
    return Cube(center, radius)


def random_collection(rng, d, n):
    return Collection(d, tuple(random_cube(rng, d) for _ in range(n)))


def test_as_scalar_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_cube_validation():
    with pytest.raises(ValueError):
        Cube((), Fraction(1))
    with pytest.raises(ValueError):
        Cube((Fraction(0),), Fraction(0))


def test_intersects_boundary_touch():
    assert intersects(box((0, 0), 1), box((1, 1), 1))


def test_intersects_separated():
    assert not intersects(box((0, 0), 1), box((2, 0), 1))


def test_intersects_all_cell_pairs():
    c = gen_cell(2)
    pairs = list(combinations(range(4), 2))
    assert len(pairs) == 6
    assert all(intersects(c.cubes[i], c.cubes[j]) for i, j in pairs)


def test_intersects_dimension_mismatch():
    with pytest.raises(ValueError):
        intersects(box((0,), 1), box((0, 0), 1))


def test_intersects_symmetric_and_reflexive():
    rng = random.Random(11)
    for _ in range(50):
        a = random_cube(rng, 2)
        b = random_cube(rng, 2)
        assert intersects(a, a)
        assert intersects(a, b) == intersects(b, a)


def test_scale_identity():
    a = box((0, 0, 0), 2)
    assert scale(a, 1) == a


def test_scale_doubling_law():
    a = Cube((Fraction(0), Fraction(0)), Fraction(1, 2))
    b = scale(a, 3)
    assert b.radius == Fraction(3, 2)
    assert b.volume == 9 * a.volume


def test_scale_inverse():
    a = box((1, 2), 3)
    assert scale(scale(a, 2), Fraction(1, 2)) == a


def test_scale_rejects_nonpositive():
    with pytest.raises(ValueError):
        scale(box((0,), 1), 0)
    with pytest.raises(ValueError):
        scale(box((0,), 1), Fraction(-1, 2))


def test_scale_composition_fuzz():
    rng = random.Random(7)
    for _ in range(30):
        a = random_cube(rng, 3)
        lam = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        mu = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
        assert scale(scale(a, lam), mu) == scale(a, lam * mu)
        single = Collection(3, (a,))
        assert union_volume(Collection(3, (scale(a, lam),))) == lam ** 3 * union_volume(single)


def test_contains():
    outer = box((0, 0), 4)
    assert contains(outer, box((1, 1), 1))
    assert contains(outer, outer)
    assert not contains(box((1, 1), 1), outer)
    assert not contains(outer, box((3, 3), 2))


def test_union_volume_cell_is_full_square():
    assert union_volume(gen_cell(2)) == 4


def test_union_volume_overlapping_squares():
    c = Collection(2, (box((0, 0), 1), box((Fraction(1, 2), 0), 1)))
    assert union_volume(c) == Fraction(3, 2)


def test_union_volume_methods_agree_random_d3():
    c = gen_random(3, 8, ("uniform", Fraction(1, 2), Fraction(3, 2)), seed=11)
    assert union_volume(c, "compression") == union_volume(c, "inclusion_exclusion")


def test_union_volume_cross_method_fuzz():
    rng = random.Random(23)
    for trial in range(12):
        d = 1 + trial % 4
        n = rng.randrange(2, 13)
        c = random_collection(rng, d, n)
        assert union_volume(c, "compression") == union_volume(c, "inclusion_exclusion")


def test_union_volume_monotone_and_subadditive():
    rng = random.Random(31)
    for _ in range(15):
        d = 1 + rng.randrange(3)
        cubes = [random_cube(rng, d) for _ in range(rng.randrange(2, 8))]
        extra = random_cube(rng, d)
        base = Collection(d, tuple(cubes))
        bigger = Collection(d, tuple(cubes) + (extra,))
        assert union_volume(bigger) >= union_volume(base)
        k = 1 + rng.randrange(len(cubes) - 1)
        part1 = Collection(d, tuple(cubes[:k]))
        part2 = Collection(d, tuple(cubes[k:]))
        assert union_volume(base) <= union_volume(part1) + union_volume(part2)


def recursive_union_volume(c):
    """Union volume by the memoized recursion, the reference for the 2-d sweep."""
    lo_idx, hi_idx, axis_xs, axis_scale = _compress(c.grid)
    return Fraction(_recursive_sweep(lo_idx, hi_idx, axis_xs), math.prod(axis_scale))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 400])
def test_planar_sweep_matches_recursion(n):
    rng = random.Random(1000 + n)
    grid = random_collection(rng, 2, n)
    loguniform = gen_random(2, n, ("loguniform", Fraction(1, 16), Fraction(4)), seed=n)
    for c in (grid, loguniform):
        lo_idx, hi_idx, axis_xs, _ = _compress(c.grid)
        assert _planar_sweep(lo_idx, hi_idx, axis_xs) == _recursive_sweep(lo_idx, hi_idx, axis_xs)
        assert union_volume(c) == recursive_union_volume(c)


@pytest.mark.parametrize(
    "squares,area",
    [
        ([((0, 0), 1)], 1),  # a single square
        ([((0, 0), 1), ((1, 1), 1)], 2),  # touching at a corner
        ([((0, 0), 2), ((2, 1), 1)], 5),  # touching along part of an edge
        ([((0, 0), 1), ((1, 0), 1)], 2),  # sharing a whole edge
        ([((0, 0), 3), ((1, 1), 1), ((Fraction(1, 2), 1), 2)], 9),  # nested
        ([((0, 0), 1), ((0, 0), 1), ((0, 0), 1)], 1),  # duplicates
        ([((0, 0), 2), ((1, 1), 2), ((0, 0), 2), ((4, 0), 1)], 8),  # overlap, duplicate, apart
    ],
)
def test_planar_sweep_degenerate_cases(squares, area):
    c = Collection(2, tuple(box(corner, side) for corner, side in squares))
    assert union_volume(c) == area
    assert recursive_union_volume(c) == area
    assert union_volume(c, "inclusion_exclusion") == area


def test_planar_sweep_matches_inclusion_exclusion():
    rng = random.Random(41)
    for n in range(1, 21):
        c = random_collection(rng, 2, n)
        assert union_volume(c) == union_volume(c, "inclusion_exclusion")


grid_squares = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 24)),
    min_size=1,
    max_size=30,
)


def grid_squares_collection(squares, shift=(0, 0)):
    return Collection(
        2,
        tuple(Cube((Fraction(x, 8) + shift[0], Fraction(y, 8) + shift[1]), Fraction(r, 8)) for x, y, r in squares),
    )


@settings(max_examples=60, deadline=None)
@given(grid_squares, st.integers(-100, 100), st.integers(-100, 100), st.integers(1, 12))
def test_planar_union_volume_invariant_under_translation_and_axis_swap(squares, tx, ty, denom):
    area = union_volume(grid_squares_collection(squares))
    shift = (Fraction(tx, denom), Fraction(ty, denom))
    assert union_volume(grid_squares_collection(squares, shift)) == area
    assert union_volume(grid_squares_collection([(y, x, r) for x, y, r in squares])) == area


def test_union_volume_empty_rejected():
    with pytest.raises(EmptyCollectionError):
        union_volume(Collection(2, ()))


def test_union_volume_ie_cap():
    c = random_collection(random.Random(1), 2, 6)
    with pytest.raises(CapExceededError):
        union_volume(c, "inclusion_exclusion", cap=5)


def test_union_volume_unknown_method():
    with pytest.raises(ValueError):
        union_volume(gen_cell(1), "slicing")


def test_union_volume_dilation_law():
    c = gen_random(2, 6, ("uniform", Fraction(1, 2), Fraction(2)), seed=3)
    t = Fraction(5, 3)
    assert union_volume(dilate(c, t)) == t ** 2 * union_volume(c)


def test_ratio_full_disjoint_collection_is_one():
    c = Collection(2, (box((0, 0), 1), box((5, 5), 1), box((0, 5), 1)))
    s = make_selection(c, (0, 1, 2), Fraction(1, 9))
    assert ratio(s, c) == 1


@pytest.mark.parametrize("d,expect", [(2, Fraction(1, 4)), (3, Fraction(1, 8))])
def test_ratio_single_cell_cube(d, expect):
    c = gen_cell(d)
    s = make_selection(c, (0,), Fraction(1, 3 ** d))
    assert ratio(s, c) == expect


def test_ratio_rejects_intersecting_selection():
    c = gen_cell(2)
    bogus = Selection((0, 1), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(NotDisjointError):
        ratio(bogus, c)


def test_ratio_rejects_out_of_range():
    c = gen_cell(1)
    bogus = Selection((0, 7), Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(IndexError):
        ratio(bogus, c)


def test_make_selection_rejects_bad_certificate():
    c = gen_cell(2)
    with pytest.raises(VerificationError):
        make_selection(c, (0,), Fraction(1, 2))  # certificate above the achieved 1/4
