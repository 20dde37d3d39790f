import json
from fractions import Fraction
from itertools import combinations, product

import pytest

from cubecover.cli import collection_from_json, collection_to_json
from cubecover.errors import CapExceededError, InputError
from cubecover.generators import DYADIC_CAP, GRID, GenSpec, gen_cell, gen_dyadic, gen_lacunary, gen_random, generate
from cubecover.geometry import intersects, union_volume
from cubecover.selection import LacunaryStructure, Window


def test_cell_d1_intervals():
    c = gen_cell(1)
    assert [(q.center, q.radius) for q in c.cubes] == [
        ((Fraction(1, 2),), Fraction(1, 2)),
        ((Fraction(3, 2),), Fraction(1, 2)),
    ]


def test_cell_counts_and_union():
    for d in (1, 2, 3):
        c = gen_cell(d)
        assert len(c) == 2 ** d
        assert union_volume(c) == 2 ** d


def test_cell_pairwise_intersecting_d3():
    c = gen_cell(3)
    pairs = list(combinations(range(8), 2))
    assert len(pairs) == 28
    assert all(intersects(c.cubes[i], c.cubes[j]) for i, j in pairs)


def test_cell_rejects_bad_dim():
    with pytest.raises(InputError):
        gen_cell(0)


def test_cell_at_cap_builds_all():
    assert DYADIC_CAP == 1 << 16
    assert len(gen_cell(16)) == DYADIC_CAP


@pytest.mark.parametrize("d", [17, 40, 10 ** 12])
def test_cell_over_cap(d):
    with pytest.raises(CapExceededError):
        gen_cell(d)


@pytest.mark.parametrize("d", range(1, 7))
def test_cell_matches_direct_construction(d):
    want = [
        (tuple(k + Fraction(1, 2) for k in corner), Fraction(1, 2))
        for corner in product((0, 1), repeat=d)
    ]
    assert [(q.center, q.radius) for q in gen_cell(d).cubes] == want


@pytest.mark.parametrize("d,levels", [(1, 1), (1, 4), (2, 3), (3, 2), (4, 1)])
def test_dyadic_matches_direct_construction(d, levels):
    want = []
    for depth in range(levels + 1):
        side = Fraction(2) ** (levels - depth)
        want += [
            (tuple(k * side + side / 2 for k in corner), side / 2)
            for corner in product(range(2 ** depth), repeat=d)
        ]
    assert [(q.center, q.radius) for q in gen_dyadic(d, levels).cubes] == want


def test_dyadic_d1_level1():
    c = gen_dyadic(1, 1)
    assert [(q.center, q.radius) for q in c.cubes] == [
        ((Fraction(1),), Fraction(1)),
        ((Fraction(1, 2),), Fraction(1, 2)),
        ((Fraction(3, 2),), Fraction(1, 2)),
    ]


@pytest.mark.parametrize("d,levels", [(1, 3), (2, 2), (3, 1)])
def test_dyadic_count_formula(d, levels):
    c = gen_dyadic(d, levels)
    assert len(c) == sum(2 ** (d * k) for k in range(levels + 1))


@pytest.mark.parametrize("d,levels", [(1, 16), (1, 10 ** 12), (10 ** 12, 1)])
def test_dyadic_over_cap(d, levels):
    # Every case has at least 2^17 > DYADIC_CAP cubes; none may be built.
    assert DYADIC_CAP < 1 << 17
    with pytest.raises(CapExceededError):
        gen_dyadic(d, levels)


def test_dyadic_children_inside_parent():
    from support import contains

    c = gen_dyadic(2, 1)
    parent = c.cubes[0]
    assert all(contains(parent, q) for q in c.cubes[1:])


def test_random_deterministic():
    law = ("uniform", Fraction(1, 2), Fraction(2))
    a = gen_random(2, 10, law, seed=7)
    b = gen_random(2, 10, law, seed=7)
    assert a == b
    assert json.dumps(collection_to_json(a)) == json.dumps(collection_to_json(b))
    assert a != gen_random(2, 10, law, seed=8)


def test_random_congruent_law():
    from cubecover.selection import congruent_select

    c = gen_random(2, 10, ("uniform", Fraction(1, 2), Fraction(1, 2)), seed=7)
    assert all(q.radius == Fraction(1, 2) for q in c.cubes)
    sel = congruent_select(c)
    assert sel.achieved_ratio >= Fraction(1, 9)


def test_random_radii_within_law():
    c = gen_random(3, 40, ("loguniform", Fraction(1, 4), Fraction(4)), seed=9)
    assert all(Fraction(1, 4) <= q.radius <= 4 for q in c.cubes)


def test_random_grid_exactness():
    c = gen_random(2, 20, ("uniform", Fraction(1, 3), Fraction(3)), seed=5)
    for q in c.cubes:
        assert all(GRID % x.denominator == 0 for x in q.center)
        assert GRID % q.radius.denominator == 0


def test_random_single_cube_trivial():
    c = gen_random(2, 1, ("uniform", Fraction(1), Fraction(1)), seed=0)
    assert len(c) == 1


def test_random_rejects_bad_law():
    with pytest.raises(InputError):
        gen_random(2, 5, ("normal", Fraction(1), Fraction(2)), seed=0)
    with pytest.raises(InputError):
        gen_random(2, 5, ("uniform", Fraction(2), Fraction(1)), seed=0)


def test_lacunary_congruent_window():
    ls = LacunaryStructure((Window(1, 1),), Fraction(3), Fraction(1))
    c = gen_lacunary(2, ls, 5, seed=1)
    assert len(c) == 5
    assert all(q.radius == 1 for q in c.cubes)


def test_lacunary_cross_window_gap():
    ls = LacunaryStructure((Window(1, 2), Window(10, 20)), Fraction(5), Fraction(2))
    c = gen_lacunary(2, ls, 4, seed=2)
    small = [q.radius for q in c.cubes[:4]]
    big = [q.radius for q in c.cubes[4:]]
    assert all(1 <= r <= 2 for r in small)
    assert all(10 <= r <= 20 for r in big)
    assert all(b / s >= 5 for b in big for s in small)


def test_lacunary_three_windows_end_to_end():
    from cubecover.oracle import phi_exact
    from cubecover.selection import lacunary_select

    ls = LacunaryStructure((Window(1, 2), Window(8, 16), Window(64, 128)), Fraction(4), Fraction(2))
    c = gen_lacunary(2, ls, 4, seed=8)
    sel = lacunary_select(c, ls, "sweep")
    phi, _ = phi_exact(c)
    assert sel.certified_bound <= sel.achieved_ratio <= phi


def test_generate_dispatch_and_round_trip():
    spec = GenSpec(kind="random", dim=2, seed=12, count=6, radius_law=("uniform", Fraction(1, 2), Fraction(1)))
    c = generate(spec)
    again = collection_from_json(json.loads(json.dumps(collection_to_json(c))))
    assert again == c


def test_generate_missing_params():
    with pytest.raises(InputError):
        generate(GenSpec(kind="dyadic", dim=2))
    with pytest.raises(InputError):
        generate(GenSpec(kind="warp", dim=2))
