"""The exact integer grid behind the inner loops, checked against Fractions."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cubecover import geometry
from cubecover.cli import _parse_scalar, collection_from_json, collection_to_json
from cubecover.errors import InputError
from cubecover.generators import gen_random
from cubecover.geometry import Collection, Cube, _compress, intersects, selected_volume, union_volume
from cubecover.oracle import phi_exact
from test_golden import _mix_denominators

# Mixed denominators: every scalar draws its own, up to 12.
coords = st.fractions(-4, 4, max_denominator=12)
radii = st.fractions(Fraction(1, 12), 3, max_denominator=12)
fractions_0_1 = st.fractions(Fraction(1, 12), 1, max_denominator=12)


def cube(d):
    return st.builds(Cube, st.tuples(*[coords] * d), radii)


@st.composite
def cube_pairs(draw):
    """Two cubes that are free, touching, nested, or just apart."""
    d = draw(st.integers(1, 4))
    a = draw(cube(d))
    kind = draw(st.sampled_from(["free", "touching", "nested", "apart"]))
    if kind == "free":
        return kind, a, draw(cube(d))
    if kind == "nested":
        r = a.radius * draw(fractions_0_1)
        slack = a.radius - r
        center = tuple(x + slack * draw(st.fractions(-1, 1, max_denominator=12)) for x in a.center)
        return kind, a, Cube(center, r)
    r = draw(radii)
    reach = a.radius + r
    axis = draw(st.integers(0, d - 1))
    sign = draw(st.sampled_from([-1, 1]))
    gap = Fraction(1, draw(st.integers(1, 10 ** 6))) if kind == "apart" else 0
    center = [x + reach * draw(st.fractions(-1, 1, max_denominator=12)) for x in a.center]
    center[axis] = a.center[axis] + sign * (reach + gap)
    return kind, a, Cube(tuple(center), r)


@settings(max_examples=300, deadline=None)
@given(cube_pairs())
def test_grid_meets_equals_intersects(pair):
    kind, a, b = pair
    grid = Collection(a.dim, (a, b)).grid
    assert grid.meets(0, 1) == grid.meets(1, 0) == intersects(a, b)
    if kind in ("touching", "nested"):
        assert grid.meets(0, 1)
    if kind == "apart":
        assert not grid.meets(0, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda d: st.lists(cube(d), min_size=1, max_size=12)))
def test_union_volume_equals_inclusion_exclusion_mixed_denominators(cubes):
    c = Collection(cubes[0].dim, tuple(cubes))
    assert union_volume(c) == union_volume(c, "inclusion_exclusion")


def test_grid_values():
    c = Collection(2, (Cube((Fraction(1, 3), Fraction(-1, 4)), Fraction(1, 6)), Cube((2, 0), Fraction(5, 2))))
    assert c.grid == (6, (1, 2), ((2, -3), (12, 0)), (1, 15))
    assert c.grid is c.grid  # built once per collection


def _outcome(parse, text):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        return "rejected"


# Strings near the fast path: signs, digits of several scripts, "_", "/",
# whitespace and decimal points.  No exponent, so that Fraction never expands
# a huge power of ten.
scalar_chars = "0123456789-+/_. \t ٣٤४３²"
# Decimals with a short exponent.
decimals = st.from_regex(r"\A[-+]?[0-9]{0,4}(\.[0-9]{0,4})?([eE][-+]?[0-9]{1,3})?\Z")


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(scalar_chars, max_size=10), decimals))
@example("1/0")
@example("3/-4")
@example("-3/4")
@example("+3/4")
@example("3/+4")
@example("-0/5")
@example("1_000/3")
@example("1__0")
@example("_1")
@example("1_")
@example("٣/٤")
@example("-४")
@example("²")
@example(" 7 ")
@example("3/ 4")
@example("1.5")
@example("-2.5E-2")
@example("")
@example("-")
@example("/")
@example("3/")
@example("/4")
@example("--3")
@example("3//4")
def test_parse_scalar_matches_fraction(text):
    expected = _outcome(Fraction, text)
    got = _outcome(_parse_scalar, text)
    assert got == expected
    if got != "rejected":
        assert type(got) is Fraction


def test_parse_scalar_rejects_with_input_error():
    for text in ("1/0", "3/-4", "x", ""):
        with pytest.raises(InputError):
            _parse_scalar(text)


def _primes(count):
    out, x = [], 2
    while len(out) < count:
        if all(x % p for p in out):
            out.append(x)
        x += 1
    return out


def test_grid_and_compress_scale_each_axis_by_its_own_denominator():
    # A distinct prime denominator per scalar: one denominator for all scalars
    # is the product of all of them, but each axis needs only its own centers'
    # primes and the radii's.  The grid and _compress must scale by those.
    d, n = 3, 8
    primes = iter(_primes(n * (d + 1)))
    cubes = []
    for i in range(n):
        center = tuple(Fraction(i + 1, next(primes)) for _ in range(d))
        cubes.append(Cube(center, Fraction(1, next(primes))))
    c = Collection(d, tuple(cubes))
    common = math.lcm(*(x.denominator for q in cubes for x in (*q.center, q.radius)))
    _, _, _, axis_scale = _compress(c.grid)
    for k in range(d):
        own = math.lcm(*(q.radius.denominator for q in cubes), *(q.center[k].denominator for q in cubes))
        assert c.grid.rdenom * c.grid.scales[k] == own < common
        faces = [q.center[k] + s * q.radius for q in cubes for s in (-1, 1)]
        assert axis_scale[k] == math.lcm(*(f.denominator for f in faces))
    assert union_volume(c) == union_volume(c, "inclusion_exclusion")
    # Faces can need less than the axis's denominator: 1/6 ± 1/6 and 1/2 ± 1/2
    # lie on thirds, though the centers and radii need sixths.
    c = Collection(1, (Cube((Fraction(1, 6),), Fraction(1, 6)), Cube((Fraction(1, 2),), Fraction(1, 2))))
    assert c.grid.rdenom * c.grid.scales[0] == 6
    assert _compress(c.grid)[3] == [3]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(cube(d), min_size=1, max_size=9)))
def test_phi_exact_matches_brute_force_on_fraction_volumes(cubes):
    c = Collection(cubes[0].dim, tuple(cubes))
    best = max(
        selected_volume(c, s)
        for k in range(1, len(cubes) + 1)
        for s in combinations(range(len(cubes)), k)
        if not any(intersects(cubes[i], cubes[j]) for i, j in combinations(s, 2))
    )
    phi, witness = phi_exact(c)
    assert phi == best / union_volume(c)
    assert selected_volume(c, witness.indices) == best


@pytest.mark.parametrize("d,seed", [(1, 1), (2, 2), (2, 3), (3, 4), (5, 5), (8, 6)])
def test_subset_is_the_canonical_grid(d, seed):
    # A loaded instance with mixed denominators; random index lists, and the
    # two inflations the selectors use: every radius set to the largest
    # chosen one, and every radius times 1 + 2/lam.  Each sub-collection must
    # be the one Collection(dim, cubes) builds from Fractions.
    rng = random.Random(seed)
    doc = collection_to_json(gen_random(d, 24, ("loguniform", Fraction(1, 16), Fraction(4)), seed))
    _mix_denominators(doc)
    c = collection_from_json(doc)
    rdenom = c.grid.rdenom
    for lam in (Fraction(3, 2), Fraction(2), Fraction(1_276_543, 10 ** 6), Fraction(1001, 1000), Fraction(7)):
        idx = rng.sample(range(len(c)), rng.randint(1, 12))
        r_max = max(c.grid.radii[i] for i in idx)
        grow = 1 + Fraction(2) / lam
        cases = [
            (c.subset(idx), [c.cubes[i] for i in idx]),
            (c.subset(idx, radius=r_max), [Cube(c.cubes[i].center, Fraction(r_max, rdenom)) for i in idx]),
            (c.subset(idx, factor=grow), [Cube(c.cubes[i].center, c.cubes[i].radius * grow) for i in idx]),
        ]
        for sub, cubes in cases:
            ref = Collection(d, cubes)
            assert sub.grid == ref.grid
            assert sub == ref and hash(sub) == hash(ref)
            assert sub.cubes == ref.cubes
            geometry._union_volume_compression.cache_clear()
            assert union_volume(sub) == union_volume(ref, "inclusion_exclusion")
