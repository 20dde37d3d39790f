"""The three union-volume engines: exact agreement, dispatch and work budgets."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubecover import geometry
from cubecover.cli import main
from cubecover.errors import CapExceededError
from cubecover.generators import gen_cell, gen_dyadic, gen_lacunary, gen_random
from cubecover.geometry import (
    Collection,
    Cube,
    _compress,
    _exclusive_volumes,
    _recursive_sweep,
    union_volume,
)
from cubecover.selection import LacunaryStructure, Window

LAWS = {
    "uniform": ("uniform", Fraction(1, 2), Fraction(2)),
    "loguniform": ("loguniform", Fraction(1, 16), Fraction(4)),
}
LACUNARY = LacunaryStructure((Window(Fraction(1, 16), Fraction(1, 8)), Window(Fraction(1, 2), Fraction(1)),
                              Window(Fraction(4), Fraction(8))), Fraction(4), Fraction(2))
IE_MAX = 12  # inclusion-exclusion joins the comparison up to this many cubes


@pytest.fixture(autouse=True)
def cold_cache():
    # union_volume caches on the grid: an engine must run, not a cache hit.
    geometry._union_volume_compression.cache_clear()
    yield
    geometry._union_volume_compression.cache_clear()


def engine_volume(engine, c: Collection) -> Fraction:
    lo_idx, hi_idx, axis_xs, axis_scale = _compress(c.grid)
    return Fraction(engine(lo_idx, hi_idx, axis_xs), math.prod(axis_scale))


def assert_engines_agree(c: Collection) -> Fraction:
    """WFG and the sweep, and inclusion-exclusion where it fits, give one Fraction."""
    vol = engine_volume(_exclusive_volumes, c)
    assert vol == engine_volume(_recursive_sweep, c)
    assert vol == union_volume(c)
    if len(c) <= IE_MAX:
        assert vol == union_volume(c, "inclusion_exclusion", cap=IE_MAX)
    return vol


def instance(law: str, d: int, n: int, seed: int) -> Collection:
    if law == "lacunary":
        return gen_lacunary(d, LACUNARY, max(1, n // 3), seed)
    return gen_random(d, n, LAWS[law], seed)


def crowded(d: int, n: int, seed: int) -> Collection:
    """Cubes on a coarse grid in [0, 3]^d, so that most pairs overlap."""
    rng = random.Random(seed)
    return Collection(d, tuple(
        Cube(tuple(Fraction(rng.randrange(25), 8) for _ in range(d)), Fraction(rng.randrange(2, 13), 8))
        for _ in range(n)
    ))


@pytest.mark.parametrize("d", range(3, 15))
@pytest.mark.parametrize("law", ["uniform", "loguniform", "lacunary"])
def test_engines_agree_on_seeded_grid(law, d):
    for n in (IE_MAX, 40):
        assert_engines_agree(instance(law, d, n, seed=1000 * d + n))


@pytest.mark.parametrize("d", range(3, 15))
def test_engines_agree_on_crowded_cubes(d):
    assert_engines_agree(crowded(d, IE_MAX, seed=d))
    assert_engines_agree(crowded(d, 24, seed=100 + d))


@pytest.mark.parametrize("d", range(3, 11))
def test_engines_agree_on_cells(d):
    assert assert_engines_agree(gen_cell(d)) == 2 ** d


@pytest.mark.parametrize("d,levels", [(3, 1), (3, 2), (3, 3), (4, 2), (5, 1), (5, 2), (8, 1)])
def test_engines_agree_on_dyadic_towers(d, levels):
    assert_engines_agree(gen_dyadic(d, levels))


def degenerate(d: int) -> Collection:
    """Touching, nested and duplicate cubes, and a lone one apart."""
    def cube(*center, r):
        return Cube(tuple(Fraction(x) for x in center) + (Fraction(0),) * (d - len(center)), Fraction(r))

    return Collection(d, (
        cube(0, r=1),
        cube(2, r=1),  # shares a whole face with the first
        cube(2, 2, 2, r=1),  # touches the second along an edge, the first at a corner
        cube(Fraction(1, 3), r=Fraction(1, 3)),  # nested in the first
        cube(0, r=1),  # duplicate of the first
        cube(2, r=1),  # duplicate of the second
        cube(Fraction(1, 2), Fraction(1, 2), r=Fraction(3, 4)),  # overlaps the first two
        cube(9, r=Fraction(1, 2)),  # apart
    ))


@pytest.mark.parametrize("d", range(3, 15))
def test_engines_agree_on_touching_nested_duplicate(d):
    # The first three cubes, the slab x_1 in (1, 5/4] of the overlapping one, the one apart.
    expect = 3 * 2 ** d + Fraction(3, 2) ** (d - 1) / 4 + 1
    assert assert_engines_agree(degenerate(d)) == expect


@st.composite
def boxes(draw):
    d = draw(st.integers(3, 6))
    coord = st.integers(0, 12)
    cubes = draw(st.lists(st.tuples(st.tuples(*[coord] * d), st.integers(1, 4)), min_size=1, max_size=14))
    return Collection(d, tuple(Cube(tuple(Fraction(x, 2) for x in c), Fraction(r, 2)) for c, r in cubes))


@settings(max_examples=150, deadline=None)
@given(boxes())
def test_wfg_equals_sweep_property(c):
    assert engine_volume(_exclusive_volumes, c) == engine_volume(_recursive_sweep, c)


@pytest.mark.parametrize("c,engine", [
    (gen_cell(1), "_recursive_sweep"),  # a line
    (gen_random(2, 20, LAWS["uniform"], seed=1), "_planar_sweep"),
    (gen_cell(5), "_recursive_sweep"),  # grid-like: 3 faces per axis, 32 cubes
    (gen_dyadic(3, 2), "_recursive_sweep"),
    (gen_random(3, 20, LAWS["uniform"], seed=1), "_exclusive_volumes"),
    (gen_random(14, 20, LAWS["loguniform"], seed=1), "_exclusive_volumes"),
    (Collection(4, (Cube((0, 0, 0, 0), 1),)), "_exclusive_volumes"),  # one cube: 2 faces per axis
])
def test_dispatch_takes_each_branch(monkeypatch, c, engine):
    taken = []
    for name in ("_planar_sweep", "_recursive_sweep", "_exclusive_volumes"):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *a, name=name, real=real: taken.append(name) or real(*a))
    vol = union_volume(c)
    assert taken == [engine]
    assert vol == engine_volume(_recursive_sweep, c)


def test_wfg_budget_raises(monkeypatch):
    c = gen_random(3, 40, LAWS["uniform"], seed=2)
    monkeypatch.setattr(geometry, "WFG_PAIR_CAP", 10)
    with pytest.raises(CapExceededError, match="WFG cap"):
        union_volume(c)


def test_wfg_budget_counts_limit_sets(monkeypatch):
    # The top set of 40 boxes fits the budget; the limit sets below it do not.
    c = crowded(4, 40, seed=5)
    monkeypatch.setattr(geometry, "WFG_PAIR_CAP", 40 ** 2)
    with pytest.raises(CapExceededError, match="WFG cap"):
        engine_volume(_exclusive_volumes, c)
    monkeypatch.setattr(geometry, "WFG_PAIR_CAP", 40 ** 4)
    assert engine_volume(_exclusive_volumes, c) == engine_volume(_recursive_sweep, c)


def test_sweep_budget_raises(monkeypatch):
    c = gen_cell(6)
    monkeypatch.setattr(geometry, "SWEEP_MEMO_CAP", 100)
    with pytest.raises(CapExceededError, match="sweep cap"):
        union_volume(c)


@pytest.mark.parametrize("cap,kind", [("WFG_PAIR_CAP", "random"), ("SWEEP_MEMO_CAP", "cell")])
def test_over_budget_volume_exits_3(tmp_path, capsys, monkeypatch, cap, kind):
    inst = tmp_path / "inst.json"
    flags = ["--n", "40", "--rmin", "1/2", "--rmax", "2"] if kind == "random" else []
    assert main(["gen", "--kind", kind, "--d", "5", *flags, "--out", str(inst)]) == 0
    monkeypatch.setattr(geometry, cap, 10)
    assert main(["volume", "--in", str(inst)]) == 3
    assert "cap" in capsys.readouterr().err


def test_volume_d14_n1000_within_budget(tmp_path, capsys):
    # The acceptance instance: seeded, so the node count, and with it the
    # budget's verdict, is fixed.
    inst = tmp_path / "d14.json"
    assert main(["gen", "--kind", "random", "--d", "14", "--n", "1000", "--radius-law", "loguniform",
                 "--rmin", "1/16", "--rmax", "4", "--seed", "14", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert main(["volume", "--in", str(inst)]) == 0
    vol = Fraction(capsys.readouterr().out.split("\t")[0])
    cubes = json.loads(inst.read_text())["cubes"]
    sides = [2 * Fraction(q["radius"]) for q in cubes]
    assert max(sides) ** 14 < vol < sum(s ** 14 for s in sides)


@pytest.mark.parametrize(
    "cubes,want",
    [
        ([("0", "1")] * 3, 2 ** 1200),  # grid-like: the sweep, one level per axis
        ([("0", "1"), ("1", "1"), ("0", "1/2")], 3 * 2 ** 1199),  # WFG
        ([("0", "1/4")], Fraction(1, 2 ** 1200)),  # below the float range
    ],
    ids=["identical", "distinct", "tiny"],
)
def test_volume_at_d1200(tmp_path, capsys, cubes, want):
    # Past Python's recursion limit in axes, and outside the float range in volume.
    d = 1200
    doc = {"dim": d, "cubes": [{"center": [c0] + ["0"] * (d - 1), "radius": r} for c0, r in cubes]}
    inst = tmp_path / "d1200.json"
    inst.write_text(json.dumps(doc))
    assert main(["volume", "--in", str(inst)]) == 0
    exact, approx = capsys.readouterr().out.rstrip("\n").split("\t")
    assert exact == str(want)
    assert abs(Fraction(approx) / want - 1) < Fraction(1, 10 ** 11)
