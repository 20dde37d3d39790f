"""Instance generators.

The explicit tight configurations plus seeded random and scale-structured
families.  All coordinates land on an exact rational grid (pitch 2^-20), so
instances are exact and survive serialization byte-for-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import CapExceededError, InputError
from .geometry import Collection, Cube, as_scalar
from .selection import LacunaryStructure

GRID_BITS = 20
GRID = 1 << GRID_BITS
CENTER_SPAN = 10  # random centers fall in [0, 10]^d
DYADIC_CAP = 1 << 16  # most cubes gen_dyadic and gen_cell build


def gen_cell(d: int) -> Collection:
    """2^d pairwise-intersecting unit cubes with min-corners at {0,1}^d."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    if d >= DYADIC_CAP.bit_length():
        raise CapExceededError(f"cell cap is {DYADIC_CAP} cubes, d={d} has 2^{d}")
    half = Fraction(1, 2)
    cubes = [Cube(center, half) for center in product((half, 3 * half), repeat=d)]
    return Collection(d, tuple(cubes))


def gen_dyadic(d: int, levels: int) -> Collection:
    """A cube of side 2^levels plus all dyadic sub-cubes down to side 1.

    Level k holds 2^(dk) cubes of side 2^(levels-k); each child is contained
    in its parent, so the total count is sum over k of 2^(dk).
    """
    if d < 1:
        raise InputError("dimension must be >= 1")
    if levels < 1:
        raise InputError("levels must be >= 1")
    # Count before building.  Each level's exponent is clipped at the cap's bit
    # length, which already passes the cap, so no huge power is ever formed.
    count = 0
    for depth in range(levels + 1):
        count += 1 << min(d * depth, DYADIC_CAP.bit_length())
        if count > DYADIC_CAP:
            raise CapExceededError(f"dyadic cap is {DYADIC_CAP} cubes, d={d} with {levels} levels has more")
    cubes = []
    for depth in range(levels + 1):
        side = Fraction(1 << (levels - depth))
        r = side / 2
        coords = tuple(k * side + r for k in range(1 << depth))
        cubes.extend(Cube(center, r) for center in product(coords, repeat=d))
    return Collection(d, tuple(cubes))


def _check_law(radius_law) -> tuple[str, Fraction, Fraction]:
    try:
        name, a, b = radius_law
    except (TypeError, ValueError) as exc:
        raise InputError(f"radius law must be (name, lo, hi): {exc}") from None
    if name not in ("uniform", "loguniform"):
        raise InputError(f"unknown radius law {name!r}")
    a, b = as_scalar(a), as_scalar(b)
    if not 0 < a <= b:
        raise InputError("radius law needs 0 < lo <= hi")
    return name, a, b


def _snap_radius(x: float, lo: Fraction, hi: Fraction) -> Fraction:
    # Nearest grid point, clamped so the exact value stays inside [lo, hi].
    k_min = math.ceil(lo * GRID)
    k_max = math.floor(hi * GRID)
    if k_min > k_max:
        raise InputError(f"no grid point of pitch 2^-{GRID_BITS} inside [{lo}, {hi}]")
    k = min(k_max, max(k_min, round(x * GRID)))
    return Fraction(k, GRID)


def _random_center(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randrange(CENTER_SPAN * GRID + 1), GRID) for _ in range(d))


def gen_random(d: int, n: int, radius_law, seed: int) -> Collection:
    """n seeded cubes with grid-exact centers in [0, 10]^d and radii per law.

    The same (arguments, seed) pair always reproduces the identical instance.
    """
    if d < 1:
        raise InputError("dimension must be >= 1")
    if n < 1:
        raise InputError("count must be >= 1")
    name, a, b = _check_law(radius_law)
    rng = random.Random(seed)
    cubes = []
    for _ in range(n):
        center = _random_center(rng, d)
        u = rng.random()
        if name == "uniform":
            x = float(a) + (float(b) - float(a)) * u
        else:
            x = math.exp(math.log(float(a)) + u * (math.log(float(b)) - math.log(float(a))))
        cubes.append(Cube(center, _snap_radius(x, a, b)))
    return Collection(d, tuple(cubes))


def gen_lacunary(d: int, structure: LacunaryStructure, per_window: int, seed: int) -> Collection:
    """per_window seeded cubes per window, radii sampled inside each window.

    The instance's radius set respects the structure by construction.
    """
    if d < 1:
        raise InputError("dimension must be >= 1")
    if per_window < 1:
        raise InputError("per_window must be >= 1")
    rng = random.Random(seed)
    cubes = []
    for w in structure.windows:
        for _ in range(per_window):
            center = _random_center(rng, d)
            u = rng.random()
            x = float(w.lo) + (float(w.hi) - float(w.lo)) * u
            cubes.append(Cube(center, _snap_radius(x, w.lo, w.hi)))
    return Collection(d, tuple(cubes))


@dataclass(frozen=True)
class GenSpec:
    """Declarative description of a generated instance."""

    kind: str
    dim: int
    seed: int = 0
    levels: int | None = None
    count: int | None = None
    radius_law: tuple | None = None
    structure: LacunaryStructure | None = None
    per_window: int | None = None


def generate(spec: GenSpec) -> Collection:
    if spec.kind == "cell":
        return gen_cell(spec.dim)
    if spec.kind == "dyadic":
        if spec.levels is None:
            raise InputError("dyadic generation needs levels")
        return gen_dyadic(spec.dim, spec.levels)
    if spec.kind == "random":
        if spec.count is None or spec.radius_law is None:
            raise InputError("random generation needs count and radius_law")
        return gen_random(spec.dim, spec.count, spec.radius_law, spec.seed)
    if spec.kind == "lacunary":
        if spec.structure is None or spec.per_window is None:
            raise InputError("lacunary generation needs structure and per_window")
        return gen_lacunary(spec.dim, spec.structure, spec.per_window, spec.seed)
    raise InputError(f"unknown generator kind {spec.kind!r}")
