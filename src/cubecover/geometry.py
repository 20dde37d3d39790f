"""Exact geometry of axis-parallel cubes.

A cube is a closed ball of the max norm: a center vector plus a radius equal
to half the side length.  Every coordinate and every measure is an exact
rational, so intersection predicates, disjointness, and volume ratios are
never subject to rounding.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations
from operator import getitem, itemgetter, le, lt, or_, sub
from typing import NamedTuple

from .errors import (
    CapExceededError,
    EmptyCollectionError,
    NotDisjointError,
    VerificationError,
)

IE_DEFAULT_CAP = 20
# Work budgets of one union volume, far above what realistic input needs.
WFG_PAIR_CAP = 1 << 26  # box pairs the exclusive-volume engine's sets hold
SWEEP_MEMO_CAP = 1 << 24  # machine words the recursive sweep's memo holds


def as_scalar(value) -> Fraction:
    """Coerce ints, Fractions, and rational strings ("3/4", "0.25") to Fraction.

    Floats are rejected: binary floats would smuggle rounding into arithmetic
    that must stay exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass a Fraction, int, or string")
    return Fraction(value)


@dataclass(frozen=True)
class Cube:
    """Closed axis-parallel cube given by center coordinates and radius."""

    center: tuple[Fraction, ...]
    radius: Fraction

    def __post_init__(self):
        if not (type(self.center) is tuple and set(map(type, self.center)) == {Fraction}):
            object.__setattr__(self, "center", tuple(as_scalar(x) for x in self.center))
        object.__setattr__(self, "radius", as_scalar(self.radius))
        _check_cube(len(self.center), self.radius)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> Fraction:
        return (2 * self.radius) ** self.dim


class Grid(NamedTuple):
    """Cubes on integers: radii r·R over their lcm denominator R, and on axis k
    centers c·D_k, with D_k = R·scales[k] the least multiple of R clearing them."""

    rdenom: int
    scales: tuple[int, ...]
    centers: tuple[tuple[int, ...], ...]
    radii: tuple[int, ...]

    def meets(self, i: int, j: int) -> bool:
        """:func:`intersects` for cubes i and j, on the grid's integers."""
        reach = self.radii[i] + self.radii[j]
        for x, y, m in zip(self.centers[i], self.centers[j], self.scales):
            if not -reach * m <= x - y <= reach * m:
                return False
        return True


def _check_cube(dim: int, radius) -> None:
    """A cube's own checks, from its dimension and its radius (or the radius's numerator)."""
    if dim < 1:
        raise ValueError("cube must live in dimension >= 1")
    if radius <= 0:
        raise ValueError("cube radius must be positive")


def _check_dims(dim: int, cube_dims) -> None:
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    for k in cube_dims:
        if k != dim:
            raise ValueError(f"cube of dimension {k} in a {dim}-d collection")


def _grid_from_pairs(dim: int, centers, radii) -> Grid:
    """The canonical grid of cubes given as reduced (p, q) pairs, q > 0: per
    cube a tuple of d center pairs, and a radius pair.  Each axis has its own
    denominator: with a prime per scalar, one for all is d+1 times as long."""
    rdenom = math.lcm(*[q for _, q in radii])
    axes = [[center[k] for center in centers] for k in range(dim)]
    dens = [math.lcm(rdenom, *[q for _, q in axis]) for axis in axes]
    return Grid(
        rdenom,
        tuple([dk // rdenom for dk in dens]),
        tuple(zip(*[[p * (dk // q) for p, q in axis] for axis, dk in zip(axes, dens)])),
        tuple([p * (rdenom // q) for p, q in radii]),
    )


def _reduced(p: int, q: int) -> tuple[int, int]:
    g = math.gcd(p, q)
    return p // g, q // g


class Collection:
    """Ordered finite list of cubes sharing one ambient dimension.

    Immutable.  Built from cubes, or by :meth:`from_pairs` straight onto its
    integer :attr:`grid`; the other view is built on first use.  Two
    collections are equal iff they have the same dimension and the same
    cubes, which is compared and hashed on `(dim, grid)`: the grid is a
    one-to-one function of the cubes.
    """

    def __init__(self, dim: int, cubes):
        cubes = tuple(cubes)
        _check_dims(dim, (q.dim for q in cubes))
        vars(self).update(dim=dim, cubes=cubes)

    @classmethod
    def from_pairs(cls, dim: int, cubes) -> Collection:
        """The collection of `cubes`, each a (center, radius) of reduced
        (p, q) pairs, q > 0, built on the grid with no `Cube`.  The cubes are
        read in order, each checked as a `Cube` would be as it arrives."""
        centers, radii = [], []
        for center, radius in cubes:
            _check_cube(len(center), radius[0])
            centers.append(center)
            radii.append(radius)
        _check_dims(dim, map(len, centers))
        self = object.__new__(cls)
        vars(self).update(dim=dim, grid=_grid_from_pairs(dim, centers, radii))
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Collection")

    def __eq__(self, other):
        if not isinstance(other, Collection):
            return NotImplemented
        return self.dim == other.dim and self.grid == other.grid

    def __hash__(self) -> int:
        return hash((self.dim, self.grid))

    def __repr__(self) -> str:
        return f"Collection(dim={self.dim!r}, cubes={self.cubes!r})"

    def __len__(self) -> int:
        return len(self.grid.radii)

    @cached_property
    def cubes(self) -> tuple[Cube, ...]:
        """The cubes as `Fraction`s, built from the grid on first use."""
        grid = self.grid
        dens = [grid.rdenom * m for m in grid.scales]
        return tuple(
            Cube(tuple(map(Fraction, x, dens)), Fraction(r, grid.rdenom)) for x, r in zip(grid.centers, grid.radii)
        )

    def subset(self, indices, radius: int | None = None, factor: Fraction = Fraction(1)) -> Collection:
        """The cubes at `indices`, in that order, cut from the grid's integers:
        same centers, radii times `factor` > 0, or `radius` (over R) times it.
        The pairs are reduced, so :func:`_grid_from_pairs` builds the grid the
        `Cube`s would: equality, hashes and union-volume cache keys agree."""
        grid = self.grid
        dens = [grid.rdenom * m for m in grid.scales]
        num, den = factor.numerator, factor.denominator * grid.rdenom
        return Collection.from_pairs(self.dim, [
            (
                tuple(map(_reduced, grid.centers[i], dens)),
                _reduced((grid.radii[i] if radius is None else radius) * num, den),
            )
            for i in indices
        ])

    @cached_property
    def grid(self) -> Grid:
        """The cubes on integers, built on first use."""
        return _grid_from_pairs(
            self.dim,
            [[(x.numerator, x.denominator) for x in q.center] for q in self.cubes],
            [(q.radius.numerator, q.radius.denominator) for q in self.cubes],
        )


@dataclass(frozen=True)
class Selection:
    """Indices of a disjoint sub-collection plus its exact ratio and certificate.

    Field invariants (enforced by :func:`make_selection`, re-checked by the
    oracle's verifier): the indexed cubes are pairwise disjoint and
    0 < certified_bound <= achieved_ratio <= 1.
    """

    indices: tuple[int, ...]
    achieved_ratio: Fraction
    certified_bound: Fraction


def intersects(a: Cube, b: Cube) -> bool:
    """True iff the closed cubes share at least one point (touching counts)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    reach = a.radius + b.radius
    return all(abs(x - y) <= reach for x, y in zip(a.center, b.center))


def union_volume(c: Collection, method: str = "compression", cap: int = IE_DEFAULT_CAP) -> Fraction:
    """Exact Lebesgue measure of the union of the cubes.

    Two independent methods are provided and agree exactly wherever both
    apply: "compression" and "inclusion_exclusion" (subset expansion with
    empty-intersection pruning, capped at `cap` cubes).  "compression" runs
    one of three engines on the faces of the integer :attr:`Collection.grid`,
    picked from the data: in the plane Bentley's segment tree (O(n log n));
    on a line, and on grid-like input where every axis has fewer distinct
    faces than there are cubes, a memoized recursion over the axes; anywhere
    else WFG's exclusive volumes.  Both of the last two have a work budget
    (SWEEP_MEMO_CAP, WFG_PAIR_CAP) past which they raise CapExceededError.
    Cached on `(dim, grid)`, integers only.
    """
    if not len(c):
        raise EmptyCollectionError("union volume of an empty collection is undefined")
    if method == "compression":
        return _union_volume_compression(c.dim, c.grid)
    if method in ("inclusion_exclusion", "ie"):
        return _union_volume_inclusion_exclusion(c, cap)
    raise ValueError(f"unknown union-volume method {method!r}")


@lru_cache(maxsize=4096)
def _union_volume_compression(dim: int, grid: Grid) -> Fraction:
    lo_idx, hi_idx, axis_xs, axis_scale = _compress(grid)
    engine = _pick_engine(axis_xs, len(grid.radii))
    return Fraction(engine(lo_idx, hi_idx, axis_xs), math.prod(axis_scale))


def _pick_engine(axis_xs, n: int):
    """The segment tree in the plane; the recursive sweep on a line and on
    grid-like input, where every axis has fewer distinct faces than there are
    cubes; exclusive volumes everywhere else."""
    if len(axis_xs) == 2:
        return _planar_sweep
    if len(axis_xs) == 1 or all(len(xs) < n for xs in axis_xs):
        return _recursive_sweep
    return _exclusive_volumes


def _compress(grid: Grid):
    """Integer grid of the cube boundaries, axis by axis.

    Per axis, the <= 2n faces (c ± r)·D_k are divided by their gcd g with D_k,
    so `axis_scale[axis]` = D_k/g is those faces' least common denominator and
    no integer is larger than the axis needs.  `axis_xs[axis]` holds the scaled
    faces, sorted and distinct; `lo_idx[axis][i]`, `hi_idx[axis][i]` index it.
    """
    lo_idx, hi_idx, axis_xs, axis_scale = [], [], [], []
    for axis, m in enumerate(grid.scales):
        los = [x[axis] - r * m for x, r in zip(grid.centers, grid.radii)]
        his = [x[axis] + r * m for x, r in zip(grid.centers, grid.radii)]
        denom = grid.rdenom * m
        g = math.gcd(denom, *los, *his)
        ilos = [v // g for v in los]
        ihis = [v // g for v in his]
        xs = sorted(set(ilos) | set(ihis))
        pos = {x: k for k, x in enumerate(xs)}
        lo_idx.append([pos[x] for x in ilos])
        hi_idx.append([pos[x] for x in ihis])
        axis_xs.append(xs)
        axis_scale.append(denom // g)
    return lo_idx, hi_idx, axis_xs, axis_scale


def _recursive_sweep(lo_idx, hi_idx, axis_xs) -> int:
    """Scaled integer volume by a memoized sweep over the axes, in any dimension.

    One level per axis sweeps its events and takes the volume of each run's
    cross-section from the next axis.  Levels are generators on an explicit
    stack, one frame per axis, so the depth is not bounded by Python's
    recursion limit.  Raises CapExceededError once the memo holds
    SWEEP_MEMO_CAP words, an entry counting its key's cube indices plus 16
    for its tuples and slot.
    """
    d = len(axis_xs)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}
    held = 0
    stack = []

    def sweep(axis: int, active: tuple[int, ...]):
        # Integer volume (in scaled units) of the union of the cross-sections
        # of `active` over axes >= axis.  Grid cells are grouped into maximal
        # runs with a constant covering set, so cost is driven by events.
        # A cross-section not yet in the memo is yielded as (axis + 1, set);
        # the level resumes once that key's volume is in the memo.
        starts: dict[int, list[int]] = {}
        ends: dict[int, list[int]] = {}
        for i in active:
            starts.setdefault(lo_idx[axis][i], []).append(i)
            ends.setdefault(hi_idx[axis][i], []).append(i)
        xs = axis_xs[axis]
        total = 0
        cur: set[int] = set()
        prev = -1
        for p in sorted(set(starts) | set(ends)):
            if cur:
                section = tuple(sorted(cur))
                vol = 1 if axis + 1 == d else memo.get((axis + 1, section))
                if vol is None:
                    yield axis + 1, section
                    vol = memo[axis + 1, section]
                total += (xs[p] - xs[prev]) * vol
            for i in ends.get(p, ()):
                cur.discard(i)
            for i in starts.get(p, ()):
                cur.add(i)
            prev = p
        memo[axis, active] = total

    def push(axis: int, active: tuple[int, ...]) -> None:
        nonlocal held
        held += len(active) + 16
        if held > SWEEP_MEMO_CAP:
            raise CapExceededError(f"union-volume sweep cap is {SWEEP_MEMO_CAP} memo words")
        stack.append(sweep(axis, active))

    root = tuple(range(len(lo_idx[0])))
    push(0, root)
    while stack:
        request = next(stack[-1], None)
        if request is None:
            stack.pop()
        else:
            push(*request)
    return memo[0, root]


_volume_key = itemgetter(0)  # boxes are (volume, lower corner, upper corner)


def _exclusive_volumes(lo_idx, hi_idx, axis_xs) -> int:
    """Scaled integer volume from exclusive volumes, after While, Bradstreet
    and Barone's WFG ("A fast way of calculating exact hypervolumes", 2012).

    With the boxes in ascending order of volume (a stable sort),
    vol(U) = Σ_i vol(b_i) − vol(∪_{j>i} b_i ∩ b_j): each box adds the part
    that no later box covers.  A box inside a later box adds nothing.  Any
    other box's limit set, its meets of positive measure with later boxes
    less every meet inside another, is measured the same way one level down,
    with the opposite sign.  Sets run on an explicit stack, one frame per
    level.  Raises CapExceededError once the sets opened hold WFG_PAIR_CAP
    box pairs in all, m² for a set of m boxes: that bounds the time and the
    overlap masks, m² bits a set.
    """
    boxes = []
    for los, his in zip(zip(*lo_idx), zip(*hi_idx)):
        lo = tuple(map(getitem, axis_xs, los))
        hi = tuple(map(getitem, axis_xs, his))
        boxes.append((math.prod(map(sub, hi, lo)), lo, hi))
    boxes.sort(key=_volume_key)
    total = 0
    pairs = 0
    stack = [(1, boxes, None, 0)]
    while stack:
        sign, boxes, masks, i = stack.pop()
        if i == 0:
            pairs += len(boxes) ** 2
            if pairs > WFG_PAIR_CAP:
                raise CapExceededError(f"union-volume WFG cap is {WFG_PAIR_CAP} box pairs")
            masks = _overlap_masks(boxes)
        if i + 1 < len(boxes):
            stack.append((sign, boxes, masks, i + 1))
        vol, lo, hi = boxes[i]
        limit = []
        for _, olo, ohi in _later_meets(boxes, masks, i):
            mlo = tuple(map(max, lo, olo))
            mhi = tuple(map(min, hi, ohi))
            if mlo == lo and mhi == hi:
                break
            limit.append((math.prod(map(sub, mhi, mlo)), mlo, mhi))
        else:
            total += sign * vol
            if len(limit) == 1:
                total -= sign * limit[0][0]
            elif limit:
                stack.append((-sign, _maximal(limit), None, 0))
    return total


MASK_MIN = 8  # boxes from which a set's meets come from sorted faces, not pair tests


def _overlap_masks(boxes) -> list[int] | None:
    """Per box, the bitmask of the later boxes that meet it in positive
    measure, bit k for box i + 1 + k; None below MASK_MIN boxes.

    Each axis is sorted once by lower and by upper faces, and prefix masks
    of those orders give the boxes whose lower face lies below a given upper
    face, and the reverse; a box's mask is their AND over the axes.
    """
    n = len(boxes)
    if n < MASK_MIN:
        return None
    masks = [(1 << n) - 1] * n
    for k in range(len(boxes[0][1])):
        los = [b[1][k] for b in boxes]
        his = [b[2][k] for b in boxes]
        by_lo = sorted(range(n), key=los.__getitem__)
        by_hi = sorted(range(n), key=his.__getitem__, reverse=True)
        sorted_los = [los[j] for j in by_lo]
        falling_his = [-his[j] for j in by_hi]
        below = list(accumulate((1 << j for j in by_lo), or_, initial=0))
        above = list(accumulate((1 << j for j in by_hi), or_, initial=0))
        for i in range(n):
            masks[i] &= below[bisect_left(sorted_los, his[i])] & above[bisect_left(falling_his, -los[i])]
    return [mask >> (i + 1) for i, mask in enumerate(masks)]


def _later_meets(boxes, masks, i: int) -> list:
    """The boxes after box i that meet it in positive measure."""
    if masks is None:
        _, lo, hi = boxes[i]
        return [o for o in boxes[i + 1:] if all(map(lt, o[1], hi)) and all(map(lt, lo, o[2]))]
    later = []
    mask = masks[i]
    while mask:
        low = mask & -mask
        later.append(boxes[i + low.bit_length()])
        mask ^= low
    return later


def _maximal(boxes: list) -> list:
    """The boxes in ascending order of volume, less each box inside another.

    A box inside another is inside a later one or equal to it, so a backward
    pass that keeps each box no kept box contains leaves one of each."""
    boxes.sort(key=_volume_key)
    kept = []
    for box in reversed(boxes):
        _, lo, hi = box
        for _, klo, khi in kept:
            if all(map(le, klo, lo)) and all(map(le, hi, khi)):
                break
        else:
            kept.append(box)
    kept.reverse()
    return kept


def _planar_sweep(lo_idx, hi_idx, axis_xs) -> int:
    """Scaled integer area in the plane by Bentley's segment-tree sweep.

    Events run along axis 0.  A segment tree over the axis-1 grid cells
    holds, per node, how many cubes cover the node's whole span without
    covering its parent's, and the length of the node's span that is
    covered; the root's covered length is the cross-section of the union
    between consecutive events.  O(n log n) against the recursion's
    O(n^2 log n).
    """
    xs, ys = axis_xs
    cells = len(ys) - 1
    count = [0] * (4 * cells)
    covered = [0] * (4 * cells)

    def update(node: int, lo: int, hi: int, a: int, b: int, delta: int) -> None:
        # Add delta to the cover count of cells [a, b) within node's [lo, hi).
        if a <= lo and hi <= b:
            count[node] += delta
        else:
            mid = (lo + hi) // 2
            if a < mid:
                update(2 * node, lo, mid, a, b, delta)
            if mid < b:
                update(2 * node + 1, mid, hi, a, b, delta)
        if count[node]:
            covered[node] = ys[hi] - ys[lo]
        elif hi - lo == 1:
            covered[node] = 0
        else:
            covered[node] = covered[2 * node] + covered[2 * node + 1]

    (x_lo, y_lo), (x_hi, y_hi) = lo_idx, hi_idx
    events = sorted(
        [(x, 1, a, b) for x, a, b in zip(x_lo, y_lo, y_hi)]
        + [(x, -1, a, b) for x, a, b in zip(x_hi, y_lo, y_hi)]
    )
    total = 0
    prev = events[0][0]
    for x, delta, a, b in events:
        if x != prev:
            total += (xs[x] - xs[prev]) * covered[1]
            prev = x
        update(1, 0, cells, a, b, delta)
    return total


def _box_meet(box, other):
    if box is None:
        return other
    out = []
    for (lo, hi), (olo, ohi) in zip(box, other):
        lo2 = max(lo, olo)
        hi2 = min(hi, ohi)
        if hi2 <= lo2:  # measure-zero intersection; all supersets vanish too
            return None
        out.append((lo2, hi2))
    return tuple(out)


def _box_volume(box) -> Fraction:
    vol = Fraction(1)
    for lo, hi in box:
        vol *= hi - lo
    return vol


def _union_volume_inclusion_exclusion(c: Collection, cap: int) -> Fraction:
    n = len(c.cubes)
    if n > cap:
        raise CapExceededError(f"inclusion-exclusion cap is {cap}, got {n} cubes")
    boxes = [
        tuple((q.center[k] - q.radius, q.center[k] + q.radius) for k in range(c.dim))
        for q in c.cubes
    ]
    total = Fraction(0)

    def descend(start: int, box, sign: int) -> None:
        nonlocal total
        for j in range(start, n):
            meet = _box_meet(box, boxes[j])
            if meet is None:
                continue
            total += sign * _box_volume(meet)
            descend(j + 1, meet, -sign)

    descend(0, None, 1)
    return total


def _check_indices(c: Collection, indices: tuple[int, ...]) -> None:
    if not indices:
        raise EmptyCollectionError("selection has no indices")
    if list(indices) != sorted(set(indices)):
        raise ValueError("selection indices must be sorted and unique")
    if indices[0] < 0 or indices[-1] >= len(c):
        raise IndexError(f"selection index out of range for {len(c)} cubes")


def _check_disjoint(c: Collection, indices: tuple[int, ...]) -> None:
    for i, j in combinations(indices, 2):
        if c.grid.meets(i, j):
            raise NotDisjointError(f"selected cubes {i} and {j} intersect")


def selected_volume(c: Collection, indices) -> Fraction:
    """Total volume of the indexed cubes (equals their union volume when disjoint),
    as Σ(2 r_i)^d / R^d on the grid's integers."""
    radii = c.grid.radii
    return Fraction(sum((2 * radii[i]) ** c.dim for i in indices), c.grid.rdenom ** c.dim)


def make_selection(c: Collection, indices, certified_bound, total_volume: Fraction | None = None) -> Selection:
    """Build a Selection, enforcing disjointness and certificate soundness."""
    idx = tuple(int(i) for i in indices)
    _check_indices(c, idx)
    _check_disjoint(c, idx)
    total = union_volume(c) if total_volume is None else total_volume
    achieved = selected_volume(c, idx) / total
    cert = as_scalar(certified_bound)
    if not 0 < cert <= achieved <= 1:
        raise VerificationError(
            f"certificate {cert} and achieved ratio {achieved} violate 0 < certified <= achieved <= 1"
        )
    return Selection(idx, achieved, cert)
