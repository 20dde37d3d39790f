"""Exact geometry of axis-parallel cubes.

A cube is a closed ball of the max norm: a center vector plus a radius equal
to half the side length.  Every coordinate and every measure is an exact
rational, so intersection predicates, disjointness, and volume ratios are
never subject to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    CapExceededError,
    EmptyCollectionError,
    NotDisjointError,
    VerificationError,
)

IE_DEFAULT_CAP = 20


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
        object.__setattr__(self, "center", tuple(as_scalar(x) for x in self.center))
        object.__setattr__(self, "radius", as_scalar(self.radius))
        if len(self.center) < 1:
            raise ValueError("cube must live in dimension >= 1")
        if self.radius <= 0:
            raise ValueError("cube radius must be positive")

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def volume(self) -> Fraction:
        return (2 * self.radius) ** self.dim


@dataclass(frozen=True)
class Collection:
    """Ordered finite list of cubes sharing one ambient dimension."""

    dim: int
    cubes: tuple[Cube, ...]

    def __post_init__(self):
        object.__setattr__(self, "cubes", tuple(self.cubes))
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        for q in self.cubes:
            if q.dim != self.dim:
                raise ValueError(f"cube of dimension {q.dim} in a {self.dim}-d collection")

    def __len__(self) -> int:
        return len(self.cubes)


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


def contains(outer: Cube, inner: Cube) -> bool:
    """True iff inner lies entirely inside outer (closed containment)."""
    if outer.dim != inner.dim:
        raise ValueError(f"dimension mismatch: {outer.dim} vs {inner.dim}")
    slack = outer.radius - inner.radius
    if slack < 0:
        return False
    return all(abs(x - y) <= slack for x, y in zip(outer.center, inner.center))


def scale(a: Cube, lam) -> Cube:
    """Concentric scaling: same center, radius multiplied by lam > 0."""
    lam = as_scalar(lam)
    if lam <= 0:
        raise ValueError("scale factor must be positive")
    return Cube(a.center, a.radius * lam)


def union_volume(c: Collection, method: str = "compression", cap: int = IE_DEFAULT_CAP) -> Fraction:
    """Exact Lebesgue measure of the union of the cubes.

    Two independent methods are provided and agree exactly wherever both
    apply: "compression" and "inclusion_exclusion" (subset expansion with
    empty-intersection pruning, capped at `cap` cubes).  "compression" maps
    every face to an integer grid, then in the plane runs Bentley's
    segment-tree sweep (O(n log n)) and in any other dimension a memoized
    recursive sweep over the axes, practical for moderate dimension.
    """
    if not c.cubes:
        raise EmptyCollectionError("union volume of an empty collection is undefined")
    if method == "compression":
        return _union_volume_compression(c)
    if method in ("inclusion_exclusion", "ie"):
        return _union_volume_inclusion_exclusion(c, cap)
    raise ValueError(f"unknown union-volume method {method!r}")


@lru_cache(maxsize=4096)
def _union_volume_compression(c: Collection) -> Fraction:
    lo_idx, hi_idx, axis_xs, axis_scale = _compress(c)
    sweep = _planar_sweep if c.dim == 2 else _recursive_sweep
    return Fraction(sweep(lo_idx, hi_idx, axis_xs), math.prod(axis_scale))


def _compress(c: Collection):
    """Integer grid of the cube boundaries, axis by axis.

    Per axis, the <= 2n boundary coordinates are rescaled by the lcm of their
    denominators to integers `axis_xs[axis]` (sorted, distinct), so sweeps
    work in exact integer arithmetic throughout; `lo_idx[axis][i]` and
    `hi_idx[axis][i]` are the grid positions of cube i's faces and
    `axis_scale[axis]` is the rescaling factor.
    """
    lo_idx: list[list[int]] = []
    hi_idx: list[list[int]] = []
    axis_xs: list[list[int]] = []
    axis_scale: list[int] = []
    for axis in range(c.dim):
        los = [q.center[axis] - q.radius for q in c.cubes]
        his = [q.center[axis] + q.radius for q in c.cubes]
        denom = math.lcm(*(v.denominator for v in los), *(v.denominator for v in his))
        ilos = [v.numerator * (denom // v.denominator) for v in los]
        ihis = [v.numerator * (denom // v.denominator) for v in his]
        xs = sorted(set(ilos) | set(ihis))
        pos = {x: k for k, x in enumerate(xs)}
        lo_idx.append([pos[x] for x in ilos])
        hi_idx.append([pos[x] for x in ihis])
        axis_xs.append(xs)
        axis_scale.append(denom)
    return lo_idx, hi_idx, axis_xs, axis_scale


def _recursive_sweep(lo_idx, hi_idx, axis_xs) -> int:
    """Scaled integer volume by a memoized recursive sweep, in any dimension."""
    d = len(axis_xs)
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def sweep(axis: int, active: tuple[int, ...]) -> int:
        # Integer volume (in scaled units) of the union of the cross-sections
        # of `active` over axes >= axis.  Grid cells are grouped into maximal
        # runs with a constant covering set, so cost is driven by events.
        if axis == d:
            return 1
        key = (axis, active)
        cached = memo.get(key)
        if cached is not None:
            return cached
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
                total += (xs[p] - xs[prev]) * sweep(axis + 1, tuple(sorted(cur)))
            for i in ends.get(p, ()):
                cur.discard(i)
            for i in starts.get(p, ()):
                cur.add(i)
            prev = p
        memo[key] = total
        return total

    return sweep(0, tuple(range(len(lo_idx[0]))))


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
    if indices[0] < 0 or indices[-1] >= len(c.cubes):
        raise IndexError(f"selection index out of range for {len(c.cubes)} cubes")


def _check_disjoint(c: Collection, indices: tuple[int, ...]) -> None:
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            i, j = indices[a], indices[b]
            if intersects(c.cubes[i], c.cubes[j]):
                raise NotDisjointError(f"selected cubes {i} and {j} intersect")


def selected_volume(c: Collection, indices) -> Fraction:
    """Total volume of the indexed cubes (equals their union volume when disjoint)."""
    return sum((c.cubes[i].volume for i in indices), Fraction(0))


def ratio(s: Selection, c: Collection) -> Fraction:
    """Exact fraction of the collection's union volume held by the selection.

    The numerator is the sum of the selected cube volumes, which equals the
    union volume of the selection because disjointness is required.
    """
    idx = tuple(s.indices)
    _check_indices(c, idx)
    _check_disjoint(c, idx)
    return selected_volume(c, idx) / union_volume(c)


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
