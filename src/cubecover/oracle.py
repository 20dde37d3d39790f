"""Exact optimum oracle.

The best disjoint sub-collection of a cube collection is a maximum-weight
independent set in the intersection graph, with cube volumes as weights:
disjoint cubes contribute the sum of their volumes to the union.  The search
is exact branch-and-bound over rational weights, intended for ground truth at
desk scale (default cap: 30 cubes).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import CapExceededError, EmptyCollectionError, NotDisjointError, VerificationError
from .geometry import (
    Collection,
    Selection,
    _check_disjoint,
    _check_indices,
    make_selection,
    selected_volume,
    union_volume,
)

ORACLE_DEFAULT_CAP = 30


@dataclass(frozen=True)
class IntersectionGraph:
    """Vertex per cube, edge iff the cubes intersect.

    Adjacency is stored as one bitmask per vertex.
    """

    adjacency: tuple[int, ...]

    def edge(self, i: int, j: int) -> bool:
        return bool(self.adjacency[i] >> j & 1)


def intersection_graph(c: Collection) -> IntersectionGraph:
    n = len(c)
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if c.grid.meets(i, j):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return IntersectionGraph(tuple(adj))


def phi_exact(c: Collection, cap: int = ORACLE_DEFAULT_CAP) -> tuple[Fraction, Selection]:
    """Exact maximum of |union(S)| / |union(C)| over disjoint S, with a witness.

    Branch-and-bound on the intersection graph: branch on the remaining
    vertex of highest residual degree, prune with current weight plus total
    remaining weight, seed with a max-weight-first greedy solution.  Weights
    are the grid's integers (2 r R)^d: volumes times R^d, same order and ties.
    """
    n = len(c)
    if n == 0:
        raise EmptyCollectionError("oracle needs a nonempty collection")
    if n > cap:
        raise CapExceededError(f"oracle cap is {cap}, got {n} cubes")

    adj = intersection_graph(c).adjacency
    w = [(2 * r) ** c.dim for r in c.grid.radii]
    closed = [adj[i] | (1 << i) for i in range(n)]
    full = (1 << n) - 1

    # Seed: one greedy pass, heaviest first; the stable sort breaks ties by index.
    best_w, best_set = 0, 0
    free = full
    for i in sorted(range(n), key=w.__getitem__, reverse=True):
        if free >> i & 1:
            best_w += w[i]
            best_set |= 1 << i
            free &= ~closed[i]

    def search(mask: int, cur_w: int, cur_set: int) -> None:
        nonlocal best_w, best_set
        if mask == 0:
            if cur_w > best_w:
                best_w, best_set = cur_w, cur_set
            return
        rem = cur_w
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            rem += w[i]
        if rem <= best_w:
            return
        v = -1
        vdeg = -1
        m = mask
        while m:
            i = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (adj[i] & mask).bit_count()
            if deg > vdeg:
                vdeg, v = deg, i
        search(mask & ~closed[v], cur_w + w[v], cur_set | (1 << v))
        search(mask & ~(1 << v), cur_w, cur_set)

    search(full, 0, 0)

    indices = tuple(i for i in range(n) if best_set >> i & 1)
    best_vol = Fraction(best_w, c.grid.rdenom ** c.dim)
    if union_volume(c.subset(indices)) != best_vol:
        raise VerificationError("witness volume sum does not equal its union volume")
    total = union_volume(c)
    phi = best_vol / total
    witness = make_selection(c, indices, phi, total_volume=total)
    return phi, witness


def _brief(x: Fraction) -> str:
    # Detail strings only; comparisons stay exact.  Very large exact rationals
    # (pipeline certificates at high dimension) are summarized as floats.
    if x.numerator.bit_length() > 130 or x.denominator.bit_length() > 130:
        return f"~{float(x):.6g}"
    return str(x)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    phi: Fraction | None

    @property
    def ok(self) -> bool:
        return all(ch.passed for ch in self.checks)

    def failures(self) -> list[CheckResult]:
        return [ch for ch in self.checks if not ch.passed]


def verify_guarantee(
    c: Collection,
    s: Selection,
    cap: int = ORACLE_DEFAULT_CAP,
    phi: Fraction | None = None,
) -> VerifyReport:
    """Re-check a selection against its collection.

    Verifies index validity, pairwise disjointness, that the recorded
    achieved_ratio matches an exact recomputation, that
    certified_bound <= achieved_ratio, and (when the instance fits under the
    oracle cap, or `phi` is supplied) that achieved_ratio <= the exact
    optimum.  Each violated inequality is named in the report.
    """
    checks: list[CheckResult] = []
    idx = tuple(s.indices)

    valid = True
    try:
        _check_indices(c, idx)
    except (ValueError, IndexError) as exc:
        valid = False
        checks.append(CheckResult("indices valid", False, str(exc)))
    if not valid:
        return VerifyReport(tuple(checks), None)
    checks.append(CheckResult("indices valid", True, f"{len(idx)} of {len(c)} cubes"))

    try:
        _check_disjoint(c, idx)
    except NotDisjointError as exc:
        checks.append(CheckResult("pairwise disjoint", False, str(exc)))
        return VerifyReport(tuple(checks), None)
    checks.append(CheckResult("pairwise disjoint", True, "no intersecting pair"))

    achieved = selected_volume(c, idx) / union_volume(c)
    checks.append(
        CheckResult(
            "achieved_ratio matches recomputation",
            achieved == s.achieved_ratio,
            f"recomputed {_brief(achieved)}, recorded {_brief(s.achieved_ratio)}",
        )
    )
    checks.append(
        CheckResult(
            "0 < certified_bound and achieved_ratio <= 1",
            0 < s.certified_bound and achieved <= 1,
            f"certified {_brief(s.certified_bound)}, achieved {_brief(achieved)}",
        )
    )
    checks.append(
        CheckResult(
            "achieved_ratio >= certified_bound",
            achieved >= s.certified_bound,
            f"{_brief(achieved)} >= {_brief(s.certified_bound)}",
        )
    )

    if phi is None and len(c) <= cap:
        phi, _ = phi_exact(c, cap)
    if phi is not None:
        checks.append(
            CheckResult(
                "achieved_ratio <= exact optimum",
                achieved <= phi,
                f"{_brief(achieved)} <= {_brief(phi)}",
            )
        )
    return VerifyReport(tuple(checks), phi)
