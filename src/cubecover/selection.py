"""Disjoint sub-collection selectors with exact certified guarantees.

Every selector returns a :class:`~cubecover.geometry.Selection` whose
``certified_bound`` is the fraction of the input union volume the algorithm
provably retains on any valid input, and whose ``achieved_ratio`` is the
exact fraction it retained on this one.  Certificates are never stronger
than what the shipped code guarantees: the lexicographic sweep for congruent
cubes certifies 3^-d even though it usually does much better, while exact
mode delegates to the oracle and certifies 2^-d, the optimal constant for
congruent cubes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from . import constants
from .errors import CapExceededError, EmptyCollectionError, InputError, VerificationError
from .geometry import (
    Collection,
    Selection,
    as_scalar,
    make_selection,
    union_volume,
)
from .oracle import ORACLE_DEFAULT_CAP, phi_exact

# Bits of the largest power of lam a band exponent may take: a power at the
# cap takes milliseconds, and auto_params(300) on radii 1/16-4 needs 3.3e4.
BAND_BITS_CAP = 1 << 17


@dataclass(frozen=True)
class Window:
    """Radius interval [lo, hi] with 0 < lo <= hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", as_scalar(self.lo))
        object.__setattr__(self, "hi", as_scalar(self.hi))
        if not 0 < self.lo <= self.hi:
            raise InputError(f"window needs 0 < lo <= hi, got [{self.lo}, {self.hi}]")

    def cuts(self, rdenom: int) -> tuple[int, int]:
        """The least and the greatest grid radius r with lo <= r/rdenom <= hi."""
        return math.ceil(self.lo * rdenom), math.floor(self.hi * rdenom)


@dataclass(frozen=True)
class LacunaryStructure:
    """Ascending windows with bounded in-window ratio and wide gaps.

    Each window satisfies hi <= mu * lo, and consecutive windows satisfy
    next.lo >= lam * prev.hi with lam > 1, so radii from different windows
    differ by at least the factor lam.
    """

    windows: tuple[Window, ...]
    lam: Fraction
    mu: Fraction

    def __post_init__(self):
        object.__setattr__(self, "windows", tuple(self.windows))
        object.__setattr__(self, "lam", as_scalar(self.lam))
        object.__setattr__(self, "mu", as_scalar(self.mu))
        if not self.windows:
            raise InputError("lacunary structure needs at least one window")
        if self.lam <= 1:
            raise InputError("gap factor must exceed 1")
        if self.mu < 1:
            raise InputError("in-window ratio bound must be at least 1")
        for w in self.windows:
            if w.hi > self.mu * w.lo:
                raise InputError(f"window [{w.lo}, {w.hi}] exceeds ratio bound {self.mu}")
        for prev, nxt in zip(self.windows, self.windows[1:]):
            if nxt.lo < self.lam * prev.hi:
                raise InputError(
                    f"window [{nxt.lo}, {nxt.hi}] starts before {self.lam} x {prev.hi}"
                )


@dataclass(frozen=True)
class PipelineParams:
    """Parameters of the residue-class pipeline.

    The congruent subroutine's certificate gamma is not a parameter: it is
    fixed by the unit selector and the dimension (see :func:`unit_gamma`).
    """

    J: int
    lam: Fraction
    unit_selector: str

    def __post_init__(self):
        object.__setattr__(self, "lam", as_scalar(self.lam))
        if not isinstance(self.J, int) or self.J < 3:
            raise InputError("pipeline needs an integer class count J >= 3")
        if self.lam <= 1:
            raise InputError("pipeline scale ratio must exceed 1")
        if self.unit_selector not in ("sweep", "exact"):
            raise InputError(f"unknown unit selector {self.unit_selector!r}")


def unit_gamma(d: int, mode: str) -> Fraction:
    """Honest certificate of the congruent subroutine in the given mode."""
    if mode == "sweep":
        return Fraction(1, 3 ** d)
    if mode == "exact":
        return Fraction(1, 2 ** d)
    raise InputError(f"unknown unit selector {mode!r}")


def _require_nonempty(c: Collection) -> None:
    if not len(c):
        raise EmptyCollectionError("selection requires a nonempty collection")


def _maximal_greedy(c: Collection, order) -> list[int]:
    """Take each cube in `order` that meets no cube taken before it.

    The result is a maximal disjoint family, returned as sorted indices.
    """
    n = len(c)
    alive = [True] * n
    chosen = []
    for i in order:
        if not alive[i]:
            continue
        chosen.append(i)
        alive[i] = False
        for j in range(n):
            if alive[j] and c.grid.meets(i, j):
                alive[j] = False
    return sorted(chosen)


def greedy_vitali(c: Collection) -> Selection:
    """Repeatedly select the largest remaining cube and drop everything it meets.

    Ties in size are broken by lowest index.  Certifies 3^-d of the union
    volume; additionally, every input cube is contained in the 3-fold
    concentric inflation of some selected cube.
    """
    _require_nonempty(c)
    order = sorted(range(len(c)), key=c.grid.radii.__getitem__, reverse=True)
    return make_selection(c, _maximal_greedy(c, order), Fraction(1, 3 ** c.dim))


def congruent_select(c: Collection, mode: str = "sweep", cap: int = ORACLE_DEFAULT_CAP) -> Selection:
    """Select among cubes of one common radius.

    "sweep": greedily take the remaining cube with lexicographically smallest
    center and drop everything it meets; the resulting family is maximal, so
    3^-d is certified.  "exact": delegate to the oracle (within cap) and
    certify 2^-d, the optimal constant for congruent cubes.
    """
    _require_nonempty(c)
    gamma = unit_gamma(c.dim, mode)
    if len(set(c.grid.radii)) > 1:
        raise InputError("congruent selection requires all radii equal")
    if mode == "exact":
        _, witness = phi_exact(c, cap)
        return make_selection(c, witness.indices, gamma)
    # Axis k holds the centers times one D_k > 0, so the grid's order is the
    # centers' lexicographic order; the stable sort breaks ties by index.
    order = sorted(range(len(c)), key=c.grid.centers.__getitem__)
    return make_selection(c, _maximal_greedy(c, order), gamma)


def window_select(c: Collection, w: Window, mode: str = "sweep", cap: int = ORACLE_DEFAULT_CAP) -> Selection:
    """Select among cubes whose radii share one window [lo, hi].

    Every cube is inflated concentrically to the maximum radius present, the
    congruent selector runs on the inflated family, and the pre-images of its
    choices are returned: disjoint inflations force disjoint originals.
    Certifies (r_max / lo)^-d times the congruent certificate, which is at
    least (hi/lo)^-d times it.
    """
    _require_nonempty(c)
    radii, rdenom = c.grid.radii, c.grid.rdenom
    lo, hi = w.cuts(rdenom)
    for i, r in enumerate(radii):
        if not lo <= r <= hi:
            raise InputError(f"cube {i} has radius {Fraction(r, rdenom)} outside window [{w.lo}, {w.hi}]")
    r_max = max(radii)
    base = congruent_select(c.subset(range(len(c)), radius=r_max), mode, cap)
    cert = (w.lo * rdenom / r_max) ** c.dim * unit_gamma(c.dim, mode)
    return make_selection(c, base.indices, cert)


def lacunary_select(
    c: Collection,
    ls: LacunaryStructure,
    mode: str = "sweep",
    cap: int = ORACLE_DEFAULT_CAP,
) -> Selection:
    """Select among cubes whose radii form a lacunary set.

    Cubes are bucketed into the structure's windows; a top-down pruning pass
    keeps only cubes meeting nothing kept in any higher window; each surviving
    window family is inflated by (1 + 2/lam), selected per window, and
    deflated.  Pruning makes cross-window picks disjoint, and the inflation
    guarantees the pruned cubes stay covered, which is what the certificate
    mu^-d (1 + 2/lam)^-d gamma accounts for.  A single-window structure needs
    no pruning and reduces exactly to :func:`window_select`.
    """
    _require_nonempty(c)
    if len(ls.windows) == 1:
        return window_select(c, ls.windows[0], mode, cap)

    rdenom = c.grid.rdenom
    cuts = [w.cuts(rdenom) for w in ls.windows]
    buckets: list[list[int]] = [[] for _ in ls.windows]
    for i, r in enumerate(c.grid.radii):
        for j, (lo, hi) in enumerate(cuts):
            if lo <= r <= hi:
                buckets[j].append(i)
                break
        else:
            raise InputError(f"cube {i} has radius {Fraction(r, rdenom)} in no window")

    kept: list[int] = []
    pruned: list[list[int]] = [[] for _ in ls.windows]
    for j in reversed(range(len(ls.windows))):
        mine = [i for i in buckets[j] if not any(c.grid.meets(i, k) for k in kept)]
        pruned[j] = mine
        kept.extend(mine)

    grow = 1 + Fraction(2) / ls.lam
    chosen: list[int] = []
    for j, mine in enumerate(pruned):
        if not mine:
            continue
        w2 = Window(ls.windows[j].lo * grow, ls.windows[j].hi * grow)
        picked = window_select(c.subset(mine, factor=grow), w2, mode, cap)
        chosen.extend(mine[k] for k in picked.indices)

    cert = (1 / ls.mu) ** c.dim * (1 / grow) ** c.dim * unit_gamma(c.dim, mode)
    return make_selection(c, sorted(chosen), cert)


def _log(p: int, q: int) -> float:
    # log(p/q), p, q > 0, to a few ulps also near 1, where log p - log q cancels
    return math.log1p((p - q) / q) if q <= 2 * p <= 4 * q else math.log(p) - math.log(q)


def _floor_log(lam: Fraction, r: int, rdenom: int) -> int:
    """Largest integer m with lam^m <= r/rdenom, for rational lam > 1 and r, rdenom > 0.

    lam^m takes about |m| bits(lam) bits.  Before forming any power, raises
    CapExceededError if that passes BAND_BITS_CAP (lam near 1) or if log(lam)
    is below the float range."""
    est, base = _log(r, rdenom), _log(lam.numerator, lam.denominator)
    if base <= 0 or abs(est) * lam.numerator.bit_length() > BAND_BITS_CAP * base:
        raise CapExceededError(f"band-exponent cap is {BAND_BITS_CAP} bits of lam^m, "
                               f"passed by radius {Fraction(r, rdenom)} in powers of {lam}")
    m = math.floor(est / base)
    while rdenom * lam ** m > r:
        m -= 1
    while rdenom * lam ** (m + 1) <= r:
        m += 1
    return m


def _band_exponents(lam: Fraction, radii, rdenom: int) -> list[int]:
    """:func:`_floor_log` of each grid radius r: the band [lam^m, lam^(m+1)) of r/rdenom.

    Only the extreme radii take a logarithm; the others are placed by
    bisection among the least grid radii ceil(rdenom lam^m) of the bands
    between them.  With more bands than radii (lam near 1) that list would
    outgrow the work it saves, so each radius takes its own logarithm instead."""
    lo, hi = _floor_log(lam, min(radii), rdenom), _floor_log(lam, max(radii), rdenom)
    if hi - lo > len(radii):
        return [_floor_log(lam, r, rdenom) for r in radii]
    cuts = [math.ceil(rdenom * lam ** m) for m in range(lo + 1, hi + 1)]
    return [lo + bisect_right(cuts, r) for r in radii]


def pipeline_select(c: Collection, params: PipelineParams, cap: int = ORACLE_DEFAULT_CAP) -> Selection:
    """Full selection pipeline for arbitrary radii.

    Radii are split into J residue classes by the exponent of lam (half-open
    bands [lam^m, lam^(m+1)), class = m mod J); the class with the largest
    union volume holds at least 1/J of the total, which is asserted.  Its
    occupied bands form a (lam^(J-1), lam)-lacunary structure, on which the
    lacunary selector runs.  Certifies
    J^-1 (lam (1 + 2 lam^(1-J)))^-d gamma, with gamma the unit selector's
    certificate.
    """
    _require_nonempty(c)
    d = c.dim
    J, lam = params.J, params.lam

    exps = _band_exponents(lam, c.grid.radii, c.grid.rdenom)
    classes: dict[int, list[int]] = {}
    for i, m in enumerate(exps):
        classes.setdefault(m % J, []).append(i)

    total = union_volume(c)
    vols = {i: union_volume(c.subset(classes[i])) for i in sorted(classes)}
    best_i = max(vols, key=vols.get)  # the first largest: ties go to the lowest class
    if not vols[best_i] * J >= total:
        raise VerificationError("largest residue class fell below a 1/J share of the union")

    members = classes[best_i]
    occupied = sorted({exps[k] for k in members})
    windows = tuple(Window(lam ** m, lam ** (m + 1)) for m in occupied)
    structure = LacunaryStructure(windows, lam ** (J - 1), lam)

    inner = lacunary_select(c.subset(members), structure, params.unit_selector, cap)
    indices = sorted(members[k] for k in inner.indices)
    cert = certified_bound(d, J, lam, unit_gamma(d, params.unit_selector))
    return make_selection(c, indices, cert, total_volume=total)


def certified_bound(d: int, J: int, lam, gamma_guar) -> Fraction:
    """Exact pipeline certificate J^-1 (lam (1 + 2 lam^(1-J)))^-d gamma."""
    if d < 1:
        raise InputError("dimension must be >= 1")
    if not isinstance(J, int) or J < 2:
        raise InputError("class count J must be an integer >= 2")
    lam = as_scalar(lam)
    gamma = as_scalar(gamma_guar)
    if lam < 1:
        raise InputError("scale ratio must be at least 1")
    if not 0 < gamma <= 1:
        raise InputError("gamma guarantee must lie in (0, 1]")
    core = lam * (1 + 2 * lam ** (1 - J))
    return Fraction(1, J) * core ** (-d) * gamma


def auto_params(d: int, unit_selector: str = "sweep") -> PipelineParams:
    """Pipeline parameters tuned for dimension d.

    J = L_d + 2 from the integer minimization of h_d, and lam is a rational
    within 1e-6 of the optimal scale ratio for that J (kept strictly above 1).
    """
    if d < 2:
        raise InputError("parameter optimization needs dimension >= 2")
    L, _, _ = constants.optimize_L(d)
    J = L + 2
    lam_star, _ = constants.optimal_lambda(J)
    lam = Fraction(round(float(lam_star) * 10 ** 6), 10 ** 6)
    if lam <= 1:
        lam = Fraction(10 ** 6 + 1, 10 ** 6)
    return PipelineParams(J=J, lam=lam, unit_selector=unit_selector)
