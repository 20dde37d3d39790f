"""Shared test helpers."""

import os
from fractions import Fraction

import mpmath

from cubecover.geometry import (
    Collection,
    Cube,
    Selection,
    _check_disjoint,
    _check_indices,
    as_scalar,
    selected_volume,
    union_volume,
)

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def golden_section_min(f, lo, hi, iterations=80):
    """Independent 1-d minimizer used as the oracle for closed-form optima."""
    with mpmath.workdps(50):
        lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
        gr = (mpmath.sqrt(5) - 1) / 2
        c = hi - gr * (hi - lo)
        d = lo + gr * (hi - lo)
        fc, fd = f(c), f(d)
        for _ in range(iterations):
            if fc < fd:
                hi, d, fd = d, c, fc
                c = hi - gr * (hi - lo)
                fc = f(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + gr * (hi - lo)
                fd = f(d)
        return fc if fc < fd else fd


def box(min_corner, side) -> Cube:
    """Cube from its min-corner and side length (both exact)."""
    side = Fraction(side)
    half = side / 2
    return Cube(tuple(Fraction(x) + half for x in min_corner), half)


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


def ratio(s: Selection, c: Collection) -> Fraction:
    """Exact fraction of the collection's union volume held by a disjoint selection."""
    idx = tuple(s.indices)
    _check_indices(c, idx)
    _check_disjoint(c, idx)
    return selected_volume(c, idx) / union_volume(c)


def dilate(c: Collection, t) -> Collection:
    """Scale the whole instance about the origin by t > 0."""
    t = Fraction(t)
    return Collection(
        c.dim,
        tuple(Cube(tuple(x * t for x in q.center), q.radius * t) for q in c.cubes),
    )


def load_golden_table():
    """Rows (d, L, m, m_over_3d) transcribed from the published table."""
    rows = []
    with open(os.path.join(DATA_DIR, "bounds_table_golden.tsv"), encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("d"):
                continue
            d, L, m, m3d = line.split("\t")
            rows.append((int(d), int(L), float(m), float(m3d)))
    return rows
