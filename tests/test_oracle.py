import random
from fractions import Fraction

import pytest

from cubecover.errors import CapExceededError, EmptyCollectionError
from cubecover.generators import gen_cell, gen_dyadic, gen_random
from cubecover.geometry import Collection, Selection, union_volume
from cubecover.oracle import intersection_graph, phi_exact, verify_guarantee
from cubecover.selection import greedy_vitali, pipeline_select, PipelineParams
from support import box, dilate


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_phi_cell_is_exactly_two_pow_minus_d(d):
    phi, witness = phi_exact(gen_cell(d))
    assert phi == Fraction(1, 2 ** d)
    assert len(witness.indices) == 1


def test_phi_cell_witness_is_lowest_index():
    # All four cubes tie on weight; the greedy seed takes the lowest index and
    # the search never beats it.
    _, witness = phi_exact(gen_cell(2))
    assert witness.indices == (0,)


def test_phi_disjoint_collection_is_one():
    c = Collection(2, (box((0, 0), 1), box((3, 0), 1), box((0, 3), 1)))
    phi, witness = phi_exact(c)
    assert phi == 1
    assert witness.indices == (0, 1, 2)


def test_phi_dyadic_parent_covers_union():
    phi, witness = phi_exact(gen_dyadic(2, 1))
    assert phi == 1
    assert witness.indices == (0,)


def test_intersection_graph_shape():
    c = gen_cell(2)
    g = intersection_graph(c)
    assert len(g.adjacency) == 4
    for i in range(4):
        assert not g.edge(i, i)
        for j in range(4):
            if i != j:
                assert g.edge(i, j) and g.edge(j, i)


def test_phi_permutation_invariant():
    rng = random.Random(13)
    c = gen_random(2, 9, ("uniform", Fraction(1, 2), Fraction(2)), seed=13)
    perm = list(range(9))
    rng.shuffle(perm)
    shuffled = Collection(2, tuple(c.cubes[i] for i in perm))
    assert phi_exact(c)[0] == phi_exact(shuffled)[0]


def test_phi_dilation_invariant():
    c = gen_random(2, 8, ("loguniform", Fraction(1, 2), Fraction(2)), seed=21)
    assert phi_exact(c)[0] == phi_exact(dilate(c, Fraction(3, 7)))[0]


def test_witness_volume_sum_equals_union():
    c = gen_random(2, 12, ("uniform", Fraction(1, 2), Fraction(3, 2)), seed=17)
    _, witness = phi_exact(c)
    picked = Collection(2, tuple(c.cubes[i] for i in witness.indices))
    assert union_volume(picked) == sum(q.volume for q in picked.cubes)


def test_phi_cap_and_empty():
    c = gen_random(2, 6, ("uniform", Fraction(1), Fraction(1)), seed=2)
    with pytest.raises(CapExceededError):
        phi_exact(c, cap=5)
    with pytest.raises(EmptyCollectionError):
        phi_exact(Collection(2, ()))


def test_verify_greedy_on_cell_passes():
    c = gen_cell(2)
    report = verify_guarantee(c, greedy_vitali(c))
    assert report.ok
    assert report.phi == Fraction(1, 4)


def test_verify_pipeline_random_passes():
    c = gen_random(2, 15, ("loguniform", Fraction(1, 4), Fraction(4)), seed=6)
    sel = pipeline_select(c, PipelineParams(4, Fraction(3, 2), "sweep"))
    report = verify_guarantee(c, sel)
    assert report.ok


def test_verify_reports_disjointness_violation():
    c = gen_cell(2)
    corrupted = Selection((0, 1), Fraction(1, 2), Fraction(1, 4))
    report = verify_guarantee(c, corrupted)
    assert not report.ok
    failed = report.failures()
    assert any(f.name == "pairwise disjoint" for f in failed)
    assert "0 and 1" in failed[0].detail


def test_verify_reports_certificate_violation():
    c = Collection(2, (box((0, 0), 1), box((5, 5), 1)))
    inflated_claim = Selection((0,), Fraction(1, 2), Fraction(3, 4))
    report = verify_guarantee(c, inflated_claim)
    assert not report.ok
    assert any(f.name == "achieved_ratio >= certified_bound" for f in report.failures())


def test_verify_skips_oracle_beyond_cap():
    c = gen_random(2, 8, ("uniform", Fraction(1), Fraction(1)), seed=4)
    sel = greedy_vitali(c)
    report = verify_guarantee(c, sel, cap=5)
    assert report.ok
    assert report.phi is None
    assert all(ch.name != "achieved_ratio <= exact optimum" for ch in report.checks)


def test_verify_accepts_precomputed_phi():
    c = gen_cell(3)
    phi, _ = phi_exact(c)
    sel = greedy_vitali(c)
    report = verify_guarantee(c, sel, phi=phi)
    assert report.ok
    assert report.phi == phi
