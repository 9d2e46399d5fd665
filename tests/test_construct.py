"""Flip vectors, candidate families, twin-block witnesses, and the all-main
switching constructions for both graph families."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainswitch import construct
from mainswitch import (
    MultipartiteParams,
    NoAllMainSwitchingError,
    SnrParams,
    adjacency_matrix,
    apply_switching,
    candidate_family_distinct,
    candidate_family_equal,
    eigen_sym,
    flip,
    make_multipartite,
    make_snr,
    multipartite_all_main_switching,
    multipartite_secular_roots,
    one_per_part_switching,
    parse_graph6,
    snr_all_main_switching,
    snr_cubic_roots,
    snr_eigvec,
)
from mainswitch.graphs import _adjacency_array, _switched_array
from conftest import random_signed_graph

RESIDUAL_TOL = 1e-8


def _check_result(res):
    """Every witness must be an eigenvector of the switched graph with
    nonzero entry sum, and the exact decision must agree."""
    a = np.array(adjacency_matrix(apply_switching(res.graph, res.switching)), float)
    for lam, vec in res.witnesses:
        assert np.linalg.norm(a @ vec - lam * vec) <= RESIDUAL_TOL
        assert abs(vec.sum()) > 1e-8
    assert res.verified
    assert res.profile.all_main
    assert res.profile.main_count == res.profile.distinct_count


# ---------------------------------------------------------------------------
# flip
# ---------------------------------------------------------------------------


def test_flip_examples():
    assert list(flip([1, 2, 3], [2])) == [1, -2, 3]
    assert list(flip([1, 1], [])) == [1, 1]
    assert list(flip([1, 2], [1, 2])) == [-1, -2]


def test_flip_involution(rng):
    for _ in range(20):
        n = rng.randrange(1, 10)
        v = [rng.uniform(-3, 3) for _ in range(n)]
        idx = [i for i in range(1, n + 1) if rng.random() < 0.4]
        assert np.allclose(flip(flip(v, idx), idx), v)


def test_flip_errors():
    with pytest.raises(ValueError):
        flip([1, 2], [1, 1])
    with pytest.raises(ValueError):
        flip([1, 2], [3])


def test_flipped_eigenvector_tracks_switching(rng):
    # If v is an eigenvector, negating coordinates in X gives an eigenvector
    # of the graph switched about X, same eigenvalue.
    for _ in range(10):
        sg = random_signed_graph(rng, rng.randrange(3, 9))
        n = sg.n
        es = eigen_sym(np.array(adjacency_matrix(sg), float))
        xs = [v for v in range(1, n + 1) if rng.random() < 0.5]
        a_sw = np.array(adjacency_matrix(apply_switching(sg, xs)), float)
        for k in range(n):
            v = flip(es.vectors[:, k], xs)
            lam = es.eigenvalues[k]
            assert np.linalg.norm(a_sw @ v - lam * v) < 1e-8


# ---------------------------------------------------------------------------
# Candidate families
# ---------------------------------------------------------------------------


def test_family_distinct_example():
    fam = candidate_family_distinct([1, 2, 3], [1, 2, 3])
    assert [m.entry_sum() for m in fam.members] == [6, 4, 2, 0]
    assert fam.zero_sum_count() == 1


def test_family_distinct_all_main_example():
    fam = candidate_family_distinct([1, -1, 5], [1, 3])
    assert [m.entry_sum() for m in fam.members] == [5, 3, -5]
    assert fam.zero_sum_count() == 0


def test_family_distinct_rejects_equal_values():
    with pytest.raises(ValueError):
        candidate_family_distinct([1, 1], [1, 2])
    with pytest.raises(ValueError):
        candidate_family_distinct([0, 1], [1])


def test_family_equal_examples():
    fam = candidate_family_equal([1, 1, 1], [1, 2, 3])
    assert [m.entry_sum() for m in fam.members] == [3, 1, -1, -3]
    assert fam.zero_sum_count() == 0
    fam = candidate_family_equal([2, 2, -4], [1, 2])
    assert [m.entry_sum() for m in fam.members] == [0, -4, -8]
    assert fam.zero_sum_count() == 1


def test_family_equal_rejects_bad_values():
    with pytest.raises(ValueError):
        candidate_family_equal([1, 0], [2])
    with pytest.raises(ValueError):
        candidate_family_equal([1, 2], [1, 2])


@st.composite
def _distinct_family_case(draw):
    n = draw(st.integers(3, 9))
    vals = draw(st.lists(
        st.fractions(min_value=-6, max_value=6), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    idx = draw(st.permutations(range(1, n + 1)))[:k]
    flip_vals = [vals[i - 1] for i in idx]
    if any(v == 0 for v in flip_vals) or len(set(flip_vals)) != len(flip_vals):
        return None
    return vals, idx


@given(_distinct_family_case())
@settings(max_examples=300, deadline=None)
def test_family_distinct_at_most_one_zero_sum(case):
    if case is None:
        return
    vals, idx = case
    fam = candidate_family_distinct(vals, idx)
    assert fam.zero_sum_count() <= 1


@st.composite
def _equal_family_case(draw):
    n = draw(st.integers(2, 9))
    common = draw(st.fractions(min_value=-5, max_value=5))
    if common == 0:
        return None
    k = draw(st.integers(1, n))
    idx = draw(st.permutations(range(1, n + 1)))[:k]
    vals = [draw(st.fractions(min_value=-5, max_value=5)) for _ in range(n)]
    for i in idx:
        vals[i - 1] = common
    return vals, idx


@given(_equal_family_case())
@settings(max_examples=300, deadline=None)
def test_family_equal_at_most_one_zero_sum(case):
    if case is None:
        return
    vals, idx = case
    fam = candidate_family_equal(vals, idx)
    assert fam.zero_sum_count() <= 1


def test_family_zero_count_exact_with_fractions(rng):
    # Seeded bulk run with exact rational sums.
    for _ in range(500):
        n = rng.randrange(2, 10)
        vals = [Fraction(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(n)]
        idx = [i for i in range(1, n + 1) if rng.random() < 0.5] or [1]
        flip_vals = [vals[i - 1] for i in idx]
        if 0 not in flip_vals and len(set(flip_vals)) == len(flip_vals):
            assert candidate_family_distinct(vals, idx).zero_sum_count() <= 1
        common = Fraction(rng.randrange(1, 7), rng.randrange(1, 4))
        for i in idx:
            vals[i - 1] = common
        assert candidate_family_equal(vals, idx).zero_sum_count() <= 1


# ---------------------------------------------------------------------------
# Twin-block witnesses: the projection of j onto a repeated eigenvalue's
# eigenspace
# ---------------------------------------------------------------------------


def _signs(n, switched):
    return construct._signs(n, frozenset(switched))


def _pendant_classes(n, r):
    # Pendants v1..vr form one class, every other vertex its own.
    return np.array([0] * r + list(range(1, n - r + 1)))


def _rest_classes(n, r):
    # The clique rest v_{r+2}..vn forms one class, every other vertex its own.
    return np.minimum(np.arange(n), r + 1)


def test_duplicate_vectors_shape_r3_t1():
    # One of three pendants switched: s (s - 1/3) on the class, 0 elsewhere.
    w = construct._twin_witness(_signs(5, {1}), np.arange(5), _pendant_classes(5, 3))
    assert np.allclose(w, [4 / 3, 2 / 3, 2 / 3, 0, 0])


def test_duplicate_vectors_shape_r4_t2():
    w = construct._twin_witness(_signs(6, {1, 2}), np.arange(6), _pendant_classes(6, 4))
    assert np.allclose(w, [1, 1, 1, 1, 0, 0])


def test_duplicate_vectors_smallest_case():
    w = construct._twin_witness(_signs(4, {1}), np.arange(4), _pendant_classes(4, 2))
    assert np.allclose(w, [1, 1, 0, 0])


def test_duplicate_vectors_are_eigenvectors_after_switching():
    # Open twins: pendants of the clique-with-pendants graph (eigenvalue 0);
    # closed twins: its non-attachment clique vertices (eigenvalue -1).
    n, r = 7, 3
    g = make_snr(SnrParams(n, r))
    for switched in ({1}, {1, 2}, {2}, {1, 3}):
        s = _signs(n, switched)
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = construct._twin_witness(s, np.arange(n), _pendant_classes(n, r))
        assert np.linalg.norm(a @ v) < 1e-12
        assert v.sum() > 0
    for switched in ({5}, {5, 6}, {7}, {5, 7}):
        s = _signs(n, switched)
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = construct._twin_witness(s, np.arange(n), _rest_classes(n, r))
        assert np.linalg.norm(a @ v + v) < 1e-12
        assert v.sum() > 0


def test_duplicate_vectors_reject_non_duplicates():
    # Triangle: vertices 1 and 2 are closed, not open, twins.  The 0-witness
    # built on them is no eigenvector, and the residual check rejects it.
    g = parse_graph6("Bw")
    s = _signs(3, {1})
    a = np.array(adjacency_matrix(apply_switching(g, {1})), float)
    v = construct._twin_witness(s, np.arange(3), np.array([0, 0, 1]))
    with pytest.raises(construct.ConstructionError, match="residual"):
        construct._validated_witnesses(a, [(0.0, v)])
    # and as closed twins for -1 the whole triangle passes
    v = construct._twin_witness(s, np.arange(3), np.zeros(3, int))
    assert construct._validated_witnesses(a, [(-1.0, v)])[0][1].sum() > 0


def test_duplicate_vectors_reject_bad_t():
    # A class switched alike (none or all of it) has no main vector for the
    # twins' eigenvalue: the witness is zero and is rejected.
    g = make_snr(SnrParams(5, 3))
    for switched in (set(), {1, 2, 3}, {4}):
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = construct._twin_witness(_signs(5, switched), np.arange(5), _pendant_classes(5, 3))
        assert not v.any()
        with pytest.raises(construct.ConstructionError, match="zero witness"):
            construct._validated_witnesses(a, [(0.0, v)])


def test_batched_witness_check_raises_for_the_first_bad_witness():
    # Triangle switched about {1}: eigenvalue 2 with eigenvector (-1, 1, 1),
    # and -1 twice.  The check scales each witness to unit length and raises
    # for the first failing one in input order, with the message a check of
    # that witness alone gives.
    a = np.array(adjacency_matrix(apply_switching(parse_graph6("Bw"), {1})), float)
    good = (2.0, np.array([-1.0, 1.0, 1.0]))
    (lam, v), = construct._validated_witnesses(a, [good])
    assert lam == 2.0 and np.allclose(v, good[1] / np.sqrt(3)) and v.sum() > 0
    wrong = (2.0, np.array([1.0, 1.0, 1.0]))  # no eigenvector: residual sqrt(8)
    zero = (-1.0, np.zeros(3))
    main = (-1.0, np.array([-1.0, -1.0, 0.0]))  # eigenvector of entry sum -2
    flat = (-1.0, np.array([0.0, 1.0, -1.0]))  # eigenvector of entry sum 0
    with pytest.raises(construct.ConstructionError,
                       match=r"^witness residual 2\.828e\+00 for eigenvalue 2$"):
        construct._validated_witnesses(a, [good, main, wrong, zero])
    with pytest.raises(construct.ConstructionError, match="^zero witness vector$"):
        construct._validated_witnesses(a, [good, zero, wrong])
    with pytest.raises(construct.ConstructionError,
                       match="^witness for eigenvalue -1 has zero entry sum$"):
        construct._validated_witnesses(a, [good, main, flat, wrong])
    assert len(construct._validated_witnesses(a, [good, main])) == 2


def test_batched_witness_check_rejects_nan():
    # A NaN entry or eigenvalue makes the residual NaN, which must fail the
    # check rather than slip past both comparisons.
    a = np.array(adjacency_matrix(parse_graph6("A_")))
    for witness in ((1.0, np.array([np.nan, 1.0])), (np.nan, np.array([1.0, 1.0]))):
        with pytest.raises(construct.ConstructionError, match="^witness residual nan"):
            construct._validated_witnesses(a, [witness])
    assert len(construct._validated_witnesses(a, [(1.0, np.array([1.0, 1.0]))])) == 1


def test_switched_matrix_matches_the_list_adjacency(rng):
    for n in (1, 2, 7, 20):
        g = random_signed_graph(rng, n).graph
        for _ in range(3):
            switched = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
            arr = _switched_array(_adjacency_array(g), switched)
            assert arr.dtype == np.int64
            assert arr.tolist() == adjacency_matrix(apply_switching(g, switched))


# ---------------------------------------------------------------------------
# Clique-with-pendants construction
# ---------------------------------------------------------------------------


def test_snr_eigvec_structure():
    n, r = 9, 3
    for lam in snr_cubic_roots(n, r):
        x = snr_eigvec(n, r, lam)
        a = np.array(adjacency_matrix(make_snr(SnrParams(n, r))), float)
        assert np.linalg.norm(a @ x - lam * x) < 1e-8
        assert np.allclose(x[:r], 1.0)
        assert abs(x[r] - lam) < 1e-12
        assert np.allclose(x[r + 1:], lam - r / (lam + 1))


def test_snr_eigvec_rejects_zero_and_minus_one():
    with pytest.raises(ValueError):
        snr_eigvec(6, 2, 0.0)
    with pytest.raises(ValueError):
        snr_eigvec(6, 2, -1.0)
    with pytest.raises(ValueError):
        snr_eigvec(6, 2, 1.2345)  # not a root


def test_snr_construction_5_1():
    res = snr_all_main_switching(5, 1)
    assert sorted(res.switching) == [1, 5]
    _check_result(res)


def test_snr_construction_base_case_grid():
    # The base {v1, vn} is the only candidate for r <= 2 or n = r+3; the
    # scan's sum test must pass it for every such pair up to the graph6 limit.
    grid = [(n, r) for r in (1, 2) for n in range(r + 3, 63)]
    grid += [(r + 3, r) for r in range(1, 60)]
    for n, r in grid:
        res = snr_all_main_switching(n, r)
        assert res.switching == {1, n}
        _check_result(res)


def test_snr_construction_12_4():
    res = snr_all_main_switching(12, 4)
    assert {1, 12} <= set(res.switching)
    assert len(res.switching) <= 3
    _check_result(res)


def test_snr_construction_rejects_bad_params():
    with pytest.raises(ValueError):
        snr_all_main_switching(5, 3)


def test_snr_witness_eigenvalue_cover():
    res = snr_all_main_switching(9, 3)
    vals = sorted(lam for lam, _ in res.witnesses)
    assert len(vals) == 5  # three cubic roots plus 0 and -1
    assert any(abs(v) < 1e-9 for v in vals)
    assert any(abs(v + 1) < 1e-9 for v in vals)


def test_snr_grid_verified():
    for r in range(1, 6):
        for n in range(r + 3, r + 9):
            res = snr_all_main_switching(n, r)
            assert res.verified, (n, r)


# ---------------------------------------------------------------------------
# Complete multipartite construction
# ---------------------------------------------------------------------------


def _part_group_labels(p):
    part = np.repeat(np.arange(sum(p.counts)), np.repeat(p.sizes, p.counts))
    return part, np.repeat(np.arange(p.s), p.group_sizes)


def test_ti_eigvec_examples():
    # fine = part, coarse = group: s (part mean - group mean).
    p = MultipartiteParams.of([(2, 2), (1, 1)])
    v = construct._twin_witness(_signs(5, {1}), *_part_group_labels(p))
    assert list(v) == [0.5, -0.5, 0.5, 0.5, 0]
    assert v.sum() == 1  # 2 (0 - 1/2)^2 + 2 (1 - 1/2)^2
    p2 = MultipartiteParams.of([(2, 3)])
    v2 = construct._twin_witness(_signs(6, {1, 2, 4}), *_part_group_labels(p2))
    assert np.allclose(v2, np.array([1, 1, -1, -1, 1, 1]) / 3)
    assert np.isclose(v2.sum(), 2 / 3)


def test_ti_eigvec_rejects_bad_args():
    # A single-part group and a group whose parts are switched alike both
    # give a zero witness, which is rejected.
    p = MultipartiteParams.of([(1, 3), (1, 2)])
    v = construct._twin_witness(_signs(5, {1}), *_part_group_labels(p))
    assert not v.any()
    p2 = MultipartiteParams.of([(2, 2)])
    a = np.array(adjacency_matrix(apply_switching(make_multipartite(p2), {1, 3})), float)
    v = construct._twin_witness(_signs(4, {1, 3}), *_part_group_labels(p2))
    with pytest.raises(construct.ConstructionError, match="zero witness"):
        construct._validated_witnesses(a, [(-2.0, v)])


def test_ti_eigvec_is_eigenvector():
    p = MultipartiteParams.of([(3, 2), (1, 1)])
    sw = apply_switching(make_multipartite(p), {1})
    a = np.array(adjacency_matrix(sw), float)
    part, group = _part_group_labels(p)
    v = np.where(group == 0, construct._twin_witness(_signs(7, {1}), part, group), 0.0)
    assert np.linalg.norm(a @ v + 2.0 * v) < 1e-12
    assert v.sum() > 0


def test_multipartite_k33():
    res = multipartite_all_main_switching(MultipartiteParams.of([(2, 3)]))
    assert sorted(res.switching) == [1]
    _check_result(res)
    vals = sorted(lam for lam, _ in res.witnesses)
    assert np.allclose(vals, [-3.0, 0.0, 3.0])


def test_multipartite_complete_graph():
    res = multipartite_all_main_switching(MultipartiteParams.of([(6, 1)]))
    assert sorted(res.switching) == [1]
    _check_result(res)


def test_multipartite_k2_rejected():
    with pytest.raises(NoAllMainSwitchingError):
        multipartite_all_main_switching(MultipartiteParams.of([(2, 1)]))


def test_multipartite_k4_minus_edge_rejected():
    with pytest.raises(NoAllMainSwitchingError):
        multipartite_all_main_switching(MultipartiteParams.of([(1, 2), (2, 1)]))


def test_multipartite_k1_rejected():
    with pytest.raises(ValueError):
        multipartite_all_main_switching(MultipartiteParams.of([(1, 1)]))


def test_multipartite_empty_graph():
    res = multipartite_all_main_switching(MultipartiteParams.of([(1, 4)]))
    assert not res.switching
    _check_result(res)


@pytest.mark.parametrize("blocks", [
    [(2, 3), (1, 2)],          # all parts of size >= 2
    [(1, 2), (4, 1)],          # tail of singletons behind one 2-part
    [(1, 3), (3, 1)],          # size-3 head, singleton tail
    [(1, 3), (1, 2), (4, 1)],
    [(1, 4), (2, 1)],          # size >= 4 head
    [(3, 2), (1, 1)],          # several 2-parts, short singleton tail
    [(4, 2), (3, 1)],
    [(2, 2), (4, 1)],          # several 2-parts, long singleton tail
    [(2, 3), (1, 1)],          # general branch with repeated parts
    [(1, 4), (2, 3), (1, 1)],
    [(2, 4), (1, 3), (2, 2), (1, 1)],
])
def test_multipartite_branches(blocks):
    res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
    assert res.method == "constructive"
    _check_result(res)


@pytest.mark.parametrize("blocks", [
    [(1, 2), (1, 1)],          # path on 3 vertices
    [(1, 2), (3, 1)],
    [(1, 3), (1, 1)],
    [(1, 3), (2, 1)],
    [(1, 3), (1, 2), (2, 1)],
    [(2, 2), (1, 1)],
    [(2, 2), (3, 1)],
])
def test_multipartite_small_cases_brute_forced(blocks):
    res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
    assert res.method == "brute_force"
    _check_result(res)


def test_multipartite_star_needs_second_candidate():
    # K_{1,4} (blocks (1,4),(1,1)): with the base switching {v1, v5} the
    # secular witness for the root 2 has entry sum exactly zero
    # (2/(2+4) - 1/(2+1) = 0), so the scan must advance to the candidate that
    # flips one more vertex of the first group.
    res = multipartite_all_main_switching(MultipartiteParams.of([(1, 4), (1, 1)]))
    assert sorted(res.switching) == [1, 2, 5]
    _check_result(res)


def test_multipartite_extras_candidates_stable():
    # Scan order is fixed, so the emitted switchings are reproducible.
    for blocks, expected in [
        ([(1, 4), (1, 2), (2, 1)], [1, 2, 7]),
        ([(1, 4), (6, 1)], [1, 2, 5]),
        ([(2, 4), (1, 2), (10, 1)], [1, 2, 11]),
    ]:
        res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
        assert sorted(res.switching) == expected, blocks
        _check_result(res)


@pytest.mark.parametrize("blocks, base, extras", [
    ([(1, 2), (4, 1)], [1, 3], [(), (4,), (4, 5)]),                  # last-head
    ([(3, 2), (1, 1)], [1, 7], [(), (2, 3), (2, 3, 4, 5)]),           # group-1 nested
    ([(1, 3), (3, 1)], [1, 4], [(), (2,), (5,)]),                     # single flip
    ([(1, 3), (1, 2)], [4], [(), (1,), (1, 2)]),                      # eta, standard base
    ([(1, 4), (1, 1)], [1, 5], [(), (2,), (2, 3)]),                   # eta, head base
    ([(3, 1)], [1], [()]),                                            # one group
])
def test_multipartite_candidate_lists(monkeypatch, blocks, base, extras):
    # Nearly every shape is settled by the base alone, so the switchings do
    # not show the later candidates; record what the scan is given instead.
    calls = []
    scan = construct._scan

    def recording_scan(vectors, base_set, extras_list):
        calls.append((sorted(base_set), list(extras_list)))
        return scan(vectors, base_set, extras_list)

    monkeypatch.setattr(construct, "_scan", recording_scan)
    res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
    assert calls == [(base, extras)]
    _check_result(res)


def test_snr_candidate_flips_are_eigenvectors():
    # No parameter pair in the verified ranges actually needs a flip beyond
    # the base {v1, vn}, so exercise the mechanics the scan relies on
    # directly: each candidate flip pattern yields eigenvectors of the
    # correspondingly switched graph, and so do the twin witnesses for 0 and
    # -1 built from its sign vector.
    n, r = 12, 4
    g = make_snr(SnrParams(n, r))
    roots = snr_cubic_roots(n, r)
    for extra in ((), (2,), (r + 1,), (n - 1,)):
        flips = (1, n) + extra
        a = np.array(adjacency_matrix(apply_switching(g, set(flips))), float)
        for lam in roots:
            v = flip(snr_eigvec(n, r, lam), flips)
            assert np.linalg.norm(a @ v - lam * v) < 1e-8
        s = _signs(n, flips)
        zero_vec = construct._twin_witness(s, np.arange(n), _pendant_classes(n, r))
        assert np.linalg.norm(a @ zero_vec) < 1e-12
        neg_vec = construct._twin_witness(s, np.arange(n), _rest_classes(n, r))
        assert np.linalg.norm(a @ neg_vec + neg_vec) < 1e-12
        assert zero_vec.sum() > 0 and neg_vec.sum() > 0


def test_multipartite_three_of_size_three_rule():
    # A group with part size 3 and several parts: when a candidate needs three
    # switched vertices there, they must be the first, second and fourth.
    p = MultipartiteParams.of([(2, 4), (2, 3), (1, 1)])
    res = multipartite_all_main_switching(p)
    _check_result(res)
    group2 = set(p.group_range(2))
    picked = sorted(set(res.switching) & group2)
    f = p.offsets[1]
    assert picked in ([f + 1], [f + 1, f + 2], [f + 1, f + 2, f + 4])


def test_rule_no_vertex_switched_twice_audit(rng):
    # The switching is a set; the audit checks base and extras never collide,
    # i.e. the switching size equals base size plus extra count implied by it.
    for _ in range(20):
        s = rng.randrange(1, 5)
        sizes = sorted(rng.sample(range(1, 8), s), reverse=True)
        blocks = [(rng.randrange(1, 4), t) for t in sizes]
        p = MultipartiteParams.of(blocks)
        if p.n < 3 or p.n > 24:
            continue
        try:
            res = multipartite_all_main_switching(p)
        except NoAllMainSwitchingError:
            continue
        switched = sorted(res.switching)
        assert len(switched) == len(set(switched))
        _check_result(res)


def _partition_blocks(n, cap=None):
    """The blocks (count, size), sizes decreasing, of every partition of n
    into parts of size at most cap."""
    if n == 0:
        yield []
        return
    for t in range(n if cap is None else min(n, cap), 0, -1):
        for l in range(1, n // t + 1):
            for rest in _partition_blocks(n - l * t, t - 1):
                yield [(l, t)] + rest


def _assert_twin_witnesses_are_projections(res, twin_eigenvalues):
    """The witnesses of a constructive result for its twin eigenvalues, which
    come last, equal the projection of j onto the eigenspace from
    numpy.linalg.eigh on the switched matrix, up to a positive scale."""
    a = np.array(adjacency_matrix(apply_switching(res.graph, res.switching)), float)
    vals, vecs = np.linalg.eigh(a)
    twins = res.witnesses[len(res.witnesses) - len(twin_eigenvalues):]
    assert [lam for lam, _ in twins] == twin_eigenvalues
    for lam, w in twins:
        block = vecs[:, np.abs(vals - lam) < 1e-6]
        proj = block @ (block.T @ np.ones(len(vals)))
        assert w.sum() > 0
        assert np.allclose(w, proj / np.linalg.norm(proj), rtol=0, atol=1e-9), lam


def test_twin_witnesses_are_projections_of_j():
    checked = 0
    for n in range(4, 31):
        for r in range(1, n - 2):
            _assert_twin_witnesses_are_projections(
                snr_all_main_switching(n, r), [0.0, -1.0] if r >= 2 else [-1.0])
            checked += 1
    for n in range(2, 13):
        for blocks in _partition_blocks(n):
            p = MultipartiteParams.of(blocks)
            try:
                res = multipartite_all_main_switching(p)
            except NoAllMainSwitchingError:
                continue
            if res.method == "constructive":
                twins = [0.0] * (p.sizes[0] >= 2) + [-float(t) for l, t in blocks if l >= 2]
                _assert_twin_witnesses_are_projections(res, twins)
                checked += 1
    for k in (2, 3, 4):
        for sizes in itertools.combinations(range(7, 1, -1), k):
            res = one_per_part_switching(MultipartiteParams.of([(1, t) for t in sizes]))
            _assert_twin_witnesses_are_projections(res, [0.0])
            checked += 1
    assert checked > 600


# ---------------------------------------------------------------------------
# One switched vertex per part (all single parts, sizes >= 2)
# ---------------------------------------------------------------------------


def test_one_per_part_k32():
    res = one_per_part_switching(MultipartiteParams.of([(1, 3), (1, 2)]))
    assert sorted(res.switching) == [1, 4]
    _check_result(res)


def test_one_per_part_k432():
    res = one_per_part_switching(MultipartiteParams.of([(1, 4), (1, 3), (1, 2)]))
    assert sorted(res.switching) == [1, 5, 8]
    _check_result(res)


def test_one_per_part_rejects_bad_shapes():
    with pytest.raises(ValueError):
        one_per_part_switching(MultipartiteParams.of([(2, 2)]))  # single group
    with pytest.raises(ValueError):
        one_per_part_switching(MultipartiteParams.of([(1, 3), (2, 2)]))  # l > 1
    with pytest.raises(ValueError):
        one_per_part_switching(MultipartiteParams.of([(1, 3), (1, 1)]))  # size 1


def test_one_per_part_sum_margin():
    # The entry sums of the secular witnesses stay clear of zero.
    p = MultipartiteParams.of([(1, 7), (1, 5), (1, 4), (1, 2)])
    res = one_per_part_switching(p)
    roots = multipartite_secular_roots(p)
    for lam, vec in res.witnesses:
        if any(abs(lam - x) < 1e-9 for x in roots):
            assert abs(vec.sum()) > 1e-9
    _check_result(res)
