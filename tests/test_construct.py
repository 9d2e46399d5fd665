"""Flip vectors, candidate families, the paper's closed-form witnesses, and
the all-main switching constructions for both graph families, cross-checked
against the float candidate scan they replaced."""

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainswitch import construct
from mainswitch import (
    ConstructionError,
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
    main_profile,
    make_snr,
    multipartite_all_main_switching,
    multipartite_secular_roots,
    one_per_part_switching,
    parse_graph6,
    snr_all_main_switching,
    snr_cubic_roots,
)
from mainswitch.graphs import _adjacency_array, _signs, _switched_array
from conftest import (WitnessError, check_witnesses_oracle, float_scan_oracle, many_group_shapes,
                      multipartite_witnesses_oracle, random_signed_graph,
                      secular_roots_newton_oracle, secular_vector_oracle, snr_eigvec_oracle,
                      snr_witnesses_oracle, twin_witness_oracle)


def _switched(res):
    return _switched_array(_adjacency_array(res.graph), res.switching)


def _check_result(res, witnesses):
    """The closed-form witnesses are main eigenvectors of the switched graph,
    one per distinct eigenvalue, and the exact decision says all-main."""
    checked = check_witnesses_oracle(_switched(res), witnesses)
    lams = np.sort([lam for lam, _ in checked])
    assert len(lams) == res.profile.distinct_count
    assert np.all(np.diff(lams) > 1e-6)
    assert res.verified
    assert res.profile.all_main
    assert res.profile.main_count == res.profile.distinct_count


def _check_multipartite(res, p):
    _check_result(res, multipartite_witnesses_oracle(p, res.switching))


def _check_snr(res, n, r):
    _check_result(res, snr_witnesses_oracle(n, r, res.switching))


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
    with pytest.raises(ValueError):
        flip([1, 2], [2.0])


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
    with pytest.raises(ValueError, match="flip position must be an integer, got 2.0"):
        candidate_family_distinct([1, 2], [2.0])


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
    with pytest.raises(ValueError, match="flip position must be an integer, got 2.0"):
        candidate_family_equal([1, 1], [2.0])


@lru_cache(maxsize=None)
def _nonzero_fractions(bound):
    """The nonzero fractions p/q, q <= 6, in [-bound, bound], as a fixed
    pool: neither nonzero nor unique values need a filter."""
    return st.sampled_from(sorted({Fraction(p, q) for q in range(1, 7)
                                   for p in range(-bound * q, bound * q + 1) if p}))


@st.composite
def _distinct_family_case(draw):
    # Flip positions holding pairwise distinct nonzero values, drawn as such.
    n = draw(st.integers(3, 9))
    k = draw(st.integers(1, n))
    idx = draw(st.permutations(range(1, n + 1)))[:k]
    flip_vals = draw(st.lists(_nonzero_fractions(6), min_size=k, max_size=k, unique=True))
    rest = iter(draw(st.lists(st.fractions(min_value=-6, max_value=6),
                              min_size=n - k, max_size=n - k)))
    at = dict(zip(idx, flip_vals))
    return [at[i] if i in at else next(rest) for i in range(1, n + 1)], idx


@given(_distinct_family_case())
@settings(max_examples=300, deadline=None)
def test_family_distinct_at_most_one_zero_sum(case):
    vals, idx = case
    fam = candidate_family_distinct(vals, idx)
    assert fam.zero_sum_count() <= 1


@st.composite
def _equal_family_case(draw):
    # Flip positions holding one common nonzero value, drawn as such.
    n = draw(st.integers(2, 9))
    common = draw(_nonzero_fractions(5))
    k = draw(st.integers(1, n))
    idx = draw(st.permutations(range(1, n + 1)))[:k]
    rest = iter(draw(st.lists(st.fractions(min_value=-5, max_value=5),
                              min_size=n - k, max_size=n - k)))
    return [common if i in idx else next(rest) for i in range(1, n + 1)], idx


@given(_equal_family_case())
@settings(max_examples=300, deadline=None)
def test_family_equal_at_most_one_zero_sum(case):
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


def _pendant_classes(n, r):
    # Pendants v1..vr form one class, every other vertex its own.
    return np.array([0] * r + list(range(1, n - r + 1)))


def _rest_classes(n, r):
    # The clique rest v_{r+2}..vn forms one class, every other vertex its own.
    return np.minimum(np.arange(n), r + 1)


def test_duplicate_vectors_shape_r3_t1():
    # One of three pendants switched: s (s - 1/3) on the class, 0 elsewhere.
    w = twin_witness_oracle(_signs(5, {1}), np.arange(5), _pendant_classes(5, 3))
    assert np.allclose(w, [4 / 3, 2 / 3, 2 / 3, 0, 0])


def test_duplicate_vectors_shape_r4_t2():
    w = twin_witness_oracle(_signs(6, {1, 2}), np.arange(6), _pendant_classes(6, 4))
    assert np.allclose(w, [1, 1, 1, 1, 0, 0])


def test_duplicate_vectors_smallest_case():
    w = twin_witness_oracle(_signs(4, {1}), np.arange(4), _pendant_classes(4, 2))
    assert np.allclose(w, [1, 1, 0, 0])


def test_duplicate_vectors_are_eigenvectors_after_switching():
    # Open twins: pendants of the clique-with-pendants graph (eigenvalue 0);
    # closed twins: its non-attachment clique vertices (eigenvalue -1).
    n, r = 7, 3
    g = make_snr(SnrParams(n, r))
    for switched in ({1}, {1, 2}, {2}, {1, 3}):
        s = _signs(n, switched)
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = twin_witness_oracle(s, np.arange(n), _pendant_classes(n, r))
        assert np.linalg.norm(a @ v) < 1e-12
        assert v.sum() > 0
    for switched in ({5}, {5, 6}, {7}, {5, 7}):
        s = _signs(n, switched)
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = twin_witness_oracle(s, np.arange(n), _rest_classes(n, r))
        assert np.linalg.norm(a @ v + v) < 1e-12
        assert v.sum() > 0


def test_duplicate_vectors_reject_non_duplicates():
    # Triangle: vertices 1 and 2 are closed, not open, twins.  The 0-witness
    # built on them is no eigenvector, and the residual check rejects it.
    g = parse_graph6("Bw")
    s = _signs(3, {1})
    a = np.array(adjacency_matrix(apply_switching(g, {1})), float)
    v = twin_witness_oracle(s, np.arange(3), np.array([0, 0, 1]))
    with pytest.raises(WitnessError, match="residual"):
        check_witnesses_oracle(a, [(0.0, v)])
    # and as closed twins for -1 the whole triangle passes
    v = twin_witness_oracle(s, np.arange(3), np.zeros(3, int))
    assert check_witnesses_oracle(a, [(-1.0, v)])[0][1].sum() > 0


def test_duplicate_vectors_reject_bad_t():
    # A class switched alike (none or all of it) has no main vector for the
    # twins' eigenvalue: the witness is zero and is rejected.
    g = make_snr(SnrParams(5, 3))
    for switched in (set(), {1, 2, 3}, {4}):
        a = np.array(adjacency_matrix(apply_switching(g, switched)), float)
        v = twin_witness_oracle(_signs(5, switched), np.arange(5), _pendant_classes(5, 3))
        assert not v.any()
        with pytest.raises(WitnessError, match="zero witness"):
            check_witnesses_oracle(a, [(0.0, v)])


def test_batched_witness_check_raises_for_the_first_bad_witness():
    # Triangle switched about {1}: eigenvalue 2 with eigenvector (-1, 1, 1),
    # and -1 twice.  The witness check scales each witness to unit length
    # and raises for the first failing one in input order, with the message
    # a check of that witness alone gives.
    a = np.array(adjacency_matrix(apply_switching(parse_graph6("Bw"), {1})), float)
    good = (2.0, np.array([-1.0, 1.0, 1.0]))
    (lam, v), = check_witnesses_oracle(a, [good])
    assert lam == 2.0 and np.allclose(v, good[1] / np.sqrt(3)) and v.sum() > 0
    wrong = (2.0, np.array([1.0, 1.0, 1.0]))  # no eigenvector: residual sqrt(8)
    zero = (-1.0, np.zeros(3))
    main = (-1.0, np.array([-1.0, -1.0, 0.0]))  # eigenvector of entry sum -2
    flat = (-1.0, np.array([0.0, 1.0, -1.0]))  # eigenvector of entry sum 0
    with pytest.raises(WitnessError, match=r"^witness residual 2\.828e\+00 for eigenvalue 2$"):
        check_witnesses_oracle(a, [good, main, wrong, zero])
    with pytest.raises(WitnessError, match="^zero witness vector$"):
        check_witnesses_oracle(a, [good, zero, wrong])
    with pytest.raises(WitnessError, match="^witness for eigenvalue -1 has zero entry sum$"):
        check_witnesses_oracle(a, [good, main, flat, wrong])
    assert len(check_witnesses_oracle(a, [good, main])) == 2


def test_batched_witness_check_rejects_nan():
    # A NaN entry or eigenvalue makes the residual NaN, which must fail the
    # check rather than slip past both comparisons.
    a = np.array(adjacency_matrix(parse_graph6("A_")))
    for witness in ((1.0, np.array([np.nan, 1.0])), (np.nan, np.array([1.0, 1.0]))):
        with pytest.raises(WitnessError, match="^witness residual nan"):
            check_witnesses_oracle(a, [witness])
    assert len(check_witnesses_oracle(a, [(1.0, np.array([1.0, 1.0]))])) == 1


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


def _snr_candidates(n, r):
    """The snr candidate switchings: {v1, vn} alone, which
    tests/test_theorems.py proves all-main for every pair."""
    return [frozenset((1, n))]


def _snr_matrix(n, r):
    """One unswitched eigenvector per cubic root, one per row."""
    return np.array([snr_eigvec_oracle(n, r, lam) for lam in snr_cubic_roots(n, r)])


def test_snr_eigvec_structure():
    n, r = 9, 3
    for lam in snr_cubic_roots(n, r):
        x = snr_eigvec_oracle(n, r, lam)
        a = np.array(adjacency_matrix(make_snr(SnrParams(n, r))), float)
        assert np.linalg.norm(a @ x - lam * x) < 1e-8
        assert np.allclose(x[:r], 1.0)
        assert abs(x[r] - lam) < 1e-12
        assert np.allclose(x[r + 1:], lam - r / (lam + 1))


def test_snr_eigvec_rejects_zero_and_minus_one():
    with pytest.raises(ValueError):
        snr_eigvec_oracle(6, 2, 0.0)
    with pytest.raises(ValueError):
        snr_eigvec_oracle(6, 2, -1.0)
    with pytest.raises(ValueError):
        snr_eigvec_oracle(6, 2, 1.2345)  # not a root


def test_snr_construction_5_1():
    res = snr_all_main_switching(5, 1)
    assert sorted(res.switching) == [1, 5]
    _check_snr(res, 5, 1)


def test_snr_construction_base_case_grid():
    # The base {v1, vn} is the only candidate; the exact scan must find it
    # all-main for every pair with r <= 2 or n = r+3 up to the graph6 limit.
    grid = [(n, r) for r in (1, 2) for n in range(r + 3, 63)]
    grid += [(r + 3, r) for r in range(1, 60)]
    for n, r in grid:
        res = snr_all_main_switching(n, r)
        assert res.switching == {1, n}
        _check_snr(res, n, r)


def test_snr_construction_12_4():
    res = snr_all_main_switching(12, 4)
    assert {1, 12} <= set(res.switching)
    assert len(res.switching) <= 3
    _check_snr(res, 12, 4)


def test_snr_construction_rejects_bad_params():
    for n, r in ((5, 3), (4, 0), (3, -1)):
        with pytest.raises(ValueError, match=rf"^need r >= 1 and n >= r\+3, got n={n} r={r}$"):
            snr_all_main_switching(n, r)


def test_snr_witness_eigenvalue_cover():
    res = snr_all_main_switching(9, 3)
    vals = sorted(lam for lam, _ in snr_witnesses_oracle(9, 3, res.switching))
    assert len(vals) == 5 == res.profile.distinct_count  # three cubic roots plus 0 and -1
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


def _secular_matrix(p, roots=None):
    """One unswitched eigenvector per secular root (the library's roots
    unless given), one per row."""
    if roots is None:
        roots = multipartite_secular_roots(p)
    return np.array([secular_vector_oracle(p, lam) for lam in roots])


def _rule_candidates(p):
    """Every candidate switching of the shape's rule, built eagerly, in scan
    order."""
    base, specs = construct._shape_rule(p)
    return [base] + [base | frozenset(construct._pick_extras(p, g, c, base)) for g, c in specs]


def test_ti_eigvec_examples():
    # fine = part, coarse = group: s (part mean - group mean).
    p = MultipartiteParams.of([(2, 2), (1, 1)])
    v = twin_witness_oracle(_signs(5, {1}), *_part_group_labels(p))
    assert list(v) == [0.5, -0.5, 0.5, 0.5, 0]
    assert v.sum() == 1  # 2 (0 - 1/2)^2 + 2 (1 - 1/2)^2
    p2 = MultipartiteParams.of([(2, 3)])
    v2 = twin_witness_oracle(_signs(6, {1, 2, 4}), *_part_group_labels(p2))
    assert np.allclose(v2, np.array([1, 1, -1, -1, 1, 1]) / 3)
    assert np.isclose(v2.sum(), 2 / 3)


def test_ti_eigvec_rejects_bad_args():
    # A single-part group and a group whose parts are switched alike both
    # give a zero witness, which is rejected.
    p = MultipartiteParams.of([(1, 3), (1, 2)])
    v = twin_witness_oracle(_signs(5, {1}), *_part_group_labels(p))
    assert not v.any()
    p2 = MultipartiteParams.of([(2, 2)])
    a = np.array(adjacency_matrix(apply_switching(make_multipartite(p2), {1, 3})), float)
    v = twin_witness_oracle(_signs(4, {1, 3}), *_part_group_labels(p2))
    with pytest.raises(WitnessError, match="zero witness"):
        check_witnesses_oracle(a, [(-2.0, v)])


def test_ti_eigvec_is_eigenvector():
    p = MultipartiteParams.of([(3, 2), (1, 1)])
    sw = apply_switching(make_multipartite(p), {1})
    a = np.array(adjacency_matrix(sw), float)
    part, group = _part_group_labels(p)
    v = np.where(group == 0, twin_witness_oracle(_signs(7, {1}), part, group), 0.0)
    assert np.linalg.norm(a @ v + 2.0 * v) < 1e-12
    assert v.sum() > 0


def test_multipartite_k33():
    p = MultipartiteParams.of([(2, 3)])
    res = multipartite_all_main_switching(p)
    assert sorted(res.switching) == [1]
    _check_multipartite(res, p)
    vals = sorted(lam for lam, _ in multipartite_witnesses_oracle(p, res.switching))
    assert np.allclose(vals, [-3.0, 0.0, 3.0])


def test_multipartite_complete_graph():
    p = MultipartiteParams.of([(6, 1)])
    res = multipartite_all_main_switching(p)
    assert sorted(res.switching) == [1]
    _check_multipartite(res, p)


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
    p = MultipartiteParams.of([(1, 4)])
    res = multipartite_all_main_switching(p)
    assert not res.switching
    _check_multipartite(res, p)


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
    p = MultipartiteParams.of(blocks)
    res = multipartite_all_main_switching(p)
    assert res.method == "constructive"
    _check_multipartite(res, p)


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
    p = MultipartiteParams.of(blocks)
    res = multipartite_all_main_switching(p)
    assert res.method == "brute_force"
    _check_multipartite(res, p)


# The shapes with n <= 8 that the search settles, with the switching it picks.
_BRUTE_FORCE_SWITCHINGS = {
    ((1, 2), (1, 1)): [2],
    ((1, 3), (1, 1)): [2],
    ((1, 3), (2, 1)): [2, 4],
    ((1, 2), (3, 1)): [2, 3],
    ((2, 2), (1, 1)): [2],
    ((1, 3), (1, 2), (1, 1)): [2],
    ((2, 2), (2, 1)): [2, 5],
    ((1, 3), (1, 2), (2, 1)): [2, 6],
    ((2, 2), (3, 1)): [2, 5],
}


def test_multipartite_up_to_8_vertices_without_the_float_eigensolver(monkeypatch):
    # The constructions decide with exact arithmetic alone: construct binds
    # nothing from the float spectral module, and with the float eigensolver
    # and both closed-form root finders disabled every shape with n <= 8
    # still constructs.  The closed-form witnesses are main for each chosen
    # switching, the brute-force shapes' too, and for each fallback they sit
    # at the distinct eigenvalues of its switched matrix.
    assert not [name for name, value in vars(construct).items()
                if getattr(value, "__module__", None) == "mainswitch.spectral"]

    def disabled(*args):
        raise AssertionError("a construction called the float spectral module")

    for name in ("eigen_sym", "multipartite_secular_roots", "snr_cubic_roots"):
        monkeypatch.setattr(f"mainswitch.spectral.{name}", disabled)
    results = {}
    for n in range(2, 9):
        for blocks in _partition_blocks(n):
            p = MultipartiteParams.of(blocks)
            if blocks in ([(2, 1)], [(1, 2), (2, 1)]):  # K2 and K4 - e
                with pytest.raises(NoAllMainSwitchingError):
                    multipartite_all_main_switching(p)
                continue
            results[tuple(blocks)] = (p, multipartite_all_main_switching(p))
    snr = {(n, r): snr_all_main_switching(n, r) for r in (1, 2, 3) for n in range(r + 3, 9)}
    monkeypatch.undo()
    brute = {}
    for blocks, (p, res) in results.items():
        _check_multipartite(res, p)
        if res.method != "brute_force":
            continue
        brute[blocks] = sorted(res.switching)
        vals = np.linalg.eigvalsh(_switched(res))
        distinct = vals[np.append(True, np.diff(vals) > 1e-6)]
        lams = np.sort([lam for lam, _ in multipartite_witnesses_oracle(p, res.switching)])
        assert len(lams) == len(distinct) == res.profile.distinct_count, blocks
        assert np.allclose(lams, distinct, rtol=0, atol=1e-9), blocks
    assert brute == _BRUTE_FORCE_SWITCHINGS
    for (n, r), res in snr.items():
        _check_snr(res, n, r)


def test_multipartite_star_needs_second_candidate():
    # K_{1,4} (blocks (1,4),(1,1)): with the base switching {v1, v5} the
    # secular witness for the root 2 has entry sum exactly zero
    # (2/(2+4) - 1/(2+1) = 0), so the base is not all-main and the scan must
    # advance to the candidate that flips one more vertex of the first group.
    p = MultipartiteParams.of([(1, 4), (1, 1)])
    res = multipartite_all_main_switching(p)
    assert sorted(res.switching) == [1, 2, 5]
    assert not main_profile(_switched_array(_adjacency_array(res.graph), {1, 5})).all_main
    assert float_scan_oracle(_secular_matrix(p), [frozenset({1, 5})]) is None
    _check_multipartite(res, p)


def test_multipartite_extras_candidates_stable():
    # Scan order is fixed, so the emitted switchings are reproducible.
    for blocks, expected in [
        ([(1, 4), (1, 2), (2, 1)], [1, 2, 7]),
        ([(1, 4), (6, 1)], [1, 2, 5]),
        ([(2, 4), (1, 2), (10, 1)], [1, 2, 11]),
    ]:
        p = MultipartiteParams.of(blocks)
        res = multipartite_all_main_switching(p)
        assert sorted(res.switching) == expected, blocks
        _check_multipartite(res, p)


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
    # not show the later candidates.  The rule's whole list, built eagerly,
    # is the expected one; the exact scan switches the matrix about a prefix
    # of it only, ending at its result; and the float scan over the whole
    # list picks the same switching.
    p = MultipartiteParams.of(blocks)
    expected = [frozenset(base + list(e)) for e in extras]
    assert _rule_candidates(p) == expected
    tried = []
    switch = construct._switched_array

    def recording(a, x):
        tried.append(frozenset(x))
        return switch(a, x)

    monkeypatch.setattr(construct, "_switched_array", recording)
    res = multipartite_all_main_switching(p)
    assert tried == expected[:len(tried)] and tried[-1] == res.switching
    assert float_scan_oracle(_secular_matrix(p), expected) == res.switching
    _check_multipartite(res, p)


def test_extra_candidates_are_built_only_when_reached(monkeypatch):
    # _pick_extras runs only for the candidate the scan reaches, never for
    # one after the winner.  On K_{3,3,1} the switchings {1, 7} and {3} are
    # all-main, so their extra is never picked; {3, 5} is not, so the scan
    # picks its extra (the first-second-fourth rule in group 1, less the
    # base) and wins with {1, 3, 5}.
    p = MultipartiteParams.of([(2, 3), (1, 1)])
    calls = []
    pick = construct._pick_extras

    def recording(q, group, count, base):
        calls.append((group, count, base))
        return pick(q, group, count, base)

    monkeypatch.setattr(construct, "_pick_extras", recording)
    for base, spec, switching in (({1, 7}, (2, 1), {1, 7}), ({3}, (1, 2), {3}),
                                  ({3, 5}, (1, 1), {1, 3, 5})):
        calls.clear()
        monkeypatch.setattr(construct, "_shape_rule", lambda q: (frozenset(base), [spec]))
        assert multipartite_all_main_switching(p).switching == switching
        assert calls == ([] if switching == base else [(*spec, base)])
    monkeypatch.setattr(construct, "_shape_rule", lambda q: (frozenset({7}), []))
    with pytest.raises(ConstructionError, match="^no candidate switching is all-main$"):
        multipartite_all_main_switching(p)


def test_snr_candidate_flips_are_eigenvectors():
    # The closed forms hold for any switching, the base {v1, vn} and the base
    # plus one flip at v2, v_{r+1} or v_{n-1} alike: s times each cubic
    # eigenvector, and the twin witnesses for 0 and -1 built from s, are
    # eigenvectors of the graph switched by s.
    n, r = 12, 4
    g = make_snr(SnrParams(n, r))
    roots = snr_cubic_roots(n, r)
    for flips in [{1, n}] + [{1, v, n} for v in (2, r + 1, n - 1)]:
        a = np.array(adjacency_matrix(apply_switching(g, flips)), float)
        for lam in roots:
            v = flip(snr_eigvec_oracle(n, r, lam), flips)
            assert np.linalg.norm(a @ v - lam * v) < 1e-8
        s = _signs(n, flips)
        zero_vec = twin_witness_oracle(s, np.arange(n), _pendant_classes(n, r))
        assert np.linalg.norm(a @ zero_vec) < 1e-12
        neg_vec = twin_witness_oracle(s, np.arange(n), _rest_classes(n, r))
        assert np.linalg.norm(a @ neg_vec + neg_vec) < 1e-12
        assert zero_vec.sum() > 0 and neg_vec.sum() > 0


def test_multipartite_three_of_size_three_rule():
    # A group with part size 3 and several parts: when a candidate needs three
    # switched vertices there, they must be the first, second and fourth.
    p = MultipartiteParams.of([(2, 4), (2, 3), (1, 1)])
    res = multipartite_all_main_switching(p)
    _check_multipartite(res, p)
    group2 = set(p.group_range(2))
    picked = sorted(set(res.switching) & group2)
    f = p.offsets[1]
    assert picked in ([f + 1], [f + 1, f + 2], [f + 1, f + 2, f + 4])
    # The rule itself, whether or not a scan reaches it.
    assert construct._pick_extras(p, 2, 3, frozenset()) == (f + 1, f + 2, f + 4)
    assert construct._pick_extras(p, 2, 2, frozenset({f + 1})) == (f + 2, f + 4)
    assert construct._pick_extras(p, 2, 2, frozenset()) == (f + 1, f + 2)


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
        _check_multipartite(res, p)


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


def _assert_twin_witnesses_are_projections(res, witnesses, twin_eigenvalues):
    """The closed-form witnesses for the twin eigenvalues, which come last,
    equal the projection of j onto the eigenspace from numpy.linalg.eigh on
    the switched matrix, up to a positive scale."""
    a = np.array(adjacency_matrix(apply_switching(res.graph, res.switching)), float)
    vals, vecs = np.linalg.eigh(a)
    twins = witnesses[len(witnesses) - len(twin_eigenvalues):]
    assert [lam for lam, _ in twins] == twin_eigenvalues
    for lam, w in twins:
        block = vecs[:, np.abs(vals - lam) < 1e-6]
        proj = block @ (block.T @ np.ones(len(vals)))
        assert w.sum() > 0
        assert np.allclose(w / np.linalg.norm(w), proj / np.linalg.norm(proj),
                           rtol=0, atol=1e-9), lam


def test_twin_witnesses_are_projections_of_j():
    checked = 0
    for n in range(4, 31):
        for r in range(1, n - 2):
            res = snr_all_main_switching(n, r)
            _assert_twin_witnesses_are_projections(
                res, snr_witnesses_oracle(n, r, res.switching),
                [0.0, -1.0] if r >= 2 else [-1.0])
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
                _assert_twin_witnesses_are_projections(
                    res, multipartite_witnesses_oracle(p, res.switching), twins)
                checked += 1
    for k in (2, 3, 4):
        for sizes in itertools.combinations(range(7, 1, -1), k):
            p = MultipartiteParams.of([(1, t) for t in sizes])
            res = one_per_part_switching(p)
            _assert_twin_witnesses_are_projections(
                res, multipartite_witnesses_oracle(p, res.switching), [0.0])
            checked += 1
    assert checked > 600


# ---------------------------------------------------------------------------
# One switched vertex per part (all single parts, sizes >= 2)
# ---------------------------------------------------------------------------


def test_one_per_part_k32():
    p = MultipartiteParams.of([(1, 3), (1, 2)])
    res = one_per_part_switching(p)
    assert sorted(res.switching) == [1, 4]
    _check_multipartite(res, p)


def test_one_per_part_k432():
    p = MultipartiteParams.of([(1, 4), (1, 3), (1, 2)])
    res = one_per_part_switching(p)
    assert sorted(res.switching) == [1, 5, 8]
    _check_multipartite(res, p)


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
    witnesses = check_witnesses_oracle(_switched(res), multipartite_witnesses_oracle(p, res.switching))
    assert sum(any(abs(lam - x) < 1e-9 for x in roots) for lam, _ in witnesses) == len(roots)
    for lam, vec in witnesses:
        if any(abs(lam - x) < 1e-9 for x in roots):
            assert abs(vec.sum()) > 1e-9
    _check_multipartite(res, p)


# ---------------------------------------------------------------------------
# The closed forms behind the constructions, and the float scan they replaced
# ---------------------------------------------------------------------------


def test_closed_form_witnesses_are_main_for_the_chosen_switching():
    # Every shape with n <= 12, constructive and brute-force alike, the
    # one-per-part switching where it applies, and the snr grid with r <= 5:
    # the paper's witnesses are main eigenvectors of the switched matrix, one
    # per distinct eigenvalue.
    checked = 0
    for n in range(2, 13):
        for blocks in _partition_blocks(n):
            p = MultipartiteParams.of(blocks)
            try:
                res = multipartite_all_main_switching(p)
            except NoAllMainSwitchingError:
                continue
            _check_multipartite(res, p)
            checked += 1
            if p.s >= 2 and set(p.counts) == {1} and p.sizes[-1] >= 2:
                _check_multipartite(one_per_part_switching(p), p)
                checked += 1
    for r in range(1, 6):
        for n in range(r + 3, r + 13):
            _check_snr(snr_all_main_switching(n, r), n, r)
            checked += 1
    assert checked > 300


def test_exact_scan_picks_the_float_scan_switching():
    # Over the same candidates in the same order, the float scan (every
    # secular or cubic witness of nonzero entry sum) and the exact scan
    # (main_profile all-main) stop at the same switching: every shape with
    # n <= 14 that a rule covers, and the snr pairs with r <= 10 and
    # n <= r + 40.
    checked = 0
    for n in range(3, 15):
        for blocks in _partition_blocks(n):
            p = MultipartiteParams.of(blocks)
            if sum(p.counts) == 1 or construct._shape_rule(p) is None:
                continue
            res = multipartite_all_main_switching(p)
            assert float_scan_oracle(_secular_matrix(p), _rule_candidates(p)) == res.switching
            checked += 1
    for r in range(1, 11):
        for n in range(r + 3, r + 41):
            res = snr_all_main_switching(n, r)
            assert float_scan_oracle(_snr_matrix(n, r), _snr_candidates(n, r)) == res.switching
            checked += 1
    assert checked > 800


def test_construction_from_eight_groups_does_not_depend_on_the_root_bits():
    # From 8 groups on, the library's secular roots may differ from the
    # vectorised Newton polish in the last bits.  The construction takes no
    # roots at all, and the float scan picks its switching from either set.
    for blocks in many_group_shapes():
        p = MultipartiteParams.of(blocks)
        res = multipartite_all_main_switching(p)
        candidates = _rule_candidates(p)
        for roots in (multipartite_secular_roots(p), secular_roots_newton_oracle(p)):
            assert float_scan_oracle(_secular_matrix(p, roots), candidates) == res.switching, blocks
