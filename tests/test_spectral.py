"""The LAPACK eigensolver wrapper, main classification, and the family
spectra."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mainswitch import (
    MultipartiteParams,
    SnrParams,
    adjacency_matrix,
    classify_main,
    eigen_sym,
    main_profile,
    make_multipartite,
    make_snr,
    multipartite_secular_roots,
    multipartite_spectrum,
    parse_graph6,
    snr_cubic_roots,
    snr_spectrum,
)
from conftest import (bisect_root, many_group_shapes, random_shape_pool, random_signed_graph,
                      secular_roots_newton_oracle, secular_roots_oracle)

# Frozen by the plain-bisection oracle on x^3 - x^2 - 4x + 2 (n=5, r=2).
CUBIC_5_2 = (-1.8136065026483306, 0.47068341987116064, 2.34292308277717)


# ---------------------------------------------------------------------------
# eigen_sym
# ---------------------------------------------------------------------------


def test_eigen_sym_k2():
    es = eigen_sym([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(es.eigenvalues, [-1.0, 1.0], rtol=0.0, atol=1e-12)


def test_eigen_sym_k3():
    es = eigen_sym(np.array(adjacency_matrix(parse_graph6("Bw")), float))
    assert np.allclose(es.eigenvalues, [-1.0, -1.0, 2.0], rtol=0.0, atol=1e-10)


def test_eigen_sym_zero_matrix():
    es = eigen_sym(np.zeros((3, 3)))
    assert np.allclose(es.eigenvalues, 0.0)
    assert np.allclose(es.vectors, np.eye(3))


def test_eigen_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        eigen_sym([[0.0, 1.0], [0.5, 0.0]])


@pytest.mark.parametrize("bad", [[[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 2.0], np.zeros((0, 0))])
def test_eigen_sym_rejects_non_square_and_empty(bad):
    message = "nonempty" if np.size(bad) == 0 else "square"
    with pytest.raises(ValueError, match=f"^matrix must be {message}$"):
        eigen_sym(bad)


def test_eigen_sym_symmetry_tolerance_is_relative():
    # The asymmetry is measured after dividing by the largest absolute
    # entry: a 3x mismatch at 1e-200 is rejected, and a last-bits mismatch
    # at 1e200 is accepted.
    with pytest.raises(ValueError, match="not symmetric"):
        eigen_sym([[0.0, 1e-200], [3e-200, 0.0]])
    es = eigen_sym([[0.0, 1e200], [1e200 * (1 + 1e-15), 0.0]])
    np.testing.assert_allclose(es.eigenvalues, [-1e200, 1e200], rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigen_sym_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        eigen_sym([[bad, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        eigen_sym([[0.0, bad], [bad, 0.0]])


def test_eigen_sym_rejects_an_int_past_the_float_range():
    with pytest.raises(ValueError, match="non-finite"):
        eigen_sym([[0, 10 ** 400], [10 ** 400, 0]])


@pytest.mark.parametrize("bad", [[["0", "1"], ["1", "0"]], [[0, "1"], ["1", 0]],
                                 [[b"0", b"1"], [b"1", b"0"]], [[None, 1], [1, 0]],
                                 [[0, 1], [1, None]], [[0, 1j], [1j, 0]],
                                 [[0, 1j], [1j, Fraction(1)]]], ids=repr)
def test_eigen_sym_rejects_strings_bytes_none_and_complex(bad):
    # Float conversion would parse the strings as K2, read None as NaN and
    # drop the imaginary parts.
    with pytest.raises(ValueError, match="^matrix entries must be real numbers$"):
        eigen_sym(bad)


@pytest.mark.parametrize("entry", [1, True, 1.0, Fraction(1), np.int64(1), 2 ** 70], ids=repr)
def test_eigen_sym_takes_every_kind_of_number(entry):
    # Ints of any size, bools, floats and Fractions are read as floats.
    es = eigen_sym([[0, entry], [entry, 0]])
    np.testing.assert_allclose(es.eigenvalues, [-float(entry), float(entry)], rtol=1e-15)


def test_eigen_sym_one_by_one():
    es = eigen_sym([[3.0]])
    assert es.eigenvalues.tolist() == [3.0]
    assert es.vectors.tolist() == [[1.0]]
    assert es.residual_bound == 0.0


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_eigen_sym_entries_far_from_one(scale):
    # Squared entries of 1e+-200 overflow or underflow a double; the solver
    # works on the matrix divided by its largest entry and scales back.
    path = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 2.0]])
    cases = [([[0.0, 1.0], [1.0, 0.0]], [-1.0, 1.0]),
             (path, [2.0 - math.sqrt(2.0), 2.0, 2.0 + math.sqrt(2.0)])]
    for a, expected in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            es = eigen_sym(scale * np.array(a))
        np.testing.assert_allclose(es.eigenvalues, scale * np.array(expected), rtol=1e-12)
        assert math.isfinite(es.residual_bound) and es.residual_bound <= 1e-10 * scale


def _cli_size_graphs(n: int):
    """A random signed graph, K_n, S_{n, n//3} and a complete multipartite
    graph with many twins (0 and -1 of high multiplicity) on n vertices."""
    l = n // 10
    return [
        random_signed_graph(random.Random(n), n),
        make_multipartite(MultipartiteParams(((n, 1),))),
        make_snr(SnrParams(n, n // 3)),
        make_multipartite(MultipartiteParams(((l, 4), (l, 2), (n - 6 * l, 1)))),
    ]


@pytest.mark.parametrize("n", [20, 21, 37, 60, 61, 62])
def test_eigen_sym_at_cli_sizes_matches_numpy_and_exact(n):
    for g in _cli_size_graphs(n):
        a = adjacency_matrix(g)
        af = np.array(a, float)
        es = eigen_sym(af)
        ref = np.linalg.eigvalsh(af)
        assert np.max(np.abs(es.eigenvalues - ref)) <= 1e-9
        assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(n))) <= 1e-10
        assert es.residual_bound <= 1e-9 * max(1.0, np.abs(ref).max())
        rep = classify_main(es)
        exact = main_profile(a)
        assert len(rep.groups) == exact.distinct_count
        assert sum(1 for grp in rep.groups if grp.is_main) == exact.main_count


def test_eigen_sym_matches_numpy(rng):
    for _ in range(25):
        n = rng.randrange(2, 15)
        m = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
        a = (m + m.T) / 2
        es = eigen_sym(a)
        ref = np.linalg.eigvalsh(a)
        assert np.allclose(es.eigenvalues, ref, rtol=0.0, atol=1e-9 * max(1.0, np.abs(ref).max()))
        # Reconstruction and orthogonality.
        recon = es.vectors @ np.diag(es.eigenvalues) @ es.vectors.T
        assert np.linalg.norm(recon - a) <= 1e-9 * max(1.0, np.linalg.norm(a))
        gram = es.vectors.T @ es.vectors
        assert np.max(np.abs(gram - np.eye(n))) < 1e-10
        assert abs(np.trace(a) - es.eigenvalues.sum()) < 1e-9 * max(1.0, np.abs(ref).max())
        assert es.residual_bound <= 1e-9 * max(1.0, np.abs(ref).max())


# ---------------------------------------------------------------------------
# classify_main
# ---------------------------------------------------------------------------


def test_classify_k3():
    rep = classify_main(eigen_sym(np.array(adjacency_matrix(parse_graph6("Bw")), float)))
    assert [(g.multiplicity, g.is_main) for g in rep.groups] == [(2, False), (1, True)]
    assert abs(rep.groups[0].value + 1.0) < 1e-9
    assert abs(rep.groups[1].value - 2.0) < 1e-9


def test_classify_k2():
    rep = classify_main(eigen_sym([[0.0, 1.0], [1.0, 0.0]]))
    assert [(round(g.value), g.is_main) for g in rep.groups] == [(-1, False), (1, True)]


def test_classify_s52_flags_match_exact():
    a = adjacency_matrix(make_snr(SnrParams(5, 2)))
    rep = classify_main(eigen_sym(np.array(a, float)))
    exact = main_profile(a)
    assert len(rep.groups) == exact.distinct_count == 5
    assert sum(1 for g in rep.groups if g.is_main) == exact.main_count


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("flag", ["group_eps", "main_eps"])
def test_classify_rejects_tolerances_not_finite_and_positive(flag, bad):
    # A NaN or infinite threshold would merge every eigenvalue into one group
    # or mark every group non-main instead of failing.
    es = eigen_sym(np.array(adjacency_matrix(parse_graph6("Bw")), float))
    with pytest.raises(ValueError, match="tolerances must be positive"):
        classify_main(es, **{flag: bad})


def test_classify_multiplicities_sum(rng):
    for _ in range(20):
        sg = random_signed_graph(rng, rng.randrange(2, 11))
        a = np.array(adjacency_matrix(sg), float)
        rep = classify_main(eigen_sym(a))
        assert sum(g.multiplicity for g in rep.groups) == rep.n


# ---------------------------------------------------------------------------
# Cubic roots for the clique-with-pendants family
# ---------------------------------------------------------------------------


def test_cubic_roots_5_2_frozen():
    roots = snr_cubic_roots(5, 2)
    assert np.allclose(roots, CUBIC_5_2, rtol=0.0, atol=1e-12)


def test_cubic_roots_match_bisection_oracle():
    for r in range(1, 11):
        for n in range(r + 3, r + 41):
            def f(x):
                return x ** 3 - (n - r - 2) * x ** 2 - (n - 1) * x + r * (n - r - 2)
            sq = math.sqrt(r)
            expected = (bisect_root(f, -float(n), 0.0),
                        bisect_root(f, 0.0, sq),
                        bisect_root(f, sq, float(n)))
            assert np.allclose(snr_cubic_roots(n, r), expected, rtol=1e-12, atol=1e-12)


def test_cubic_sign_chart():
    for r in range(1, 11):
        for n in range(r + 3, r + 13):
            def f(x):
                return x ** 3 - (n - r - 2) * x ** 2 - (n - 1) * x + r * (n - r - 2)
            assert f(0) == r * (n - r - 2) > 0
            assert f(math.sqrt(r)) < 0
            lo, mid, hi = snr_cubic_roots(n, r)
            assert lo < 0 < mid < math.sqrt(r) < hi


def test_cubic_special_shape_at_n_eq_r_plus_3():
    # There the quadratic coefficient vanishes except for the -x^2 term:
    # x^3 - x^2 - (r+2) x + r.
    r = 5
    n = r + 3
    roots = snr_cubic_roots(n, r)
    for x in roots:
        assert abs(x ** 3 - x ** 2 - (r + 2) * x + r) < 1e-9


def test_cubic_rejects_bad_params():
    with pytest.raises(ValueError):
        snr_cubic_roots(5, 3)
    with pytest.raises(ValueError):
        snr_cubic_roots(6, 0)


def test_snr_spectrum_matches_eigensolver():
    for r in range(1, 11):
        for n in range(r + 3, r + 13):
            spec = snr_spectrum(n, r)
            assert spec.zero_mult == r - 1
            assert spec.minus_one_mult == n - r - 2
            a = np.array(adjacency_matrix(make_snr(SnrParams(n, r))), float)
            w = eigen_sym(a).eigenvalues
            assert np.allclose(sorted(spec.as_multiset()), w, rtol=0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# Secular roots for complete multipartite graphs
# ---------------------------------------------------------------------------


def test_secular_k32():
    roots = multipartite_secular_roots(MultipartiteParams.of([(1, 3), (1, 2)]))
    assert np.allclose(roots, [math.sqrt(6), -math.sqrt(6)], rtol=0.0, atol=1e-12)
    assert 2 < math.sqrt(6) < 3


def test_secular_k221():
    roots = multipartite_secular_roots(MultipartiteParams.of([(2, 2), (1, 1)]))
    assert np.allclose(roots, [1 + math.sqrt(5), 1 - math.sqrt(5)], rtol=0.0, atol=1e-12)


def test_secular_single_group():
    assert multipartite_secular_roots(MultipartiteParams.of([(4, 3)])) == [9.0]
    assert multipartite_secular_roots(MultipartiteParams.of([(1, 5)])) == [0.0]


def _partition_shapes(max_n: int):
    """Blocks (l_i, t_i) of every complete multipartite shape on 1..max_n
    vertices."""
    def partitions(n: int, largest: int):
        if n == 0:
            yield []
            return
        for part in range(min(n, largest), 0, -1):
            for rest in partitions(n - part, part):
                yield [part] + rest

    for n in range(1, max_n + 1):
        for sizes in partitions(n, n):
            yield [(sizes.count(t), t) for t in sorted(set(sizes), reverse=True)]


# Thousands of vertices with a root about 1e-3 from a pole: eigvalsh alone
# leaves a secular residual above the 1e-10 check on these.
EXTREME_SHAPES = [
    [(200, 134), (1, 40), (200, 39)],
    [(2, 132), (1, 111), (200, 108), (2, 104), (1, 92), (2, 87), (50, 51)],
    [(1, 136), (1, 133), (200, 125), (200, 122), (2, 106), (200, 90), (200, 42), (1, 2)],
    [(1, 147), (200, 145), (200, 140), (50, 121), (3, 106), (174, 11), (151, 4), (2, 2)],
    [(74, 134), (1, 118), (200, 117), (106, 73), (200, 71), (3, 61), (2, 55), (2, 51)],
]


def test_secular_roots_match_bisection_oracle():
    shapes = list(_partition_shapes(20))
    assert len(shapes) == 2713  # p(1) + ... + p(20)
    for blocks in shapes + EXTREME_SHAPES:
        roots = multipartite_secular_roots(MultipartiteParams.of(blocks))
        expected = secular_roots_oracle(blocks)
        assert len(roots) == len(expected)
        assert np.allclose(roots, expected, rtol=1e-12, atol=1e-12), blocks


def test_secular_roots_bitwise_match_the_vectorised_newton_oracle():
    many = many_group_shapes()
    assert len(many) == 65 and min(len(b) for b in many) == 8
    shapes = list(_partition_shapes(20)) + random_shape_pool() + many
    assert len(shapes) == 2713 + 400 + 65
    for blocks in shapes:
        p = MultipartiteParams.of(blocks)
        roots = multipartite_secular_roots(p)
        assert all(type(x) is float for x in roots), blocks
        expected = secular_roots_newton_oracle(p)
        assert np.array(roots).tobytes() == np.array(expected).tobytes(), blocks


def test_secular_residual_small(rng):
    for _ in range(30):
        s = rng.randrange(1, 5)
        sizes = sorted(rng.sample(range(1, 10), s), reverse=True)
        p = MultipartiteParams.of([(rng.randrange(1, 4), t) for t in sizes])
        roots = multipartite_secular_roots(p)
        m, t = p.group_sizes, p.sizes
        for x in roots:
            h = sum(mi / (x + ti) for mi, ti in zip(m, t)) - 1.0
            scale = 1.0 + sum(mi / abs(x + ti) for mi, ti in zip(m, t))
            assert abs(h) < 1e-10 * scale


def test_multipartite_spectrum_matches_eigensolver(rng):
    for _ in range(30):
        s = rng.randrange(1, 5)
        sizes = sorted(rng.sample(range(1, 9), s), reverse=True)
        blocks = [(rng.randrange(1, 4), t) for t in sizes]
        p = MultipartiteParams.of(blocks)
        if p.n > 40 or p.n < 2:
            continue
        spec = multipartite_spectrum(p)
        a = np.array(adjacency_matrix(make_multipartite(p)), float)
        w = eigen_sym(a).eigenvalues
        assert np.allclose(sorted(spec.as_multiset()), w, rtol=0.0, atol=1e-8)


def test_multipartite_interlacing_and_positivity(rng):
    for _ in range(30):
        s = rng.randrange(2, 6)
        sizes = sorted(rng.sample(range(1, 10), s), reverse=True)
        p = MultipartiteParams.of([(rng.randrange(1, 4), t) for t in sizes])
        roots = multipartite_secular_roots(p)
        t = p.sizes
        assert roots[0] > 0
        assert all(x < 0 for x in roots[1:])
        # t_s < -root_2 < t_{s-1} < ... < -root_s < t_1, strict with margin.
        margin = min(
            min(-x - t[s - i + 1], t[s - i] - (-x))
            for i, x in enumerate(roots[1:], start=2))
        assert margin > 1e-9
