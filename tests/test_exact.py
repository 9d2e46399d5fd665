"""Exact integer linear algebra: characteristic polynomials, gcd-based
distinct counts, walk matrices, Bareiss rank, and the main-profile decision."""

import ast
import functools
import importlib
import random
from pathlib import Path

import numpy as np
import pytest

from mainswitch import (
    MultipartiteParams,
    SnrParams,
    adjacency_matrix,
    char_poly,
    classify_main,
    distinct_eigenvalue_count,
    eigen_sym,
    enumerate_connected_graphs,
    main_profile,
    make_multipartite,
    make_snr,
    multipartite_all_main_switching,
    parse_graph6,
    rank_exact,
    snr_all_main_switching,
    walk_matrix,
)
from mainswitch import exact, search
from mainswitch.graphs import Graph, apply_switching
from conftest import (
    crt_oracle,
    det_mod,
    faddeev_leverrier_char_poly,
    fraction_rank,
    is_prime,
    poly_apply_oracle,
    poly_eval_matrix,
    poly_mul,
    random_connected_graph,
    random_signed_graph,
    random_twin_blowup,
    vanishes_oracle,
)


def _random_symmetric(rng, n, values):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = rng.choice(values)
    return a


def _charpoly_cases():
    rng = random.Random(4711)
    cases = {f"signed-n{n}": adjacency_matrix(random_signed_graph(rng, n))
             for n in (8, 20, 40, 60)}
    cases["snr-60-7"] = adjacency_matrix(make_snr(SnrParams(60, 7)))
    cases["multipartite-n56"] = adjacency_matrix(
        make_multipartite(MultipartiteParams.of([(3, 10), (2, 7), (4, 3)])))
    cases["pm3-n40"] = _random_symmetric(rng, 40, (-3, -1, 0, 1, 3))
    # Outside the modular range: entries of 2^22 and beyond int64.
    cases["entries-2^22"] = _random_symmetric(rng, 6, (-(2 ** 22), 0, 1, 2 ** 22 + 5))
    cases["entries-2^70"] = _random_symmetric(rng, 4, (-(2 ** 70), 0, 3, 2 ** 70))
    return cases


_CHARPOLY_CASES = _charpoly_cases()


@functools.lru_cache(maxsize=None)
def _case_char_poly(name):
    # char_poly takes about 0.7 s at n = 60; two tests check each result.
    return char_poly(_CHARPOLY_CASES[name])


def test_char_poly_k2():
    assert char_poly([[0, 1], [1, 0]]) == [-1, 0, 1]


def test_char_poly_k3():
    # Hand cofactor expansion: x^3 - 3x - 2.
    a = adjacency_matrix(parse_graph6("Bw"))
    assert char_poly(a) == [-2, -3, 0, 1]


def test_char_poly_s52_matches_factored_form():
    # x^(r-1) (x+1)^(n-r-2) (x^3 - x^2 - 4x + 2) expanded by an independent
    # convolution oracle.
    expected = poly_mul(poly_mul([0, 1], [1, 1]), [2, -4, -1, 1])
    a = adjacency_matrix(make_snr(SnrParams(5, 2)))
    assert char_poly(a) == expected == [0, 2, -2, -5, 0, 1]


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_cayley_hamilton_spot_checks(rng):
    for _ in range(25):
        n = rng.randrange(1, 9)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.choice((-1, 0, 1))
        p = char_poly(a)
        assert p[-1] == 1 and len(p) == n + 1
        image = poly_eval_matrix(p, a)
        assert all(x == 0 for x in image.flat)
        # Constant term is (-1)^n det(A): cross-check against float det.
        det = np.linalg.det(np.array(a, dtype=float))
        assert abs(p[0] - ((-1) ** n) * det) < 1e-6


@pytest.mark.parametrize("name", sorted(_CHARPOLY_CASES))
def test_char_poly_matches_faddeev_leverrier_oracle(name):
    a = _CHARPOLY_CASES[name]
    assert _case_char_poly(name) == faddeev_leverrier_char_poly(a)


@pytest.mark.parametrize("name", sorted(_CHARPOLY_CASES))
def test_char_poly_matches_modular_determinant(name):
    # char_poly(a)(x) = det(xI - A) mod the prime 2^61 - 1 at three seeded
    # random x: a wrong polynomial of degree n agrees at a random point with
    # probability at most n/p (Schwartz-Zippel), so at all three with at
    # most (n/p)^3.
    a = _CHARPOLY_CASES[name]
    p = 2 ** 61 - 1
    coeffs = _case_char_poly(name)
    n = len(a)
    rng = random.Random(name)
    for _ in range(3):
        x = rng.randrange(p)
        value = sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p
        shifted = [[(x if i == j else 0) - int(a[i][j]) for j in range(n)] for i in range(n)]
        assert value == det_mod(shifted, p)


def test_prime_table_is_prime_and_overflow_safe():
    primes = exact._PRIMES
    assert list(primes) == sorted(set(primes), reverse=True)
    for p in primes:
        assert is_prime(p)
        # The primes lie above the guard; row . column products in
        # _vanishes, below 3 rho p, are exact in float64; residue products
        # fit int64.
        assert exact._LIMIT < p
        assert 3 * exact._LIMIT * p < 2 ** 53
        assert p * p < 2 ** 63
    # Every annihilator lift bound 2 (1+rho)^d of a signed graph in graph6
    # range (rho, d < 62) fits the table.
    assert exact._PRIME_PRODUCTS[-1] > 2 * 62 ** 62


def test_guard_returns_its_row_bound():
    # Accepted exactly when every entry and absolute row sum is below
    # _LIMIT; the largest absolute row sum comes back with the array.
    top = exact._LIMIT - 1
    arr, rho = exact._guarded_array([[0, top - 1], [top - 1, -1]])
    assert arr.dtype == np.int64 and rho == exact._row_bound(arr) == top
    for a in ([[0, top, 1], [top, 0, 0], [1, 0, 0]],      # a row sum of _LIMIT
              [[0, -exact._LIMIT], [-exact._LIMIT, 0]],    # an entry of -_LIMIT
              [[2 ** 70]]):                                # past int64
        with pytest.raises(ValueError, match=r"2\^20"):
            exact._guarded_array(a)


def test_distinct_count_examples():
    assert distinct_eigenvalue_count([-1, 0, 1]) == 2          # x^2 - 1
    assert distinct_eigenvalue_count([-2, -3, 0, 1]) == 2      # (x-2)(x+1)^2
    a = adjacency_matrix(make_snr(SnrParams(5, 2)))
    assert distinct_eigenvalue_count(char_poly(a)) == 5


def test_distinct_count_rejects_zero_poly():
    with pytest.raises(ValueError):
        distinct_eigenvalue_count([])
    with pytest.raises(ValueError):
        distinct_eigenvalue_count([0, 0])


def test_distinct_count_matches_factor_counts(rng):
    # Products of factors with known roots: x - r for integer r, and x^2 - c
    # for c not the square of an integer (two irrational or imaginary roots
    # that no other factor shares).  Repeated factors, squaring and a
    # constant factor raise the degree but not the number of distinct roots.
    factors = [[-r, 1] for r in range(-6, 7)]
    factors += [[-c, 0, 1] for c in (-5, -4, -3, -2, -1, 2, 3, 5)]
    repeated = squarefree = 0
    for _ in range(80):
        picks = [rng.choice(factors) for _ in range(rng.randrange(1, 6))]
        p = [rng.choice((1, -3, 7))]
        for f in picks:
            p = poly_mul(p, f)
        if rng.random() < 0.5:
            p = poly_mul(p, p)
        distinct = sum(len(f) - 1 for f in {tuple(f) for f in picks})
        assert distinct_eigenvalue_count(p) == distinct, p
        repeated += distinct < len(p) - 1
        squarefree += distinct == len(p) - 1
    assert repeated >= 30 and squarefree >= 20


def test_walk_matrix_examples():
    assert walk_matrix([[0, 1], [1, 0]]) == [[1, 1], [1, 1]]
    assert walk_matrix([[0, -1], [-1, 0]]) == [[1, -1], [1, -1]]
    w = walk_matrix(adjacency_matrix(parse_graph6("Bw")))
    assert w == [[1, 2, 4], [1, 2, 4], [1, 2, 4]]


def test_walk_matrix_matches_python_loop(rng):
    for n in (1, 5, 30):
        a = _random_symmetric(rng, n, (-3, -1, 0, 1, 2))
        cols = [[1] * n]
        for _ in range(n - 1):
            cols.append([sum(a[i][k] * cols[-1][k] for k in range(n)) for i in range(n)])
        w = walk_matrix(a)
        assert w == [[cols[k][i] for k in range(n)] for i in range(n)]
        assert all(type(x) is int for row in w for x in row)


def test_walk_matrix_from_sign_vector_is_switched_walk_matrix(rng):
    # Switching about X conjugates A by D = diag(s), s_v = -1 exactly on X, so
    # the walk matrix of DAD is D walk_matrix(A, s).
    for _ in range(40):
        n = rng.randrange(1, 13)
        sg = random_signed_graph(rng, n) if n > 1 else Graph(1, frozenset())
        x = {v for v in range(1, n + 1) if rng.random() < 0.5}
        s = [-1 if v in x else 1 for v in range(1, n + 1)]
        switched = walk_matrix(adjacency_matrix(apply_switching(sg, x)))
        from_signs = walk_matrix(adjacency_matrix(sg), s)
        assert switched == [[d * w for w in row] for d, row in zip(s, from_signs)]
        assert rank_exact(switched) == rank_exact(from_signs)


def test_walk_matrix_rejects_wrong_start_length():
    with pytest.raises(ValueError):
        walk_matrix([[0, 1], [1, 0]], [1])
    for start in ([1.0, 1], np.array([0.5, 1.0]), ["1", "1"], [None, 1]):
        with pytest.raises(ValueError, match="integers"):
            walk_matrix([[0, 1], [1, 0]], start)


def test_rank_exact_examples():
    assert rank_exact([[1, 1], [1, 1]]) == 1
    assert rank_exact([[1 if i == j else 0 for j in range(4)] for i in range(4)]) == 4
    k4e = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    # Frozen from the rational-elimination oracle.
    assert rank_exact(walk_matrix(adjacency_matrix(k4e))) == 2
    assert fraction_rank(walk_matrix(adjacency_matrix(k4e))) == 2


def test_rank_exact_against_fraction_oracle(rng):
    # Random shapes, rows and columns (1 x k, k x 1), wide and tall shapes;
    # for each, small entries, zero, and a product of low rank k whose
    # entries pass 2^63 in a list.
    shapes = [(rng.randrange(1, 10), rng.randrange(1, 10)) for _ in range(100)]
    shapes += [(1, k) for k in range(1, 10)] + [(k, 1) for k in range(1, 10)]
    shapes += [(2, 9), (3, 8), (9, 2), (8, 3)]
    for rows, cols in shapes:
        small = [[rng.randrange(-5, 6) for _ in range(cols)] for _ in range(rows)]
        k = rng.randrange(1, max(2, min(rows, cols)))
        u = [[rng.randrange(-3, 4) * 2 ** 62 + rng.randrange(-9, 10) for _ in range(k)]
             for _ in range(rows)]
        v = [[rng.randrange(-3, 4) for _ in range(cols)] for _ in range(k)]
        big = [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]
        for m in (small, [[0] * cols for _ in range(rows)], big):
            copy = [list(row) for row in m]
            assert rank_exact(m) == fraction_rank(m)
            assert m == copy  # the list is copied, not eliminated in place
        assert fraction_rank(big) <= k


def test_rank_exact_on_search_matrices_matches_fraction_oracle(rng, monkeypatch):
    # A seeded sample of the walk and Hankel matrices the switching search
    # ranks on the n <= 7 catalog.
    seen = []

    def spy(m):
        before = m.copy()
        rank = rank_exact(m)
        assert np.array_equal(m, before)
        seen.append((m.tolist(), rank))
        return rank

    monkeypatch.setattr(exact, "rank_exact", spy)
    monkeypatch.setattr(search, "rank_exact", spy)
    catalog = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    for g in rng.sample(catalog, 80):
        search.find_all_main_switching(g)
    hankel = sum(1 for m, _ in seen if len(m) == len(m[0]) and np.array_equal(m, np.transpose(m)))
    assert hankel >= 80 and len(seen) > hankel
    for m, rank in seen:
        assert rank == fraction_rank(m)


def test_rank_exact_rank_deficient_structured(rng):
    # Products of thin matrices have bounded rank; exercises column skips.
    for _ in range(40):
        n = rng.randrange(2, 8)
        k = rng.randrange(1, n)
        u = np.array([[rng.randrange(-3, 4) for _ in range(k)] for _ in range(n)], dtype=object)
        v = np.array([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(k)], dtype=object)
        m = [[int(x) for x in row] for row in np.dot(u, v)]
        assert rank_exact(m) == fraction_rank(m) <= k


def test_rank_exact_reads_int64_arrays_as_lists(rng):
    # Entries near 2^40 make Bareiss products far past int64: the array is
    # read into Python ints, and left as it was.
    for _ in range(60):
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        k = rng.randrange(1, 4)
        u = np.array([[rng.randrange(-2 ** 20, 2 ** 20) for _ in range(k)] for _ in range(rows)])
        v = np.array([[rng.randrange(-2 ** 20, 2 ** 20) for _ in range(cols)] for _ in range(k)])
        arr = u @ v if rng.random() < 0.5 else u @ v + np.eye(rows, cols, dtype=np.int64)
        before = arr.copy()
        assert arr.dtype == np.int64
        assert rank_exact(arr) == rank_exact(arr.tolist()) == fraction_rank(arr.tolist())
        assert rank_exact(arr.T) == rank_exact(arr.T.tolist())  # a strided view
        assert np.array_equal(arr, before)


def test_rank_exact_rejects_empty_and_ragged_input():
    for bad in ([], [[]], [[1, 2], [3]], np.zeros((0, 3), dtype=np.int64),
                np.zeros((3, 0), dtype=np.int64), np.array([1, 2], dtype=np.int64),
                np.ones((2, 2, 2), dtype=np.int64), np.array(5), np.zeros((0, 2), dtype=object),
                np.ones(3, dtype=object)):
        with pytest.raises(ValueError):
            rank_exact(bad)


def test_rank_exact_copies_lists_and_other_arrays_to_python_ints():
    # numpy int64 scalars in a list and Python ints past 2^63 in an object
    # array both take the int() copy; Bareiss in int64 would overflow.
    m = [[2 ** 40 + 1, 2 ** 40], [2 ** 40, 2 ** 40 - 1], [3, 5]]
    assert rank_exact([[np.int64(x) for x in row] for row in m]) == 2
    singular = [[2 ** 70, 2 ** 71], [2 ** 69, 2 ** 70]]
    assert rank_exact(np.array(singular, dtype=object)) == 1
    assert rank_exact(np.array(m[:2], dtype=object).T) == fraction_rank(m[:2]) == 2
    assert rank_exact(np.array([[1, 2], [2, 4]], dtype=np.int32)) == 1
    # Other integer and bool dtypes are read exactly: no uint8 wrap, and
    # bools add as ints, not modulo 2 (this matrix has rank 2 over GF(2)).
    assert rank_exact(np.array([[255, 1], [1, 255]], dtype=np.uint8)) == 2
    assert rank_exact(np.array([[255, 255], [1, 1]], dtype=np.uint8)) == 1
    odd = [[True, True, False], [False, True, True], [True, False, True]]
    assert rank_exact(np.array(odd)) == rank_exact(odd) == 3
    assert rank_exact([[True, False], [True, False]]) == 1


_NON_INTEGER_MATRICES = {
    "float-array": np.array([[0, 1.7], [1.7, 0]]),
    "integral-float-array": np.array([[0., 1.], [1., 0.]]),
    "strings": [["0", "1"], ["1", "0"]],
    "string-1x1": [["2"]],
    "half": [[0.5, 1], [1, 0]],
    "one-and-a-half": [[0, 1.5], [1.5, 0]],
    "none": [[0, None], [None, 0]],
}


@pytest.mark.parametrize("fn", [main_profile, rank_exact, char_poly, walk_matrix],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("name", sorted(_NON_INTEGER_MATRICES))
def test_non_integer_entries_are_rejected(fn, name):
    # Nothing is rounded or parsed: [[0, 1.7], [1.7, 0]] is not K2, and
    # [[0, 1.5], [1.5, 0]] has characteristic polynomial x^2 - 2.25.
    with pytest.raises(ValueError, match="integers"):
        fn(_NON_INTEGER_MATRICES[name])


def test_main_profile_examples():
    prof = main_profile(adjacency_matrix(parse_graph6("Bw")))
    assert (prof.main_count, prof.distinct_count, prof.all_main) == (1, 2, False)
    prof = main_profile([[0, -1], [-1, 0]])
    assert (prof.main_count, prof.distinct_count, prof.all_main) == (1, 2, False)
    # The path P4 as other integer and bool arrays and as a list of bools.
    p4 = adjacency_matrix(parse_graph6("Ch"))
    for a in (p4, np.array(p4, dtype=np.int32), np.array(p4, dtype=np.uint8),
              np.array(p4, dtype=bool), [[bool(x) for x in row] for row in p4]):
        prof = main_profile(a)
        assert (prof.main_count, prof.distinct_count, prof.all_main) == (2, 4, False)


def _profile_cases():
    rng = random.Random(99)
    cases = [adjacency_matrix(random_signed_graph(rng, n)) for n in (3, 7, 12, 25, 40)]
    cases += [adjacency_matrix(apply_switching(make_snr(SnrParams(n, 3)), [1, 3]))
              for n in (12, 40)]
    # H x K2 on 40 vertices: (x, -x) eigenvectors are never main, so the
    # main count is at most 20 (here 20, with 40 distinct eigenvalues): the
    # annihilator of j fixes the main count but not the verdict.  Walk
    # entries pass 2^63 long before the last column.
    h = adjacency_matrix(random_connected_graph(rng, 20))
    cases.append([row + [int(i == j) for j in range(20)] for i, row in enumerate(h)]
                 + [[int(i == j) for j in range(20)] + row for i, row in enumerate(h)])
    cases += [adjacency_matrix(make_snr(SnrParams(40, 7))),
              adjacency_matrix(make_multipartite(MultipartiteParams.of([(2, 9), (3, 4)]))),
              adjacency_matrix(random_connected_graph(rng, 30)),
              [[1 if abs(i - j) in (1, 39) else 0 for j in range(40)] for i in range(40)]]
    return cases


def _twin_cases():
    # Seeded twin blow-ups, n = 28 to 44: their bounds 2 (1+rho)^d ask for
    # 3 to 5 lift primes, but the minimal polynomials of j and v have
    # coefficients of 20 to 35 bits, inside two primes.
    rng = random.Random(34)
    return [adjacency_matrix(random_twin_blowup(rng, n)) for n in (28, 32, 36, 40, 44)]


def test_twin_blowups_match_the_oracles():
    # None of them is all-main: twins give eigenvalues 0 and -1 that are not
    # main.  The main count comes from Fraction elimination on the walk
    # matrix, the distinct count from the char-poly gcd.
    cases = _twin_cases()
    expected = [_oracle_profile(a) for a in cases]
    assert [main_profile(a) for a in cases] == expected
    assert not any(e.all_main for e in expected)
    assert all(e.distinct_count < len(a) for e, a in zip(expected, cases))


def test_main_profile_matches_exact_rank():
    verdicts = set()
    for a in _profile_cases():
        prof = main_profile(a)
        w = walk_matrix(a)
        mc = fraction_rank(w) if len(a) <= 25 else rank_exact(w)
        dc = distinct_eigenvalue_count(faddeev_leverrier_char_poly(a))
        assert (prof.main_count, prof.distinct_count, prof.all_main) == (mc, dc, mc == dc)
        verdicts.add(prof.all_main)
    assert verdicts == {True, False}


def _oracle_profile(a):
    mc = fraction_rank(walk_matrix(a))
    dc = distinct_eigenvalue_count(faddeev_leverrier_char_poly(a))
    return exact.MainProfile(mc, dc, mc == dc)


def _kernel_cases(rng):
    # Catalog graphs under seeded switchings, then signed graphs with twins
    # (repeated eigenvalues) up to 10 vertices, n = 1, and an empty graph.
    graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    for g in rng.sample(graphs, 300):
        for _ in range(2):
            yield adjacency_matrix(apply_switching(
                g, [v for v in range(1, g.n + 1) if rng.random() < 0.5]))
    for _ in range(60):
        a = adjacency_matrix(random_signed_graph(rng, rng.randrange(2, 7)))
        while len(a) < 10 and rng.random() < 0.8:  # a twin of v, joined to v by w
            v, w = rng.randrange(len(a)), rng.choice((-1, 0, 1))
            row = a[v][:v] + [w] + a[v][v + 1:]
            a = [r + [x] for r, x in zip(a, row)] + [row + [0]]
        yield a
    yield [[0]]
    yield [[0] * 4 for _ in range(4)]


def test_power_stack_kernel_matches_oracles(monkeypatch, rng):
    # Below the gate no annihilator is lifted or checked.
    def certificate(*args):
        raise AssertionError("a certificate ran below the power-stack gate")

    cases = list(_kernel_cases(rng))
    expected = [_oracle_profile(a) for a in cases]
    monkeypatch.setattr(exact, "_annihilator", certificate)
    monkeypatch.setattr(exact, "_vanishes", certificate)
    assert [main_profile(a) for a in cases] == expected
    assert max(len(a) for a in cases) == 10
    counts = {(p.main_count, p.distinct_count, len(a)) for p, a in zip(expected, cases)}
    # Both verdicts, and main counts one short of n with n distinct
    # eigenvalues or with fewer.
    assert {mc == dc for mc, dc, _ in counts} == {True, False}
    assert any(mc == n - 1 and dc == n for mc, dc, n in counts)
    assert any(mc == n - 1 and dc < n for mc, dc, n in counts)
    assert expected[-2:] == [exact.MainProfile(1, 1, True)] * 2


def test_power_stack_gate(monkeypatch, rng):
    # Eleven vertices, or an entry of 2^19 (n rho^(2n-2) past 2^63), take
    # the annihilator path.
    cases = [adjacency_matrix(random_signed_graph(rng, 11)),
             [[0, 2 ** 19, 1], [2 ** 19, 3, -1], [1, -1, 0]]]
    assert not exact._int64_stack(3, 2 ** 19 + 1)
    certified = []
    certified_profile = exact._certified_profile
    monkeypatch.setattr(exact, "_certified_profile",
                        lambda *args: certified.append(1) or certified_profile(*args))
    assert [main_profile(a) for a in cases] == [_oracle_profile(a) for a in cases]
    assert len(certified) == len(cases)


@pytest.mark.parametrize("p", [2, 3])
def test_failed_modular_certificate_falls_back_to_exact_rank(monkeypatch, p):
    # Only matrices past the power-stack kernel reach the modular rank, so
    # every power stack below is the fallback's.  The twin blow-ups (n = 28
    # to 36) take the prime-by-prime lift.
    cases = [a for a in _profile_cases() if len(a) > exact._STACK_MAX_N] + _twin_cases()[:3]
    expected = [main_profile(a) for a in cases]
    ranks = [exact._krylov_mod(np.array(a, dtype=np.int64), p, np.ones(len(a), dtype=np.int64))[0]
             for a in cases]
    pairs = [(r, fraction_rank(walk_matrix(a))) for r, a in zip(ranks, cases) if len(a) <= 25]
    assert all(r <= q for r, q in pairs)
    assert any(r < q for r, q in pairs)
    fallbacks = []
    stack_profile = exact._stack_profile
    monkeypatch.setattr(exact, "_RANK_PRIME", p)
    monkeypatch.setattr(exact, "_stack_profile",
                        lambda powers: fallbacks.append(1) or stack_profile(powers))
    for a, r, e in zip(cases, ranks, expected):
        before = len(fallbacks)
        assert main_profile(a) == e
        # A rank mod p short of the main count leaves no annihilator of j
        # of degree r, so the power stack must have decided.
        assert r == e.main_count or len(fallbacks) == before + 1
    assert fallbacks


def test_short_distinct_count_cannot_pass_as_all_main(monkeypatch):
    # Once the annihilator is rejected, the main count comes from Bareiss
    # elimination on the power stack, never from rank_p: a distinct count
    # that is too small must not pass as a certificate.  n = 12 is past the
    # power-stack kernel.
    a = adjacency_matrix(apply_switching(make_snr(SnrParams(12, 2)), [1, 12]))
    dc = main_profile(a).distinct_count
    assert main_profile(a).all_main and dc < len(a)
    bareiss, vanishes = [], []
    monkeypatch.setattr(exact, "_vanishes", lambda *args: vanishes.append(1) or (False, False))
    monkeypatch.setattr(exact, "_distinct_count", lambda powers: dc - 1)
    monkeypatch.setattr(exact, "rank_exact", lambda m: bareiss.append(m) or rank_exact(m))
    assert main_profile(a) == exact.MainProfile(dc, dc - 1, False)
    assert len(bareiss) == 1 and len(vanishes) == 1


def _family_matrices():
    # The two constructions, switched to all-main and unswitched (few main
    # eigenvalues), as main_profile sees them in construct and check-cert.
    mats = []
    for blocks in ([(3, 10), (2, 7), (4, 3)], [(2, 9), (3, 4)], [(1, 3), (1, 2)],
                   [(5, 4)], [(1, 6), (2, 2), (3, 1)], [(1, 4), (1, 3), (1, 2), (1, 1)]):
        p = MultipartiteParams.of(blocks)
        res = multipartite_all_main_switching(p)
        mats += [adjacency_matrix(make_multipartite(p)),
                 adjacency_matrix(apply_switching(res.graph, res.switching))]
    for n, r in ((5, 2), (12, 3), (30, 5), (60, 7)):
        res = snr_all_main_switching(n, r)
        mats += [adjacency_matrix(make_snr(SnrParams(n, r))),
                 adjacency_matrix(apply_switching(res.graph, res.switching))]
    return mats


def test_main_profile_matches_rank_and_gcd_oracle(rng):
    # The certificates against the path they shortcut: the distinct count
    # from char_poly and its gcd, the main count from Bareiss elimination.
    # (_profile_cases meet independent oracles above.)
    cases = _family_matrices()
    cases += [adjacency_matrix(random_signed_graph(rng, rng.randrange(2, 30)))
              for _ in range(20)]
    verdicts = set()
    for a in cases:
        mc = rank_exact(walk_matrix(a))
        dc = distinct_eigenvalue_count(char_poly(a))
        assert main_profile(a) == exact.MainProfile(mc, dc, mc == dc)
        verdicts.add(mc == dc)
    assert verdicts == {True, False}


def test_not_all_main_counts_come_from_the_annihilator(monkeypatch):
    # q(A) j = 0 with q of degree rank_p fixes the main count, and the
    # annihilator of v = (1, ..., n) the distinct count; Bareiss is not
    # needed.  H x K2 has main count 20 and distinct count 40.  Matrices of
    # at most 10 vertices take the power-stack kernel instead.
    cases = [a for a in _profile_cases() + _family_matrices() + _twin_cases()
             if len(a) > 10 and not main_profile(a).all_main]
    expected = [main_profile(a) for a in cases]
    assert (20, 40) in {(p.main_count, p.distinct_count) for p in expected}

    def no_bareiss(m):
        raise AssertionError("Bareiss elimination was called")

    # q(A) is evaluated whole once from v unless the Krylov rank from v is
    # already n.  From j it is evaluated on the one-prime path; past it (a
    # lift over more primes) only when q_j(A) v = 0, as q_j(A) v != 0
    # already shows q_j(A) != 0.
    from_j = []
    for a in cases:
        arr, rho = exact._guarded_array(a)
        d, q = exact._krylov_mod(arr, exact._RANK_PRIME, np.ones(len(a), dtype=np.int64))
        one_prime = (exact._prime_count(2 * (1 + rho) ** d) == 1
                     or exact._horner_bound(rho, exact._crt_lift(q[:, None], 1)) < 2 ** 53)
        q_j = exact._annihilator(arr, rho, np.ones(len(a), dtype=np.int64))[1]
        on_v = not any(poly_apply_oracle(q_j, a, list(range(1, len(a) + 1))))
        from_j.append(int(one_prime or on_v))
    assert 0 in from_j and 1 in from_j
    starts, wholes = [], []
    annihilator, vanishes = exact._annihilator, exact._vanishes

    def tagged(arr, rho, start):
        starts.append("j" if (start == 1).all() else "v")
        return annihilator(arr, rho, start)

    def whole(arr, rho, poly, block=None):
        if block is None:
            wholes.append(starts[-1])
        return vanishes(arr, rho, poly, block)

    monkeypatch.setattr(exact, "rank_exact", no_bareiss)
    monkeypatch.setattr(exact, "_annihilator", tagged)
    monkeypatch.setattr(exact, "_vanishes", whole)
    for a, e, count in zip(cases, expected, from_j):
        starts.clear(), wholes.clear()
        assert main_profile(a) == e
        assert wholes.count("j") == count
        assert wholes.count("v") == int(e.distinct_count < len(a))
    assert any(p.distinct_count < len(a) for p, a in zip(expected, cases))


def test_annihilator_check_prime_count_comes_from_the_candidate():
    # q + M, M the lift modulus, agrees with q modulo every lift prime; only
    # the primes that its own coefficients call for tell them apart, on the
    # whole matrix and on the start vector alone (with and without the
    # residue test modulo the last table prime).
    for a in _family_matrices() + _profile_cases() + _twin_cases():
        arr, rho = exact._guarded_array(a)
        n = len(a)
        for start in (np.ones(n, dtype=np.int64), np.arange(1, n + 1, dtype=np.int64)):
            d, q, _ = exact._annihilator(arr, rho, start)
            if q is None:
                continue
            m = exact._PRIME_PRODUCTS[exact._prime_count(2 * (1 + rho) ** d) - 1]
            shifted = [q[0] + m] + q[1:]
            assert exact._kills(arr, rho, q, start)
            assert not exact._kills(arr, rho, shifted, start)
            assert exact._vanishes(arr, rho, shifted, start[:, None]) == (False, False)
            if start[-1] == 1:
                assert exact._vanishes(arr, rho, q) == (main_profile(a).all_main, True)
                assert exact._vanishes(arr, rho, shifted) == (False, False)


# Shapes of the switched multipartite constructions at n = 48, 36 and 60.
# The annihilators of j of their matrices have bounds 2 sum |q_i| rho^i of
# 47, 54 and 67 bits, so _vanishes takes both sides of 2^53.
_VANISHES_SHAPES = {
    47: [(2, 12), (1, 10), (1, 7), (1, 4), (3, 1)],
    54: [(1, 9), (1, 6), (2, 5), (1, 4), (2, 2), (3, 1)],
    67: [(1, 9), (1, 8), (1, 7), (2, 6), (3, 5), (1, 4), (1, 3), (1, 2)],
}


def _vanishes_bound(rho, q):
    return 2 * sum(abs(c) * rho ** i for i, c in enumerate(q))


@pytest.mark.parametrize("bits", sorted(_VANISHES_SHAPES))
def test_vanishes_matches_python_int_oracle_on_both_sides_of_2_53(bits, monkeypatch):
    # _vanishes evaluates q(A) directly in float64 below 2^53 and modulo
    # primes above it; _prime_count runs only on the modular side.  Every
    # verdict must equal the Python-int evaluation of q(A).
    p = MultipartiteParams.of(_VANISHES_SHAPES[bits])
    res = multipartite_all_main_switching(p)
    a = adjacency_matrix(apply_switching(res.graph, res.switching))
    arr, rho = exact._guarded_array(a)
    d, q, _ = exact._annihilator(arr, rho, np.ones(len(a), dtype=np.int64))
    assert _vanishes_bound(rho, q).bit_length() == bits
    lift = exact._PRIME_PRODUCTS[exact._prime_count(2 * (1 + rho) ** d) - 1]
    # The unswitched graph: q of j annihilates j but not A (its twins'
    # eigenvalues are not main); times x - 2^40 it needs the primes.
    plain = adjacency_matrix(make_multipartite(p))
    plain_arr, plain_rho = exact._guarded_array(plain)
    _, q_j, _ = exact._annihilator(plain_arr, plain_rho, np.ones(len(a), dtype=np.int64))
    cases = [
        (a, arr, rho, q, (True, True)),  # a true annihilator
        (a, arr, rho, [q[0] + 1] + q[1:], (False, False)),
        (a, arr, rho, [q[0] - 1] + q[1:], (False, False)),
        (a, arr, rho, [q[0] + lift] + q[1:], (False, False)),  # agrees mod the lift primes
        (plain, plain_arr, plain_rho, q_j, (False, True)),
        (plain, plain_arr, plain_rho, poly_mul(q_j, [-2 ** 40, 1]), (False, True)),
    ]
    counted = []
    prime_count = exact._prime_count
    monkeypatch.setattr(exact, "_prime_count", lambda b: counted.append(b) or prime_count(b))
    for m, m_arr, m_rho, poly, expected in cases:
        counted.clear()
        assert exact._vanishes(m_arr, m_rho, poly) == vanishes_oracle(poly, m) == expected
        assert bool(counted) == (_vanishes_bound(m_rho, poly) >= 2 ** 53)
    # Both branches are met: the shifted q always needs the primes.
    assert _vanishes_bound(rho, [q[0] + lift] + q[1:]) >= 2 ** 53
    assert _vanishes_bound(plain_rho, q_j) < 2 ** 53


def _switched_multipartite(blocks):
    res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
    return adjacency_matrix(apply_switching(res.graph, res.switching))


# n = 16 and d = 8: the bound 2 (1+rho)^d of this switched shape asks for
# two lift primes.
_TWO_PRIME_SHAPE = [(1, 4), (2, 3), (2, 2), (2, 1)]


def test_wrong_lift_falls_back_to_power_stack(monkeypatch):
    # With the second table prime as the rank prime, residues lifted as if
    # modulo the leading table primes give a wrong q whenever q has a
    # negative coefficient: over _RANK_PRIME alone and again over the two
    # primes that the bound asks for.  The one-prime candidate has a plain
    # float64 check, so q(A) is evaluated on it; the two-prime one must be
    # rejected on j, before any evaluation of q(A), and the power stack must
    # decide.  n = 16 keeps that fallback cheap.
    a = _switched_multipartite(_TWO_PRIME_SHAPE)
    arr, rho = exact._guarded_array(a)
    j = np.ones(len(a), dtype=np.int64)
    expected = main_profile(a)
    d, q, _ = exact._annihilator(arr, rho, j)
    assert expected.all_main and min(q) < 0
    assert exact._prime_count(2 * (1 + rho) ** d) == 2
    monkeypatch.setattr(exact, "_RANK_PRIME", exact._PRIMES[1])
    checks, calls = [], []
    kills, vanishes, stack_profile = exact._kills, exact._vanishes, exact._stack_profile

    def check(kind, verdict, poly):
        checks.append((kind, poly, verdict))
        return verdict

    monkeypatch.setattr(exact, "_kills",
                        lambda arr, rho, poly, s: check("start", kills(arr, rho, poly, s), poly))
    monkeypatch.setattr(exact, "_vanishes", lambda arr, rho, poly, block=None: check(
        "whole" if block is None else "block", vanishes(arr, rho, poly, block), poly))
    monkeypatch.setattr(exact, "_stack_profile",
                        lambda powers: calls.append(1) or stack_profile(powers))
    assert main_profile(a) == expected
    assert calls == [1]
    assert [(kind, verdict) for kind, _, verdict in checks] == [("whole", (False, False)),
                                                               ("start", False)]
    for _, wrong, _ in checks:
        assert len(wrong) == len(q) and wrong != q


def test_twin_blowups_lift_at_most_two_primes_per_start_vector(monkeypatch):
    # The bound asks for 3 to 5 primes, but the candidate over two already
    # passes the start-vector check: two Krylov runs from j and two from v,
    # and the whole q(A) is evaluated only on a candidate that passed it.
    runs, checks = [], []
    krylov, kills, vanishes = exact._krylov_mod, exact._kills, exact._vanishes

    def check(kind, verdict, poly):
        checks.append((kind, poly, verdict))
        return verdict

    monkeypatch.setattr(exact, "_krylov_mod",
                        lambda arr, p, start: runs.append(start[-1]) or krylov(arr, p, start))
    monkeypatch.setattr(exact, "_kills",
                        lambda arr, rho, poly, s: check("start", kills(arr, rho, poly, s), poly))
    monkeypatch.setattr(exact, "_vanishes", lambda arr, rho, poly, block=None: check(
        "whole" if block is None else "block", vanishes(arr, rho, poly, block), poly))
    bounds = []
    for a in _twin_cases():
        runs.clear(), checks.clear()
        n = len(a)
        expected = main_profile(a)
        arr, rho = exact._guarded_array(a)
        bounds.append(exact._prime_count(2 * (1 + rho) ** expected.main_count))
        assert runs == [1, 1, n, n]
        passed = [poly for kind, poly, verdict in checks if kind == "start" and verdict]
        assert all(poly in passed for kind, poly, _ in checks if kind == "whole")
        assert [kind for kind, _, _ in checks].count("whole") == 1
    assert min(bounds) >= 3


def test_one_prime_candidate_that_passes_needs_one_krylov_run(monkeypatch):
    # The bound asks for two primes, but the candidate lifted over
    # _RANK_PRIME alone already has q(A) = 0: one Krylov elimination
    # decides the matrix, with the profile of the oracles.
    a = _switched_multipartite(_TWO_PRIME_SHAPE)
    arr, rho = exact._guarded_array(a)
    expected = _oracle_profile(a)
    assert expected == exact.MainProfile(8, 8, True) and len(a) == 16
    assert exact._prime_count(2 * (1 + rho) ** 8) == 2
    runs = []
    krylov = exact._krylov_mod
    monkeypatch.setattr(exact, "_krylov_mod", lambda *args: runs.append(args[1]) or krylov(*args))
    assert main_profile(a) == expected
    assert runs == [exact._RANK_PRIME]


@pytest.mark.parametrize("eigenvalues, checked_first", [
    # q_0 = 300 * 301 * 302 * 303, about 8.3e9: the one-prime candidate has
    # a plain-Horner check, which it fails.
    ((300, 301, 302, 303), True),
    # q_0 about -1.25e17: the wrong candidate's own check would need the
    # primes, so it is not checked at all.
    ((499999, 499997, 499993), False),
])
def test_one_prime_candidate_past_half_the_prime_is_lifted_again(monkeypatch, eigenvalues,
                                                                 checked_first):
    # diag(eigenvalues, the last one repeated up to n = 12) has the
    # annihilator q = prod (x - lambda) of j, whose q_0 is past p/2: the
    # symmetric residues mod _RANK_PRIME are a wrong q.  The lift over the
    # two primes that 2 (1+rho)^d asks for decides the matrix all-main,
    # without the power stack.
    values = list(eigenvalues) + [eigenvalues[-1]] * (12 - len(eigenvalues))
    a = [[v if i == k else 0 for k in range(len(values))] for i, v in enumerate(values)]
    q = functools.reduce(poly_mul, ([-v, 1] for v in eigenvalues))
    d = len(eigenvalues)
    assert abs(q[0]) > exact._RANK_PRIME // 2
    assert exact._prime_count(2 * (1 + max(values)) ** d) == 2
    expected = _oracle_profile(a)
    assert expected == exact.MainProfile(d, d, True)
    checks, stacks, runs = [], [], []
    vanishes, krylov = exact._vanishes, exact._krylov_mod

    def record(arr, rho, poly, block=None):
        if block is not None:
            return vanishes(arr, rho, poly, block)
        checks.append((poly, vanishes(arr, rho, poly)))
        return checks[-1][1]

    monkeypatch.setattr(exact, "_vanishes", record)
    monkeypatch.setattr(exact, "_krylov_mod", lambda *args: runs.append(args[1]) or krylov(*args))
    monkeypatch.setattr(exact, "_stack_profile", lambda powers: stacks.append(1))
    assert main_profile(a) == expected
    assert runs == list(exact._PRIMES[:2]) and not stacks
    assert checks[-1] == (q, (True, True))
    if checked_first:
        assert len(checks) == 2 and checks[0][0] != q and checks[0][1] == (False, False)
    else:
        assert len(checks) == 1


def test_crt_lift_matches_garner_oracle(rng):
    # One prime: the symmetric residue, ends of the range included.  More
    # primes: the idempotent sum over object arrays.
    p = exact._PRIMES[0]
    residues = [0, 1, p // 2, p // 2 + 1, p - 1] + [rng.randrange(p) for _ in range(200)]
    lifted = exact._crt_lift(np.array(residues, dtype=np.int64)[:, None], 1)
    assert lifted == [crt_oracle([r], exact._PRIMES[:1]) for r in residues]
    assert lifted[2:5] == [p // 2, -(p // 2), -1] and {type(v) for v in lifted} == {int}
    for k in (2, 3, 5):
        rows = [[rng.randrange(pk) for pk in exact._PRIMES[:k]] for _ in range(50)]
        assert exact._crt_lift(np.array(rows, dtype=np.int64), k) == [
            crt_oracle(r, exact._PRIMES[:k]) for r in rows]


def test_main_profile_never_reaches_polynomial_code(monkeypatch):
    # Both paths decide without a characteristic polynomial, a gcd or a walk
    # matrix of Python ints.
    cases = _profile_cases() + _family_matrices()
    expected = [main_profile(a) for a in cases]

    def polynomial_code(*args):
        raise AssertionError("main_profile reached the polynomial code")

    for name in ("char_poly", "distinct_eigenvalue_count", "walk_matrix"):
        monkeypatch.setattr(exact, name, polynomial_code)
    assert [main_profile(a) for a in cases] == expected


def test_rejected_certificates_fall_back_to_the_power_stack_once(monkeypatch):
    # n = 12 and 16 are past the power-stack kernel: one all-main matrix
    # with fewer than n distinct eigenvalues, and one that is not all-main.
    res = snr_all_main_switching(12, 3)
    cases = [adjacency_matrix(apply_switching(res.graph, res.switching)),
             adjacency_matrix(make_multipartite(MultipartiteParams.of([(2, 5), (3, 2)])))]
    expected = [_oracle_profile(a) for a in cases]
    assert [e.all_main for e in expected] == [True, False]
    assert all(e.distinct_count < len(a) for e, a in zip(expected, cases))
    calls = []
    stack_profile = exact._stack_profile
    monkeypatch.setattr(exact, "_vanishes", lambda *args: (False, False))
    monkeypatch.setattr(exact, "_stack_profile",
                        lambda powers: calls.append(len(powers)) or stack_profile(powers))
    assert [main_profile(a) for a in cases] == expected
    assert calls == [len(a) for a in cases]


def test_start_vector_j_cannot_certify_the_distinct_count(monkeypatch):
    # With j in place of v, the second Krylov run finds the main polynomial
    # again.  The matrix is not all-main, so q(A) != 0 and the fallback, not
    # the main count, gives the distinct count.
    a = adjacency_matrix(make_multipartite(MultipartiteParams.of([(2, 5), (3, 2)])))
    expected = _oracle_profile(a)
    assert not expected.all_main
    annihilator, vanishes, stack_profile = exact._annihilator, exact._vanishes, exact._stack_profile
    starts, wholes, fallbacks = [], [], []

    def start_at_j(arr, rho, start):
        starts.append(start.tolist())
        return annihilator(arr, rho, np.ones(len(arr), dtype=np.int64))

    monkeypatch.setattr(exact, "_annihilator", start_at_j)
    def whole(arr, rho, poly, block=None):
        checks = vanishes(arr, rho, poly, block)
        if block is None:
            wholes.append(checks[0])
        return checks

    monkeypatch.setattr(exact, "_vanishes", whole)
    monkeypatch.setattr(exact, "_stack_profile",
                        lambda powers: fallbacks.append(1) or stack_profile(powers))
    assert main_profile(a) == expected
    assert starts == [[1] * len(a), list(range(1, len(a) + 1))]
    assert wholes == [False, False] and fallbacks == [1]


def test_main_profile_takes_int64_arrays_as_they_are(monkeypatch):
    # A square int64 array is used without a copy, and never written: each
    # case is read-only.  The second pass forces the power-stack fallback,
    # in Python ints where the stack does not fit int64.
    cases = _profile_cases()
    expected = [main_profile(a) for a in cases]
    arrays = [np.array(a, dtype=np.int64) for a in cases]
    for arr in arrays:
        arr.flags.writeable = False
        assert exact._guarded_array(arr)[0] is arr
    assert [main_profile(arr) for arr in arrays] == expected
    monkeypatch.setattr(exact, "_vanishes", lambda *args: (False, False))
    assert [main_profile(arr) for arr in arrays] == expected
    assert all(arr.tolist() == a for arr, a in zip(arrays, cases))
    # The guard and the symmetry check still apply to int64 arrays.
    with pytest.raises(ValueError, match=r"below 2\^20"):
        main_profile(np.array(_CHARPOLY_CASES["entries-2^22"], dtype=np.int64))
    with pytest.raises(ValueError, match="symmetric"):
        main_profile(np.array([[0, 1], [0, 0]], dtype=np.int64))


def test_main_profile_outside_modular_range():
    # Outside the int64 guard main_profile decides nothing: entries past
    # int64, entries of 2^22, and a row sum of exactly 2^20.
    half = 2 ** 19
    for a in (_CHARPOLY_CASES["entries-2^70"], _CHARPOLY_CASES["entries-2^22"],
              [[0, half, half], [half, 0, 1], [half, 1, 0]]):
        with pytest.raises(ValueError, match=r"below 2\^20"):
            main_profile(a)


def test_main_profile_rejects_asymmetric():
    with pytest.raises(ValueError):
        main_profile([[0, 1], [0, 0]])
    # Entries of 2^19 are inside the guard: the symmetry check rejects it.
    big = 2 ** 19
    with pytest.raises(ValueError, match="symmetric"):
        main_profile([[0, big, 1], [big + 1, 0, 1], [1, 1, 0]])


def test_main_profile_matches_float_classifier(rng):
    for _ in range(60):
        n = rng.randrange(2, 11)
        sg = random_signed_graph(rng, n)
        a = adjacency_matrix(sg)
        exact = main_profile(a)
        report = classify_main(eigen_sym(np.array(a, dtype=float)))
        float_mains = sum(1 for g in report.groups if g.is_main)
        assert exact.main_count == float_mains
        assert exact.distinct_count == len(report.groups)


def test_regular_graphs_have_one_main_eigenvalue():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            degs = {g.degree(v) for v in range(1, n + 1)}
            mc = main_profile(adjacency_matrix(g)).main_count
            if len(degs) == 1:
                assert mc == 1
            else:
                assert mc >= 2


def test_char_poly_invariant_under_switching(rng):
    for _ in range(20):
        n = rng.randrange(2, 10)
        sg = random_signed_graph(rng, n)
        x = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        assert char_poly(adjacency_matrix(sg)) == \
            char_poly(adjacency_matrix(apply_switching(sg, x)))


def test_char_poly_of_multipartite_matches_known_structure():
    # K_{3,2}: eigenvalues +-sqrt(6), 0^3  ->  charpoly x^5 - 6 x^3.
    a = adjacency_matrix(make_multipartite(MultipartiteParams.of([(1, 3), (1, 2)])))
    assert char_poly(a) == [0, 0, 0, -6, 0, 1]


def test_every_traced_name_exists():
    # The benchmark tracer wraps each (module, name) of its TRACED table by
    # getattr, so char_poly, walk_matrix and distinct_eigenvalue_count stay
    # public even though main_profile calls none of them.  The table is read
    # from the source, without importing the benchmark.
    source = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    table = next(node.value for node in ast.parse(source.read_text()).body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TRACED")
    traced = ast.literal_eval(table)
    assert ("exact", "char_poly") in traced
    missing = [(m, f) for m, f in traced
               if not hasattr(importlib.import_module(f"mainswitch.{m}"), f)]
    assert not missing
