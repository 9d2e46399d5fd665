"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line on success (visible with -v or -s);
pytest -v also shows one line per criterion through the test names.
"""

import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np

from mainswitch import (
    Certificate,
    MultipartiteParams,
    NoAllMainSwitchingError,
    SnrParams,
    adjacency_matrix,
    candidate_family_distinct,
    candidate_family_equal,
    canonical_graph6,
    classify_main,
    eigen_sym,
    enumerate_connected_graphs,
    main_profile,
    make_certificate,
    make_multipartite,
    make_snr,
    multipartite_all_main_switching,
    multipartite_spectrum,
    one_per_part_switching,
    snr_all_main_switching,
    snr_spectrum,
    verify_certificate,
    verify_conjecture,
)
from mainswitch.graphs import Graph
from conftest import random_signed_graph

SNR_GRID = [(n, r) for r in range(1, 11) for n in range(r + 3, r + 13)]


def _partitions(n, maxp=None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield []
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in _partitions(n - p, p):
            yield [p] + rest


def _blocks_of(partition):
    return [(partition.count(size), size)
            for size in sorted(set(partition), reverse=True)]


def _random_blocks(rng, n_lo, n_hi, max_s=5):
    while True:
        s = rng.randrange(1, max_s + 1)
        sizes = sorted(rng.sample(range(1, 11), s), reverse=True)
        blocks = [(rng.randrange(1, 5), t) for t in sizes]
        p = MultipartiteParams.of(blocks)
        if n_lo <= p.n <= n_hi:
            return p


def test_criterion_01_conjecture_catalog_n7():
    start = time.perf_counter()
    report = verify_conjecture(7, workers=1)
    single = time.perf_counter() - start
    assert report.graphs_checked == 1 + 2 + 6 + 21 + 112 + 853
    k2 = canonical_graph6(Graph.from_edges(2, [(1, 2)]))
    k4e = canonical_graph6(Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]))
    assert {e.graph6 for e in report.exceptions} == {k2, k4e}
    assert report.successes == report.graphs_checked - 2
    # The report and certificate bytes, as recorded in bench/reference/.
    assert hashlib.sha256((report.to_json() + "\n").encode()).hexdigest() == \
        "d0248ba8fd838ea6cb13077d65174bf11b98953f4f067f6789489018a3e7ac3b"
    certs = "".join(c.to_json() + "\n" for c in report.certificates)
    assert hashlib.sha256(certs.encode()).hexdigest() == \
        "f9a95b601cac0f5155bc157ac3d7d232ec29cb6b5076b3fe3c0f7338e3606d6d"
    assert single < 600.0
    start = time.perf_counter()
    report4 = verify_conjecture(7, workers=4)
    quad = time.perf_counter() - start
    assert report4.to_json() == report.to_json()
    assert quad < 180.0
    print(f"ACCEPTANCE C1 PASS - exceptions exactly {{K2, K4-e}} over 995 graphs "
          f"(single {single:.1f}s, 4 workers {quad:.1f}s)")


def test_criterion_02_snr_constructive_grid():
    start = time.perf_counter()
    failures = []
    for n, r in SNR_GRID:
        res = snr_all_main_switching(n, r)
        if not (res.verified and res.profile.main_count == res.profile.distinct_count):
            failures.append((n, r))
    elapsed = time.perf_counter() - start
    assert len(SNR_GRID) == 100
    assert not failures
    assert elapsed < 30.0
    print(f"ACCEPTANCE C2 PASS - 100/100 grid instances exactly all-main "
          f"({elapsed:.1f}s)")


def test_criterion_03_snr_spectrum_grid():
    for n, r in SNR_GRID:
        spec = snr_spectrum(n, r)
        a = np.array(adjacency_matrix(make_snr(SnrParams(n, r))), float)
        solved = eigen_sym(a).eigenvalues
        assert np.allclose(sorted(spec.as_multiset()), solved, rtol=0.0, atol=1e-8), (n, r)
        lo, mid, hi = spec.cubic_roots
        sq = math.sqrt(r)
        assert lo < 0 < mid < sq < hi, (n, r)
    print("ACCEPTANCE C3 PASS - spectrum multiset and root brackets on all "
          "100 grid instances (tol 1e-8)")


def test_criterion_04_multipartite_spectrum_random():
    rng = random.Random(47)
    for _ in range(50):
        p = _random_blocks(rng, 2, 40)
        spec = multipartite_spectrum(p)
        a = np.array(adjacency_matrix(make_multipartite(p)), float)
        solved = eigen_sym(a).eigenvalues
        assert np.allclose(sorted(spec.as_multiset()), solved, rtol=0.0, atol=1e-8), p.blocks
        roots = spec.secular_roots
        positives = [x for x in roots if x > 0]
        if sum(p.counts) >= 2:
            assert len(positives) == 1, p.blocks
        t, s = p.sizes, p.s
        if s >= 2:
            margin = min(
                min(-x - t[s - i + 1], t[s - i] - (-x))
                for i, x in enumerate(roots[1:], start=2))
            assert margin > 1e-9, p.blocks
    print("ACCEPTANCE C4 PASS - 50 random spectra assembled within 1e-8, one "
          "positive eigenvalue, interlacing margin > 1e-9")


def test_criterion_05_multipartite_constructive_all_shapes():
    start = time.perf_counter()
    rejected = []
    certs = []
    for n in range(2, 21):
        for part in _partitions(n):
            p = MultipartiteParams.of(_blocks_of(part))
            try:
                res = multipartite_all_main_switching(p)
            except NoAllMainSwitchingError:
                rejected.append(p.blocks)
                continue
            assert res.verified, p.blocks
            certs.append(make_certificate(res.graph, res.switching, res.method,
                                          res.profile).to_json() + "\n")
    # The two rejected inputs are the only graphs in the family with no
    # all-main switching at all: the single edge, and the 4-clique minus an
    # edge (blocks (1,2),(2,1)), which is itself complete multipartite.
    assert sorted(rejected) == [((1, 2), (2, 1)), ((2, 1),)]
    # The certificate bytes of every shape, so a change to the shape rules
    # that picks another switching shows here.
    assert hashlib.sha256("".join(certs).encode()).hexdigest() == \
        "48dd2e6ef21439bca190af7ad866223792dff38765991b7775060a2bce5598c9"
    checked = len(certs)
    rng = random.Random(48)
    for _ in range(50):
        p = _random_blocks(rng, 8, 40)
        res = multipartite_all_main_switching(p)
        assert res.verified, p.blocks
        checked += 1
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE C5 PASS - {checked} parameter sets verified all-main, "
          f"rejected only the two unswitchable graphs ({elapsed:.1f}s)")


def test_criterion_06_one_per_part_exhaustive():
    checked = 0
    for s in range(2, 6):
        for sizes in itertools.combinations(range(2, 9), s):
            p = MultipartiteParams.of([(1, t) for t in sorted(sizes, reverse=True)])
            res = one_per_part_switching(p)
            assert res.verified, p.blocks
            assert res.profile.main_count == res.profile.distinct_count
            checked += 1
    assert checked == sum(math.comb(7, s) for s in range(2, 6))
    print(f"ACCEPTANCE C6 PASS - {checked} one-vertex-per-part switchings "
          "exactly all-main, zero failures")


def test_criterion_07_candidate_family_property_suites():
    rng = random.Random(49)
    checked_distinct = 0
    while checked_distinct < 1000:
        n = rng.randrange(2, 12)
        vals = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)]
        k = rng.randrange(1, n + 1)
        idx = rng.sample(range(1, n + 1), k)
        chosen = [vals[i - 1] for i in idx]
        if 0 in chosen or len(set(chosen)) != len(chosen):
            continue
        fam = candidate_family_distinct(vals, idx)
        assert fam.zero_sum_count() <= 1
        checked_distinct += 1
    checked_equal = 0
    while checked_equal < 1000:
        n = rng.randrange(2, 12)
        vals = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(n)]
        k = rng.randrange(1, n + 1)
        idx = rng.sample(range(1, n + 1), k)
        common = Fraction(rng.randrange(1, 10), rng.randrange(1, 6))
        if rng.random() < 0.5:
            common = -common
        for i in idx:
            vals[i - 1] = common
        fam = candidate_family_equal(vals, idx)
        assert fam.zero_sum_count() <= 1
        checked_equal += 1
    print("ACCEPTANCE C7 PASS - 1000+1000 random families, never more than "
          "one zero-sum member")


def test_criterion_08_exact_float_agreement():
    rng = random.Random(50)
    agree = 0
    for _ in range(200):
        n = rng.randrange(2, 11)
        sg = random_signed_graph(rng, n)
        a = adjacency_matrix(sg)
        exact = main_profile(a)
        report = classify_main(eigen_sym(np.array(a, float)))
        float_mains = sum(1 for g in report.groups if g.is_main)
        assert float_mains == exact.main_count, (sg, float_mains, exact)
        agree += 1
    assert agree == 200
    print("ACCEPTANCE C8 PASS - exact and float main counts agree on 200/200 "
          "random signed graphs")


def test_criterion_09_regularity_oracle():
    regular = irregular = 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n):
            degrees = {g.degree(v) for v in range(1, n + 1)}
            mc = main_profile(adjacency_matrix(g)).main_count
            if len(degrees) == 1:
                assert mc == 1, g
                regular += 1
            else:
                assert mc >= 2, g
                irregular += 1
    print(f"ACCEPTANCE C9 PASS - {regular} regular graphs have one main "
          f"eigenvalue, {irregular} irregular have at least two")


def test_criterion_10_certificate_round_trip():
    certs = list(verify_conjecture(4).certificates)
    for n, r in [(5, 1), (6, 2), (8, 3), (12, 4)]:
        res = snr_all_main_switching(n, r)
        certs.append(make_certificate(res.graph, res.switching, res.method, res.profile))
    for blocks in [[(2, 3)], [(3, 2), (1, 1)], [(1, 4), (2, 1)], [(2, 2), (4, 1)]]:
        res = multipartite_all_main_switching(MultipartiteParams.of(blocks))
        certs.append(make_certificate(res.graph, res.switching, res.method, res.profile))
    res = one_per_part_switching(MultipartiteParams.of([(1, 5), (1, 3), (1, 2)]))
    certs.append(make_certificate(res.graph, res.switching, res.method, res.profile))
    for cert in certs:
        assert verify_certificate(cert), cert
        round_tripped = Certificate.from_json_dict(json.loads(cert.to_json()))
        assert round_tripped == cert
    sample = certs[-1]
    tampered = [
        replace(sample, main_count=sample.main_count - 1),
        replace(sample, distinct_count=sample.distinct_count + 1),
        replace(sample, all_main=not sample.all_main),
        replace(sample, switching=()),
        replace(sample, graph6="Bw"),
    ]
    for bad in tampered:
        assert not verify_certificate(bad)
    print(f"ACCEPTANCE C10 PASS - {len(certs)} certificates re-checked, "
          "all field tampers detected")
