"""Switching enumeration, catalog generation, brute-force verification, and
certificate round-trips."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from mainswitch import (
    Certificate,
    DisconnectedGraphError,
    Graph,
    adjacency_matrix,
    apply_switching,
    canonical_form,
    canonical_graph6,
    char_poly,
    distinct_eigenvalue_count,
    emit_graph6,
    enumerate_connected_graphs,
    enumerate_switchings,
    find_all_main_switching,
    main_profile,
    make_certificate,
    make_multipartite,
    make_snr,
    parse_graph6,
    switching_main_counts,
    verify_certificate,
    verify_conjecture,
)
from mainswitch import MainProfile, MultipartiteParams, SnrParams
from mainswitch.cli import run
from mainswitch.exact import _distinct_count, _power_stack, _row_bound
from mainswitch.search import _class_main_counts, _head_sign_chunks, _sign_chunks, _twin_bound
from conftest import (class_main_count_oracle, class_profiles_oracle, random_connected_graph,
                      random_signed_graph)

K4_MINUS_EDGE = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])

# Simple graphs per vertex count, connected or not (OEIS A000088).
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

# Connected simple graphs per vertex count (frozen; cross-checked below for
# n <= 5 by exhaustive labelled enumeration with an independent iso test).
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


# ---------------------------------------------------------------------------
# Switching enumeration
# ---------------------------------------------------------------------------


def test_enumerate_switchings_small():
    assert [sorted(x) for x in enumerate_switchings(2)] == [[], [2]]
    assert [sorted(x) for x in enumerate_switchings(3)] == \
        [[], [2], [3], [2, 3]]
    assert sum(1 for _ in enumerate_switchings(4)) == 8


def test_enumerate_switchings_order_and_count():
    for n in range(1, 8):
        xs = list(enumerate_switchings(n))
        assert len(xs) == 2 ** (n - 1)
        sizes = [len(x) for x in xs]
        assert sizes == sorted(sizes)
        assert len({tuple(sorted(x)) for x in xs}) == len(xs)


def test_switching_classes_cover_all_subsets():
    # Every one of the 2^n subsets produces a signed graph already reachable
    # from the 2^(n-1) enumerated classes.
    for n in range(2, 6):
        g = make_snr(SnrParams(n, 1)) if n >= 2 else None
        enumerated = {apply_switching(g, x) for x in enumerate_switchings(n)}
        assert len(enumerated) <= 2 ** (n - 1)
        for bits in range(2 ** n):
            subset = {v + 1 for v in range(n) if bits >> v & 1}
            assert apply_switching(g, subset) in enumerated


# ---------------------------------------------------------------------------
# Brute-force search
# ---------------------------------------------------------------------------


def test_k2_has_no_all_main_switching():
    g = parse_graph6("A_")
    assert find_all_main_switching(g) is None
    assert switching_main_counts(g) == [1, 1]


def test_k4_minus_edge_has_no_all_main_switching():
    assert find_all_main_switching(K4_MINUS_EDGE) is None
    counts = switching_main_counts(K4_MINUS_EDGE)
    assert len(counts) == 8
    assert max(counts) < 4  # four distinct eigenvalues, never all main


def test_switching_main_counts_match_switched_profiles():
    # Each class is ranked from its sign vector; the switched graph's own
    # exact profile must give the same main count.
    for g in [K4_MINUS_EDGE, parse_graph6("A_"), parse_graph6("Bw"),
              *enumerate_connected_graphs(5)[::4], *enumerate_connected_graphs(6)[::20]]:
        expected = [main_profile(adjacency_matrix(apply_switching(g, x))).main_count
                    for x in enumerate_switchings(g.n)]
        assert switching_main_counts(g) == expected


def test_k3_certificate():
    cert = find_all_main_switching(parse_graph6("Bw"))
    assert cert is not None
    assert len(cert.switching) == 1
    assert cert.all_main and cert.main_count == cert.distinct_count == 2
    assert cert.method == "brute_force"


def test_search_prefers_small_switchings(rng):
    # First success in enumeration order: no strictly smaller subset of
    # {2..n} may be all-main.
    from conftest import random_connected_graph

    for _ in range(10):
        g = random_connected_graph(rng, rng.randrange(3, 7))
        cert = find_all_main_switching(g)
        if cert is None:
            continue
        dc = main_profile(adjacency_matrix(g)).distinct_count
        found = set(cert.switching)
        for x in enumerate_switchings(g.n):
            if len(x) > len(found):
                break
            if x == found:
                break
            prof = main_profile(adjacency_matrix(apply_switching(g, x)))
            assert not prof.all_main


def test_search_rejects_disconnected():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        find_all_main_switching(g)


# ---------------------------------------------------------------------------
# Power stack, Hankel distinct count, chunked class ranks
# ---------------------------------------------------------------------------


def _assert_matches_class_oracle(g, all_counts=True):
    dc, counts = class_profiles_oracle(g, stop_at_all_main=not all_counts)
    first = next((i for i, mc in enumerate(counts) if mc == dc), None)
    expected = (None if first is None
                else tuple(sorted(next(itertools.islice(enumerate_switchings(g.n), first, None)))))
    cert = find_all_main_switching(g)
    assert (None if cert is None else cert.switching) == expected
    if cert is not None:
        assert cert.main_count == cert.distinct_count == dc and cert.all_main
    if all_counts:
        assert switching_main_counts(g) == counts


def _stack(a):
    arr = np.array(a, dtype=np.int64)
    return _power_stack(arr, _row_bound(arr))


def test_search_past_int64_bound_matches_class_oracle(rng):
    # n rho^(2n-2) >= 2^63 on each, so the power stack holds Python ints; on
    # K12 and S_{12,2} the Hankel entry tr(A^(2n-2)) itself is past 2^63.
    k12 = Graph.from_edges(12, itertools.combinations(range(1, 13), 2))
    dense = Graph.from_edges(11, [e for e in itertools.combinations(range(1, 12), 2)
                                  if rng.random() < 0.8])
    for g in [k12, make_snr(SnrParams(12, 2)), dense]:
        powers = _stack(adjacency_matrix(g))
        assert powers.dtype == object
        assert ((powers[-1] * powers[-1]).sum() >= 2 ** 63) == (g is not dense)
        _assert_matches_class_oracle(g)


def test_search_on_eight_vertices_matches_class_oracle(rng):
    graphs = [random_connected_graph(rng, 8) for _ in range(200)]
    assert all(_stack(adjacency_matrix(g)).dtype == np.int64 for g in graphs)
    # Every class count of one graph in four keeps this near a second.
    for i, g in enumerate(graphs):
        _assert_matches_class_oracle(g, all_counts=i % 4 == 0)


def _switched(a, rng):
    # D A D for a random +-1 diagonal D: same spectrum, other signs.
    s = [rng.choice((-1, 1)) for _ in a]
    return [[s[i] * x * s[j] for j, x in enumerate(row)] for i, row in enumerate(a)]


def _repeated_eigenvalue_matrices(rng):
    yield [[0]]
    for n in range(2, 13):
        yield [[int(i != j) for j in range(n)] for i in range(n)]  # K_n
    for m in range(1, 8):
        yield [[int((i < m) != (j < m)) for j in range(2 * m)] for i in range(2 * m)]  # K_{m,m}
    for _ in range(30):
        a = adjacency_matrix(random_signed_graph(rng, rng.randrange(2, 8)))
        for _ in range(rng.randrange(1, 4)):  # a twin of v, joined to v by w
            v, w = rng.randrange(len(a)), rng.choice((-1, 0, 1))
            row = a[v][:v] + [w] + a[v][v + 1:]
            a = [r + [x] for r, x in zip(a, row)] + [row + [0]]
        yield a
        h = adjacency_matrix(random_signed_graph(rng, rng.randrange(2, 7)))
        n = len(h)  # H x K2: [[H, I], [I, H]], eigenvalues lambda +- 1
        yield [[h[i % n][j % n] if i // n == j // n else int(i % n == j % n)
                for j in range(2 * n)] for i in range(2 * n)]


def test_hankel_distinct_count_matches_char_poly(rng):
    # Any leading block of k >= dc powers has Hankel rank dc; k = n is the
    # whole stack.
    dtypes = set()
    for a in _repeated_eigenvalue_matrices(rng):
        a = _switched(a, rng)
        powers = _stack(a)
        dtypes.add(powers.dtype)
        dc = distinct_eigenvalue_count(char_poly(a))
        for k in range(dc, len(a) + 1):
            assert _distinct_count(powers[:k]) == dc, (k, a)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def _partitions(n, largest=None):
    if n == 0:
        yield ()
    for p in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def _with_twins(g, rng):
    # g plus an open twin of one vertex and a closed twin of another.
    n = g.n
    u, w = rng.sample(range(1, n + 1), 2)
    nbrs = {v: {a + b - v for a, b in g.edges if v in (a, b)} for v in (u, w)}
    edges = set(g.edges) | {(v, n + 1) for v in nbrs[u]}
    edges |= {(v, n + 2) for v in nbrs[w] | {w}}
    if w in nbrs[u]:  # u's twin is a neighbour of w, so of w's twin too
        edges.add((n + 1, n + 2))
    return Graph.from_edges(n + 2, edges)


def _assert_twin_rule_sound(g):
    """The twin bound U is at least the oracle's distinct count dc, every
    class the search leaves unranked when dc = U has an oracle main count
    below dc, and the search's certificate matches the oracle.  Returns
    (dc == U, classes skipped)."""
    bound, pairs = _twin_bound(g.rows)
    dc, _ = class_profiles_oracle(g, stop_at_all_main=True)
    assert dc <= bound <= g.n
    skipped = []
    if dc == bound:
        a = adjacency_matrix(g)
        ranked = {tuple(s) for s, _ in _class_main_counts(_stack(a), dc, pairs)}
        skipped = [x for x in enumerate_switchings(g.n)
                   if tuple(-1 if v in x else 1 for v in range(1, g.n + 1)) not in ranked]
        assert all(class_main_count_oracle(a, x) < dc for x in skipped), emit_graph6(g)
    _assert_matches_class_oracle(g, all_counts=False)
    return dc == bound, len(skipped)


def test_twin_rule_on_catalog_matches_class_oracle():
    graphs = [g for n in range(2, 8) for g in enumerate_connected_graphs(n)]
    tight, skipped = zip(*map(_assert_twin_rule_sound, graphs))
    assert (len(graphs), sum(tight)) == (995, 842)
    assert sum(skipped) > 0


def test_twin_rule_on_twin_rich_graphs_matches_class_oracle(rng):
    graphs = [make_snr(SnrParams(n, r)) for n in range(2, 10) for r in range(n)]
    # Complete multipartite graphs: a partition's runs of equal parts are its blocks.
    graphs += [make_multipartite(MultipartiteParams.of((len(list(run)), t)
                                                       for t, run in itertools.groupby(p)))
               for n in range(2, 10) for p in _partitions(n) if len(p) > 1]
    twinned = [_with_twins(random_connected_graph(rng, 8), rng) for _ in range(12)]
    assert all(len(_twin_bound(g.rows)[1]) == 2 for g in twinned)
    graphs += twinned
    tight, skipped = zip(*map(_assert_twin_rule_sound, graphs))
    assert sum(tight) > len(graphs) // 2 and sum(skipped) > 0


def test_sign_chunks_are_the_classes_in_order():
    for n in range(1, 10):
        chunks = list(_sign_chunks(n))
        total = 2 ** (n - 1)
        sizes = [min(8, total)] + [min(64, total - k) for k in range(8, total, 64)]
        assert [len(c) for c in chunks] == sizes
        assert np.concatenate(chunks).tolist() == [
            [-1 if v in x else 1 for v in range(1, n + 1)] for x in enumerate_switchings(n)]
    # Only the first 8 + 64 rows of a few vertex counts are kept, one byte each.
    assert sum(c.nbytes for c in _head_sign_chunks(20)) == 72 * 20
    assert _head_sign_chunks.cache_info().maxsize <= 8


# ---------------------------------------------------------------------------
# Catalog enumeration
# ---------------------------------------------------------------------------


def test_connected_counts():
    for n, expected in CONNECTED_COUNTS.items():
        assert len(enumerate_connected_graphs(n)) == expected


def test_catalog_class_counts():
    from mainswitch.search import _catalog_values

    for n, expected in ALL_COUNTS.items():
        assert len(_catalog_values(n)) == expected


def test_catalog_matches_unfiltered_sweep():
    # The label and twin rules only drop duplicates: the sweep over every
    # neighbourhood finds the same classes, with the same canonical values.
    from conftest import catalog_values_oracle
    from mainswitch.search import _catalog_values

    for n in range(1, 8):
        assert _catalog_values(n) == catalog_values_oracle(n)


def test_catalog_rejects_beyond_cap():
    with pytest.raises(ValueError):
        enumerate_connected_graphs(8)


def test_catalog_values_rejects_no_vertices():
    from mainswitch.search import _catalog_values

    for n in (0, -1):
        with pytest.raises(ValueError):
            _catalog_values(n)


def test_canonical_kernel_matches_scalar_oracle():
    # The batched level search against the one-graph branch and bound,
    # graph by graph.  Each n <= 7 is one call over every unfiltered
    # extension; at n = 7 that is more graphs than any catalog batch up to
    # n = 9 passes the kernel (2,290).
    from conftest import canonical_value_oracle, unfiltered_extensions, value_rows_oracle
    from mainswitch.search import _canonical_values, _catalog_values

    for n in range(2, 8):
        graphs = unfiltered_extensions(n)
        got = _canonical_values(np.array(graphs, dtype=np.int64)).tolist()
        assert got == [canonical_value_oracle(rows) for rows in graphs]
    assert len(graphs) > 2290
    # Every class on 8 vertices, under a seeded random relabelling.
    rand = np.random.default_rng(8)
    relabelled = []
    for value in _catalog_values(8):
        rows, perm = value_rows_oracle(value, 8), rand.permutation(8).tolist()
        relabelled.append([sum(1 << perm[w] for w in range(8) if rows[v] >> w & 1)
                           for v in np.argsort(perm).tolist()])
    got = _canonical_values(np.array(relabelled, dtype=np.int64)).tolist()
    assert got == [canonical_value_oracle(rows) for rows in relabelled]
    assert got == list(_catalog_values(8))
    # A batch of one.
    for rows in ([0b110, 0b101, 0b011], relabelled[-1], relabelled[len(relabelled) // 2]):
        assert _canonical_values(np.array([rows], dtype=np.int64)).tolist() == [
            canonical_value_oracle(rows)]


def test_catalog_graphs_are_canonical_and_connected():
    for n in range(1, 8):
        for g in enumerate_connected_graphs(n):
            assert canonical_form(g) == g


def test_catalog_matches_exhaustive_labelled_enumeration():
    # Independent oracle: enumerate all labelled graphs on n vertices, filter
    # connected, and count isomorphism classes with networkx's VF2 matcher.
    nx = pytest.importorskip("networkx")
    from mainswitch.graphs import is_connected

    for n in range(2, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        reps: list[Graph] = []
        for bits in range(2 ** len(pairs)):
            g = Graph(n, frozenset(p for k, p in enumerate(pairs) if bits >> k & 1))
            if not is_connected(g):
                continue
            ng = nx.Graph()
            ng.add_nodes_from(range(1, n + 1))
            ng.add_edges_from(g.edges)
            for rep, nrep in reps:
                if nx.is_isomorphic(ng, nrep):
                    break
            else:
                reps.append((g, ng))
        assert len(reps) == CONNECTED_COUNTS[n]
        # And our canonical forms separate exactly the same classes.
        ours = {emit_graph6(canonical_form(g)) for g, _ in reps}
        catalog = {emit_graph6(g) for g in enumerate_connected_graphs(n)}
        assert ours == catalog


def test_canonical_form_is_isomorphism_invariant(rng):
    from conftest import random_connected_graph

    for _ in range(20):
        n = rng.randrange(2, 8)
        g = random_connected_graph(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        relabelled = Graph(n, frozenset(
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
            for u, v in g.edges))
        assert canonical_form(g) == canonical_form(relabelled)


def test_canonical_form_matches_brute_force_oracle(rng):
    from conftest import brute_canonical_form

    # K_n, the empty graph, C_n and K_{4,4} keep the most partial orders alive.
    graphs = [Graph.from_edges(8, [(u, v) for u in range(1, 5) for v in range(5, 9)])]
    for n in range(1, 9):
        graphs += [Graph(n, frozenset(itertools.combinations(range(1, n + 1), 2))),
                   Graph(n, frozenset())]
        if n >= 3:
            graphs.append(Graph.from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)]))
    for n in [rng.randrange(1, 8) for _ in range(40)] + [8, 8, 8]:
        pairs = itertools.combinations(range(1, n + 1), 2)
        density = rng.random()
        graphs.append(Graph(n, frozenset(p for p in pairs if rng.random() < density)))
    for g in graphs:
        assert canonical_form(g) == brute_canonical_form(g), emit_graph6(g)


# ---------------------------------------------------------------------------
# Conjecture verification
# ---------------------------------------------------------------------------


def test_verify_conjecture_max_n_2():
    report = verify_conjecture(2)
    assert report.graphs_checked == 1
    assert [e.graph6 for e in report.exceptions] == ["A_"]


def test_verify_conjecture_max_n_4():
    report = verify_conjecture(4)
    assert report.graphs_checked == 9
    assert report.successes == 7
    got = {e.graph6 for e in report.exceptions}
    assert got == {canonical_graph6(parse_graph6("A_")), canonical_graph6(K4_MINUS_EDGE)}
    for e in report.exceptions:
        # evidence: per-class counts, all below the distinct count
        g = parse_graph6(e.graph6)
        dc = main_profile(adjacency_matrix(g)).distinct_count
        assert len(e.main_counts) == 2 ** (g.n - 1)
        assert all(c < dc for c in e.main_counts)


def test_verify_conjecture_deterministic():
    r1 = verify_conjecture(4)
    r2 = verify_conjecture(4)
    assert r1.to_json() == r2.to_json()
    assert [c.to_json() for c in r1.certificates] == [c.to_json() for c in r2.certificates]


def test_verify_conjecture_workers_agree():
    r1 = verify_conjecture(5, workers=1)
    r2 = verify_conjecture(5, workers=2)
    assert r1.to_json() == r2.to_json()


def test_verify_conjecture_supplied_graphs():
    graphs = [parse_graph6("A_"), parse_graph6("Bw")]
    report = verify_conjecture(0, graphs=graphs)
    assert report.graphs_checked == 2
    assert report.successes == 1
    assert [e.graph6 for e in report.exceptions] == ["A_"]


def test_verify_conjecture_supplied_graphs_workers_agree():
    # Both exceptions among successes, through the process pool: every
    # verdict, certificate or class-count evidence, keeps its input order.
    graphs = [make_snr(SnrParams(5, 2)), parse_graph6("A_"), parse_graph6("Bw"),
              parse_graph6("C^"), make_multipartite(MultipartiteParams.of([(2, 2), (1, 1)])),
              parse_graph6("C~")]
    r1 = verify_conjecture(0, workers=1, graphs=graphs)
    r2 = verify_conjecture(0, workers=2, graphs=graphs)
    assert r1.to_json() == r2.to_json()
    assert [c.to_json() for c in r1.certificates] == [c.to_json() for c in r2.certificates]
    assert (r1.n_range, r1.graphs_checked, r1.successes) == ((2, 5), 6, 4)
    assert [e.graph6 for e in r1.exceptions] == ["A_", "C^"]
    assert [len(e.main_counts) for e in r1.exceptions] == [2, 8]
    assert [parse_graph6(c.graph6) for c in r1.certificates] == [graphs[i] for i in (0, 2, 4, 5)]


def test_constructive_and_brute_force_agree_small():
    # For every family graph small enough to search exhaustively, both routes
    # certify all-main.
    from mainswitch import (
        NoAllMainSwitchingError,
        multipartite_all_main_switching,
        snr_all_main_switching,
    )

    for n in range(4, 8):
        for r in range(1, n - 2):
            res = snr_all_main_switching(n, r)
            cert = find_all_main_switching(make_snr(SnrParams(n, r)))
            assert res.verified and cert is not None and cert.all_main, (n, r)

    def partitions(total, maxp=None):
        if maxp is None:
            maxp = total
        if total == 0:
            yield []
            return
        for p in range(min(total, maxp), 0, -1):
            for rest in partitions(total - p, p):
                yield [p] + rest

    for n in range(2, 8):
        for part in partitions(n):
            blocks = [(part.count(s), s) for s in sorted(set(part), reverse=True)]
            p = MultipartiteParams.of(blocks)
            graph = make_multipartite(p)
            cert = find_all_main_switching(graph) if len(graph.edges) else None
            try:
                res = multipartite_all_main_switching(p)
            except NoAllMainSwitchingError:
                assert cert is None, blocks
                continue
            assert res.verified, blocks
            if len(graph.edges):  # brute force needs a connected graph
                assert cert is not None and cert.all_main, blocks


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def test_certificate_round_trip_through_json():
    cert = find_all_main_switching(parse_graph6("Bw"))
    blob = cert.to_json()
    parsed = Certificate.from_json_dict(json.loads(blob))
    assert parsed == cert
    assert verify_certificate(parsed)
    assert list(json.loads(blob)) == ["graph6", "switching", "distinct_count",
                                      "main_count", "all_main", "method",
                                      "tool_version"]


def test_certificate_tamper_detection():
    cert = find_all_main_switching(parse_graph6("Bw"))
    assert verify_certificate(cert)
    tampered = [
        dataclasses.replace(cert, main_count=cert.main_count - 1),
        dataclasses.replace(cert, distinct_count=cert.distinct_count + 1),
        dataclasses.replace(cert, all_main=False),
        dataclasses.replace(cert, switching=()),
    ]
    for bad in tampered:
        assert not verify_certificate(bad)


def test_certificate_switching_outside_the_graph_fails():
    cert = find_all_main_switching(parse_graph6("Bw"))
    for switching in ((0,), (-1,), (4,), (2, 4)):
        assert not verify_certificate(dataclasses.replace(cert, switching=switching))


def test_make_certificate_reads_the_switching_as_vertices():
    # A switched vertex outside the graph is rejected, not recorded; numpy
    # integers are recorded as the ints that check-cert accepts.
    g = parse_graph6("Bw")
    profile = main_profile(adjacency_matrix(apply_switching(g, [2])))
    for switching in ([7], [0], [2, 4]):
        with pytest.raises(ValueError, match="out of range 1..3"):
            make_certificate(g, switching, "brute_force", profile)
    cert = make_certificate(g, [np.int64(2)], "brute_force", profile)
    parsed = Certificate.from_json_dict(json.loads(cert.to_json()))
    assert parsed == cert and parsed.switching == (2,) and verify_certificate(parsed)


def test_make_certificate_writes_only_what_check_cert_accepts(tmp_path, capsys):
    # A method check-cert does not know, or a count or verdict of another
    # type, is a ValueError; what make_certificate accepts, numpy integer
    # counts among it, parses and verifies in check-cert.
    g = parse_graph6("Bw")
    profile = main_profile(adjacency_matrix(apply_switching(g, [2])))
    assert profile == MainProfile(2, 2, True)
    for method, bad in (("guess", profile), (None, profile),
                        ("brute_force", MainProfile(2.0, 2, True)),
                        ("brute_force", MainProfile(2, "2", True)),
                        ("brute_force", MainProfile(2, 2, 1))):
        with pytest.raises(ValueError, match="method|count|all_main"):
            make_certificate(g, [2], method, bad)
    certs = [make_certificate(g, [2], "brute_force", profile),
             make_certificate(g, [2], "constructive", MainProfile(np.int64(2), np.int64(2), True))]
    f = tmp_path / "certs.jsonl"
    f.write_text("".join(cert.to_json() + "\n" for cert in certs), encoding="utf-8")
    assert run(["check-cert", str(f)]) == 0
    assert capsys.readouterr().out == "2/2 certificates verified\n"


def test_certificate_from_construction():
    from mainswitch import snr_all_main_switching

    res = snr_all_main_switching(8, 3)
    cert = make_certificate(res.graph, res.switching, res.method, res.profile)
    assert cert.method == "constructive"
    assert cert.all_main
    assert verify_certificate(cert)


def test_certificate_missing_field_rejected():
    cert = find_all_main_switching(parse_graph6("Bw"))
    d = cert.to_json_dict()
    del d["main_count"]
    with pytest.raises(ValueError):
        Certificate.from_json_dict(d)


@pytest.mark.parametrize("field, value", [
    ("all_main", "false"),
    ("all_main", 1),
    ("main_count", 2.0),
    ("main_count", True),
    ("distinct_count", "2"),
    ("graph6", 3),
    ("switching", [2, 2.7]),
    ("switching", [3, 2]),
    ("switching", [2, 2]),
    ("switching", [True]),
    ("switching", "2"),
    ("method", "guess"),
    ("tool_version", None),
])
def test_certificate_strict_types(field, value):
    d = find_all_main_switching(parse_graph6("Bw")).to_json_dict()
    d[field] = value
    with pytest.raises(ValueError, match=field):
        Certificate.from_json_dict(d)


def test_certificate_rejects_non_object():
    for blob in (3, [1, 2], "Bw", None):
        with pytest.raises(ValueError):
            Certificate.from_json_dict(blob)
