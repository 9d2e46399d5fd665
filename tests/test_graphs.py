"""Graph types, file formats, family constructors, switching."""

import itertools
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainswitch import (
    Graph,
    GraphFormatError,
    MultipartiteParams,
    SignedGraph,
    SnrParams,
    adjacency_matrix,
    apply_switching,
    as_signed,
    eigen_sym,
    emit_graph6,
    enumerate_connected_graphs,
    format_signed_edge_list,
    is_connected,
    make_multipartite,
    make_snr,
    parse_graph6,
    parse_signed_edge_list,
)
from mainswitch.graphs import _graph6_adjacency
from mainswitch.search import canonical_form
from conftest import (SNR_GRID, blocks_of, emit_graph6_loop, family_edges_oracle,
                      fixed_family_params, graph6_like, multipartite_rows_oracle, partitions,
                      random_connected_graph, random_signed_graph, sel_like, valid_rows_oracle)


# ---------------------------------------------------------------------------
# Graph: neighbourhood rows
# ---------------------------------------------------------------------------


def test_rows_built_graphs_match_the_edge_form():
    # Every catalog graph with n <= 7 and every fixed family graph (make_snr
    # over SNR_GRID, make_multipartite over the partitions up to n = 20) is
    # built from rows, which Graph._from_rows takes as given; the family
    # edges are checked against their definition.
    catalog = [g for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    family = [(make_snr(p) if isinstance(p, SnrParams) else make_multipartite(p), p)
              for p in fixed_family_params()]
    assert (len(catalog), len(family)) == (996, 2812)
    assert [(p.n, p.r) for _, p in family[:len(SNR_GRID)]] == SNR_GRID
    for g in catalog + [g for g, _ in family]:
        assert valid_rows_oracle(g.rows), g
        assert pickle.loads(pickle.dumps(g)) == g  # workers receive pickled graphs
        h = Graph(g.n, g.edges)
        assert h == g and hash(h) == hash(g) and h.rows == g.rows
        ends = Counter(itertools.chain.from_iterable(g.edges))
        assert [g.degree(v) for v in range(1, g.n + 1)] == [ends[v] for v in range(1, g.n + 1)]
        assert emit_graph6(g) == emit_graph6_loop(g)
    for g, p in family:
        assert g.edges == family_edges_oracle(p)


@pytest.mark.parametrize("n, edges, message", [
    (0, [], "vertex count must be positive"),
    (3, [(1, 4)], r"edge \(1,4\) out of range 1..3 or not ordered"),
    (3, [(2, 1)], r"edge \(2,1\) out of range 1..3 or not ordered"),
    (3, [(0, 2)], r"edge \(0,2\) out of range 1..3 or not ordered"),
    (3, [(2, 2)], r"edge \(2,2\) out of range 1..3 or not ordered"),
    (2, [(1.0, 2)], "edge endpoint must be an integer, got 1.0"),
    (2.0, [(1, 2)], "vertex count must be an integer, got 2.0"),
    ("3", [], "vertex count must be an integer, got '3'"),
])
def test_graph_rejects_invalid_edges(n, edges, message):
    with pytest.raises(ValueError, match=message):
        Graph(n, frozenset(edges))


def test_from_edges_rejects_loops_and_duplicates():
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        Graph.from_edges(3, [(1, 2), (2, 2)])
    with pytest.raises(ValueError, match=r"duplicate edge \(1, 2\)"):
        Graph.from_edges(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError, match=r"vertex 4 out of range 1..3"):
        Graph.from_edges(3, [(1, 2)]).degree(4)
    with pytest.raises(ValueError, match="vertex must be an integer, got 2.0"):
        Graph(3, [(1, 2)]).degree(2.0)


def test_rows_constructor_accepts_exactly_the_valid_rows(rng):
    # Graph._from_rows keeps the rows it is given, and the edge form agrees.
    for _ in range(400):
        n = rng.choice([1, 2, 3, 4, 7, 8, 20, 62, 63, 64, 70])
        rows = [0] * n
        for v, w in itertools.combinations(range(n), 2):
            if rng.random() < 0.3:
                rows[v] |= 1 << w
                rows[w] |= 1 << v
        assert valid_rows_oracle(rows)
        g = Graph._from_rows(rows)
        assert g.rows == tuple(rows) and g == Graph(n, g.edges)
        assert g.edges == {(v + 1, w + 1) for v, w in itertools.combinations(range(n), 2)
                           if rows[v] >> w & 1}


def test_canonical_form_and_graph6_give_valid_rows(rng):
    # The two rows builders that take outside graphs: canonical_form of
    # random graphs, and the graph6 decoder on random records whose bit
    # fields are drawn directly, padding bits clear.
    for _ in range(200):
        g = canonical_form(random_connected_graph(rng, rng.randrange(1, 9)))
        assert valid_rows_oracle(g.rows), g
    for n in [1, 2, 61, 62] + [rng.randrange(1, 63) for _ in range(100)]:
        npairs = n * (n - 1) // 2
        field = rng.getrandbits(npairs) << (-npairs % 6)
        record = chr(63 + n) + "".join(chr(63 + (field >> 6 * k & 63))
                                       for k in reversed(range((npairs + 5) // 6)))
        g = parse_graph6(record)
        assert valid_rows_oracle(g.rows) and emit_graph6(g) == record, record


# ---------------------------------------------------------------------------
# graph6
# ---------------------------------------------------------------------------


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == frozenset({(1, 2)})


def test_parse_graph6_k1():
    g = parse_graph6("@")
    assert g.n == 1 and not g.edges


def test_parse_graph6_k3():
    g = parse_graph6("Bw")
    assert g.n == 3 and g.edges == frozenset({(1, 2), (1, 3), (2, 3)})


def test_parse_graph6_optional_header_prefix():
    assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")
    assert parse_graph6("Bw\n") == parse_graph6("Bw")


@pytest.mark.parametrize("bad, message, offset", [
    pytest.param("", "empty graph6 record", 0, id="-empty"),
    pytest.param("~??", "multi-byte vertex count (n > 62) not supported", 0, id="~??-multi-byte"),
    pytest.param("B", "truncated bit field: need 1 bytes, got 0", 1, id="B-truncated"),
    pytest.param("Bww", "trailing data after bit field", 2, id="Bww-trailing"),
    # \x1f is whitespace to str.strip, so this is "A" with its bit field cut off
    pytest.param("A\x1f", "truncated bit field: need 1 bytes, got 0", 1, id="A\x1f-truncated"),
    pytest.param("?", "graph must have at least one vertex", 0, id="?-at least one vertex"),
    pytest.param("B@", "nonzero padding bits", 1, id="B@-padding"),
    pytest.param("B\u00e9", "non-ASCII character in graph6 record", 1, id="B\xe9-non-ASCII"),
    pytest.param("B\x7f", "character '\\x7f' outside graph6 range", 1, id="B\x7f-range"),
])
def test_parse_graph6_errors(bad, message, offset):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph6(bad)
    assert str(exc.value) == f"{message} (byte {offset})"
    assert exc.value.offset == offset


def test_graph6_offset_reported():
    err = None
    try:
        parse_graph6("B")
    except GraphFormatError as exc:
        err = exc
    assert err is not None and err.offset is not None


def test_graph6_round_trip_random(rng):
    for _ in range(50):
        n = rng.randrange(1, 13)
        g = random_connected_graph(rng, n)
        assert parse_graph6(emit_graph6(g)) == g
    for n in [1, 2, 61, 62] + [rng.randrange(1, 63) for _ in range(30)]:
        g = random_connected_graph(rng, n)
        a = _graph6_adjacency(emit_graph6(g))
        assert a.dtype == np.int64 and a.tolist() == adjacency_matrix(g)


def test_graph6_round_trip_catalog():
    from mainswitch import enumerate_connected_graphs

    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert parse_graph6(emit_graph6(g)) == g


def test_emit_graph6_rejects_more_than_62_vertices():
    assert emit_graph6(Graph(62, ())) == "}" + "?" * 316
    with pytest.raises(ValueError, match="^graph6 emission supports n <= 62 only$"):
        emit_graph6(Graph(63, ()))


def test_emit_graph6_matches_pair_loop(rng):
    for n in [1, 2, 3, 62] + [rng.randrange(1, 63) for _ in range(60)]:
        density = rng.choice([0.0, 0.05, 0.5, 0.95, 1.0])
        edges = frozenset((i, j) for j in range(2, n + 1) for i in range(1, j)
                          if rng.random() < density)
        g = Graph(n, edges)
        assert emit_graph6(g) == emit_graph6_loop(g)


@given(graph6_like(64))
@settings(max_examples=300, deadline=None)
def test_parse_graph6_parses_or_rejects(text):
    try:
        g = parse_graph6(text)
    except GraphFormatError:
        return
    record = text.strip().removeprefix(">>graph6<<")
    assert emit_graph6(g) == record and valid_rows_oracle(g.rows)


def test_graph6_cross_check_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(40):
        n = rng.randrange(2, 11)
        g = random_connected_graph(rng, n)
        record = emit_graph6(g)
        h = nx.from_graph6_bytes(record.encode())
        ours = {(u - 1, v - 1) for u, v in g.edges}
        theirs = {(min(u, v), max(u, v)) for u, v in h.edges()}
        assert ours == theirs and h.number_of_nodes() == n
        # And our parser agrees with networkx's emitter.
        back = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert parse_graph6(back) == g


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_networkx(data):
    nx = pytest.importorskip("networkx")
    n = data.draw(st.integers(1, 12))
    pairs = [(i, j) for j in range(2, n + 1) for i in range(1, j)]
    # At most 2n edges: near the connectivity threshold, both answers occur.
    edges = data.draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    h = nx.Graph()
    h.add_nodes_from(range(1, n + 1))
    h.add_edges_from(edges)
    g = Graph(n, frozenset(edges))
    assert is_connected(g) == is_connected(as_signed(g)) == nx.is_connected(h)


# ---------------------------------------------------------------------------
# Signed edge lists
# ---------------------------------------------------------------------------


def test_parse_sel_single_negative_edge():
    sg = parse_signed_edge_list("2 1\n1 2 -")
    assert sg.n == 2 and sg.sign(1, 2) == -1


def test_parse_sel_triangle():
    sg = parse_signed_edge_list("3 3\n1 2 +\n1 3 +\n2 3 -")
    assert sg.sign(1, 2) == 1 and sg.sign(1, 3) == 1 and sg.sign(2, 3) == -1


@pytest.mark.parametrize("text", [
    "2 2\n1 2 +\n1 2 -",      # duplicate edge
    "2 1\n1 1 +",             # self-loop
    "2 1\n1 2 *",             # bad sign token
    "2 1\n1 3 +",             # vertex out of range
    "2 1\n2 1 +",             # endpoints out of order
    "3 2\n1 2 +",             # wrong edge count
])
def test_parse_sel_errors(text):
    with pytest.raises(GraphFormatError):
        parse_signed_edge_list(text)


@pytest.mark.parametrize("text, message", [
    ("\u0663 0", "non-integer header"),               # Arabic-Indic 3
    ("1_0 0", "non-integer header"),
    ("+3 0", "non-integer header"),
    ("3 1\n\u0661 \u0662 +", "line 2: non-integer endpoints"),
    ("3 1\n1 +2 +", "line 2: non-integer endpoints"),
    ("-1 0", "invalid header values n=-1 m=0"),
])
def test_parse_sel_reads_ascii_digits_only(text, message):
    # int() would read the first five as integers.
    with pytest.raises(GraphFormatError, match=message):
        parse_signed_edge_list(text)


def test_parse_sel_vertex_cap():
    # The graph6 limit: a larger header is rejected before anything of size n
    # is built.
    assert parse_signed_edge_list("62 0").n == 62
    for text in ("63 0", "100000 0"):
        with pytest.raises(GraphFormatError, match="limit of 62"):
            parse_signed_edge_list(text)


def test_sel_round_trip(rng):
    for _ in range(20):
        sg = random_signed_graph(rng, rng.randrange(2, 9))
        assert parse_signed_edge_list(format_signed_edge_list(sg)) == sg


@given(sel_like)
@settings(max_examples=300, deadline=None)
def test_parse_signed_edge_list_parses_or_rejects(text):
    try:
        sg = parse_signed_edge_list(text)
    except GraphFormatError:
        return
    assert parse_signed_edge_list(format_signed_edge_list(sg)) == sg


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_make_snr_5_2():
    g = make_snr(SnrParams(5, 2))
    assert len(g.edges) == 5
    assert [g.degree(v) for v in range(1, 6)] == [1, 1, 4, 2, 2]


def test_make_snr_paw():
    g = make_snr(SnrParams(4, 1))
    assert g.edges == frozenset({(1, 2), (2, 3), (2, 4), (3, 4)})


def test_make_snr_rejects_small_n():
    with pytest.raises(ValueError):
        SnrParams(3, 3)


@pytest.mark.parametrize("build, message", [
    (lambda: SnrParams(5.5, 1), "vertex count must be an integer, got 5.5"),
    (lambda: SnrParams(5, 1.0), "pendant count must be an integer, got 1.0"),
    (lambda: SnrParams(5, -1), "pendant count must be >= 0, got -1"),
    (lambda: MultipartiteParams.of([(2.7, 3.9)]), "part count must be an integer, got 2.7"),
    (lambda: MultipartiteParams(((2.5, 3),)), "part count must be an integer, got 2.5"),
    (lambda: MultipartiteParams(((2, 3.0),)), "part size must be an integer, got 3.0"),
    (lambda: MultipartiteParams.of([(1, 4), ("2", 1)]), "part count must be an integer, got '2'"),
    (lambda: MultipartiteParams.of([(1, 0)]), "part size must be >= 1, got 0"),
])
def test_family_params_reject_non_integers(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_family_params_take_numpy_ints():
    p = MultipartiteParams.of([(np.int64(2), np.int32(3)), [1, np.uint8(1)]])
    assert p == MultipartiteParams(((2, 3), (1, 1))) and p.n == 7
    assert all(type(x) is int for block in p.blocks for x in block)
    assert repr(p) == "MultipartiteParams(blocks=((2, 3), (1, 1)))"
    q = SnrParams(np.int64(6), np.int16(2))
    assert q == SnrParams(6, 2) and type(q.n) is int and type(q.r) is int
    assert make_snr(q) == make_snr(SnrParams(6, 2))


def test_make_snr_edge_count_general():
    for r in range(1, 6):
        for n in range(r + 1, r + 8):
            g = make_snr(SnrParams(n, r))
            assert len(g.edges) == (n - r) * (n - r - 1) // 2 + r


def test_make_multipartite_k32():
    g = make_multipartite(MultipartiteParams.of([(1, 3), (1, 2)]))
    assert g.n == 5 and len(g.edges) == 6


def test_make_multipartite_k221():
    g = make_multipartite(MultipartiteParams.of([(2, 2), (1, 1)]))
    assert g.n == 5 and len(g.edges) == 8


def test_make_multipartite_rejects_nondecreasing():
    with pytest.raises(ValueError):
        MultipartiteParams.of([(1, 2), (1, 3)])
    with pytest.raises(ValueError):
        MultipartiteParams.of([(0, 2)])


def test_multipartite_edge_count_formula(rng):
    for _ in range(25):
        s = rng.randrange(1, 4)
        sizes = sorted(rng.sample(range(1, 8), s), reverse=True)
        blocks = [(rng.randrange(1, 4), t) for t in sizes]
        p = MultipartiteParams.of(blocks)
        g = make_multipartite(p)
        expected = (p.n ** 2 - sum(l * t * t for l, t in blocks)) // 2
        assert len(g.edges) == expected


def test_make_multipartite_matches_part_by_part_oracle(rng):
    # Every partition shape with n <= 20, and 200 random shapes up to the
    # graph6 limit n = 62.
    shapes = [blocks_of(part) for n in range(1, 21) for part in partitions(n)]
    for left in [62] + [rng.randrange(1, 63) for _ in range(199)]:
        part = []
        while left:
            part.append(rng.randint(1, min(left, rng.choice((1, 2, 4, left)))))
            left -= part[-1]
        shapes.append(blocks_of(part))
    assert max(MultipartiteParams.of(b).n for b in shapes) == 62
    for blocks in shapes:
        p = MultipartiteParams.of(blocks)
        assert make_multipartite(p).rows == multipartite_rows_oracle(p), blocks


def test_multipartite_layout():
    p = MultipartiteParams.of([(2, 3), (1, 2)])
    assert p.n == 8
    assert list(p.group_range(1)) == [1, 2, 3, 4, 5, 6]
    assert list(p.group_range(2)) == [7, 8]
    assert p.offsets == (0, 6)
    # Derived layout values are computed once; equality, hash and repr still
    # see only the blocks.
    assert p.group_sizes is p.group_sizes and p.offsets is p.offsets
    fresh = MultipartiteParams.of([(2, 3), (1, 2)])
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == repr(fresh) == "MultipartiteParams(blocks=((2, 3), (1, 2)))"


def test_group_range_rejects_groups_outside_1_to_s():
    # Group 0 and -1 used to index the layout from the end.
    p = MultipartiteParams.of([(2, 3), (1, 2)])
    for i in (0, -1, 3):
        with pytest.raises(ValueError, match=f"group {i} out of range 1..2"):
            p.group_range(i)


# ---------------------------------------------------------------------------
# Switching
# ---------------------------------------------------------------------------


def test_switch_k2_single_vertex():
    sg = apply_switching(parse_graph6("A_"), {1})
    assert sg.sign(1, 2) == -1


def test_switch_empty_identity(rng):
    g = random_signed_graph(rng, 6)
    assert apply_switching(g, set()) == g


def test_switch_k3_cut():
    sg = apply_switching(parse_graph6("Bw"), {1})
    assert (sg.sign(1, 2), sg.sign(1, 3), sg.sign(2, 3)) == (-1, -1, 1)


def test_switch_involution_and_complement(rng):
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = random_signed_graph(rng, n)
        x = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        comp = frozenset(range(1, n + 1)) - x
        assert apply_switching(apply_switching(g, x), x) == g
        assert apply_switching(g, x) == apply_switching(g, comp)


def test_switch_is_diagonal_conjugation(rng):
    for _ in range(30):
        n = rng.randrange(2, 10)
        g = random_signed_graph(rng, n)
        x = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        a = np.array(adjacency_matrix(g), dtype=object)
        d = np.diag([-1 if v in x else 1 for v in range(1, n + 1)]).astype(object)
        conj = np.dot(np.dot(d, a), d)
        b = np.array(adjacency_matrix(apply_switching(g, x)), dtype=object)
        assert (conj == b).all()


def test_switch_preserves_spectrum(rng):
    for _ in range(15):
        n = rng.randrange(2, 13)
        g = random_signed_graph(rng, n)
        x = frozenset(v for v in range(1, n + 1) if rng.random() < 0.5)
        w1 = eigen_sym(np.array(adjacency_matrix(g), float)).eigenvalues
        w2 = eigen_sym(np.array(adjacency_matrix(apply_switching(g, x)), float)).eigenvalues
        assert np.allclose(w1, w2, rtol=0.0, atol=1e-9)


def test_all_positive_promotion():
    g = parse_graph6("Bw")
    sg = as_signed(g)
    assert adjacency_matrix(g) == adjacency_matrix(sg)


def test_adjacency_examples():
    assert adjacency_matrix(parse_graph6("A_")) == [[0, 1], [1, 0]]
    neg = apply_switching(parse_graph6("A_"), {1})
    assert adjacency_matrix(neg) == [[0, -1], [-1, 0]]
    tri = apply_switching(parse_graph6("Bw"), {1})
    assert adjacency_matrix(tri) == [[0, -1, -1], [-1, 0, 1], [-1, 1, 0]]


def test_switching_out_of_range():
    with pytest.raises(ValueError):
        apply_switching(parse_graph6("A_"), {3})
    # 1.5 is inside 1..2 but names no vertex.
    with pytest.raises(ValueError, match="switched vertex must be an integer, got 1.5"):
        apply_switching(parse_graph6("A_"), {1.5})


def test_signed_graph_rejects_non_integer_negative_edges():
    # (1.0, 2) equals the edge (1, 2), so only the integer rule catches it;
    # the int64 adjacency array could not be indexed with it.
    k2 = parse_graph6("A_")
    with pytest.raises(ValueError, match="edge endpoint must be an integer, got 1.0"):
        SignedGraph(k2, frozenset({(1.0, 2)}))
    with pytest.raises(ValueError, match="negative signs on non-edges"):
        SignedGraph(k2, frozenset({(1, 3)}))
    assert adjacency_matrix(SignedGraph(k2, frozenset({(np.int64(1), 2)}))) == [[0, -1], [-1, 0]]
