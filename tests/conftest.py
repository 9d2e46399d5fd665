"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: rank via
rational Gaussian elimination, roots via plain bisection, polynomial algebra
by direct convolution, graph6 records by the pair-by-pair loop,
characteristic polynomials by Faddeev-LeVerrier over Python integers,
primality by deterministic Miller-Rabin.  Tests compare library output
against these.  Canonical values come from canonical_value_oracle, a
one-graph-at-a-time branch and bound that brute_canonical_form checks on
its own; catalog_values_oracle, the catalog sweep without its filters, uses
it and shares no canonical-labelling code with the library's batched level
search.  One exception shares library code on purpose.
class_profiles_oracle ranks one switching class at a time
(class_main_count_oracle) with char_poly and walk_matrix, which the exact
tests check against the oracles above; it shares nothing with the search's
power stack.  The hypothesis strategies at
the end make near-valid graph inputs for the parser and CLI fuzz tests.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from mainswitch import (Graph, MultipartiteParams, SignedGraph, SnrParams, adjacency_matrix,
                        apply_switching, char_poly, distinct_eigenvalue_count,
                        enumerate_switchings, is_connected, rank_exact, walk_matrix)


def fraction_rank(m) -> int:
    """Rank by Gaussian elimination over exact rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        lead = a[rank]
        for i in range(rows):
            if i != rank and a[i][c] != 0:
                f = a[i][c] / lead[c]
                a[i] = [x - f * y for x, y in zip(a[i], lead)]
        rank += 1
    return rank


def faddeev_leverrier_char_poly(a) -> list[int]:
    """det(xI - A), ascending coefficients, by the Faddeev-LeVerrier
    recurrence over Python integers (object-dtype numpy)."""
    n = len(a)
    A = np.array([[int(x) for x in row] for row in a], dtype=object)
    B = np.eye(n, dtype=object)
    desc = [1]
    for k in range(1, n + 1):
        B = np.dot(A, B)
        tr = int(np.trace(B))
        assert tr % k == 0, "Faddeev-LeVerrier trace division not exact"
        c = -(tr // k)
        desc.append(c)
        idx = np.diag_indices(n)
        B[idx] = B[idx] + c
    return [int(c) for c in reversed(desc)]


def det_mod(m, p: int) -> int:
    """det(m) mod a prime p, by Gaussian elimination over Python integers."""
    a = [[int(x) % p for x in row] for row in m]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return det % p


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first twelve prime bases decide every
    n < 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def bisect_root(f, a: float, b: float, iters: int = 200) -> float:
    """Plain bisection; f(a) and f(b) must have opposite signs."""
    fa = f(a)
    assert fa * f(b) < 0, "bisection bracket must change sign"
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fa < 0.0) != (fm < 0.0):
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def secular_roots_oracle(blocks) -> list[float]:
    """Roots of sum_i l_i t_i/(x + t_i) = 1 for blocks (l_i, t_i) with
    decreasing t_i, descending.  The left side falls from +inf to -inf on each
    interval between consecutive poles -t_i and on (-t_s, n), so bisection
    there runs until the midpoint is one of the two ends."""
    t = [float(tt) for _, tt in blocks]
    m = [float(l * tt) for l, tt in blocks]

    def h(x: float) -> float:
        return sum(mi / (x + ti) for mi, ti in zip(m, t)) - 1.0

    ends = [-ti for ti in t] + [sum(m)]
    roots = []
    for a, b in zip(ends, ends[1:]):
        mid = 0.5 * (a + b)
        while mid not in (a, b):
            if h(mid) > 0.0:
                a = mid
            else:
                b = mid
            mid = 0.5 * (a + b)
        roots.append(mid)
    return roots[::-1]


def emit_graph6_loop(g: Graph) -> str:
    """graph6 record with one edge-set lookup per upper-triangle pair in
    column order, packed six bits per character."""
    bits = [1 if (i, j) in g.edges else 0 for j in range(2, g.n + 1) for i in range(1, j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval_matrix(p: list[int], a: list[list[int]]) -> np.ndarray:
    """p(A) with exact integer arithmetic (Horner)."""
    A = np.array(a, dtype=object)
    n = len(a)
    acc = np.zeros((n, n), dtype=object)
    for c in reversed(p):
        acc = np.dot(acc, A)
        idx = np.diag_indices(n)
        acc[idx] = acc[idx] + c
    return acc


def vanishes_oracle(p: list[int], a: list[list[int]]) -> tuple[bool, bool]:
    """(p(A) = 0, p(A) j = 0) from p(A) in Python ints (poly_eval_matrix)."""
    image = poly_eval_matrix(p, a)
    return all(x == 0 for x in image.flat), all(x == 0 for x in image.sum(axis=1))


# The fixed family items: the clique-with-pendants grid of acceptance
# criteria C2/C3, and every complete multipartite shape with n <= 20 (C5).
SNR_GRID = [(n, r) for r in range(1, 11) for n in range(r + 3, r + 13)]


def partitions(n, maxp=None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield []
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in partitions(n - p, p):
            yield [p] + rest


def blocks_of(partition):
    return [(partition.count(size), size)
            for size in sorted(set(partition), reverse=True)]


def fixed_family_params() -> list[SnrParams | MultipartiteParams]:
    return ([SnrParams(n, r) for n, r in SNR_GRID]
            + [MultipartiteParams.of(blocks_of(part))
               for n in range(2, 21) for part in partitions(n)])


def family_edges_oracle(p: SnrParams | MultipartiteParams) -> frozenset[tuple[int, int]]:
    """The family graph's edges by its definition, pair by pair: pendants
    1..r at vertex r+1 and a clique on r+1..n, or u ~ v iff u and v lie in
    different parts."""
    if isinstance(p, SnrParams):
        return frozenset([(i, p.r + 1) for i in range(1, p.r + 1)]
                         + list(itertools.combinations(range(p.r + 1, p.n + 1), 2)))
    part_of = {v: k for k, part in enumerate(p.parts()) for v in part}
    return frozenset((u, v) for u, v in itertools.combinations(range(1, p.n + 1), 2)
                     if part_of[u] != part_of[v])


def brute_canonical_form(g: Graph) -> Graph:
    """Relabelling of g with the smallest column-order upper-triangle bit
    string, by trying every one of the n! vertex orders."""
    n = g.n
    adj = [[False] * (n + 1) for _ in range(n + 1)]
    for u, v in g.edges:
        adj[u][v] = adj[v][u] = True
    pairs = [(i, j) for j in range(n) for i in range(j)]
    best = min(itertools.permutations(range(1, n + 1)),
               key=lambda order: [adj[order[i]][order[j]] for i, j in pairs])
    return Graph(n, frozenset((i + 1, j + 1) for i, j in pairs if adj[best[i]][best[j]]))


def value_rows_oracle(value: int, n: int) -> list[int]:
    """Neighbourhood bitmask of every vertex of a column-order upper-triangle
    bit string, first pair most significant, one bit at a time."""
    rows = [0] * n
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for k, (i, j) in enumerate(reversed(pairs)):
        if value >> k & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return rows


def twins_below_oracle(rows: list[int]) -> list[int]:
    """Bitmask of every vertex's lower-numbered twins.  Twins have equal
    neighbourhoods apart from each other; swapping two is an automorphism,
    and being twins is an equivalence relation."""
    return [sum(1 << u for u in range(v) if (rows[u] ^ rows[v]) & ~(1 << u | 1 << v) == 0)
            for v in range(len(rows))]


def canonical_value_oracle(rows: list[int]) -> int:
    """Smallest column-order upper-triangle bit string, read as an integer,
    over all vertex orders of one graph given by its neighbourhood bitmasks.

    Positions are filled in turn.  Every surviving partial order has produced
    the same bits so far, so only the extensions whose new column (the new
    vertex's adjacency to the placed ones, first placed most significant) is
    smallest can reach the minimum; those vertices are found by keeping, for
    each placed vertex in turn, the non-neighbours when there are any.  Of
    the twins among them only the first is tried: swapping two fixes the
    placed vertices, so both give the same strings.
    """
    n = len(rows)
    twins_below = twins_below_oracle(rows)
    everyone = (1 << n) - 1
    value = 0
    states = [(0, ())]  # (placed vertices, their rows in placement order)
    for t in range(n):
        best = 1 << t  # above every t-bit column
        survivors = []
        for placed, order in states:
            low, cands = 0, everyone & ~placed
            for row in order:
                low <<= 1
                if cands & ~row:
                    cands &= ~row
                else:
                    low |= 1
            if low > best:
                continue
            if low < best:
                best, survivors = low, []
            for v in range(n):
                if (cands >> v) & 1 and not twins_below[v] & cands:
                    survivors.append((placed | 1 << v, order + (rows[v],)))
        value = value << t | best
        states = survivors
    return value


def unfiltered_extensions(n: int) -> list[list[int]]:
    """Rows of every graph made by adding a new vertex n-1, with every
    neighbourhood, to every class of catalog_values_oracle(n - 1)."""
    out = []
    for old in catalog_values_oracle(n - 1):
        old_rows = value_rows_oracle(old, n - 1)
        for nbhd in range(1 << (n - 1)):
            out.append([r | ((nbhd >> v) & 1) << (n - 1) for v, r in enumerate(old_rows)]
                       + [nbhd])
    return out


@lru_cache(maxsize=None)
def catalog_values_oracle(n: int) -> tuple[int, ...]:
    """Canonical values of all graphs on n vertices, from every neighbourhood
    of a new vertex added to every class on n-1 vertices, with no filter."""
    if n == 1:
        return (0,)
    return tuple(sorted({canonical_value_oracle(rows) for rows in unfiltered_extensions(n)}))


def class_main_count_oracle(a, switching) -> int:
    """Main count of adjacency matrix a switched about a vertex set: the rank
    of walk_matrix(A, s) for the sign vector s, -1 on the switched
    vertices."""
    return rank_exact(walk_matrix(a, [-1 if v in switching else 1
                                      for v in range(1, len(a) + 1)]))


def class_profiles_oracle(g: Graph, stop_at_all_main: bool = False) -> tuple[int, list[int]]:
    """Distinct count of g and the main count of each switching class in
    enumeration order, one class at a time: the distinct count from the
    characteristic polynomial, a class's main count from
    class_main_count_oracle.  With stop_at_all_main the list ends at the
    first all-main class."""
    a = adjacency_matrix(g)
    dc = distinct_eigenvalue_count(char_poly(a))
    counts = []
    for x in enumerate_switchings(g.n):
        counts.append(class_main_count_oracle(a, x))
        if stop_at_all_main and counts[-1] == dc:
            break
    return dc, counts


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Uniform-ish random connected graph: random spanning tree plus random
    extra edges."""
    while True:
        edges = set()
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for i in range(1, n):
            j = rng.randrange(i)
            u, v = order[i], order[j]
            edges.add((min(u, v), max(u, v)))
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if rng.random() < 0.35:
                    edges.add((u, v))
        g = Graph(n, frozenset(edges))
        if is_connected(g):
            return g


def random_signed_graph(rng: random.Random, n: int) -> SignedGraph:
    g = random_connected_graph(rng, n)
    flips = [v for v in range(2, n + 1) if rng.random() < 0.5]
    sg = apply_switching(g, flips)
    # Random switching alone never changes main counts, so also flip a random
    # edge subset outright for genuinely arbitrary signs.
    negative = set(sg.negative)
    for e in sorted(g.edges):
        if rng.random() < 0.3:
            negative.symmetric_difference_update({e})
    return SignedGraph(g, frozenset(negative))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


def graph6_like(max_n: int):
    """Arbitrary text, or an optional header and a size byte for n <= max_n
    followed by a body of about the right length."""
    def record(n: int):
        need = (n * (n - 1) // 2 + 5) // 6
        body = (st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126),
                        min_size=need, max_size=need)
                | st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=128),
                          min_size=max(0, need - 1), max_size=need + 1))
        return st.builds(lambda head, b: head + chr(63 + n) + b,
                         st.sampled_from(["", ">>graph6<<", " "]), body)

    return st.text(max_size=2 * max_n) | st.integers(0, max_n).flatmap(record)


_sel_token = st.sampled_from(["1", "2", "3", "0", "-1", "+", "-", "*", "x", "1.5", "99"])
_sel_line = (st.lists(_sel_token, max_size=4).map(" ".join)
             | st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from("+-*"))
             .map(lambda e: "%d %d %s" % e))
# Arbitrary text, or a header "n m" with n <= 5 and about m edge lines.
sel_like = st.text() | st.builds(
    lambda n, extra, lines: "\n".join([f"{n} {len(lines) + extra}"] + lines),
    st.integers(-1, 5), st.sampled_from([0, 0, 0, 1, -1]), st.lists(_sel_line, max_size=5))
