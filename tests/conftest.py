"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: rank via
rational Gaussian elimination, roots via plain bisection, polynomial algebra
by direct convolution, characteristic polynomials by Faddeev-LeVerrier over
Python integers, primality by deterministic Miller-Rabin.  Tests compare
library output against these.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from mainswitch import Graph, SignedGraph, apply_switching, is_connected


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
