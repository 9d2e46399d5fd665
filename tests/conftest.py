"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: rank via
rational Gaussian elimination, roots via plain bisection, polynomial algebra
by direct convolution, graph6 records by the pair-by-pair loop,
characteristic polynomials by Faddeev-LeVerrier over Python integers,
p(A) and p(A) s by Horner over Python integers (poly_eval_matrix,
poly_apply_oracle),
primality by deterministic Miller-Rabin, CRT lifts by Garner's method,
multipartite rows part by part from the blocks alone (parts_oracle), and
the simple-graph invariant of neighbourhood rows (valid_rows_oracle), which
the library's own rows builders are trusted to keep.  Tests compare library
output against these.  Canonical values come from canonical_value_oracle, a
one-graph-at-a-time branch and bound that brute_canonical_form checks on
its own; catalog_values_oracle, the catalog sweep without its filters, uses
it and shares no canonical-labelling code with the library's batched level
search.  One exception shares library code on purpose.
class_profiles_oracle ranks one switching class at a time
(class_main_count_oracle) with char_poly and walk_matrix, which the exact
tests check against the oracles above; it shares nothing with the search's
power stack.  The construction oracles hold what the library no longer
computes, the paper's closed-form witnesses and the float candidate scan
that the exact scan replaced: secular_roots_newton_oracle (eigvalsh, then
the Newton polish on numpy rows), secular_vector_oracle, snr_eigvec_oracle,
twin_witness_oracle, the witness lists of multipartite_witnesses_oracle and
snr_witnesses_oracle (the latter takes the cubic roots from the library's
spectral module), check_witnesses_oracle, and float_scan_oracle.  The
checker behind tests/test_theorems.py evaluates the signed quotient of the
switched clique-with-pendants graph at integer points (snr_quotient,
krylov_oracle, fraction_det, snr_cubic, snr_f), in Python ints and
Fractions, and on_grid turns agreement on a grid into a polynomial
identity.  random_twin_blowup builds seeded graphs with many open and
closed twins, whose annihilators need more than one lift prime.  The
hypothesis strategies at the end make near-valid graph inputs for the
parser and CLI fuzz tests.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from mainswitch import (Graph, MultipartiteParams, SignedGraph, SnrParams, adjacency_matrix,
                        apply_switching, char_poly, distinct_eigenvalue_count,
                        enumerate_switchings, is_connected, rank_exact, snr_cubic_roots,
                        walk_matrix)


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


def secular_roots_newton_oracle(p: MultipartiteParams) -> list[float]:
    """The secular roots as eigvalsh of z z^T - diag(t) gives them, each
    polished by two Newton steps kept inside its bracket, all roots at once
    on numpy rows."""
    if p.s == 1:
        return [float(p.group_sizes[0] - p.sizes[0])]
    t = np.array(p.sizes, dtype=float)
    m = np.array(p.group_sizes, dtype=float)
    z = np.sqrt(m)
    x = np.linalg.eigvalsh(np.outer(z, z) - np.diag(t))
    lo, hi = -t, np.append(-t[1:], float(p.n))
    for _ in range(2):
        u = m / (x[:, None] + t)
        step = x + (u.sum(axis=1) - 1.0) / (u * u / m).sum(axis=1)
        x = np.where(step <= lo, (x + lo) / 2, np.where(step >= hi, (x + hi) / 2, step))
    assert np.all((lo < x) & (x < hi))
    u = m / (x[:, None] + t)
    assert np.all(np.abs(u.sum(axis=1) - 1.0) < 1e-10 * (1.0 + np.abs(u).sum(axis=1)))
    return [float(v) for v in x[::-1]]


def secular_vector_oracle(p: MultipartiteParams, lam: float) -> np.ndarray:
    """The unswitched eigenvector for a secular root: 1/(lam + t_i) on the
    vertices of group i."""
    return np.repeat(1.0 / (lam + np.array(p.sizes)), p.group_sizes)


def _signs_oracle(n: int, switched) -> np.ndarray:
    s = np.ones(n, dtype=np.int64)
    s[[v - 1 for v in switched]] = -1
    return s


def snr_eigvec_oracle(n: int, r: int, lam: float) -> np.ndarray:
    """Eigenvector of the clique-with-pendants graph for a cubic root:
    1 on pendants, lam on the attachment vertex, lam - r/(lam+1) on the rest."""
    if r < 1 or n < r + 3:
        raise ValueError(f"need r >= 1 and n >= r+3, got n={n} r={r}")
    if abs(lam) < 1e-9 or abs(lam + 1.0) < 1e-9:
        raise ValueError("eigenvalues 0 and -1 have no vector of this shape")
    resid = lam ** 3 - (n - r - 2) * lam ** 2 - (n - 1) * lam + r * (n - r - 2)
    if abs(resid) >= 1e-10 * (1.0 + abs(lam) ** 3):
        raise ValueError(f"{lam} is not a simple eigenvalue of this graph")
    x = np.empty(n)
    x[:r] = 1.0
    x[r] = lam
    x[r + 1:] = lam - r / (lam + 1.0)
    return x


def twin_witness_oracle(s, fine, coarse) -> np.ndarray:
    """s times (mean of s over v's fine block - mean of s over v's coarse
    class), for dense 0-based labels with blocks of one size in each class.

    This is the projection of j onto D {sum_b c_b 1_b : the c_b of each class
    sum to zero}, D = diag(s).  When a class's blocks are interchangeable
    twins for an eigenvalue whose whole eigenspace that set spans, it is the
    main part of j there (Rowlinson, AADM 2007); its entry sum,
    sum_b |b| (mean_b - mean_class)^2, is zero only when every class has
    its blocks switched alike.
    """
    block = np.bincount(fine, s) / np.bincount(fine)
    cls = np.bincount(coarse, s) / np.bincount(coarse)
    return s * (block[fine] - cls[coarse])


def multipartite_witnesses_oracle(p: MultipartiteParams,
                                  switched) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, witness) pairs for the multipartite graph switched about
    switched, one per distinct eigenvalue: s times the secular vector for
    each root (descending), then the twin projection of j for 0 when some
    part has two or more vertices, then for -t_i for each group of two or
    more parts.  A single part is the empty graph, whose one eigenvalue 0
    has j itself."""
    s = _signs_oracle(p.n, switched)
    if sum(p.counts) == 1:
        return [(0.0, s * np.ones(p.n))]
    out = [(lam, s * secular_vector_oracle(p, lam)) for lam in secular_roots_newton_oracle(p)]
    part = np.repeat(np.arange(sum(p.counts)), np.repeat(p.sizes, p.counts))
    group = np.repeat(np.arange(p.s), p.group_sizes)
    if p.sizes[0] >= 2:
        out.append((0.0, twin_witness_oracle(s, np.arange(p.n), part)))
    ti = twin_witness_oracle(s, part, group)
    out.extend((-float(t), np.where(group == i, ti, 0.0))
               for i, (l, t) in enumerate(p.blocks) if l >= 2)
    return out


def snr_witnesses_oracle(n: int, r: int, switched) -> list[tuple[float, np.ndarray]]:
    """(eigenvalue, witness) pairs for the clique-with-pendants graph switched
    about switched, one per distinct eigenvalue: s times snr_eigvec_oracle
    for each cubic root, then the twin projections of j for 0 (the pendants,
    when r >= 2) and -1 (the clique rest)."""
    s = _signs_oracle(n, switched)
    out = [(lam, s * snr_eigvec_oracle(n, r, lam)) for lam in snr_cubic_roots(n, r)]
    vertex = np.arange(n)
    if r >= 2:
        out.append((0.0, twin_witness_oracle(s, vertex, np.maximum(vertex - r + 1, 0))))
    out.append((-1.0, twin_witness_oracle(s, vertex, np.minimum(vertex, r + 1))))
    return out


WITNESS_RESIDUAL_TOL = 1e-8
WITNESS_SUM_TOL = 1e-8


class WitnessError(AssertionError):
    """A witness that is no main eigenvector of the matrix it was checked
    against."""


def check_witnesses_oracle(a, witnesses) -> list[tuple[float, np.ndarray]]:
    """The (eigenvalue, witness) pairs with each witness scaled to unit
    length, after checking them one at a time: nonzero, an eigenvector of a
    for its eigenvalue up to WITNESS_RESIDUAL_TOL, and of entry sum above
    WITNESS_SUM_TOL.  The first failing pair raises WitnessError; a NaN
    residual or sum fails too."""
    a = np.asarray(a, dtype=float)
    out = []
    for lam, v in witnesses:
        v = np.asarray(v, dtype=float)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise WitnessError("zero witness vector")
        v = v / norm
        residual = np.linalg.norm(a @ v - lam * v)
        if not residual <= WITNESS_RESIDUAL_TOL:
            raise WitnessError(f"witness residual {residual:.3e} for eigenvalue {lam:.12g}")
        if not abs(v.sum()) > WITNESS_SUM_TOL:
            raise WitnessError(f"witness for eigenvalue {lam:.12g} has zero entry sum")
        out.append((lam, v))
    return out


def float_scan_oracle(x, candidates):
    """The float candidate scan: the first switching, over the candidates in
    order, under which every row of s * x has an entry sum above
    WITNESS_SUM_TOL sqrt(n) times the row's norm, x holding one unswitched
    eigenvector per simple eigenvalue and s being the switching's sign
    vector; None when no candidate passes."""
    x = np.asarray(x, dtype=float)
    n = x.shape[1]
    for switched in candidates:
        y = x * _signs_oracle(n, switched)
        if (np.abs(y.sum(axis=1)) > WITNESS_SUM_TOL * np.sqrt(n) * np.linalg.norm(y, axis=1)).all():
            return switched
    return None


def many_group_shapes() -> list[list[tuple[int, int]]]:
    """The 65 multipartite shapes with 8 to 10 groups of sizes at most 10, one
    part each, plus those with 8 groups of sizes at most 9 and two parts in
    the first group (n <= 55).  numpy sums a row of 8 or more entries in
    blocks, so here secular_roots_newton_oracle need not match the library's
    roots bit for bit."""
    shapes = []
    for k, top, first in ((8, 10, 1), (9, 10, 1), (10, 10, 1), (8, 9, 2)):
        for sizes in itertools.combinations(range(top, 0, -1), k):
            shapes.append([(first, sizes[0])] + [(1, t) for t in sizes[1:]])
    return shapes


def random_shape_pool() -> list[list[tuple[int, int]]]:
    """The benchmark's fixed pool of random multipartite shapes, from
    bench/inputs.py, which imports nothing from the package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_shape_pool()


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


def poly_apply_oracle(p: list[int], a: list[list[int]], s: list[int]) -> list[int]:
    """p(A) s with exact integer arithmetic (Horner on the vector)."""
    A = np.array(a, dtype=object)
    acc = np.zeros(len(a), dtype=object)
    for c in reversed(p):
        acc = A.dot(acc) + c * np.array(s, dtype=object)
    return [int(x) for x in acc]


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
    part_of = {v: k for k, part in enumerate(parts_oracle(p)) for v in part}
    return frozenset((u, v) for u, v in itertools.combinations(range(1, p.n + 1), 2)
                     if part_of[u] != part_of[v])


def parts_oracle(p: MultipartiteParams) -> list[range]:
    """The vertex range of every part, in order, from the blocks alone:
    l parts of t consecutive vertices per block (l, t)."""
    sizes = [t for l, t in p.blocks for _ in range(l)]
    starts = itertools.accumulate(sizes, initial=1)
    return [range(start, start + t) for start, t in zip(starts, sizes)]


def multipartite_rows_oracle(p: MultipartiteParams) -> tuple[int, ...]:
    """The neighbourhood rows of the complete multipartite graph, part by
    part through parts_oracle: each vertex of a part is joined to everyone
    outside it."""
    everyone = (1 << p.n) - 1
    rows: list[int] = []
    for part in parts_oracle(p):
        rows += [everyone ^ (1 << part.stop - 1) - (1 << part.start - 1)] * len(part)
    return tuple(rows)


def valid_rows_oracle(rows) -> bool:
    """Whether neighbourhood rows are those of a simple graph, bit by bit:
    every row in range 0..2^n - 1, no loop, and bit w of row v equal to bit
    v of row w."""
    n = len(rows)
    return all(0 <= row < 1 << n and not row >> v & 1 for v, row in enumerate(rows)) and all(
        (rows[v] >> w & 1) == (rows[w] >> v & 1) for v, w in itertools.combinations(range(n), 2))


# ---------------------------------------------------------------------------
# The signed quotient of the clique-with-pendants graph switched about {v1, vn}
# ---------------------------------------------------------------------------


def snr_quotient(n: int, r: int) -> list[list[int]]:
    """The signed quotient B of S_{n,r} switched about {v1, vn}: row i holds,
    for any one vertex of cell i, the signed count of its neighbours in each
    cell.  The cells are {v1}, {v2..vr}, the hub {v_{r+1}}, {v_{r+2}..v_{n-1}}
    and {vn}; for r = 1 the empty second cell is left out.  The rows are
    read as polynomials, so any integers n and r give a matrix, valid pair
    or not, and every entry has degree at most 1 in (n, r)."""
    c = n - r - 2  # the size of the fourth cell
    b = [[0, 0, -1, 0, 0],
         [0, 0, 1, 0, 0],
         [-1, r - 1, 0, c, -1],
         [0, 0, 1, c - 1, -1],
         [0, 0, -1, -c, 0]]
    if r == 1:
        return [row[:1] + row[2:] for i, row in enumerate(b) if i != 1]
    return b


def krylov_oracle(b) -> list[list[int]]:
    """K = [1, B1, ..., B^(k-1)1] for a k x k integer matrix B, in Python
    ints."""
    v, cols = [1] * len(b), []
    for _ in b:
        cols.append(v)
        v = [sum(x * y for x, y in zip(row, v)) for row in b]
    return [list(row) for row in zip(*cols)]


def fraction_det(m) -> Fraction:
    """det(m) by Gaussian elimination over exact rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for c in range(len(a)):
        piv = next((i for i in range(c, len(a)) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv], det = a[piv], a[c], -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def snr_cubic(n: int, r: int) -> list[int]:
    """The paper's cubic x^3 - (n-r-2)x^2 - (n-1)x + r(n-r-2), ascending."""
    return [r * (n - r - 2), -(n - 1), -(n - r - 2), 1]


def snr_f(m: int, s: int) -> int:
    """The factor f of det K for r >= 2, at r = 2 + s and n = r + 3 + m."""
    return (-m ** 3 * s ** 2 - 3 * m ** 2 * s ** 2 + 6 * m ** 2 * s - 6 * m * s ** 2 + 6 * m * s
            - 2 * s ** 3 + 10 * s + 4)


def on_grid(check, ns: range, rs: range) -> bool:
    """Whether check(n, r) holds at every n in ns and r in rs.  Two
    polynomials of degree below len(ns) in n and below len(rs) in r that
    agree there are equal: a one-variable polynomial with more roots than its
    degree is zero, so their difference vanishes on each line r = r0, and
    then each of its coefficients in n, a polynomial in r, has len(rs)
    roots.  Total degree D gives degree at most D in each variable."""
    return all(check(n, r) for n in ns for r in rs)


def crt_oracle(residues: list[int], primes: list[int]) -> int:
    """The integer x with |x| <= M/2, M the product of the primes, and
    x = r_i mod p_i, by Garner's incremental CRT over Python ints."""
    x, m = 0, 1
    for r, p in zip(residues, primes):
        x, m = x + m * ((r - x) * pow(m, -1, p) % p), m * p
    return x - m if x > m // 2 else x


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


def random_twin_blowup(rng: random.Random, n: int) -> Graph:
    """A connected G(k, p) base on k = n // 2 vertices (p drawn from
    [0.15, 0.5]), blown up to n vertices: each new vertex copies the
    neighbourhood of a random base vertex, and is joined to it (a closed
    twin) with probability 1/2.  The spectrum has repeated eigenvalues 0 and
    -1, and some eigenvalues are not main."""
    k = n // 2
    p = rng.uniform(0.15, 0.5)
    while True:
        base = Graph(k, frozenset((u, v) for u, v in itertools.combinations(range(1, k + 1), 2)
                                  if rng.random() < p))
        if is_connected(base):
            break
    nbrs = {v: {u for e in base.edges if v in e for u in e if u != v} for v in range(1, k + 1)}
    for w in range(k + 1, n + 1):
        v = rng.randrange(1, k + 1)
        nbrs[w] = set(nbrs[v])
        for u in nbrs[v]:
            nbrs[u].add(w)
        if rng.random() < 0.5:
            nbrs[w].add(v)
            nbrs[v].add(w)
    return Graph(n, frozenset((u, v) for u in nbrs for v in nbrs[u] if u < v))


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
