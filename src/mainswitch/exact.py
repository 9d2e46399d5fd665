"""Exact integer linear algebra behind the main-eigenvalue decision.

Whether every eigenvalue of a signed graph is main reduces to two integer
computations: the rank of the walk matrix [j, Aj, ..., A^{n-1}j] equals the
number of main eigenvalues, and the degree of charpoly / gcd(charpoly,
charpoly') equals the number of distinct eigenvalues (the minimal polynomial
of a symmetric matrix is squarefree).  Every answer is exact, so the
accept/reject decision involves no tolerances.

The characteristic polynomial is computed by Faddeev-LeVerrier modulo word-size
primes and lifted by the Chinese remainder theorem: each coefficient obeys
|c_k| <= C(n,k) rho^k <= (1+rho)^n, where rho is the largest absolute row sum,
so primes whose product exceeds 2 (1+rho)^n determine it.  The main count is
first certified modulo one prime: rank_p(W) <= rank_Q(W) = main count <=
distinct count, so rank_p(W) equal to the distinct count proves the matrix
all-main.  Only when that one-sided test fails does the rank come from
fraction-free elimination over the integers.  main_profile converts its input
once, to the int64 array that both modular paths share.

Matrices are plain lists of rows of Python ints; polynomials are coefficient
lists in ascending powers ([] is the zero polynomial).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

IntMatrix = list[list[int]]
IntPoly = list[int]

__all__ = [
    "IntMatrix",
    "IntPoly",
    "MainProfile",
    "char_poly",
    "distinct_eigenvalue_count",
    "main_profile",
    "poly_derivative",
    "poly_gcd",
    "rank_exact",
    "walk_matrix",
]


def _check_square(a: IntMatrix) -> int:
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise ValueError("matrix must be square and nonempty")
    return n


# ---------------------------------------------------------------------------
# Characteristic polynomial (Faddeev-LeVerrier modulo primes, CRT lift)
# ---------------------------------------------------------------------------

# Both n and the largest absolute row sum rho must stay below _LIMIT for the
# modular paths.  Every table prime p lies in (_LIMIT, 2^31), so each k <= n
# is invertible mod p and p^2 < 2^63 (int64 residue products).  char_poly
# reduces x to x - floor(x / p) p in float64, which lands in [-p, 2p) because
# the computed quotient is off by at most one; adding a coefficient to the
# diagonal gives entries in [-p, 3p), so a row . column product is below
# 3 rho p < 2^53 and a trace below 3 n p < 2^53, both exact in float64.
_LIMIT = 2 ** 20

# The 64 largest primes below 2^31, in descending order.
_PRIMES = tuple(2 ** 31 - d for d in (
    1, 19, 61, 69, 85, 99, 105, 151, 159, 171, 225, 249, 295, 325, 379, 399,
    411, 469, 477, 511, 525, 571, 579, 589, 595, 615, 619, 697, 699, 705, 711,
    727, 771, 775, 781, 789, 829, 831, 837, 847, 885, 909, 951, 955, 967, 985,
    987, 1027, 1057, 1065, 1071, 1141, 1147, 1167, 1231, 1239, 1281, 1287,
    1299, 1305, 1321, 1357, 1375, 1411))
_PRIME_PRODUCTS = tuple(math.prod(_PRIMES[:k]) for k in range(1, len(_PRIMES) + 1))

# The prime of the one-sided main-count certificate in main_profile.
_RANK_PRIME = _PRIMES[0]


def _guarded_array(a: IntMatrix) -> np.ndarray | None:
    """a as an int64 array when n and every absolute row sum are below
    _LIMIT, else None (the modular paths would not be exact)."""
    n = _check_square(a)
    try:
        arr = np.array(a, dtype=np.int64)
    except OverflowError:
        return None
    if n >= _LIMIT or arr.min() <= -_LIMIT or arr.max() >= _LIMIT:
        return None
    if np.abs(arr).sum(axis=1).max() >= _LIMIT:
        return None
    return arr


@functools.lru_cache(maxsize=None)
def _crt_basis(k: int) -> tuple[int, tuple[int, ...]]:
    """Modulus M of the first k table primes and the idempotents e_i
    (e_i = 1 mod p_i, 0 mod the others)."""
    m = _PRIME_PRODUCTS[k - 1]
    return m, tuple((m // p) * pow(m // p % p, -1, p) for p in _PRIMES[:k])


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - A), ascending coefficients.

    Runs the Faddeev-LeVerrier recurrence modulo as many table primes as the
    coefficient bound 2 (1+rho)^n needs, all primes in one float64 matrix
    product per step, and lifts the residues to symmetric integers by CRT.
    Matrices outside the modular range (huge entries or coefficient bound
    beyond the table) take the same recurrence over Python integers.
    """
    return _char_poly(a, _guarded_array(a))


def _char_poly(a: IntMatrix, arr: np.ndarray | None) -> IntPoly:
    # char_poly of a, given its _guarded_array arr.
    if arr is None:
        return _char_poly_bigint(a)
    n = len(arr)
    rho = int(np.abs(arr).sum(axis=1).max())
    k = bisect.bisect_right(_PRIME_PRODUCTS, 2 * (1 + rho) ** n) + 1
    if k > len(_PRIME_PRODUCTS):
        return _char_poly_bigint(a)
    primes = np.array(_PRIMES[:k], dtype=np.int64)
    pf = primes.astype(np.float64)[:, None]
    af = arr.astype(np.float64)
    # -1/step mod p for every step and prime.
    neg_inverses = np.array([[p - pow(step, -1, p) for p in _PRIMES[:k]]
                             for step in range(1, n + 1)], dtype=np.int64)
    # b[:, i, :] is the Faddeev-LeVerrier matrix modulo primes[i]; keeping the
    # prime axis in the middle makes A @ b one (n, n) x (n, k n) product.
    b = np.zeros((n, k, n))
    x = np.empty_like(b)
    diagonals = np.einsum("iji->ij", b)  # writable view, one column per prime
    diagonals += 1.0
    coeffs = np.empty((n, k), dtype=np.int64)
    for step in range(1, n + 1):
        np.matmul(af, b.reshape(n, k * n), out=x.reshape(n, k * n))
        np.floor(np.divide(x, pf, out=b), out=b)
        np.subtract(x, np.multiply(b, pf, out=b), out=b)
        c = diagonals.sum(axis=0).astype(np.int64) % primes * neg_inverses[step - 1] % primes
        coeffs[n - step] = c
        diagonals += c
    m, basis = _crt_basis(k)
    half = m // 2
    lifted = (int(v) % m for v in coeffs.astype(object) @ np.array(basis, dtype=object))
    return [v - m if v > half else v for v in lifted] + [1]


def _char_poly_bigint(a: IntMatrix) -> IntPoly:
    # Faddeev-LeVerrier over Python integers; each trace division is exact.
    n = _check_square(a)
    A = np.array([[int(x) for x in row] for row in a], dtype=object)
    B = np.eye(n, dtype=object)
    desc = [1]  # coefficients of x^n, x^{n-1}, ...
    for k in range(1, n + 1):
        B = np.dot(A, B)
        tr = int(np.trace(B))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier trace division not exact")
        c = -(tr // k)
        desc.append(c)
        idx = np.diag_indices(n)
        B[idx] = B[idx] + c
    return [int(c) for c in reversed(desc)]


# ---------------------------------------------------------------------------
# Integer polynomial utilities (primitive pseudo-remainder gcd)
# ---------------------------------------------------------------------------


def _trim(p: IntPoly) -> IntPoly:
    k = len(p)
    while k and p[k - 1] == 0:
        k -= 1
    return list(p[:k])


def poly_derivative(p: IntPoly) -> IntPoly:
    return _trim([i * c for i, c in enumerate(p)][1:])


def _content(p: IntPoly) -> int:
    return math.gcd(*(abs(c) for c in p)) if p else 0


def _primitive(p: IntPoly) -> IntPoly:
    p = _trim(p)
    if not p:
        return p
    c = _content(p)
    p = [x // c for x in p]
    if p[-1] < 0:
        p = [-x for x in p]
    return p


def _pseudo_rem(a: IntPoly, b: IntPoly) -> IntPoly:
    # prem(a, b): remainder of lc(b)^(deg a - deg b + 1) * a  divided by b.
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and any(r):
        lr = r[-1]
        shift = len(r) - 1 - db
        r = [lb * c for c in r]
        for i, bc in enumerate(b):
            r[shift + i] -= lr * bc
        r = _trim(r)
        if not r:
            break
    return r


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd of integer polynomials via the primitive pseudo-remainder
    sequence (content stripped at every step to control coefficient growth)."""
    a, b = _primitive(a), _primitive(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a


def distinct_eigenvalue_count(p: IntPoly) -> int:
    """Number of distinct roots of a characteristic polynomial of a symmetric
    integer matrix: deg p - deg gcd(p, p')."""
    q = _trim(p)
    if not q:
        raise ValueError("zero polynomial")
    if len(q) == 1:
        raise ValueError("constant polynomial has no eigenvalues")
    g = poly_gcd(q, poly_derivative(q))
    return (len(q) - 1) - (len(g) - 1)


# ---------------------------------------------------------------------------
# Walk matrix and exact rank
# ---------------------------------------------------------------------------


def walk_matrix(a: IntMatrix, start: list[int] | None = None) -> IntMatrix:
    """Columns s, As, A^2 s, ..., A^{n-1} s; s is the all-ones vector j
    unless a start vector is given.

    Switching about X conjugates A by D = diag(s), s_v = -1 exactly on X, so
    the walk matrix of DAD is D walk_matrix(A, s): both have the same rank.
    """
    n = _check_square(a)
    A = np.array(a, dtype=object)
    w = np.ones(n, dtype=object) if start is None else np.array(start, dtype=object)
    if w.shape != (n,):
        raise ValueError(f"start vector must have {n} entries")
    cols = [w]
    for _ in range(n - 1):
        w = A.dot(w)
        cols.append(w)
    return np.stack(cols, axis=1).tolist()


def _rank_mod(m: np.ndarray, p: int) -> int:
    """Rank over F_p of an int64 matrix, p < 2^31, by column-wise
    elimination."""
    m = m % p
    rows, cols = m.shape
    rank = 0
    for c in range(cols):
        nz = np.flatnonzero(m[rank:, c])
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            m[[rank, piv]] = m[[piv, rank]]
        m[rank, c:] = m[rank, c:] * pow(int(m[rank, c]), -1, p) % p
        m[rank + 1:, c:] = (m[rank + 1:, c:] - np.outer(m[rank + 1:, c], m[rank, c:])) % p
        rank += 1
        if rank == rows:
            break
    return rank


def _walk_rank_mod(arr: np.ndarray, p: int, count: int) -> int:
    """Rank over F_p of the first `count` walk-matrix columns of a
    _guarded_array matrix.  It is at most the rank over the rationals, and
    once one column depends on the earlier ones every later column does
    too, so it equals min(count, rank over F_p of the whole walk matrix)."""
    w = np.ones(len(arr), dtype=np.int64)
    cols = [w]
    for _ in range(count - 1):
        w = arr @ w % p
        cols.append(w)
    return _rank_mod(np.stack(cols, axis=1), p)


def rank_exact(m: IntMatrix) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    if not m or not m[0]:
        raise ValueError("matrix must be nonempty")
    a = [[int(x) for x in row] for row in m]
    n_rows, n_cols = len(a), len(a[0])
    if any(len(row) != n_cols for row in a):
        raise ValueError("ragged matrix")
    prev = 1
    pr = 0
    for pc in range(n_cols):
        piv_row = next((i for i in range(pr, n_rows) if a[i][pc] != 0), None)
        if piv_row is None:
            continue
        if piv_row != pr:
            a[pr], a[piv_row] = a[piv_row], a[pr]
        piv = a[pr][pc]
        row_p = a[pr]
        for i in range(pr + 1, n_rows):
            row_i = a[i]
            f = row_i[pc]
            for j in range(pc + 1, n_cols):
                row_i[j] = (piv * row_i[j] - f * row_p[j]) // prev
            row_i[pc] = 0
        prev = piv
        pr += 1
        if pr == n_rows:
            break
    return pr


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MainProfile:
    """Exact main-eigenvalue bookkeeping for one signed adjacency matrix."""

    main_count: int
    distinct_count: int
    all_main: bool


def main_profile(a: IntMatrix) -> MainProfile:
    """Exact decision: main_count = rank of the walk matrix, distinct_count
    from the squarefree degree of the characteristic polynomial.

    The input is converted once, to the guarded int64 array that serves the
    symmetry check and both modular paths.  The rank of the walk matrix
    modulo one prime is a lower bound on the main count, which never exceeds
    the distinct count; when the two meet, the matrix is all-main and no
    integer elimination is needed.  Otherwise the main count comes from
    Bareiss elimination.  This is the authoritative accept/reject for every
    certificate; the float classifier is advisory only.
    """
    arr = _guarded_array(a)
    m = np.array(a, dtype=object) if arr is None else arr
    if not (m == m.T).all():
        raise ValueError("main_profile requires a symmetric matrix")
    dc = distinct_eigenvalue_count(_char_poly(a, arr))
    if arr is not None:
        rank_p = _walk_rank_mod(arr, _RANK_PRIME, min(dc + 1, len(arr)))
        if rank_p > dc:
            raise ArithmeticError(f"walk matrix rank mod p {rank_p} exceeds the "
                                  f"distinct eigenvalue count {dc}")
        if rank_p == dc:
            return MainProfile(main_count=dc, distinct_count=dc, all_main=True)
    mc = rank_exact(walk_matrix(a))
    return MainProfile(main_count=mc, distinct_count=dc, all_main=mc == dc)
