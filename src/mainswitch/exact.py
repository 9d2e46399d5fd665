"""Exact integer linear algebra behind the main-eigenvalue decision.

Whether every eigenvalue of a signed graph is main compares two integer
counts: the rank of the walk matrix [j, Aj, ..., A^{n-1}j] is the number of
main eigenvalues, and the degree of the minimal polynomial (squarefree, as
A is symmetric) is the number of distinct eigenvalues.  Every answer is
exact, so the accept/reject decision involves no tolerances.

main_profile converts its input at most once, to an int64 array (an int64
array is taken as it is); it decides only matrices whose n and absolute row
sums are below 2^20, far beyond any signed graph, and rejects every other
input with a ValueError.  It takes one of two paths:

1. Annihilating polynomials, for matrices past the power-stack kernel below.
   The Krylov columns s, As, A^2 s, ... are eliminated modulo a prime until
   column d depends on the earlier ones; that dependency is a monic q of
   degree d, lifted by CRT, and one exact evaluation of q(A) checks it
   (Wiedemann, IEEE Trans. Inf. Theory 1986): directly in float64 when
   2 sum |q_i| rho^i is below 2^53, so that every partial sum is an exact
   integer, and modulo table primes whose product exceeds that bound above
   it.  A Krylov rank modulo a prime is at most the rank over the
   rationals, which is at most the distinct count, and q(A) = 0 bounds the
   distinct count by d from above.  From s = j, d = n or q(A) = 0 proves
   the matrix all-main, and q(A) j = 0 alone makes d the main count; the
   distinct count then comes the same way from s = (1, 2, ..., n).
2. The power stack A^0, ..., A^(n-1): the main count is the Bareiss rank of
   the walk columns A^k j, and, when that is short of n, the distinct count
   is the rank of the Hankel matrix of power traces tr(A^(i+j)), the Gram
   matrix of the flattened powers.  It decides every matrix of at most 10
   vertices whose stack fits int64 (n rho^(2n-2) < 2^63, rho the largest
   absolute row sum), shared with the switching search, and every matrix
   the certificates leave open, in Python ints when the stack does not fit
   int64.

char_poly (the Faddeev-LeVerrier recurrence over Python ints),
distinct_eigenvalue_count (deg p - deg gcd(p, p')) and walk_matrix stay as
public helpers; the decision uses none of them.

Matrices are plain lists of rows of Python ints, or 2-D int64 arrays:
main_profile takes a square int64 array as it is, with no copy, and never
writes to it, and rank_exact reads one with a single tolist() and eliminates
on that list, touching only the entries right of each pivot column.
Polynomials are coefficient lists in ascending powers ([] is the zero
polynomial).
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
# The int64 guard, the prime table and CRT
# ---------------------------------------------------------------------------

# main_profile decides only matrices whose n and largest absolute row sum rho
# are below _LIMIT; no signed graph comes near it.  Every table prime p lies
# in (_LIMIT, 2^31), so p^2 < 2^63 (int64 residue products).  _vanishes
# evaluates q(A) directly in float64 when its bound is below 2^53, and modulo
# these primes above it: there it reduces x to x - floor(x / p) p in float64,
# which lands in [-p, 2p) because the computed quotient is off by at most
# one; adding a coefficient to the diagonal gives entries in [-p, 3p), so a
# row . column product is below 3 rho p < 2^53, exact in float64, and so is
# a row sum of residues in [0, p), below n p.
_LIMIT = 2 ** 20

# The 64 largest primes below 2^31, in descending order.
_PRIMES = tuple(2 ** 31 - d for d in (
    1, 19, 61, 69, 85, 99, 105, 151, 159, 171, 225, 249, 295, 325, 379, 399,
    411, 469, 477, 511, 525, 571, 579, 589, 595, 615, 619, 697, 699, 705, 711,
    727, 771, 775, 781, 789, 829, 831, 837, 847, 885, 909, 951, 955, 967, 985,
    987, 1027, 1057, 1065, 1071, 1141, 1147, 1167, 1231, 1239, 1281, 1287,
    1299, 1305, 1321, 1357, 1375, 1411))
_PRIME_PRODUCTS = tuple(math.prod(_PRIMES[:k]) for k in range(1, len(_PRIMES) + 1))

# The prime of the Krylov ranks in main_profile, and the first prime their
# annihilators are lifted over.
_RANK_PRIME = _PRIMES[0]


def _guarded_array(a: IntMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    """a as an int64 array, with its largest absolute row sum (_row_bound).

    A square, nonempty 2-D int64 array is taken as it is, without a copy;
    lists and other arrays are converted.  Raises ValueError unless n and
    every absolute row sum are below _LIMIT, the range in which the modular
    steps are exact.
    """
    if (isinstance(a, np.ndarray) and a.dtype == np.int64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and a.size):
        arr, n = a, len(a)
    else:
        n = _check_square(a)
        try:
            arr = np.array(a, dtype=np.int64)
        except OverflowError:  # an entry past int64
            arr = None
    inside = arr is not None and n < _LIMIT and -_LIMIT < arr.min() and arr.max() < _LIMIT
    rho = _row_bound(arr) if inside else _LIMIT
    if rho >= _LIMIT:
        raise ValueError("exact decisions need n and every absolute row sum below 2^20")
    return arr, rho


@functools.lru_cache(maxsize=None)
def _crt_basis(k: int) -> tuple[int, tuple[int, ...]]:
    """Modulus M of the first k table primes and the idempotents e_i
    (e_i = 1 mod p_i, 0 mod the others)."""
    m = _PRIME_PRODUCTS[k - 1]
    return m, tuple((m // p) * pow(m // p % p, -1, p) for p in _PRIMES[:k])


def _prime_count(bound: int) -> int | None:
    """How many leading table primes it takes for their product to exceed
    bound; None when the whole table does not."""
    k = bisect.bisect_right(_PRIME_PRODUCTS, bound) + 1
    return k if k <= len(_PRIME_PRODUCTS) else None


def _crt_lift(residues: np.ndarray, k: int) -> IntPoly:
    """Symmetric integers whose residues modulo the first k table primes are
    the rows of residues (shape (count, k))."""
    m, basis = _crt_basis(k)
    half = m // 2
    lifted = (int(v) % m for v in residues.astype(object) @ np.array(basis, dtype=object))
    return [v - m if v > half else v for v in lifted]


def _row_bound(arr: np.ndarray) -> int:
    # rho, the largest absolute row sum, bounds every |eigenvalue|, and
    # rho^k bounds every absolute row sum of A^k.
    return int(np.abs(arr).sum(axis=1).max())


# ---------------------------------------------------------------------------
# Characteristic polynomial and the gcd-based distinct count
# ---------------------------------------------------------------------------


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - A), ascending coefficients,
    by the Faddeev-LeVerrier recurrence over Python ints; each trace
    division is exact."""
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


def _krylov_mod(arr: np.ndarray, p: int, start: np.ndarray) -> tuple[int, np.ndarray | None]:
    """Rank d over F_p of the Krylov matrix [s, As, ..., A^(n-1) s] of a
    _guarded_array matrix and an int64 start vector s, and the residues mod p
    (ascending, monic) of the q of degree d with q(A) s = 0 mod p; None in
    place of q when d = n.

    Krylov columns are made in blocks (8, then doubling) and eliminated in
    order, each carrying the combination of columns it stands for, so the
    first column that reduces to zero gives q.  Once one column depends on
    the earlier ones every later column does too, so d is the rank mod p of
    the whole Krylov matrix, and at most its rank over the rationals.
    """
    n = len(arr)
    # Row t: Krylov column t mod p (n entries), then the combination of
    # columns that it stands for (n entries, at first the unit vector of t).
    pivots: list[int] = []
    done = np.zeros((0, 2 * n), dtype=np.int64)
    w = start % p
    t = 0
    while t < n:
        size = min(max(8, t), n - t)
        block = np.zeros((size, 2 * n), dtype=np.int64)
        for i in range(size):
            block[i, :n] = w
            w = arr @ w % p
        block[range(size), range(n + t, n + t + size)] = 1
        for c, row in zip(pivots, done):
            block -= block[:, c, None] * row
            block %= p
        for i in range(size):
            row, rest = block[i], block[i + 1:]
            nz = row[:n].nonzero()[0]
            if not nz.size:
                return t + i, row[n:n + t + i + 1]
            c = nz[0]
            row *= pow(int(row[c]), -1, p)
            row %= p
            rest -= rest[:, c, None] * row
            rest %= p
            pivots.append(c)
        done = np.concatenate([done, block])
        t += size
    return n, None


def rank_exact(m: IntMatrix | np.ndarray) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    A 2-D int64 array is read with one tolist(); lists and other arrays are
    copied entry by entry and checked for ragged rows; the elimination works
    in place on that copy, never on the input.  Rows below a pivot change
    right of its column only, and a row with 0 under it is just rescaled by
    piv / prev (exactly), or left as it is when piv == prev.
    """
    if isinstance(m, np.ndarray) and (m.ndim != 2 or not m.size):
        raise ValueError("matrix must be 2-D and nonempty")
    if isinstance(m, np.ndarray) and m.dtype == np.int64:
        a = m.tolist()
    else:
        if not len(m) or not len(m[0]):
            raise ValueError("matrix must be nonempty")
        a = [[int(x) for x in row] for row in m]
        if any(len(row) != len(a[0]) for row in a):
            raise ValueError("ragged matrix")
    n_rows, n_cols = len(a), len(a[0])
    prev = 1
    pr = 0
    for pc in range(n_cols):
        for i in range(pr, n_rows):
            if a[i][pc]:
                break
        else:
            continue
        row_p = a[i]
        a[i], a[pr] = a[pr], row_p
        piv = row_p[pc]
        cols = range(pc + 1, n_cols)
        for i in range(pr + 1, n_rows):
            row_i = a[i]
            f = row_i[pc]
            if f:
                for j in cols:
                    row_i[j] = (piv * row_i[j] - f * row_p[j]) // prev
            elif piv != prev:
                for j in cols:
                    row_i[j] = piv * row_i[j] // prev
        prev = piv
        pr += 1
        if pr == n_rows:
            break
    return pr


# ---------------------------------------------------------------------------
# Power stack: the exact kernel for small graphs
# ---------------------------------------------------------------------------

# main_profile decides from the int64 power stack up to this many vertices.
# Past it the annihilator path is faster on all-main multipartite matrices
# (about 106 against 94 us at n = 11 on a 2-core x86 VM, 89 against 93 at
# n = 10), and the stack's n^3 entries keep growing.
_STACK_MAX_N = 10


def _int64_stack(n: int, rho: int) -> bool:
    """Whether the power stack of an n x n matrix with largest absolute row
    sum rho, its walk entries (A^k s)_v for |s_v| <= 1 and its traces
    tr(A^i A^j) (i, j < n) all fit int64.

    Entries of A^k are bounded by rho^k, and rho^k bounds every absolute
    row sum of A^k, so each of these (and each partial sum on the way) is
    bounded by n rho^(2n-2).
    """
    return n * rho ** (2 * n - 2) < 2 ** 63


def _power_stack(arr: np.ndarray, rho: int) -> np.ndarray:
    """A^0, A^1, ..., A^(n-1) of the int64 matrix arr, whose largest
    absolute row sum is rho (_row_bound), as one (n, n, n) array: int64 when
    _int64_stack allows, else Python ints.  Each power is written in place."""
    n = len(arr)
    if not _int64_stack(n, rho):
        arr = arr.astype(object)
    powers = np.empty((n, n, n), dtype=arr.dtype)
    powers[0] = 0
    powers[0].flat[::n + 1] = 1
    for k in range(1, n):
        np.matmul(powers[k - 1], arr, out=powers[k])
    return powers


def _distinct_count(powers: np.ndarray) -> int:
    """Distinct eigenvalue count d of symmetric A from any leading block
    A^0, ..., A^(k-1) of its power stack with k >= d: the rank of the
    Hankel matrix H_ij = tr(A^(i+j)), i, j < k.

    With A = sum_l lambda_l P_l over its d distinct eigenvalues, H = V^T M V
    for the d x k Vandermonde V_lj = lambda_l^j and the positive diagonal M
    of multiplicities, so rank H = rank V = min(d, k); k = n always
    suffices.  As A^j is symmetric, tr(A^i A^j) is the sum of the entrywise
    product of A^i and A^j: H is the Gram matrix of the flattened powers.
    """
    flat = powers.reshape(len(powers), -1)
    return rank_exact(np.matmul(flat, flat.T))


# ---------------------------------------------------------------------------
# Annihilating polynomial
# ---------------------------------------------------------------------------


def _annihilator(arr: np.ndarray, rho: int, start: np.ndarray) -> tuple[int, IntPoly | None]:
    """Rank d mod _RANK_PRIME of the Krylov matrix of a _guarded_array matrix
    and a start vector s, and a monic candidate q of degree d for
    q(A) s = 0 over the integers (None when d = n or the lift fails).

    q is the Krylov dependency mod p, lifted by CRT over as many table primes
    as the bound 2 (1+rho)^d needs.  That bound covers the coefficients of
    any product of x - lambda over d eigenvalues, which q is when d is the
    Krylov rank of s over the rationals: q is then the minimal polynomial of
    s.  A degree that differs between primes gives no candidate; any other
    wrong lift is left to _vanishes to reject.
    """
    d, q = _krylov_mod(arr, _RANK_PRIME, start)
    k = None if q is None else _prime_count(2 * (1 + rho) ** d)
    if k is None:
        return d, None
    residues = [q]
    for p in _PRIMES[1:k]:  # _RANK_PRIME is the first
        dp, qp = _krylov_mod(arr, p, start)
        if dp != d:
            return d, None
        residues.append(qp)
    return d, _crt_lift(np.stack(residues, axis=1), k)


def _vanishes(arr: np.ndarray, rho: int, q: IntPoly) -> tuple[bool, bool]:
    """Whether q(A) = 0 and whether q(A) j = 0, exactly, by one Horner
    evaluation of q(A) in float64.

    With r = max(rho, 1), every Horner value sum_{k>=i} q_k A^(k-i), every
    partial row . column sum on the way to it and every partial row sum of
    q(A) j is an integer of absolute value at most sum |q_k| r^k, half the
    bound below.  When the bound is below 2^53 all of them are exact in
    whatever order the sums are taken, so q(A) is evaluated directly.  Above
    it each step is reduced modulo primes whose product exceeds the bound,
    all primes in one matrix product per step (exact by the ranges argued at
    _LIMIT), and q(A) j mod p is the row sums of the residues.  The bound
    comes from q's own coefficients: a candidate that agrees with a true
    annihilator modulo the lift primes alone still fails.
    """
    bound = 2 * sum(abs(c) * max(rho, 1) ** i for i, c in enumerate(q))
    reduce = bound >= 2 ** 53
    k = _prime_count(bound) if reduce else 1
    if k is None:
        return False, False
    n = len(arr)
    pf = np.array(_PRIMES[:k], dtype=np.float64)[:, None]
    coeffs = np.array([[c % p for p in _PRIMES[:k]] for c in q] if reduce else q,
                      dtype=np.float64).reshape(len(q), k)
    af = arr.astype(np.float64)
    b = np.zeros((n, k, n))
    x = np.empty_like(b)
    b_cols, x_cols = b.reshape(n, k * n), x.reshape(n, k * n)
    diagonals = np.einsum("iji->ij", b)  # where each step adds q_i I
    diagonals += coeffs[-1]
    for c in coeffs[-2::-1]:
        np.matmul(af, b_cols, out=x_cols)
        if reduce:
            np.floor(np.divide(x, pf, out=b), out=b)
            np.subtract(x, np.multiply(b, pf, out=b), out=b)
        else:
            b[...] = x
        diagonals += c
    if reduce:
        np.remainder(b, pf, out=b)
    if not b.any():
        return True, True
    rows = b.sum(axis=2)
    return False, not (np.remainder(rows, pf.T) if reduce else rows).any()


# ---------------------------------------------------------------------------
# The decision procedure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MainProfile:
    """Exact main-eigenvalue bookkeeping for one signed adjacency matrix."""

    main_count: int
    distinct_count: int
    all_main: bool


def _stack_profile(powers: np.ndarray) -> MainProfile:
    """The profile of symmetric A from its power stack: the main count is
    the rank of the walk columns A^k j (the row sums of each power), and the
    distinct count is needed only when that is short of n."""
    n = len(powers)
    mc = rank_exact(powers.sum(axis=2))
    dc = n if mc == n else _distinct_count(powers)
    return MainProfile(main_count=mc, distinct_count=dc, all_main=mc == dc)


def _certified_profile(arr: np.ndarray, rho: int) -> MainProfile | None:
    """The profile of a symmetric _guarded_array matrix from annihilating
    polynomials, or None when a certificate fails.

    From j: d = n, or q(A) = 0, puts every eigenvalue among the d roots of
    q, so the matrix is all-main with d of each (d <= main <= distinct
    always); q(A) j = 0 alone makes d the main count.  From v = (1, 2, ...,
    n): d_v = n, or q_v(A) = 0, makes d_v the distinct count.  v has pairwise
    distinct entries, so no twin eigenvector e_u - e_w is orthogonal to it.
    """
    n = len(arr)
    mc, q = _annihilator(arr, rho, np.ones(n, dtype=np.int64))
    if mc == n:
        return MainProfile(main_count=n, distinct_count=n, all_main=True)
    whole, on_j = (False, False) if q is None else _vanishes(arr, rho, q)
    if whole:
        return MainProfile(main_count=mc, distinct_count=mc, all_main=True)
    if not on_j:
        return None
    dc, q = _annihilator(arr, rho, np.arange(1, n + 1, dtype=np.int64))
    if dc < n and (q is None or not _vanishes(arr, rho, q)[0]):
        return None
    return MainProfile(main_count=mc, distinct_count=dc, all_main=mc == dc)


def main_profile(a: IntMatrix | np.ndarray) -> MainProfile:
    """Exact decision: main_count = rank of the walk matrix, distinct_count
    = number of distinct eigenvalues.

    The input is converted once, to the guarded int64 array that serves the
    symmetry check and every later step (a square int64 array is used as it
    is, and never written to); a matrix with n or an absolute row sum of 2^20
    or more raises ValueError.  A matrix of at most 10 vertices
    whose power stack A^0, ..., A^(n-1) fits int64 is decided from that
    stack: the main count is the Bareiss rank of the walk columns A^k j, and
    when it is short of n the distinct count is the rank of the Hankel
    matrix of power traces.  Every other matrix is decided by annihilating
    polynomials, each checked by one exact evaluation of q(A): from j for
    the main count and from v = (1, 2, ..., n) for the distinct count.  A
    matrix that these leave open is decided from its power stack, in Python
    ints when it does not fit int64.

    This is the authoritative accept/reject for every certificate; the float
    classifier is advisory only.
    """
    arr, rho = _guarded_array(a)
    if not (arr == arr.T).all():
        raise ValueError("main_profile requires a symmetric matrix")
    n = len(arr)
    if n > _STACK_MAX_N or not _int64_stack(n, rho):
        profile = _certified_profile(arr, rho)
        if profile is not None:
            return profile
    return _stack_profile(_power_stack(arr, rho))
