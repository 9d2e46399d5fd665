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
   degree d.  Lifted to its symmetric residues modulo that prime alone, it
   is checked by one exact evaluation of q(A) (Wiedemann, IEEE Trans. Inf.
   Theory 1986) when 2 (1+rho)^d asks for one prime or when that check is
   direct: 2 sum |q_i| rho^i below 2^53, so that every partial sum on one
   float64 array is an exact integer (above it, the evaluation runs modulo
   table primes whose product exceeds that bound).  Otherwise the
   dependency is lifted one table prime at a time, by CRT, and each
   candidate is checked exactly on its start vector alone, d products with
   a vector, after a residue test modulo one prime outside the lift.  The
   first q with q(A) s = 0 is the minimal polynomial of s: a Krylov rank
   modulo a prime is at most the rank over the rationals, which is at most
   the distinct count, and q(A) = 0 bounds the distinct count by d from
   above.  From s = j, d = n or q(A) = 0 proves the matrix all-main, and
   q(A) j = 0 alone makes d the main count; the distinct count then comes
   the same way from s = v = (1, 2, ..., n).  q(A) is evaluated whole only
   for a q with q(A) s = 0, and from j only when q(A) v = 0 as well.
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

Matrices are plain lists of rows of Python ints, or 2-D int64 arrays, read
by _int_rows, which rejects a float entry (even 1.0), a string or None:
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
import operator
from dataclasses import dataclass

import numpy as np

IntMatrix = list[list[int]]
IntPoly = list[int]

__all__ = [
    "MainProfile",
    "char_poly",
    "distinct_eigenvalue_count",
    "main_profile",
    "rank_exact",
    "walk_matrix",
]


def _int_rows(a: IntMatrix | np.ndarray, square: bool = True) -> IntMatrix | np.ndarray:
    """A nonempty (and, with square, square) integer matrix: a 2-D int64
    array as it is, anything else as a fresh list of rows of Python ints.

    Other integer and bool arrays are integral by their dtype and read with
    tolist(), which is exact; every other entry is read with operator.index,
    which takes Python ints of any size, Python bools and numpy integer
    scalars and rejects a float (even 1.0), a string or None.
    """
    if isinstance(a, np.ndarray) and a.dtype.kind in "biu":
        shape, rows = a.shape, (a if a.dtype == np.int64 else a.tolist())
    else:
        try:
            rows = [[operator.index(x) for x in row] for row in a]
        except TypeError:
            raise ValueError("matrix entries must be integers") from None
        shape = (len(rows), len(rows[0]) if rows else 0)
        if any(len(row) != shape[1] for row in rows):
            raise ValueError("ragged matrix")
    if len(shape) != 2 or 0 in shape or (square and shape[0] != shape[1]):
        raise ValueError(f"matrix must be 2-D, nonempty{' and square' * square}")
    return rows


# ---------------------------------------------------------------------------
# The int64 guard, the prime table and CRT
# ---------------------------------------------------------------------------

# main_profile decides only matrices whose n and largest absolute row sum rho
# are below _LIMIT; no signed graph comes near it.  Every table prime p lies
# in (_LIMIT, 2^31), so p^2 < 2^63 (int64 residue products).  _vanishes
# computes q(A) B directly in float64 when its bound is below 2^53, and
# modulo these primes above it: there it reduces x to x - floor(x / p) p in
# float64, which lands in [-p, 2p) because the computed quotient is off by
# at most one; adding q_i B mod p gives entries in [-p, 3p), so a row .
# column product is below 3 rho p < 2^53, exact in float64, and so is a row
# sum of residues in [0, p), below n p.
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

    The input is read by _int_rows: a square, nonempty 2-D int64 array is
    taken as it is, without a copy.  Raises ValueError unless n and every
    absolute row sum are below _LIMIT, the range in which the modular steps
    are exact.
    """
    rows = _int_rows(a)
    try:
        arr = np.asarray(rows, dtype=np.int64)
    except OverflowError:  # an entry past int64
        arr = None
    inside = arr is not None and len(rows) < _LIMIT and -_LIMIT < arr.min() and arr.max() < _LIMIT
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
    the rows of residues (shape (count, k)); for one prime, the symmetric
    residues themselves."""
    if k == 1:
        p = _PRIMES[0]
        return [v - p if v > p // 2 else v for v in residues[:, 0].tolist()]
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
    A = np.array(_int_rows(a), dtype=object)
    n = len(A)
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


def _primitive(p: IntPoly) -> IntPoly:
    """p without trailing zeros, divided by its content, with a positive
    leading coefficient; [] for the zero polynomial."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    c = math.gcd(*p)
    return [x // c for x in p] if p and p[-1] > 0 else [-x // c for x in p]


def distinct_eigenvalue_count(p: IntPoly) -> int:
    """Number of distinct roots of a characteristic polynomial of a symmetric
    integer matrix: deg p - deg gcd(p, p'), the gcd by the primitive
    pseudo-remainder sequence (each remainder divided by its content)."""
    a = _primitive(p)
    if not a:
        raise ValueError("zero polynomial")
    if len(a) == 1:
        raise ValueError("constant polynomial has no eigenvalues")
    degree = len(a) - 1
    b = _primitive([i * c for i, c in enumerate(a)][1:])
    while b:
        r, lb = a, b[-1]
        while len(r) >= len(b):
            # Cancel r's leading term against b; that coefficient is 0.
            lr, shift = r[-1], len(r) - len(b)
            r = [lb * c for c in r[:-1]]
            for i, bc in enumerate(b[:-1]):
                r[shift + i] -= lr * bc
            while r and not r[-1]:
                r.pop()
        a, b = b, _primitive(r)
    return degree - (len(a) - 1)


# ---------------------------------------------------------------------------
# Walk matrix and exact rank
# ---------------------------------------------------------------------------


def walk_matrix(a: IntMatrix, start: list[int] | None = None) -> IntMatrix:
    """Columns s, As, A^2 s, ..., A^{n-1} s; s is the all-ones vector j
    unless a start vector is given.

    Switching about X conjugates A by D = diag(s), s_v = -1 exactly on X, so
    the walk matrix of DAD is D walk_matrix(A, s): both have the same rank.
    """
    A = np.array(_int_rows(a), dtype=object)
    n = len(A)
    if start is not None:  # read as a one-row matrix
        start = _int_rows(start[None] if isinstance(start, np.ndarray) else [start],
                          square=False)[0]
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

    The input is read by _int_rows, a 2-D int64 array with one tolist();
    the elimination works in place on that copy, never on the input.  Rows
    below a pivot change right of its column only, and a row with 0 under
    it is just rescaled by piv / prev (exactly), or left as it is when
    piv == prev.
    """
    a = _int_rows(m, square=False)
    if isinstance(a, np.ndarray):
        a = a.tolist()
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
# Past it the annihilator path is faster on all-main multipartite matrices,
# and the stack's n^3 entries keep growing: at n = 11 about 81 against
# 1,100 us (n rho^(2n-2) passes 2^63 there for most shapes, so the stack is
# built in Python ints).  At n = 10 the annihilator path is faster on those
# matrices too (about 77 against 104 us), but on random signed graphs, most
# of them not all-main, the stack is (91 against 206 us), as at n = 9 (70
# against 157 us).  Process CPU per matrix, best of 10-15 passes, on a
# 2-core x86 VM with one BLAS thread.
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


def _horner_bound(rho: int, q: IntPoly) -> int:
    """2 sum |q_i| r^i with r = max(rho, 1): the bound of _vanishes on the
    identity block."""
    r, bound = max(rho, 1), 0
    for c in reversed(q):
        bound = bound * r + abs(c)
    return 2 * bound


def _annihilator(arr: np.ndarray, rho: int,
                 start: np.ndarray) -> tuple[int, IntPoly | None, tuple[bool, bool]]:
    """Rank d mod _RANK_PRIME of the Krylov matrix of a _guarded_array matrix
    and a start vector s, a monic candidate q of degree d for q(A) s = 0 over
    the integers, and whether q(A) = 0 and whether q(A) j = 0.  q is None,
    and both false, when d = n or no candidate is found.

    q is the Krylov dependency mod p, lifted first over _RANK_PRIME alone.
    When the bound 2 (1+rho)^d asks for one table prime, or the candidate's
    own check is the plain float64 Horner, _vanishes evaluates q(A) on it,
    and a candidate that passes either check stands (any candidate does
    when the bound asks for one prime).  Otherwise the dependency is lifted
    one table prime at a time, by CRT, up to the primes the bound asks for
    (the whole table when it asks for more), and each candidate is checked
    on its start vector alone (_kills); a degree that differs between primes
    gives no candidate.  The first q with q(A) s = 0 is the minimal
    polynomial of s, whatever number of primes it took, as d is at most the
    Krylov rank of s over the rationals; the bound, which covers the
    coefficients of any product of x - lambda over d eigenvalues, only ends
    the loop.  _vanishes then evaluates q(A), except that from s = j a q
    with q(A) v != 0, v = (1, 2, ..., n), already has q(A) != 0.
    """
    d, q = _krylov_mod(arr, _RANK_PRIME, start)
    if q is None:
        return d, None, (False, False)
    lifted = _crt_lift(q[:, None], 1)
    k = _prime_count(2 * (1 + rho) ** d)
    if k == 1 or _horner_bound(rho, lifted) < 2 ** 53:
        checks = _vanishes(arr, rho, lifted)
        if any(checks) or k == 1:
            return d, lifted, checks
    residues = [q]
    for p in _PRIMES[1:k]:  # _RANK_PRIME is the first; all of them when k is None
        dp, qp = _krylov_mod(arr, p, start)
        if dp != d:
            break
        residues.append(qp)
        lifted = _crt_lift(np.stack(residues, axis=1), len(residues))
        if _kills(arr, rho, lifted, start):
            v = np.arange(1, len(arr) + 1, dtype=np.int64)
            if (start == 1).all() and not _kills(arr, rho, lifted, v):
                return d, lifted, (False, True)
            return d, lifted, _vanishes(arr, rho, lifted)
    return d, None, (False, False)


def _kills(arr: np.ndarray, rho: int, q: IntPoly, s: np.ndarray) -> bool:
    """Whether q(A) s = 0, exactly, for an int64 vector s.

    q(A) s is first reduced modulo the last table prime alone, outside every
    lift short of the whole table; a nonzero residue settles it.  A
    candidate lifted over too few primes agrees with the true q modulo each
    of them, but its coefficients run up to half their product, so that its
    exact check would need many more primes.
    """
    block = s[:, None]
    if _residues(arr.astype(np.float64), q, block, _PRIMES[-1:]).any():
        return False
    return _vanishes(arr, rho, q, block)[0]


def _vanishes(arr: np.ndarray, rho: int, q: IntPoly,
              block: np.ndarray | None = None) -> tuple[bool, bool]:
    """Whether q(A) B = 0 and whether q(A) B j = 0, exactly, for a
    _guarded_array matrix, q of degree at least 1 and B the identity (block
    None) or an int64 block of columns with entries below _LIMIT, by
    Horner's rule.

    With r = max(rho, 1) and beta the largest absolute row sum of B (1 for
    the identity), every Horner value sum_{k>=i} q_k A^(k-i) B, every
    partial row . column sum on the way to it and every partial row sum of
    q(A) B is an integer of absolute value at most beta sum |q_k| r^k, half
    the bound below.  When the bound is below 2^53 all of them are exact in
    whatever order the sums are taken, so q(A) B is evaluated directly on
    one float64 array; for the identity each step adds its coefficient to
    the diagonal in place.  Above it q(A) B is evaluated modulo primes whose
    product exceeds the bound (_residues), and q(A) B j mod p is the row
    sums of the residues.  The bound comes from q's own coefficients: a
    candidate that agrees with a true annihilator modulo the lift primes
    alone still fails.
    """
    n, af = len(arr), arr.astype(np.float64)
    bound = _horner_bound(rho, q) * (1 if block is None else _row_bound(block))
    if bound < 2 ** 53:
        if block is None:  # q_d A + q_(d-1) I, with no product
            b = af * q[-1]
            b.reshape(-1)[::n + 1] += q[-2]
            rest = q[-3::-1]
        else:
            bf = block.astype(np.float64)
            b, rest = bf * q[-1], q[-2::-1]
        x = np.empty_like(b)
        for c in rest:
            np.matmul(af, b, out=x)
            if block is None:
                x.reshape(-1)[::n + 1] += c
            else:
                x += c * bf
            b, x = x, b
        return (True, True) if not b.any() else (False, not b.sum(axis=1).any())
    k = _prime_count(bound)
    if k is None:
        return False, False
    b = _residues(af, q, block, _PRIMES[:k])
    if not b.any():
        return True, True
    return False, not np.remainder(b.sum(axis=2), np.array(_PRIMES[:k], dtype=np.float64)).any()


def _residues(af: np.ndarray, q: IntPoly, block: np.ndarray | None,
              primes: tuple[int, ...]) -> np.ndarray:
    """q(A) B modulo each of primes, as an (n, len(primes), columns) float64
    array of residues in [0, p); B is the identity when block is None.

    Every Horner step is one matrix product for all primes, reduced to
    x - floor(x / p) p, and then adds q_i B mod p (for the identity, q_i mod
    p on the diagonal): exact by the ranges argued at _LIMIT, and (q_i mod
    p) B is below 2^51 for entries of B below _LIMIT.
    """
    n, k = len(af), len(primes)
    pf = np.array(primes, dtype=np.float64)[:, None]
    coeffs = np.array([[c % p for p in primes] for c in q], dtype=np.float64)
    cols = n if block is None else block.shape[1]
    b = np.zeros((n, k, cols))
    x = np.empty_like(b)
    b_cols, x_cols = b.reshape(n, k * cols), x.reshape(n, k * cols)
    if block is None:
        target, terms = np.einsum("iji->ij", b), coeffs  # where each step adds q_i I
    else:
        terms = np.remainder(coeffs[:, None, :, None] * block[None, :, None, :], pf)
        target = b
    target += terms[-1]
    for t in terms[-2::-1]:
        np.matmul(af, b_cols, out=x_cols)
        np.floor(np.divide(x, pf, out=b), out=b)
        np.subtract(x, np.multiply(b, pf, out=b), out=b)
        target += t
    return np.remainder(b, pf, out=b)


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
    mc, _, (whole, on_j) = _annihilator(arr, rho, np.ones(n, dtype=np.int64))
    if mc == n or whole:
        return MainProfile(main_count=mc, distinct_count=mc, all_main=True)
    if not on_j:
        return None
    dc, _, (whole, _) = _annihilator(arr, rho, np.arange(1, n + 1, dtype=np.int64))
    if dc < n and not whole:
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
    polynomials, each checked exactly, on its start vector or as q(A): from
    j for the main count and from v = (1, 2, ..., n) for the distinct
    count.  A matrix that these leave open is decided from its power stack,
    in Python ints when it does not fit int64.

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
