"""The paper's clique-with-pendants theorem for every n and r: switching
S_{n,r} about {v1, vn} makes every eigenvalue main, for all r >= 1 and
n >= r+3.

The proof goes through the signed quotient B of conftest.snr_quotient.  Its
cells form an equitable partition of the switched graph: A P = P B for the
cell indicator matrix P.  So A^k j = P B^k 1, and the main count of the
switched graph is the rank of K = [1, B1, ..., B^(k-1)1], k the number of
cells.  Every other eigenvector sums to zero on each cell.  Those come from
twins: 0 on the pendants v2..vr (they see only the hub) and -1 on the clique
vertices v_{r+2}..v_{n-1}.  Where det(xI - B) has these roots, every
eigenvalue of the switched graph is one of B's, at most k distinct, and
det K != 0 makes k of them main: the switching is all-main.

Both facts are polynomial identities in (n, r).  Each entry of B has degree
at most 1, so the coefficient of x^(k-i) in det(xI - B), a sum of i x i
minors, has degree at most 5, and column i of K has degree at most i, so
det K has degree at most 0 + 1 + 2 + 3 + 4 = 10.  conftest.on_grid turns
exact values on an 11 x 11 grid into identities for every (n, r).  The
integer factor f of det K then has no zero at any valid pair.
"""

import numpy as np
import pytest

from mainswitch import SnrParams, main_profile, make_snr
from mainswitch.graphs import _adjacency_array, _switched_array
from conftest import (faddeev_leverrier_char_poly, fraction_det, fraction_rank, krylov_oracle,
                      on_grid, poly_mul, snr_cubic, snr_f, snr_quotient)

GRID_N = range(11)
# r = 1 has a quotient of its own, with four cells: the five-cell rows are
# checked as polynomials on r = 2..12 and the four-cell rows on the line r = 1.
GRID_R = range(2, 13)
LINE_R1 = range(1, 2)


def _krylov_det(n, r):
    return fraction_det(krylov_oracle(snr_quotient(n, r)))


def _det_identity_holds(f):
    """Whether det K = -4 r (n-r-2) f(n-r-3, r-2) on the grid, and so, for a
    polynomial f of degree at most 8, for every (n, r)."""
    return on_grid(lambda n, r: _krylov_det(n, r) == -4 * r * (n - r - 2) * f(n - r - 3, r - 2),
                   GRID_N, GRID_R)


def test_quotient_char_poly_has_the_twin_roots_and_the_cubic():
    # det(xI - B) = x (x+1) cubic for r >= 2, and (x+1) cubic for r = 1,
    # where no pendant twin exists: 0 and -1 are always eigenvalues of B,
    # and the cubic is the paper's.
    assert on_grid(lambda n, r: faddeev_leverrier_char_poly(snr_quotient(n, r))
                   == poly_mul([0, 1, 1], snr_cubic(n, r)), GRID_N, GRID_R)
    assert on_grid(lambda n, r: faddeev_leverrier_char_poly(snr_quotient(n, r))
                   == poly_mul([1, 1], snr_cubic(n, r)), GRID_N, LINE_R1)


def test_krylov_determinant_factors():
    assert _det_identity_holds(snr_f)
    # r = 1: det K has degree at most 0 + 1 + 2 + 3 = 6 in n, and n^2 = 12
    # has no integer root, so it is nonzero for every n >= 4.
    assert on_grid(lambda n, r: _krylov_det(n, r) == -2 * (n - 3) * (n * n - 12),
                   GRID_N, LINE_R1)


def test_grid_check_rejects_a_perturbed_identity():
    # The negative control: constant term 5 in place of 4, or a cubic with
    # its constant term moved, fails somewhere on the grid.
    assert not _det_identity_holds(lambda m, s: snr_f(m, s) + 1)
    assert not on_grid(lambda n, r: faddeev_leverrier_char_poly(snr_quotient(n, r))
                       == poly_mul([0, 1, 1], [snr_cubic(n, r)[0] + 1] + snr_cubic(n, r)[1:]),
                       GRID_N, GRID_R)


def test_the_factor_has_no_zero_at_a_valid_pair():
    # Valid pairs are s = r-2 >= 0 and m = n-r-3 >= 0; r (n-r-2) is then
    # positive, so det K != 0 exactly when f(m, s) != 0.
    grid = range(11)
    # s = 0: f is the constant 4 (degree 3 in m).
    assert all(snr_f(m, 0) == 4 for m in grid)
    # s = 1 and s = 2: f is a cubic in m with a nonzero constant term c.  A
    # non-negative integer root divides c (rational roots), so the positive
    # divisors of c are the only candidates.
    for s in (1, 2):
        c = snr_f(0, s)
        assert c != 0
        assert all(snr_f(m, s) != 0 for m in range(1, abs(c) + 1) if c % m == 0), s
    # s >= 3: f = -m^3 s^2 + 3 m^2 s (2-s) + 6 m s (1-s) + g(s), as an identity
    # of degree 5.  The first three terms are <= 0 for m >= 0 and s >= 2, and
    # g(s) = -2 s^3 + 10 s + 4 = -2 s (s^2 - 5) + 4 <= -2 * 3 * 4 + 4 < 0 for
    # s >= 3, as s^2 - 5 >= 4 there.
    def g(s):
        return -2 * s ** 3 + 10 * s + 4

    assert on_grid(lambda m, s: snr_f(m, s) == (-m ** 3 * s ** 2 + 3 * m ** 2 * s * (2 - s)
                                                + 6 * m * s * (1 - s) + g(s)), grid, grid)
    assert all(g(s) == -2 * s * (s * s - 5) + 4 for s in grid)
    assert all(snr_f(m, s) < 0 for m in grid for s in range(3, 40))


@pytest.mark.parametrize("n, r", [(4, 1), (8, 3), (8, 4), (12, 4)])
def test_quotient_agrees_with_the_exact_profile(n, r):
    # The cells are equitable, A P = P B, and main_profile of S_{n,r}
    # switched about {v1, vn} is the quotient's: the main count is rank K,
    # and the distinct count is the degree of B's minimal polynomial (B is
    # similar to a symmetric matrix), the rank of its first k powers.
    b = snr_quotient(n, r)
    a = _switched_array(_adjacency_array(make_snr(SnrParams(n, r))), {1, n})
    cells = [c for c in (range(1, 2), range(2, r + 1), range(r + 1, r + 2), range(r + 2, n),
                         range(n, n + 1)) if c]
    p = np.array([[v in c for c in cells] for v in range(1, n + 1)], dtype=np.int64)
    assert (a @ p == p @ np.array(b)).all()
    profile = main_profile(a)
    powers = [np.linalg.matrix_power(np.array(b, dtype=object), k).flatten().tolist()
              for k in range(len(b))]
    assert profile.main_count == fraction_rank(krylov_oracle(b)) == len(b)
    assert profile.distinct_count == fraction_rank(powers) == len(b)
    assert profile.all_main


def test_a_cubic_root_is_one_only_at_8_3_and_8_4():
    # The cubic at 1 is (r-2)(n-r-3) - 2, so a valid pair has the root 1
    # exactly when (r-2, n-r-3) is (1, 2) or (2, 1).  The agreement test
    # above takes both.
    assert on_grid(lambda n, r: sum(snr_cubic(n, r)) == (r - 2) * (n - r - 3) - 2, GRID_N, GRID_R)
    assert {(n, r) for r in range(1, 20) for n in range(r + 3, r + 20)
            if sum(snr_cubic(n, r)) == 0} == {(8, 3), (8, 4)}


def test_sympy_agrees_with_the_grid_identities():
    sympy = pytest.importorskip("sympy")
    n, r, x = sympy.symbols("n r x")
    for rr, twin_roots, det in ((r, x * (x + 1), -4 * r * (n - r - 2) * snr_f(n - r - 3, r - 2)),
                                (1, x + 1, -2 * (n - 3) * (n * n - 12))):
        b = sympy.Matrix(snr_quotient(n, rr))
        cubic = sum(c * x ** i for i, c in enumerate(snr_cubic(n, rr)))
        assert sympy.expand(b.charpoly(x).as_expr() - twin_roots * cubic) == 0
        assert sympy.expand(sympy.Matrix(krylov_oracle(b.tolist())).det() - det) == 0
