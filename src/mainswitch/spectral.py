"""Floating-point spectral engine.

LAPACK's symmetric eigensolver (numpy.linalg.eigh) provides orthonormal
bases per eigenspace, which the main-eigenvalue classifier needs: an
eigenvalue group is main when the projection of the all-ones vector onto its
eigenspace has norm above a threshold.  The classifier is advisory; for
integer inputs the exact module is authoritative, and the ``spectrum``
command checks its group and main counts against ``exact.main_profile``.
The eigensolver and the classifier serve that command only: the
constructions decide with the exact module alone.

Closed-form spectra for the two graph families live here as well: the cubic
for the clique-with-pendants family and the secular equation
sum_i m_i/(x + t_i) = 1 for complete multipartite graphs.  Both are the
spectra of small symmetrised quotient matrices, taken from
numpy.linalg.eigvalsh; each secular root is then polished by Newton steps
that stay between its two poles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import MultipartiteParams, _snr_range

__all__ = [
    "EigenSystem",
    "MultipartiteSpectrum",
    "SnrSpectrum",
    "SpectrumGroup",
    "SpectrumReport",
    "classify_main",
    "eigen_sym",
    "multipartite_secular_roots",
    "multipartite_spectrum",
    "snr_cubic_roots",
    "snr_spectrum",
]


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues with an orthonormal column system."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual_bound: float


def eigen_sym(a) -> EigenSystem:
    """Eigendecomposition of a real symmetric matrix by LAPACK
    (numpy.linalg.eigh), eigenvalues ascending.

    A is divided by its largest absolute entry first, so that entries far
    from 1 neither overflow nor underflow; the eigenvalues and
    ``residual_bound``, max_k ||A v_k - w_k v_k||_2 on the scaled matrix,
    are scaled back.  Raises on a non-finite entry and on non-symmetric
    input (asymmetry above 1e-12 times the largest absolute entry), and on
    an entry that is not a real number: float conversion would read a
    string or bytes, take None as NaN and drop an imaginary part.
    """
    A = np.asarray(a)
    if A.dtype.kind not in "biufO" or A.dtype.kind == "O" and any(
            x is None or isinstance(x, (str, bytes, complex)) for x in A.flat):
        raise ValueError("matrix entries must be real numbers")
    try:
        A = A.astype(float)
    except OverflowError:  # an int past the float range, inf as a float
        raise ValueError("matrix has a non-finite entry") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(A).all():
        raise ValueError("matrix has a non-finite entry")
    scale = float(np.max(np.abs(A))) or 1.0
    A = A / scale
    if np.max(np.abs(A - A.T), initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric")
    w, V = np.linalg.eigh(A)
    residual = float(np.max(np.linalg.norm(A @ V - V * w, axis=0), initial=0.0))
    return EigenSystem(eigenvalues=w * scale, vectors=V, residual_bound=residual * scale)


@dataclass(frozen=True)
class SpectrumGroup:
    value: float
    multiplicity: int
    is_main: bool
    main_mass: float


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues grouped into eigenspaces with a main flag per group."""

    groups: tuple[SpectrumGroup, ...]
    n: int


def classify_main(es: EigenSystem, group_eps: float | None = None,
                  main_eps: float | None = None) -> SpectrumReport:
    """Split ascending eigenvalues into eigenspace groups where a gap exceeds
    group_eps (default 1e-8 * max(1, spectral radius)), and flag each group
    as main when ||Q^T j||_2 exceeds main_eps (default 1e-8 * sqrt(n)); both
    must be finite and positive.  The projection norm does not depend on
    the basis chosen inside the eigenspace, so the flags are basis-invariant.
    """
    w = es.eigenvalues
    n = len(w)
    if group_eps is None:
        group_eps = 1e-8 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    if main_eps is None:
        main_eps = 1e-8 * math.sqrt(n)
    if not (0 < group_eps < math.inf and 0 < main_eps < math.inf):
        raise ValueError("tolerances must be positive and finite")
    cuts = [0, *(np.flatnonzero(np.diff(w) > group_eps) + 1).tolist(), n]
    j = np.ones(n)
    groups: list[SpectrumGroup] = []
    for lo, hi in zip(cuts, cuts[1:]):
        mass = float(np.linalg.norm(es.vectors[:, lo:hi].T @ j))
        groups.append(SpectrumGroup(
            value=float(np.mean(w[lo:hi])),
            multiplicity=hi - lo,
            is_main=mass > main_eps,
            main_mass=mass,
        ))
    return SpectrumReport(groups=tuple(groups), n=n)


# ---------------------------------------------------------------------------
# Clique-with-pendants spectrum: x^3 - (n-r-2)x^2 - (n-1)x + r(n-r-2) = 0
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnrSpectrum:
    """Spectrum layout of the clique-with-pendants graph: eigenvalue 0 with
    multiplicity r-1, eigenvalue -1 with multiplicity n-r-2, plus three simple
    cubic roots in (-inf, 0), (0, sqrt r), (sqrt r, +inf)."""

    n: int
    r: int
    zero_mult: int
    minus_one_mult: int
    cubic_roots: tuple[float, float, float]

    def as_multiset(self) -> list[float]:
        vals = [0.0] * self.zero_mult + [-1.0] * self.minus_one_mult
        vals.extend(self.cubic_roots)
        return sorted(vals)


def snr_cubic_roots(n: int, r: int) -> tuple[float, float, float]:
    """The three simple eigenvalues of the clique-with-pendants graph, one per
    bracket (-inf, 0), (0, sqrt r), (sqrt r, +inf).

    They are the eigenvalues of the symmetrised quotient matrix of the
    partition {pendants}, {centre}, {rest of the clique}.  The sign chart
    pins the brackets: f(0) = r(n-r-2) > 0 and f(sqrt r) = (1+r-n) sqrt(r) < 0
    whenever n >= r+3.
    """
    n, r = _snr_range(n, r)

    def f(x: float) -> float:
        return x ** 3 - (n - r - 2) * x ** 2 - (n - 1) * x + r * (n - r - 2)

    a, b = math.sqrt(r), math.sqrt(n - r - 1)
    roots = tuple(float(x) for x in np.linalg.eigvalsh(
        [[0.0, a, 0.0], [a, 0.0, b], [0.0, b, n - r - 2.0]]))
    for x in roots:
        if not abs(f(x)) < 1e-10 * (1.0 + abs(x) ** 3):
            raise RuntimeError(f"cubic residual too large at {x}")
    return roots


def snr_spectrum(n: int, r: int) -> SnrSpectrum:
    roots = snr_cubic_roots(n, r)
    return SnrSpectrum(n=n, r=r, zero_mult=r - 1, minus_one_mult=n - r - 2,
                       cubic_roots=roots)


# ---------------------------------------------------------------------------
# Complete multipartite spectrum: poles at -t_i, secular roots between them
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultipartiteSpectrum:
    """Spectrum layout of a complete multipartite graph: eigenvalue 0 with
    multiplicity b = sum(m_i - l_i), eigenvalue -t_i with multiplicity l_i - 1,
    and s simple secular roots with exactly one positive."""

    params: MultipartiteParams
    zero_mult: int
    ti_mults: tuple[tuple[int, int], ...]  # (-t_i, l_i - 1)
    secular_roots: tuple[float, ...]  # descending: positive root first

    def as_multiset(self) -> list[float]:
        vals = [0.0] * self.zero_mult
        for val, mult in self.ti_mults:
            vals.extend([float(val)] * mult)
        vals.extend(self.secular_roots)
        return sorted(vals)


def multipartite_secular_roots(p: MultipartiteParams) -> list[float]:
    """Roots of sum_i m_i/(x + t_i) = 1, ordered descending (the unique
    positive root first, then one root between each pair of consecutive
    poles -t_k and -t_{k+1}).

    They are the eigenvalues of the symmetrised quotient matrix
    z z^T - diag(t), z_i = sqrt(m_i) (Golub 1973), polished together on
    numpy rows by two Newton steps, each root kept strictly inside its
    bracket between poles.
    """
    if p.s == 1:
        # m1/(x + t1) = 1 solves exactly to (l1 - 1) t1.
        return [float(p.group_sizes[0] - p.sizes[0])]
    t = np.array(p.sizes, dtype=float)
    m = np.array(p.group_sizes, dtype=float)
    z = np.sqrt(m)
    x = np.linalg.eigvalsh(np.outer(z, z) - np.diag(t))
    # Ascending root k lies in (-t_k, -t_{k+1}); the largest in (-t_s, n).
    lo, hi = -t, np.append(-t[1:], float(p.n))
    for _ in range(2):
        # Row k: u_i = m_i/(x_k + t_i), so sum(u) = h(x_k) + 1 and
        # sum(u^2 / m) = -h'(x_k).
        u = m / (x[:, None] + t)
        step = x + (u.sum(axis=1) - 1.0) / (u * u / m).sum(axis=1)
        x = np.where(step <= lo, (x + lo) / 2, np.where(step >= hi, (x + hi) / 2, step))
    if not np.all((lo < x) & (x < hi)):
        raise RuntimeError("secular roots do not interlace the poles")
    u = m / (x[:, None] + t)
    if not np.all(np.abs(u.sum(axis=1) - 1.0) < 1e-10 * (1.0 + np.abs(u).sum(axis=1))):
        raise RuntimeError(f"secular residual too large at one of {x}")
    return x[::-1].tolist()


def multipartite_spectrum(p: MultipartiteParams) -> MultipartiteSpectrum:
    roots = multipartite_secular_roots(p)
    t, l, m = p.sizes, p.counts, p.group_sizes
    b = sum(mi - li for mi, li in zip(m, l))
    spectrum = MultipartiteSpectrum(
        params=p,
        zero_mult=b,
        ti_mults=tuple((-ti, li - 1) for ti, li in zip(t, l)),
        secular_roots=tuple(roots),
    )
    if len(spectrum.as_multiset()) != p.n:
        raise RuntimeError("multiplicity bookkeeping does not sum to n")
    positives = [x for x in roots if x > 0]
    if p.n > 1 and sum(l) > 1 and len(positives) != 1:
        raise RuntimeError("expected exactly one positive eigenvalue")
    return spectrum
