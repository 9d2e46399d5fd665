"""Switching constructions that make every eigenvalue of a graph main.

Two families are covered: the clique-with-pendants graph (pendants first,
attachment vertex in the middle, remaining clique vertices last) and the
complete multipartite graph.  Each construction returns the switching, one
main eigenvector per distinct eigenvalue as witness evidence, and an exact
verification verdict from the integer decision procedure.  Every repeated
eigenvalue of both families (0 and -1 of the clique-with-pendants graph, 0
and -t_i of the multipartite graph) comes from interchangeable twin blocks,
and its witness is the projection of j onto its eigenspace, one closed form
for all of them (``_twin_witness``).

Both constructions scan candidate switchings the same way.  The eigenvectors
of the unswitched graph for its simple eigenvalues are computed once; a
switching with sign vector s (-1 on the switched vertices, 1 elsewhere)
turns each eigenvector x into the eigenvector s * x of the switched graph,
and a candidate is kept when every such s * x has a nonzero entry sum.
Candidates are scanned in a fixed order and the first success is kept, so
results are deterministic and certificates reproducible.  Flip
selection obeys three rules: a vertex is never flipped twice within one
candidate (base and extra flips stay disjoint); when a group has part size 3
and at least two parts and three of its vertices must end up switched, the
picks are the first, second and fourth vertex of the group; otherwise the
smallest unused labels are taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exact import MainProfile, main_profile
from .graphs import (Graph, MultipartiteParams, SnrParams, _adjacency_array, _switched_array,
                     make_multipartite, make_snr)
from .spectral import eigen_sym, eigenspace_slices, multipartite_secular_roots, snr_cubic_roots

RESIDUAL_TOL = 1e-8
SUM_TOL = 1e-8

__all__ = [
    "CandidateFamily",
    "ConstructionError",
    "ConstructionResult",
    "FlipVector",
    "NoAllMainSwitchingError",
    "candidate_family_distinct",
    "candidate_family_equal",
    "flip",
    "multipartite_all_main_switching",
    "one_per_part_switching",
    "snr_all_main_switching",
    "snr_eigvec",
]


class ConstructionError(RuntimeError):
    """A candidate scan or witness check failed: an implementation bug, since
    the selection rules guarantee success on valid inputs."""


class NoAllMainSwitchingError(ValueError):
    """The input graph provably admits no all-main switching."""


# ---------------------------------------------------------------------------
# Sign-flip vectors and candidate families
# ---------------------------------------------------------------------------


def flip(vec: Sequence, indices: Sequence[int]) -> np.ndarray:
    """Negate the entries at the given 1-based positions.

    Flipping twice with the same index set is the identity.  Works on float
    and exact (int / Fraction) entries alike.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate flip index")
    out = np.array(vec)
    for i in idx:
        if not (1 <= i <= len(out)):
            raise ValueError(f"flip index {i} out of range 1..{len(out)}")
        out[i - 1] = -out[i - 1]
    return out


@dataclass(frozen=True, eq=False)
class FlipVector:
    """A base vector plus a set of 1-based positions to negate."""

    base: tuple
    flips: tuple[int, ...]

    def entry_sum(self):
        total = 0
        for i, x in enumerate(self.base, start=1):
            total = total + (-x if i in self.flips else x)
        return total


@dataclass(frozen=True, eq=False)
class CandidateFamily:
    """An ordered family of flip vectors of which at most one has zero entry
    sum, provided the construction hypothesis held."""

    members: tuple[FlipVector, ...]

    def zero_sum_count(self) -> int:
        return sum(1 for m in self.members if m.entry_sum() == 0)


def _flip_values(beta: Sequence, indices: Sequence[int]) -> tuple[tuple, tuple[int, ...], list]:
    """beta and the flip positions as tuples, with the values they hold,
    which must be in range and nonzero."""
    base = tuple(beta)
    idx = tuple(indices)
    vals = []
    for i in idx:
        if not (1 <= i <= len(base)):
            raise ValueError(f"index {i} out of range")
        vals.append(base[i - 1])
    if any(v == 0 for v in vals):
        raise ValueError("flip positions must hold nonzero values")
    return base, idx, vals


def candidate_family_distinct(beta: Sequence, indices: Sequence[int]) -> CandidateFamily:
    """Family {beta, beta flipped at i1, ..., beta flipped at ik} for positions
    holding pairwise distinct nonzero values."""
    base, idx, vals = _flip_values(beta, indices)
    if len(set(vals)) != len(vals):
        raise ValueError("flip positions must hold pairwise distinct values")
    members = (FlipVector(base, ()),) + tuple(FlipVector(base, (i,)) for i in idx)
    return CandidateFamily(members)


def candidate_family_equal(beta: Sequence, indices: Sequence[int]) -> CandidateFamily:
    """Nested-prefix family {beta, beta flipped at i1, at i1 i2, ...} for
    positions holding one equal nonzero value."""
    base, idx, vals = _flip_values(beta, indices)
    if not idx:
        raise ValueError("need at least one flip position")
    if any(v != vals[0] for v in vals):
        raise ValueError("flip positions must hold equal values")
    members = tuple(FlipVector(base, idx[:k]) for k in range(len(idx) + 1))
    return CandidateFamily(members)


# ---------------------------------------------------------------------------
# Twin-block witnesses (repeated eigenvalues)
# ---------------------------------------------------------------------------


def _signs(n: int, switched: frozenset[int]) -> np.ndarray:
    """The switching's sign vector s: -1 on switched vertices, 1 elsewhere."""
    s = np.ones(n)
    s[[v - 1 for v in switched]] = -1.0
    return s


def _twin_witness(s: np.ndarray, fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Construction results
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A switching plus witness eigenvectors and the exact verification.

    ``witnesses`` pairs each distinct eigenvalue with a unit eigenvector of
    the switched graph of nonzero entry sum; for a repeated eigenvalue of a
    constructive result it is the normalised projection of j onto the
    eigenspace.
    """

    graph: Graph
    switching: frozenset[int]
    witnesses: tuple[tuple[float, np.ndarray], ...]
    verified: bool
    method: str
    profile: MainProfile


def _validated_witnesses(a_sw: np.ndarray, raw_witnesses: list[tuple[float, np.ndarray]]
                         ) -> tuple[tuple[float, np.ndarray], ...]:
    """Each witness scaled to unit length, all checked with one product:
    nonzero, an eigenvector of a_sw for its eigenvalue up to RESIDUAL_TOL,
    and of entry sum above SUM_TOL.  The first failing witness raises."""
    lams = np.array([lam for lam, _ in raw_witnesses], dtype=float)
    vecs = np.array([v for _, v in raw_witnesses], dtype=float)
    norms = np.linalg.norm(vecs, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero witnesses fail below
        vecs /= norms[:, None]
    residuals = np.linalg.norm(a_sw @ vecs.T - vecs.T * lams, axis=0)
    sums = vecs.sum(axis=1)
    # Written so that a NaN residual or sum fails too.
    bad = (norms == 0) | ~(residuals <= RESIDUAL_TOL) | ~(np.abs(sums) > SUM_TOL)
    if bad.any():
        i = int(bad.argmax())
        lam = raw_witnesses[i][0]
        if norms[i] == 0:
            raise ConstructionError("zero witness vector")
        if not residuals[i] <= RESIDUAL_TOL:
            raise ConstructionError(
                f"witness residual {residuals[i]:.3e} for eigenvalue {lam:.12g}")
        raise ConstructionError(f"witness for eigenvalue {lam:.12g} has zero entry sum")
    return tuple((lam, v) for (lam, _), v in zip(raw_witnesses, vecs))


def _finish(graph: Graph, switched: frozenset[int],
            raw_witnesses: list[tuple[float, np.ndarray]], method: str,
            a_sw: np.ndarray | None = None) -> ConstructionResult:
    """The result for graph switched about switched.  The switched matrix is
    built once, as an int64 array from the rows and the sign vector, unless
    the caller passes it; every witness is checked against it in one
    product, and main_profile decides it as it is."""
    if a_sw is None:
        a_sw = _switched_array(_adjacency_array(graph), switched)
    witnesses = _validated_witnesses(a_sw, raw_witnesses)
    profile = main_profile(a_sw)
    return ConstructionResult(
        graph=graph,
        switching=switched,
        witnesses=witnesses,
        verified=profile.all_main,
        method=method,
        profile=profile,
    )


def _sum_is_main(vec: np.ndarray) -> bool:
    norm = np.linalg.norm(vec)
    return abs(float(vec.sum())) > SUM_TOL * math.sqrt(len(vec)) * norm


def _scan(vectors: Sequence[np.ndarray], base: frozenset[int],
          extras_list: Sequence[tuple[int, ...]]) -> frozenset[int]:
    """The first switching base | extras, over the candidates in order, under
    which s * x has a nonzero entry sum for every unswitched eigenvector x in
    vectors, s being the switching's sign vector."""
    for extras in extras_list:
        if set(extras) & base:
            raise ConstructionError("extra flips overlap the base switching")
        switched = base | frozenset(extras)
        s = _signs(len(vectors[0]), switched)
        if all(_sum_is_main(s * x) for x in vectors):
            return switched
    raise ConstructionError("no candidate vector is main for every root")


# ---------------------------------------------------------------------------
# Clique-with-pendants construction
# ---------------------------------------------------------------------------


def snr_eigvec(n: int, r: int, lam: float) -> np.ndarray:
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


def snr_all_main_switching(n: int, r: int) -> ConstructionResult:
    """All-main switching for the clique-with-pendants graph.

    Base switching is {v1, vn}.  For r <= 2 or n = r+3 the base alone is the
    only candidate; otherwise one additional flip among {v2, v_{r+1},
    v_{n-1}} may follow.  The scan keeps the first candidate whose entry sum
    is nonzero for all three cubic roots.
    """
    if r < 1 or n < r + 3:
        raise ValueError(f"need r >= 1 and n >= r+3, got n={n} r={r}")
    graph = make_snr(SnrParams(n, r))
    roots = snr_cubic_roots(n, r)
    vectors = [snr_eigvec(n, r, lam) for lam in roots]
    # The flipped coordinates (a pendant, the attachment vertex, a clique
    # vertex) are generically distinct, which caps the non-main candidates at
    # one per root; the sum test carries the rare degenerate parameter pairs
    # where a cubic root equals 1.
    extras = [()] if r <= 2 or n == r + 3 else [(), (2,), (r + 1,), (n - 1,)]
    switched = _scan(vectors, frozenset((1, n)), extras)
    s = _signs(n, switched)
    witnesses = [(lam, s * x) for lam, x in zip(roots, vectors)]
    vertex = np.arange(n)
    # The pendants v1..vr are twins for 0 and the clique rest v_{r+2}..vn
    # for -1; each class holds a switched vertex (v1, vn) and an unswitched
    # one, so both witnesses are main.
    if r >= 2:
        witnesses.append((0.0, _twin_witness(s, vertex, np.maximum(vertex - r + 1, 0))))
    witnesses.append((-1.0, _twin_witness(s, vertex, np.minimum(vertex, r + 1))))
    return _finish(graph, switched, witnesses, "constructive")


# ---------------------------------------------------------------------------
# Complete multipartite construction
# ---------------------------------------------------------------------------


def _secular_vector(p: MultipartiteParams, lam: float) -> np.ndarray:
    """Eigenvector of the unswitched graph for a secular root: 1/(lam + t_i)
    on the vertices of group i."""
    return np.repeat(1.0 / (lam + np.array(p.sizes)), p.group_sizes)


def _pick_extras(p: MultipartiteParams, group: int, count: int,
                 base: frozenset[int]) -> tuple[int, ...]:
    """Choose ``count`` extra flip vertices in a group, never reusing a base
    vertex; applies the first-second-fourth pick when a size-3 group with at
    least two parts ends up with three switched vertices."""
    ui = list(p.group_range(group))
    w = sum(1 for v in ui if v in base) + count
    t = p.sizes[group - 1]
    m = p.group_sizes[group - 1]
    if t == 3 and m >= 6 and w == 3:
        f = p.offsets[group - 1]
        extras = tuple(v for v in (f + 1, f + 2, f + 4) if v not in base)
        if len(extras) != count:
            raise ConstructionError("special flip picks collide with the base switching")
        return extras
    avail = [v for v in ui if v not in base]
    if count > len(avail):
        raise ConstructionError(f"group {group} has no room for {count} extra flips")
    return tuple(avail[:count])


def _witnesses(p: MultipartiteParams, roots: Sequence[float],
               switched: frozenset[int]) -> list[tuple[float, np.ndarray]]:
    """One main eigenvector per distinct eigenvalue: the secular roots, 0 when
    some part has two or more vertices (the vertices of each part are twins),
    and -t_i for every group of two or more parts (its parts are twins)."""
    s = _signs(p.n, switched)
    out = [(lam, s * _secular_vector(p, lam)) for lam in roots]
    part = np.repeat(np.arange(sum(p.counts)), np.repeat(p.sizes, p.counts))
    group = np.repeat(np.arange(p.s), p.group_sizes)
    if p.sizes[0] >= 2:
        out.append((0.0, _twin_witness(s, np.arange(p.n), part)))
    ti = _twin_witness(s, part, group)
    out.extend((-float(t), np.where(group == i, ti, 0.0))
               for i, (l, t) in enumerate(p.blocks) if l >= 2)
    return out


def _shape_rule(p: MultipartiteParams) -> tuple[frozenset[int], list[tuple[int, int]]] | None:
    """(base switching, extra-flip specs) for a shape with n >= 3, or None for
    the small shapes (n <= 7) whose case analysis bottoms out in a finite check.

    A spec (group, count) is the candidate that flips ``count`` more vertices
    of that group, as chosen by ``_pick_extras``; the candidate with no extra
    flip always comes first.
    """
    t, l, m = p.sizes, p.counts, p.group_sizes
    last = p.offsets[-1] + 1
    standard = frozenset({p.offsets[i] + 1 for i in range(p.s - 1) if l[i] >= 2} | {last})
    head = frozenset({1, last})
    # One more flip in group 1, then two more in each of groups 1..s-1.
    eta = [(1, 1)] + [(i, 2) for i in range(1, p.s)]
    if p.s == 1:
        return standard, []
    if t[-1] >= 2:
        return standard, eta
    # From here on t_s == 1.
    if t[0] == 2:
        # Blocks ((l1,2),(l2,1)): nested flips at the head of the last group,
        # or inside group 1, whose vertices v2..v5 share a coordinate.
        if m[1] >= 4:
            return head, [(2, 1), (2, 2)]
        return None if m[0] <= 4 else (head, [(1, 2), (1, 4)])
    if any(li >= 2 for li in l[:-1]):
        return standard, eta
    if t[0] == 3:
        return None if l[-1] <= 2 else (head, [(i, 1) for i in range(1, p.s + 1)])
    return head, eta


def _from_search(p: MultipartiteParams) -> ConstructionResult:
    """Brute-force fallback for the handful of small shapes (n <= 7) whose
    constructive case analysis bottoms out in a finite check."""
    from .search import find_all_main_switching

    graph = make_multipartite(p)
    cert = find_all_main_switching(graph)
    if cert is None:
        raise NoAllMainSwitchingError(
            f"no all-main switching exists for blocks {p.blocks}")
    switched = frozenset(cert.switching)
    a_sw = _switched_array(_adjacency_array(graph), switched)
    es = eigen_sym(a_sw)
    j = np.ones(p.n)
    witnesses = []
    for sl in eigenspace_slices(es.eigenvalues):
        block = es.vectors[:, sl]
        witnesses.append((float(np.mean(es.eigenvalues[sl])), block @ (block.T @ j)))
    return _finish(graph, switched, witnesses, "brute_force", a_sw)


def multipartite_all_main_switching(p: MultipartiteParams) -> ConstructionResult:
    """All-main switching for a complete multipartite graph.

    ``_shape_rule`` gives a base switching and (group, count) specs; the
    candidates are the base alone, then the base plus ``_pick_extras`` for
    each spec in order, and the first one main for every secular root wins.
    The small shapes without a rule go to the brute-force search.  The only
    rejected inputs are the two graphs with no all-main switching at all: the
    single edge (blocks (2,1)) and the 4-clique minus an edge (blocks
    (1,2),(2,1)).
    """
    if p.n < 2:
        raise ValueError("need at least 2 vertices")
    graph = make_multipartite(p)
    if p.s == 1 and p.counts[0] == 1:
        # A single part: the empty graph, already all-main with no switching.
        return _finish(graph, frozenset(), [(0.0, np.ones(p.n))], "constructive")
    if p.n == 2:
        raise NoAllMainSwitchingError(
            "the single-edge graph admits no all-main switching")
    rule = _shape_rule(p)
    if rule is None:
        return _from_search(p)  # includes the rejected 4-clique minus an edge
    base, specs = rule
    roots = multipartite_secular_roots(p)
    extras = [()] + [_pick_extras(p, g, c, base) for g, c in specs]
    switched = _scan([_secular_vector(p, lam) for lam in roots], base, extras)
    return _finish(graph, switched, _witnesses(p, roots, switched), "constructive")


def one_per_part_switching(p: MultipartiteParams) -> ConstructionResult:
    """Switch the first vertex of every part when all groups are single parts
    of size >= 2: the resulting signed graph is always all-main, no candidate
    scan required."""
    if p.s < 2:
        raise ValueError("need at least two parts")
    if any(li != 1 for li in p.counts):
        raise ValueError("every group must consist of a single part")
    if p.sizes[-1] < 2:
        raise ValueError("every part must have at least two vertices")
    graph = make_multipartite(p)
    switched = frozenset(off + 1 for off in p.offsets)
    roots = multipartite_secular_roots(p)
    result = _finish(graph, switched, _witnesses(p, roots, switched), "constructive")
    if not result.verified:
        raise ConstructionError(
            "one-per-part switching failed the exact all-main check")
    return result
