"""Switching constructions that make every eigenvalue of a graph main.

Two families are covered: the clique-with-pendants graph (pendants first,
attachment vertex in the middle, remaining clique vertices last) and the
complete multipartite graph.  Each construction returns the switching and
the exact main profile of the switched graph from the integer decision
procedure; no construction uses floating point.

The clique-with-pendants graph has one candidate, {v1, vn}, which
tests/test_theorems.py proves all-main for every r >= 1 and n >= r+3.  A
multipartite shape's rule gives a base switching and an ordered list of
extra flips.  The scan builds the graph's int64 adjacency array once,
switches it about each candidate in turn (the base alone first, then the
base plus each extra) and keeps the first candidate that ``main_profile``
finds all-main, with that profile.  An extra candidate is built only when
the scan reaches it; the base settles nearly every shape.  The paper's main
eigenvectors explain why a rule's candidates suffice: s times the
unswitched eigenvector of each simple eigenvalue (s the switching's sign
vector), and for each repeated eigenvalue, which comes from interchangeable
twin blocks, the projection of j onto its eigenspace.  The tests check
those closed forms; the verdict is the exact one.  The few small
multipartite shapes (n <= 7) whose case analysis bottoms out in a finite
check take the search's switching as their one candidate.

Candidates are scanned in a fixed order and the first success is kept, so
results are deterministic and certificates reproducible.  Flip selection
obeys three rules: a vertex is never flipped twice within one candidate
(base and extra flips stay disjoint); when a group has part size 3 and at
least two parts and three of its vertices must end up switched, the picks
are the first, second and fourth vertex of the group; otherwise the smallest
unused labels are taken.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .exact import MainProfile, main_profile
from .graphs import (Graph, MultipartiteParams, SnrParams, _adjacency_array, _integer, _signs,
                     _snr_range, _switched_array, make_multipartite, make_snr)
from .search import find_all_main_switching

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
]


class ConstructionError(RuntimeError):
    """No candidate switching was all-main: an implementation bug, since the
    selection rules guarantee success on valid inputs."""


class NoAllMainSwitchingError(ValueError):
    """The input graph provably admits no all-main switching."""


# ---------------------------------------------------------------------------
# Sign-flip vectors and candidate families
# ---------------------------------------------------------------------------


def flip(vec: Sequence, indices: Sequence[int]) -> np.ndarray:
    """Negate the entries at the given 1-based positions: vec times the
    sign vector of the switching about them (graphs._signs).

    Flipping twice with the same index set is the identity.  Works on float
    and exact (int / Fraction) entries alike.
    """
    idx = list(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate flip index")
    return np.array(vec) * _signs(len(vec), idx)


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
    idx = tuple(_integer(i, "flip position") for i in indices)
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
# Construction results and the candidate scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ConstructionResult:
    """A switching with the exact main profile of the switched graph.

    ``method`` is ``constructive`` for a shape rule's candidate and
    ``brute_force`` for the search's switching.
    """

    graph: Graph
    switching: frozenset[int]
    method: str
    profile: MainProfile

    @property
    def verified(self) -> bool:
        """``profile.all_main``, true for every result the scan returns."""
        return self.profile.all_main


def _scan(graph: Graph, base: frozenset[int], extras: Iterable[tuple[int, ...]],
          method: str) -> ConstructionResult:
    """The first candidate switching, in order, under which ``main_profile``
    finds the graph all-main: base, then base plus each tuple of extra flips.
    The adjacency array is built once, and extras is read one tuple at a
    time, so a lazy iterable builds only the candidates the scan reaches."""
    a = _adjacency_array(graph)
    for switched in itertools.chain([base], (base | frozenset(flips) for flips in extras)):
        profile = main_profile(_switched_array(a, switched))
        if profile.all_main:
            return ConstructionResult(graph=graph, switching=switched, method=method,
                                      profile=profile)
    raise ConstructionError("no candidate switching is all-main")


# ---------------------------------------------------------------------------
# Clique-with-pendants construction
# ---------------------------------------------------------------------------


def snr_all_main_switching(n: int, r: int) -> ConstructionResult:
    """All-main switching for the clique-with-pendants graph: {v1, vn}, the
    one candidate, which tests/test_theorems.py proves all-main for every
    r >= 1 and n >= r+3.  ``main_profile`` decides the result."""
    n, r = _snr_range(n, r)
    return _scan(make_snr(SnrParams(n, r)), frozenset((1, n)), (), "constructive")


# ---------------------------------------------------------------------------
# Complete multipartite construction
# ---------------------------------------------------------------------------


def _pick_extras(p: MultipartiteParams, group: int, count: int,
                 base: frozenset[int]) -> tuple[int, ...]:
    """Choose ``count`` extra flip vertices in a group, never reusing a base
    vertex; applies the first-second-fourth pick when a size-3 group with at
    least two parts ends up with three switched vertices.  The picks are not
    checked further: the exact scan decides every candidate."""
    ui = p.group_range(group)
    f = ui.start - 1
    three = p.sizes[group - 1] == 3 and len(ui) >= 6 and sum(v in base for v in ui) + count == 3
    return tuple(v for v in ((f + 1, f + 2, f + 4) if three else ui) if v not in base)[:count]


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


def _from_search(p: MultipartiteParams, graph: Graph) -> ConstructionResult:
    """Brute-force fallback for the handful of small shapes (n <= 7) whose
    constructive case analysis bottoms out in a finite check: the search's
    switching is the one candidate."""
    cert = find_all_main_switching(graph)
    if cert is None:
        raise NoAllMainSwitchingError(
            f"no all-main switching exists for blocks {p.blocks}")
    return _scan(graph, frozenset(cert.switching), (), "brute_force")


def multipartite_all_main_switching(p: MultipartiteParams) -> ConstructionResult:
    """All-main switching for a complete multipartite graph.

    ``_shape_rule`` gives a base switching and (group, count) specs; the
    candidates are the base alone, then the base plus ``_pick_extras`` for
    each spec in order, and the first all-main one wins.  The small shapes
    without a rule go to the brute-force search.  The only rejected inputs
    are the two graphs with no all-main switching at all: the single edge
    (blocks (2,1)) and the 4-clique minus an edge (blocks (1,2),(2,1)).
    """
    if p.n < 2:
        raise ValueError("need at least 2 vertices")
    graph = make_multipartite(p)
    if p.s == 1 and p.counts[0] == 1:
        # A single part: the empty graph, already all-main with no switching.
        return _scan(graph, frozenset(), (), "constructive")
    if p.n == 2:
        raise NoAllMainSwitchingError(
            "the single-edge graph admits no all-main switching")
    rule = _shape_rule(p)
    if rule is None:
        return _from_search(p, graph)  # includes the rejected 4-clique minus an edge
    base, specs = rule
    extras = (_pick_extras(p, group, count, base) for group, count in specs)
    return _scan(graph, base, extras, "constructive")


def one_per_part_switching(p: MultipartiteParams) -> ConstructionResult:
    """Switch the first vertex of every part when all groups are single parts
    of size >= 2: the resulting signed graph is always all-main, so this
    switching is the one candidate."""
    if p.s < 2:
        raise ValueError("need at least two parts")
    if any(li != 1 for li in p.counts):
        raise ValueError("every group must consist of a single part")
    if p.sizes[-1] < 2:
        raise ValueError("every part must have at least two vertices")
    switched = frozenset(off + 1 for off in p.offsets)
    return _scan(make_multipartite(p), switched, (), "constructive")
