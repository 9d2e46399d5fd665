"""Exhaustive switching search, small-graph catalogs, and certificates.

Switching classes of an all-positive graph are parametrised by the subsets of
{2..n}: a set and its complement give the same signed graph, so vertex 1 can
be pinned unswitched.  The brute-force verifier walks these 2^(n-1) classes in
size order and keeps the first all-main one, so certificates prefer small
switchings.  No switched matrix is built: a class with sign vector s (-1 on
the switched vertices) has the walk matrix diag(s) walk_matrix(A, s), so its
main count is the Bareiss rank of the walk columns s, As, A^2 s, ...  The
graph's neighbourhood rows give the connectivity check, the adjacency array
and the twin classes.  The powers A^0 .. A^(n-1) are computed once per
graph, as one stack, by the same exact kernel that decides main_profile on
small matrices (in exact).  Open twins (equal
neighbourhoods) and closed twins (equal closed neighbourhoods) are
eigenvectors e_u - e_w for 0 and -1, so they bound the distinct count by
some U <= n, and the distinct count is the rank of the leading U x U block
of the Hankel matrix of power traces, which the stack gives as a Gram
matrix.  The walk columns of a whole chunk of classes come from one product
of the stack with the chunk's sign vectors; each class's walk array goes to
rank_exact as it is.  When the distinct count reaches U, the 0- and
-1-eigenspaces are spanned by twin differences, and a class whose sign
vector is equal on every twin pair of one kind is skipped unranked: that
eigenvalue is not main after switching (Rowlinson, AADM 2007).

Graph catalogs are generated one vertex at a time, by the deletion half of
canonical augmentation (McKay, "Isomorph-free exhaustive generation", 1998):
a class on k-1 vertices is extended by a new last vertex with every
neighbourhood, and an extension is kept only when the new vertex has the
smallest (degree, sum of neighbours' degrees) of all k vertices, and only
once per way of permuting the parent's twins.  Each kept extension is
labelled by its canonical form, the lexicographically smallest
upper-triangle bit string over all k! relabellings; the set of these values
is the catalog.  Both steps work on a whole level at once, on int64 arrays
of neighbourhood bitmasks: the filter over every (parent, neighbourhood,
old vertex) triple of a batch of parents, and the canonical form as one
search over vertex positions for all kept extensions together, which keeps
only each graph's minimal partial orders.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from ._version import __version__
from .exact import (MainProfile, _distinct_count, _power_stack, _row_bound, main_profile,
                    rank_exact)
from .graphs import (Graph, _adjacency_array, _graph6_adjacency, _pairs, _switched_array,
                     emit_graph6, is_connected)

TOOL_VERSION = f"mainswitch {__version__}"

CATALOG_CAP = 7
CANONICAL_CAP = 8

__all__ = [
    "CATALOG_CAP",
    "Certificate",
    "DisconnectedGraphError",
    "TOOL_VERSION",
    "UnswitchableGraph",
    "VerificationReport",
    "canonical_form",
    "canonical_graph6",
    "enumerate_connected_graphs",
    "enumerate_switchings",
    "find_all_main_switching",
    "make_certificate",
    "switching_main_counts",
    "verify_certificate",
    "verify_conjecture",
]


class DisconnectedGraphError(ValueError):
    """The switching search covers connected graphs only."""


# ---------------------------------------------------------------------------
# Switching enumeration
# ---------------------------------------------------------------------------


def enumerate_switchings(n: int) -> Iterator[frozenset[int]]:
    """All 2^(n-1) switching classes, each as its set of switched vertices:
    the subsets of {2..n} ordered by size, then lexicographically.  Vertex 1
    stays unswitched (complement equivalence)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    for size in range(n):
        for combo in itertools.combinations(range(2, n + 1), size):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

# Certificate fields in their fixed order, with the exact JSON type of each.
_CERT_FIELDS = {"graph6": str, "switching": list, "distinct_count": int,
                "main_count": int, "all_main": bool, "method": str,
                "tool_version": str}
_CERT_METHODS = ("brute_force", "constructive")


@dataclass(frozen=True)
class Certificate:
    """Independently re-checkable evidence that a switching is all-main (or
    records the counts when it is not)."""

    graph6: str
    switching: tuple[int, ...]
    distinct_count: int
    main_count: int
    all_main: bool
    method: str
    tool_version: str

    def to_json_dict(self) -> dict:
        return ({k: getattr(self, k) for k in _CERT_FIELDS}
                | {"switching": list(self.switching)})

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: object) -> "Certificate":
        """Parse a certificate record; it must have exactly the seven fields,
        each of its exact JSON type, so no coercion can turn a malformed
        record into a valid one."""
        if not isinstance(d, dict):
            raise ValueError(f"certificate must be a JSON object, got {type(d).__name__}")
        missing = [k for k in _CERT_FIELDS if k not in d]
        if missing:
            raise ValueError(f"certificate missing fields: {missing}")
        unknown = [k for k in d if k not in _CERT_FIELDS]
        if unknown:
            raise ValueError(f"certificate has unknown fields: {unknown}")
        for key, kind in _CERT_FIELDS.items():
            if type(d[key]) is not kind:
                raise ValueError(f"certificate field {key!r} must be {kind.__name__}, "
                                 f"got {type(d[key]).__name__}")
        sw = d["switching"]
        if (any(type(v) is not int for v in sw)
                or any(a >= b for a, b in zip(sw, sw[1:]))):
            raise ValueError("certificate switching must be a strictly increasing "
                             "list of integers")
        if d["method"] not in _CERT_METHODS:
            raise ValueError(f"certificate method must be one of {list(_CERT_METHODS)}, "
                             f"got {d['method']!r}")
        return cls(**{k: d[k] for k in _CERT_FIELDS} | {"switching": tuple(sw)})


def make_certificate(graph: Graph, switching: Iterable[int], method: str,
                     profile: MainProfile) -> Certificate:
    """Certificate for switching graph about a vertex set, with the exact
    profile of the switched graph."""
    return Certificate(
        graph6=emit_graph6(graph),
        switching=tuple(sorted(frozenset(switching))),
        distinct_count=profile.distinct_count,
        main_count=profile.main_count,
        all_main=profile.all_main,
        method=method,
        tool_version=TOOL_VERSION,
    )


def verify_certificate(cert: Certificate) -> bool:
    """Re-derive the exact profile from (graph, switching) and compare every
    recorded count; any single-field tamper fails.

    The graph6 record is decoded once, to its int64 adjacency array, which
    is switched by the sign vector and handed to main_profile as it is.  An
    unparsable graph payload raises GraphFormatError; a switching that does
    not fit the graph merely fails verification.
    """
    a = _graph6_adjacency(cert.graph6)
    try:
        a = _switched_array(a, cert.switching)
    except ValueError:
        return False
    profile = main_profile(a)
    return (profile.distinct_count == cert.distinct_count
            and profile.main_count == cert.main_count
            and profile.all_main == cert.all_main)


# ---------------------------------------------------------------------------
# Brute-force search over switching classes
# ---------------------------------------------------------------------------


def _connected_powers(g: Graph) -> np.ndarray:
    # The power stack of g's adjacency matrix, once connectivity is checked
    # on its rows.
    if not is_connected(g):
        raise DisconnectedGraphError("the switching search requires a connected graph")
    arr = _adjacency_array(g)
    return _power_stack(arr, _row_bound(arr))


def _twin_bound(rows: tuple[int, ...]) -> tuple[int, list[tuple[list[int], list[int]]]]:
    """An upper bound U on the distinct count, and the twin pairs behind it.

    Open twins u, w (equal neighbourhoods) make e_u - e_w an eigenvector for
    0, closed twins (equal closed neighbourhoods) one for -1.  For each of
    the two kinds that occurs, every vertex with an earlier twin of that
    kind is paired with the first vertex of its class; the T pairs of a kind
    give independent eigenvectors, so that eigenvalue has multiplicity at
    least T and U = n - sum of (T - 1) over the kinds present bounds the
    distinct count.  Each kind is returned as two index lists (firsts,
    others).
    """
    present = []
    for keys in (rows, [row | 1 << v for v, row in enumerate(rows)]):
        first: dict[int, int] = {}
        us, ws = [], []
        for v, key in enumerate(keys):
            u = first.setdefault(key, v)
            if u != v:
                us.append(u)
                ws.append(v)
        if us:
            present.append((us, ws))
    return len(rows) - sum(len(us) - 1 for us, _ in present), present


def _new_sign_chunks(n: int) -> Iterator[np.ndarray]:
    """Sign vectors of all switching classes in enumeration order, 8 and then
    64 per chunk (most graphs have an all-main class among their first few):
    s is -1 exactly on the switched vertices."""
    switchings = enumerate_switchings(n)
    size = 8
    while chunk := list(itertools.islice(switchings, size)):
        yield np.array([[-1 if v in x else 1 for v in range(1, n + 1)] for x in chunk],
                       dtype=np.int8)
        size = 64


@lru_cache(maxsize=4)
def _head_sign_chunks(n: int) -> tuple[np.ndarray, ...]:
    # The first two chunks, 72 n bytes at most; later ones are never kept.
    return tuple(itertools.islice(_new_sign_chunks(n), 2))


def _sign_chunks(n: int) -> Iterator[np.ndarray]:
    """_new_sign_chunks(n), with the first two chunks kept between calls."""
    yield from _head_sign_chunks(n)
    yield from itertools.islice(_new_sign_chunks(n), 2, None)


def _class_main_counts(powers: np.ndarray, cols: int,
                       skip: Iterable[tuple[list[int], list[int]]] = ()
                       ) -> Iterator[tuple[list[int], int]]:
    """Every switching class's sign vector and exact main count, in
    enumeration order, leaving out, unranked, each class whose sign vector
    is equal on every pair (u, w) of one kind in skip (firsts, others).

    The main count is the rank of the walk columns s, As, ..., A^(cols-1) s,
    made for a whole chunk of classes in one product with the power stack;
    the rank stops growing at the main count, so any cols at least the
    distinct count gives it.
    """
    for signs in _sign_chunks(len(powers)):
        for us, ws in skip:
            signs = signs[(signs[:, us] != signs[:, ws]).any(axis=1)]
        walks = np.matmul(powers[:cols], signs.T).transpose(2, 1, 0)  # class, vertex, k
        yield from zip(signs.tolist(), map(rank_exact, walks))


def find_all_main_switching(g: Graph) -> Certificate | None:
    """First switching class (in enumeration order) whose exact profile is
    all-main, as a certificate; None when every class fails.

    Switching conjugates the adjacency matrix, which leaves the spectrum
    unchanged, so the distinct count dc is computed once per graph: the
    rank of the leading U x U Hankel block, for the twin bound U >= dc
    (_twin_bound).  The first dc walk columns decide each class.

    Twin classes also rule classes out.  dc = n - sum of (m - 1) over the
    eigenvalues' multiplicities m, and the T twin pairs of a kind give its
    eigenvalue m >= T, so dc = U forces m = T for 0 and -1 alike: each of
    their eigenspaces is exactly the span of its twin differences e_u - e_w.
    Switching by s maps an eigenvector x to diag(s) x, and j . diag(s) x =
    s . x, so an eigenvalue stays main only if s is not orthogonal to its
    eigenspace.  A class whose s is equal on every twin pair of one kind
    therefore cannot be all-main, and is skipped without a rank.
    """
    powers = _connected_powers(g)
    bound, pairs = _twin_bound(g.rows)
    dc = _distinct_count(powers[:bound])
    for s, mc in _class_main_counts(powers, dc, pairs if dc == bound else ()):
        if mc == dc:
            profile = MainProfile(main_count=mc, distinct_count=dc, all_main=True)
            x = [v for v, sv in enumerate(s, start=1) if sv < 0]
            return make_certificate(g, x, "brute_force", profile)
    return None


def switching_main_counts(g: Graph) -> list[int]:
    """Exact main count of every switching class, in enumeration order."""
    powers = _connected_powers(g)
    return [mc for _, mc in _class_main_counts(powers, len(powers))]


# ---------------------------------------------------------------------------
# Canonical forms and the connected-graph catalog
# ---------------------------------------------------------------------------


def _value_rows(values, n: int) -> np.ndarray:
    """Neighbourhood bitmask of every vertex (bit w of rows[..., v] is edge
    vw) of column-order upper-triangle bit strings, first pair most
    significant; values is one int or an array of them."""
    values = np.asarray(values, dtype=np.int64)
    rows = np.zeros(values.shape + (n,), dtype=np.int64)
    top = n * (n - 1) // 2 - 1
    for k, (i, j) in enumerate(_pairs(n)):
        bit = (values >> (top - k)) & 1
        rows[..., i] |= bit << j
        rows[..., j] |= bit << i
    return rows


def _lower_twins(rows: np.ndarray) -> np.ndarray:
    """Bitmask of every vertex's lower-numbered twins, for each graph in a
    (..., n) array of neighbourhood bitmasks.  Twins have equal
    neighbourhoods apart from each other; swapping two is an automorphism,
    and being twins is an equivalence relation."""
    bits = np.int64(1) << np.arange(rows.shape[-1], dtype=np.int64)
    twin = ((rows[..., :, None] ^ rows[..., None, :]) & ~(bits[:, None] | bits)) == 0
    return ((twin & (bits[:, None] > bits)) * bits).sum(axis=-1)


# Parents per batch of the catalog, and graphs per pass of the canonical
# kernel: these bound every array either one builds.
_PARENTS = 16
_PASS = 4096


def _canonical_values(rows: np.ndarray) -> np.ndarray:
    """Smallest column-order upper-triangle bit string over all vertex
    orders, read as an integer, of every graph in a (graphs, n) array of
    neighbourhood bitmasks.

    Positions are filled in turn, for all graphs at once.  A search state is
    a graph, its free vertices and the non-neighbour masks of the vertices
    placed so far.  Every surviving state of a graph has produced the same
    bits so far, so only the extensions whose new column (the new vertex's
    adjacency to the placed ones, first placed most significant) is the
    graph's smallest can reach the minimum.  Those vertices are found by
    keeping, for each placed vertex in turn, the non-neighbours when there
    are any.  Of the twins among them only the first is tried: swapping two
    fixes the placed vertices, so both give the same strings.  States stay
    sorted by graph, so each graph's smallest column is one reduceat.
    """
    return np.concatenate([_canonical_pass(rows[lo:lo + _PASS])
                           for lo in range(0, len(rows), _PASS)])


def _canonical_pass(rows: np.ndarray) -> np.ndarray:
    count, n = rows.shape
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    twins_below = _lower_twins(rows)
    graph = np.arange(count)
    free = np.full(count, (1 << n) - 1, dtype=np.int64)
    non_nbrs = np.zeros((count, 0), dtype=np.int64)
    value = np.zeros(count, dtype=np.int64)
    for t in range(n):
        cands, low = free, np.zeros(len(graph), dtype=np.int64)
        for k in range(t):
            narrowed = cands & non_nbrs[:, k]
            empty = narrowed == 0
            cands = narrowed | cands * empty  # all of them when none is a non-neighbour
            low = low << 1 | empty
        best = np.minimum.reduceat(low, np.flatnonzero(np.diff(graph, prepend=-1)))
        value = value << t | best
        if t == n - 1:
            break
        keep = low == best[graph]
        graph, free, cands, non_nbrs = graph[keep], free[keep], cands[keep], non_nbrs[keep]
        tried = ((cands[:, None] & bits) != 0) & (twins_below[graph] & cands[:, None] == 0)
        state, v = np.nonzero(tried)
        graph = graph[state]
        free = free[state] & ~bits[v]
        non_nbrs = np.column_stack([non_nbrs[state], ~rows[graph, v]])
    return value


def canonical_form(g: Graph) -> Graph:
    """Relabelling of g whose column-order upper-triangle bit string is the
    smallest over all n! relabellings (n <= 8), found by the level search of
    _canonical_values on a batch of one rather than by trying every
    relabelling."""
    if g.n > CANONICAL_CAP:
        raise ValueError(f"canonical form capped at n={CANONICAL_CAP}")
    value = _canonical_values(np.array([g.rows], dtype=np.int64))
    return Graph._from_rows(_value_rows(value[0], g.n).tolist())


def canonical_graph6(g: Graph) -> str:
    return emit_graph6(canonical_form(g))


def _extensions(parents: np.ndarray) -> np.ndarray:
    """Rows of the extensions of every parent in a (parents, m) array of
    canonical rows by a new vertex m whose neighbourhood passes the label
    and twin rules of _catalog_values."""
    m = parents.shape[1]
    bits = np.int64(1) << np.arange(m, dtype=np.int64)
    nbhds = np.arange(1 << m, dtype=np.int64)
    popcount = np.zeros(1 << m, dtype=np.int64)
    for b in bits:
        popcount += (nbhds & b) != 0
    inside = (nbhds[:, None] & bits) != 0  # neighbourhood, old vertex
    d = popcount  # the new vertex's degree, per neighbourhood
    deg = popcount[parents]
    adj = (parents[:, :, None] & bits) != 0
    nsum = (adj * deg[:, None, :]).sum(axis=2)
    # Parent, neighbourhood, old vertex: v's degree and neighbour-degree sum
    # in the extension.  Each neighbour of v joined to x gains a degree; v,
    # if joined, gains x.
    dv = deg[:, None, :] + inside
    sv = (nsum[:, None, :] + popcount[parents[:, None, :] & nbhds[:, None]]
          + inside * d[:, None])
    s = d + (inside * deg[:, None, :]).sum(axis=2)
    smaller = (dv < d[:, None]) | ((dv == d[:, None]) & (sv < s[:, :, None]))
    split = inside & (_lower_twins(parents)[:, None, :] & ~nbhds[:, None] != 0)
    parent, nbhd = np.nonzero(~(smaller | split).any(axis=2))
    return np.column_stack([parents[parent] | inside[nbhd] * np.int64(1 << m), nbhds[nbhd]])


@lru_cache(maxsize=None)
def _catalog_values(n: int) -> tuple[int, ...]:
    """Canonical values of ALL isomorphism classes on exactly n vertices,
    ascending, found one level at a time.

    The classes on n-1 vertices, in their canonical labelling, are taken in
    batches.  Each is extended by a new vertex x with every neighbourhood N,
    all at once, as one array over parent, N and old vertex.  An extension is
    kept only when x has the smallest label (degree, sum of its neighbours'
    degrees) of all n vertices, ties included, and N meets each twin class
    of the parent in its lowest-numbered vertices.  Nothing is lost: every
    class has a vertex w of smallest label, deleting w leaves some class on
    n-1 vertices, and adding w back to that class's canonical representative
    is an extension whose new vertex has w's label.  Permuting the parent's
    twins within their classes is an automorphism, which carries this
    extension to an isomorphic one with the same label for x whose N passes
    the twin rule.  The kept extensions of a batch go to _canonical_values
    together.  A class can still arise from several kept extensions, so the
    canonical values are collected in a set."""
    if n < 1:
        raise ValueError("the catalog needs at least one vertex")
    if n == 1:
        return (0,)
    parents = _value_rows(_catalog_values(n - 1), n - 1)
    values: set[int] = set()
    for lo in range(0, len(parents), _PARENTS):
        values.update(_canonical_values(_extensions(parents[lo:lo + _PARENTS])).tolist())
    return tuple(sorted(values))


def enumerate_connected_graphs(n: int) -> list[Graph]:
    """One canonical representative per isomorphism class of connected simple
    graphs on exactly n vertices, in canonical order."""
    if not (1 <= n <= CATALOG_CAP):
        raise ValueError(f"catalog enumeration supports 1 <= n <= {CATALOG_CAP}")
    rows = _value_rows(_catalog_values(n), n).tolist()
    return [g for g in map(Graph._from_rows, rows) if is_connected(g)]


# ---------------------------------------------------------------------------
# Conjecture verification over the catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnswitchableGraph:
    """A catalog graph with no all-main switching class, with the exact main
    count of every class as evidence."""

    graph6: str
    main_counts: tuple[int, ...]


@dataclass(frozen=True)
class VerificationReport:
    n_range: tuple[int, int]
    graphs_checked: int
    successes: int
    exceptions: tuple[UnswitchableGraph, ...]
    elapsed: float
    certificates: tuple[Certificate, ...]

    def to_json_dict(self) -> dict:
        # The elapsed time is deliberately left out so reports are
        # byte-for-byte reproducible.
        return {
            "n_range": list(self.n_range),
            "graphs_checked": self.graphs_checked,
            "successes": self.successes,
            "exceptions": [
                {"graph6": e.graph6, "main_counts": list(e.main_counts)}
                for e in self.exceptions
            ],
            "tool_version": TOOL_VERSION,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    def summary_text(self) -> str:
        lines = [
            f"connected graphs on {self.n_range[0]}..{self.n_range[1]} vertices: "
            f"{self.graphs_checked} checked, {self.successes} with an all-main switching",
        ]
        if self.exceptions:
            lines.append("exceptions (no all-main switching):")
            for e in self.exceptions:
                lines.append(f"  {e.graph6}  class main counts: {list(e.main_counts)}")
        else:
            lines.append("exceptions: none")
        lines.append(f"elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)


def _verdict(g: Graph) -> Certificate | UnswitchableGraph:
    """g's certificate, or the main count of every switching class as the
    evidence that g has none."""
    cert = find_all_main_switching(g)
    if cert is not None:
        return cert
    return UnswitchableGraph(graph6=emit_graph6(g), main_counts=tuple(switching_main_counts(g)))


def verify_conjecture(max_n: int, workers: int = 1,
                      graphs: Iterable[Graph] | None = None) -> VerificationReport:
    """Run the brute-force search over every connected catalog graph on
    2..max_n vertices (or over a supplied iterable of graphs).

    The expected outcome for max_n >= 4 is exactly two exceptions: the single
    edge and the 4-clique minus an edge.
    """
    start = time.perf_counter()
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    if graphs is None:
        if not (2 <= max_n <= CATALOG_CAP):
            raise ValueError(f"need 2 <= max_n <= {CATALOG_CAP}")
        graphs = [g for n in range(2, max_n + 1) for g in enumerate_connected_graphs(n)]
        n_range = (2, max_n)
    else:
        graphs = list(graphs)
        if not graphs:
            raise ValueError("no graphs to verify")
        n_range = (min(g.n for g in graphs), max(g.n for g in graphs))
    if workers == 1:
        verdicts = list(map(_verdict, graphs))
    else:
        # Imported here: it loads multiprocessing, which CLI start-up need not pay for.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(_verdict, graphs, chunksize=16))
    certificates = tuple(v for v in verdicts if isinstance(v, Certificate))
    return VerificationReport(
        n_range=n_range,
        graphs_checked=len(verdicts),
        successes=len(certificates),
        exceptions=tuple(v for v in verdicts if isinstance(v, UnswitchableGraph)),
        elapsed=time.perf_counter() - start,
        certificates=certificates,
    )
