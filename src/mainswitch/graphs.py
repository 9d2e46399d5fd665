"""Graphs, signed graphs, switchings, file formats, and the two graph families.

Vertices are labelled 1..n everywhere.  The family constructors fix the
labelling that the switching constructions depend on: pendant vertices come
first in the clique-with-pendants family, and complete multipartite parts are
laid out consecutively in declaration order.  File formats translate indices
at the boundary only.

A Graph stores n and its neighbourhood rows, one bitmask per vertex: its
graph6 record, connectivity and int64 adjacency array (_adjacency_array) come
from them, and its edge set is derived when first read.  graph6 records are
decoded in one place, into an int64 adjacency array, which certificate
re-checks switch by the sign vector (_switched_array, the one switched-matrix
rule, which the constructions use too) without building a Graph at all.

All values here are immutable after construction and safe to share between
concurrent workers.
"""

from __future__ import annotations

import binascii
import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

Edge = tuple[int, int]

__all__ = [
    "Edge",
    "Graph",
    "GraphFormatError",
    "MultipartiteParams",
    "SignedGraph",
    "SnrParams",
    "adjacency_matrix",
    "apply_switching",
    "as_signed",
    "emit_graph6",
    "format_signed_edge_list",
    "is_connected",
    "make_multipartite",
    "make_snr",
    "parse_graph6",
    "parse_signed_edge_list",
]


class GraphFormatError(ValueError):
    """Malformed textual graph input; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None) -> None:
        super().__init__(message if offset is None else f"{message} (byte {offset})")
        self.offset = offset


def _norm_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@functools.lru_cache(maxsize=None)
def _transpose_masks(n: int) -> tuple[int, int]:
    # sum of 2^(n k) and of 2^((n + 1) k) over k < n; see Graph._from_rows.
    return sum(1 << n * k for k in range(n)), sum(1 << (n + 1) * k for k in range(n))


@dataclass(frozen=True, init=False)
class Graph:
    """Simple undirected graph on vertices 1..n, stored as its neighbourhood
    rows: bit w-1 of rows[v-1] is edge vw.  Graph(n, edges) takes pairs
    (u, v), u < v; edges, their frozenset, is derived from the rows when
    first read.  Equality and hash come from (n, rows)."""

    n: int
    rows: tuple[int, ...]

    def __init__(self, n: int, edges: Iterable[Edge]) -> None:
        if n < 1:
            raise ValueError("vertex count must be positive")
        rows = [0] * n
        for u, v in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{n} or not ordered")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(cls, rows: list[int]) -> "Graph":
        """The graph with these neighbourhood rows (Python ints), checked with
        bit operations on whole rows.  Symmetry compares rows and columns laid
        out at stride n+1: bit w of row r times sum 2^(n k) lands on a
        multiple of n+1 only in copy k = w, and no product bits overlap."""
        n = len(rows)
        g = cls(n, ())
        spread, diagonal = _transpose_masks(n)
        by_rows = by_cols = 0
        for v, row in enumerate(rows):
            if row >> n:  # also a negative row
                w = n + (row >> n).bit_length()
                raise ValueError(f"edge ({v + 1},{w}) out of range 1..{n} or not ordered")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v + 1}")
            by_rows |= row << (n + 1) * v
            by_cols |= (row * spread & diagonal) << v
        if by_rows != by_cols:
            raise ValueError("neighbourhood rows not symmetric")
        object.__setattr__(g, "rows", tuple(rows))
        return g

    @functools.cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset((v + 1, w + 1) for v, w in _pairs(self.n) if self.rows[v] >> w & 1)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        seen: set[Edge] = set()
        for u, v in edges:
            e = _norm_edge(u, v)
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        return cls(n, frozenset(seen))

    def degree(self, u: int) -> int:
        if not 1 <= u <= self.n:
            raise ValueError(f"vertex {u} out of range 1..{self.n}")
        return self.rows[u - 1].bit_count()


@dataclass(frozen=True)
class SignedGraph:
    """A graph together with a +1/-1 sign on every edge.

    Only the negative edges are stored; an all-positive signed graph has the
    same adjacency matrix as its underlying graph.
    """

    graph: Graph
    negative: frozenset[Edge]

    def __post_init__(self) -> None:
        stray = self.negative - self.graph.edges
        if stray:
            raise ValueError(f"negative signs on non-edges: {sorted(stray)}")

    @property
    def n(self) -> int:
        return self.graph.n

    def sign(self, u: int, v: int) -> int:
        e = _norm_edge(u, v)
        if e not in self.graph.edges:
            raise ValueError(f"no edge {e}")
        return -1 if e in self.negative else 1


def as_signed(g: Graph | SignedGraph) -> SignedGraph:
    """Promote a plain graph to its all-positive signed form."""
    if isinstance(g, SignedGraph):
        return g
    return SignedGraph(g, frozenset())


def apply_switching(g: Graph | SignedGraph, x: Iterable[int]) -> SignedGraph:
    """Switch about the vertex set x: negate the sign of every edge with
    exactly one endpoint in x.

    Applying the same set twice is the identity, and a set and its complement
    produce the same signed graph.
    """
    sg = as_signed(g)
    xs = frozenset(x)
    for v in xs:
        if not (1 <= v <= sg.n):
            raise ValueError(f"switched vertex {v} out of range 1..{sg.n}")
    negative = set(sg.negative)
    for e in sg.graph.edges:
        u, v = e
        if (u in xs) != (v in xs):
            if e in negative:
                negative.discard(e)
            else:
                negative.add(e)
    return SignedGraph(sg.graph, frozenset(negative))


def adjacency_matrix(g: Graph | SignedGraph) -> list[list[int]]:
    """Symmetric integer adjacency matrix with entries in {-1, 0, 1}."""
    sg = as_signed(g)
    n = sg.n
    a = [[0] * n for _ in range(n)]
    for u, v in sg.graph.edges:
        s = -1 if (u, v) in sg.negative else 1
        a[u - 1][v - 1] = s
        a[v - 1][u - 1] = s
    return a


def _adjacency_array(g: Graph | SignedGraph) -> np.ndarray:
    """The int64 adjacency array of g, unpacked from its neighbourhood rows;
    a signed graph's negative edges are -1."""
    graph, negative = (g.graph, g.negative) if isinstance(g, SignedGraph) else (g, ())
    n = graph.n
    width = (n + 7) // 8
    rows = np.frombuffer(b"".join([r.to_bytes(width, "little") for r in graph.rows]),
                         np.uint8).reshape(n, width)
    a = np.unpackbits(rows, axis=1, count=n, bitorder="little").astype(np.int64)
    for u, v in negative:
        a[u - 1, v - 1] = a[v - 1, u - 1] = -1
    return a


def _switched_array(a: np.ndarray, x: Iterable[int]) -> np.ndarray:
    """The int64 adjacency array a switched about the vertex set x: entry uv
    times s_u s_v, with s_v = -1 on x and 1 elsewhere.  a is not modified.

    Raises the ValueError of apply_switching for a vertex outside 1..n.
    """
    n = len(a)
    idx = [v - 1 for v in x]
    for v in idx:
        if not (0 <= v < n):
            raise ValueError(f"switched vertex {v + 1} out of range 1..{n}")
    s = np.ones(n, dtype=np.int64)
    s[idx] = -1
    return a * s[:, None] * s


def is_connected(g: Graph | SignedGraph) -> bool:
    rows = (g.graph if isinstance(g, SignedGraph) else g).rows
    seen = todo = 1
    while todo:
        v = todo.bit_length() - 1
        todo ^= 1 << v
        new = rows[v] & ~seen
        seen |= new
        todo |= new
    return seen == (1 << len(rows)) - 1


# ---------------------------------------------------------------------------
# graph6 codec (single-byte size form, n <= 62)
# ---------------------------------------------------------------------------

_G6_HEADER = ">>graph6<<"


def _pairs(n: int) -> list[Edge]:
    # 0-based upper-triangle pairs in column order: (0,1), (0,2), (1,2), ...;
    # pairs inside the first k vertices form a prefix, which the catalog's
    # vertex-by-vertex augmentation relies on.
    return [(i, j) for j in range(1, n) for i in range(j)]


@functools.lru_cache(maxsize=None)
def _pair_cells(n: int) -> np.ndarray:
    # Flat indices of the _pairs cells in an n x n array, in graph6 bit order.
    return np.array(_pairs(n), dtype=np.intp).reshape(-1, 2) @ np.array([n, 1])


def _graph6_adjacency(text: str) -> np.ndarray:
    """Decode one graph6 record (standard 63-offset encoding, n <= 62) into
    its int64 adjacency array; see parse_graph6.  The bit field is read as
    one integer, six bits a byte; its padding bits are checked with one
    mask, and its pair bits land in the upper triangle through the cached
    cell indices of n."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 record", 0)
    try:
        raw = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ASCII character in graph6 record", exc.start) from None
    head = raw[0]
    if head == 126:
        raise GraphFormatError("multi-byte vertex count (n > 62) not supported", 0)
    if not (63 <= head <= 125):
        raise GraphFormatError(f"malformed size byte {chr(head)!r}", 0)
    n = head - 63
    if n == 0:
        raise GraphFormatError("graph must have at least one vertex", 0)
    npairs = n * (n - 1) // 2
    nbytes = (npairs + 5) // 6
    body = raw[1:]
    if len(body) < nbytes:
        raise GraphFormatError(
            f"truncated bit field: need {nbytes} bytes, got {len(body)}", len(raw))
    if len(body) > nbytes:
        raise GraphFormatError("trailing data after bit field", 1 + nbytes)
    field = 0
    for off, ch in enumerate(body, start=1):
        if not (63 <= ch <= 126):
            raise GraphFormatError(f"character {chr(ch)!r} outside graph6 range", off)
        field = field << 6 | (ch - 63)
    pad = 6 * nbytes - npairs
    if field & ((1 << pad) - 1):
        raise GraphFormatError("nonzero padding bits", 1 + npairs // 6)
    size = (npairs + 7) // 8
    bits = np.unpackbits(np.frombuffer(
        (field >> pad << (8 * size - npairs)).to_bytes(size, "big"), np.uint8), count=npairs)
    a = np.zeros((n, n), dtype=np.int64)
    a.reshape(-1)[_pair_cells(n)] = bits
    return a + a.T


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record (standard 63-offset encoding, n <= 62) by
    the checks, and into the adjacency array, that ``verify_certificate``
    uses; the optional ``>>graph6<<`` prefix is accepted, and errors report
    the byte offset of the offending character within the record."""
    a = _graph6_adjacency(text)
    return Graph._from_rows((a @ (1 << np.arange(len(a), dtype=np.int64))).tolist())


# graph6 writes six bits a character, as base64 does: base64's alphabet, in
# order, becomes the characters 63..126.
_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


def emit_graph6(g: Graph) -> str:
    """Encode a graph as one graph6 record (n <= 62).  Column j of the bit
    field is the low j bits of row j (0-based); the field is read first pair
    first, padded to whole three-byte groups and written six bits a char."""
    n = g.n
    if n > 62:
        raise ValueError("graph6 emission supports n <= 62 only")
    field = 0  # the first pair least significant
    for j in range(n - 1, 0, -1):
        field = field << j | g.rows[j] & ((1 << j) - 1)
    npairs = n * (n - 1) // 2
    size = (npairs + 23) // 24 * 3
    first_pair_first = int(format(field, f"0{npairs}b")[::-1], 2) << (8 * size - npairs)
    chars = binascii.b2a_base64(first_pair_first.to_bytes(size, "big"), newline=False)
    return chr(n + 63) + chars.translate(_BASE64_TO_GRAPH6)[:(npairs + 5) // 6].decode("ascii")


# ---------------------------------------------------------------------------
# Signed edge list format: "n m" then m lines "u v s" with s in {+,-}
# ---------------------------------------------------------------------------


def parse_signed_edge_list(text: str) -> SignedGraph:
    """Parse the signed edge-list format: header ``n m`` (n <= 62, the graph6
    limit) then ``u v s`` lines."""
    lines = [ln.strip() for ln in text.splitlines()]
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln]
    if not rows:
        raise GraphFormatError("empty signed edge list")
    header = rows[0][1].split()
    if len(header) != 2:
        raise GraphFormatError(f"header must be 'n m', got {rows[0][1]!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(f"non-integer header {rows[0][1]!r}") from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"invalid header values n={n} m={m}")
    if n > 62:
        raise GraphFormatError(f"vertex count {n} above the limit of 62")
    data = rows[1:]
    if len(data) != m:
        raise GraphFormatError(f"expected {m} edge lines, found {len(data)}")
    edges: set[Edge] = set()
    negative: set[Edge] = set()
    for lineno, ln in data:
        parts = ln.split()
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'u v s', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoints in {ln!r}") from None
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u < v <= n):
            raise GraphFormatError(f"line {lineno}: need 1 <= u < v <= {n}, got {u} {v}")
        sign = parts[2]
        if sign not in ("+", "-"):
            raise GraphFormatError(f"line {lineno}: bad sign token {sign!r}")
        e = (u, v)
        if e in edges:
            raise GraphFormatError(f"line {lineno}: duplicate edge {e}")
        edges.add(e)
        if sign == "-":
            negative.add(e)
    return SignedGraph(Graph(n, frozenset(edges)), frozenset(negative))


def format_signed_edge_list(sg: SignedGraph) -> str:
    lines = [f"{sg.n} {len(sg.graph.edges)}"]
    for u, v in sorted(sg.graph.edges):
        lines.append(f"{u} {v} {'-' if (u, v) in sg.negative else '+'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SnrParams:
    """Clique on n-r vertices with r pendant edges at one clique vertex.

    Pendants are v1..vr, the attachment vertex (degree n-1) is v_{r+1}, the
    remaining clique vertices are v_{r+2}..vn.
    """

    n: int
    r: int

    def __post_init__(self) -> None:
        if self.r < 0:
            raise ValueError("pendant count must be nonnegative")
        if self.n < self.r + 1:
            raise ValueError(f"need n >= r+1, got n={self.n} r={self.r}")

    @property
    def pendants(self) -> range:
        return range(1, self.r + 1)

    @property
    def center(self) -> int:
        return self.r + 1


def make_snr(p: SnrParams) -> Graph:
    """Build the clique-with-pendants graph with the canonical labelling."""
    pendants = (1 << p.r) - 1
    clique = (1 << p.n) - 1 ^ pendants
    rows = [1 << p.r] * p.r + [clique ^ 1 << v for v in range(p.r, p.n)]
    rows[p.r] |= pendants
    return Graph._from_rows(rows)


@dataclass(frozen=True)
class MultipartiteParams:
    """Complete multipartite layout: blocks (l_i, t_i) of l_i parts of size t_i.

    Part sizes must strictly decrease.  Vertices are numbered consecutively
    part by part, group by group; ``offsets[i-1]`` is the number of vertices
    before group i.
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("at least one block required")
        for l, t in self.blocks:
            if l < 1:
                raise ValueError(f"part count must be >= 1, got {l}")
            if t < 1:
                raise ValueError(f"part size must be >= 1, got {t}")
        sizes = [t for _, t in self.blocks]
        if any(nxt >= prev for nxt, prev in zip(sizes[1:], sizes)):
            raise ValueError(f"part sizes must strictly decrease, got {sizes}")

    @classmethod
    def of(cls, blocks: Iterable[tuple[int, int]]) -> "MultipartiteParams":
        return cls(tuple((int(l), int(t)) for l, t in blocks))

    @property
    def s(self) -> int:
        return len(self.blocks)

    @functools.cached_property
    def counts(self) -> tuple[int, ...]:
        return tuple(l for l, _ in self.blocks)

    @functools.cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(t for _, t in self.blocks)

    @functools.cached_property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(l * t for l, t in self.blocks)

    @functools.cached_property
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.group_sizes[:-1], initial=0))

    @functools.cached_property
    def n(self) -> int:
        return sum(self.group_sizes)

    def group_range(self, i: int) -> range:
        f = self.offsets[i - 1]
        return range(f + 1, f + self.group_sizes[i - 1] + 1)

    def part_range(self, i: int, j: int) -> range:
        l, t = self.blocks[i - 1]
        if not (1 <= j <= l):
            raise ValueError(f"group {i} has {l} parts, asked for part {j}")
        f = self.offsets[i - 1] + (j - 1) * t
        return range(f + 1, f + t + 1)

    def parts(self) -> Iterator[range]:
        for i in range(1, self.s + 1):
            for j in range(1, self.counts[i - 1] + 1):
                yield self.part_range(i, j)


def make_multipartite(p: MultipartiteParams) -> Graph:
    """Complete multipartite graph: u ~ v iff they lie in different parts."""
    everyone = (1 << p.n) - 1
    rows: list[int] = []
    for part in p.parts():
        rows += [everyone ^ (1 << part.stop - 1) - (1 << part.start - 1)] * len(part)
    return Graph._from_rows(rows)
