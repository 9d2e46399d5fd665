"""Workload inputs shared by the runner and the reference recorder.

Nothing here imports mainswitch: the runner generates inputs and checks
outputs with its own graph6 codec and generators, so a change to the
program cannot change what it is measured against.
"""

from __future__ import annotations

import gzip
import itertools
import random
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

CATALOG_CERTS = REFERENCE_DIR / "catalog_certs.jsonl.gz"
CATALOG_REPORT = REFERENCE_DIR / "catalog_report.json"
FAMILY_OUTPUTS = REFERENCE_DIR / "family_outputs.jsonl.gz"
CONSTRUCTION_CERTS = REFERENCE_DIR / "construction_certs.jsonl.gz"
SPECTRUM_POOL = REFERENCE_DIR / "spectrum_pool.jsonl.gz"

# The clique-with-pendants grid (acceptance criterion C2).
SNR_GRID = [(n, r) for r in range(1, 11) for n in range(r + 3, r + 13)]
# Every partition of n is a complete multipartite shape (criterion C5).
PARTITION_NS = range(2, 21)
RANDOM_SHAPE_N = (8, 40)
RANDOM_SHAPE_POOL = 400
RANDOM_SHAPES_PER_RUN = 50
# Construction certificates for cert-recheck: one snr and one multipartite
# record per size, the same for every seed, because the cost of re-checking
# an snr record at n = 60 ranges over 2.5x with r.
CERT_NS = (24, 30, 36, 42, 48, 54, 60)
TAMPER_SHARE = 0.05
TAMPER_FIELDS = ("main_count", "distinct_count", "all_main")
# Spectrum batch: one graph of each kind per size, drawn from a pool.
SPECTRUM_NS = (20, 28, 36, 44, 52, 60)
SPECTRUM_KINDS = ("gnp", "twins")
SPECTRUM_POOL_PER_KIND = 4


# ---------------------------------------------------------------------------
# graph6 (single-byte size form, n <= 62), edges as 1-based pairs u < v
# ---------------------------------------------------------------------------


def _pair_order(n: int):
    for j in range(2, n + 1):
        for i in range(1, j):
            yield (i, j)


def g6_encode(n: int, edges: set[tuple[int, int]]) -> str:
    bits = [1 if pair in edges else 0 for pair in _pair_order(n)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def g6_decode(text: str) -> tuple[int, set[tuple[int, int]]]:
    raw = text.strip().encode("ascii")
    n = raw[0] - 63
    bits = [((c - 63) >> s) & 1 for c in raw[1:] for s in (5, 4, 3, 2, 1, 0)]
    return n, {pair for pair, bit in zip(_pair_order(n), bits) if bit}


def relabel(edges: set[tuple[int, int]], perm: list[int]) -> set[tuple[int, int]]:
    """Image of the edge set under vertex v -> perm[v - 1]."""
    out = set()
    for u, v in edges:
        a, b = perm[u - 1], perm[v - 1]
        out.add((a, b) if a < b else (b, a))
    return out


def is_connected(n: int, edges: set[tuple[int, int]]) -> bool:
    nbrs: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, stack = {1}, [1]
    while stack:
        for w in nbrs[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


# ---------------------------------------------------------------------------
# Graph families and random graphs
# ---------------------------------------------------------------------------


def partitions(n: int, maxp: int | None = None):
    if maxp is None:
        maxp = n
    if n == 0:
        yield []
        return
    for p in range(min(n, maxp), 0, -1):
        for rest in partitions(n - p, p):
            yield [p] + rest


def blocks_of(partition: list[int]) -> list[tuple[int, int]]:
    return [(partition.count(size), size) for size in sorted(set(partition), reverse=True)]


def blocks_key(blocks) -> str:
    """CLI spelling of a multipartite shape, e.g. '2x3,1x1'."""
    return ",".join(f"{l}x{t}" for l, t in blocks)


def parse_blocks_key(key: str) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in item.split("x")) for item in key.split(",")]


def blocks_n(blocks) -> int:
    return sum(l * t for l, t in blocks)


def random_blocks(rng: random.Random, n_lo: int, n_hi: int, max_s: int = 5):
    while True:
        s = rng.randrange(1, max_s + 1)
        sizes = sorted(rng.sample(range(1, 11), s), reverse=True)
        blocks = [(rng.randrange(1, 5), t) for t in sizes]
        if n_lo <= blocks_n(blocks) <= n_hi:
            return blocks


def random_blocks_of_order(rng: random.Random, n: int):
    """A random shape with exactly n vertices and at least two groups."""
    while True:
        part = []
        left = n
        while left:
            part.append(rng.randint(1, min(left, 12)))
            left -= part[-1]
        blocks = blocks_of(sorted(part, reverse=True))
        if len(blocks) >= 2:
            return blocks


def random_connected_gnp(rng: random.Random, n: int) -> set[tuple[int, int]]:
    p = rng.uniform(0.15, 0.5)
    while True:
        edges = {(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < p}
        if is_connected(n, edges):
            return edges


def random_connected_twins(rng: random.Random, n: int) -> set[tuple[int, int]]:
    """A random connected base graph blown up by open and closed twins, so
    the spectrum has repeated eigenvalues 0 and -1 and some are not main."""
    k = n // 2
    base = random_connected_gnp(rng, k)
    nbrs = {v: set() for v in range(1, n + 1)}
    for u, v in base:
        nbrs[u].add(v)
        nbrs[v].add(u)
    for w in range(k + 1, n + 1):
        v = rng.randrange(1, k + 1)
        nbrs[w] = set(nbrs[v])
        for u in nbrs[v]:
            nbrs[u].add(w)
        if rng.random() < 0.5:  # closed twin: also adjacent to its original
            nbrs[w].add(v)
            nbrs[v].add(w)
    return {(u, v) for u in nbrs for v in nbrs[u] if u < v}


# ---------------------------------------------------------------------------
# Reference files
# ---------------------------------------------------------------------------


def read_gz_lines(path: Path) -> list[str]:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def write_gz_lines(path: Path, lines: list[str]) -> None:
    # mtime=0 keeps the compressed bytes reproducible.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
        gz.write("".join(line + "\n" for line in lines).encode("utf-8"))


def random_shape_pool() -> list[list[tuple[int, int]]]:
    """Fixed pool of random multipartite shapes; a run draws its sample."""
    rng = random.Random("random-shape-pool")
    return [random_blocks(rng, *RANDOM_SHAPE_N) for _ in range(RANDOM_SHAPE_POOL)]


def shape_item(blocks) -> dict:
    return {"family": "multipartite", "blocks": blocks_key(blocks)}


def fixed_family_items() -> list[dict]:
    """The snr grid, then every partition shape."""
    items = [{"family": "snr", "n": n, "r": r} for n, r in SNR_GRID]
    for n in PARTITION_NS:
        items.extend(shape_item(blocks_of(part)) for part in partitions(n))
    return items


def family_items(seed: int) -> list[dict]:
    """family-construct input: the fixed items, then a seeded sample of the
    random shape pool."""
    rng = random.Random(f"family-{seed}")
    sample = rng.sample(random_shape_pool(), RANDOM_SHAPES_PER_RUN)
    return fixed_family_items() + [shape_item(b) for b in sample]


def item_key(item: dict) -> str:
    if item["family"] == "snr":
        return f"snr {item['n']} {item['r']}"
    return f"multipartite {item['blocks']}"
