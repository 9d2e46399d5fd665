"""Spans around calls into mainswitch's public functions, from outside it.

Each traced function is replaced by a wrapper on every mainswitch module
attribute bound to it (``rank_exact`` is imported into ``search``,
``main_profile`` into ``construct``, ``search`` and ``cli``), so calls made
inside the program are seen as well as calls made by the benchmark.  A
span's self time is its duration minus the durations of the traced spans it
directly encloses.  Spans are timed with the clock given to the Tracer; the
child gives one that leaves out its calibration loops.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# (module, function) pairs whose calls are timed.
TRACED = (
    ("search", "enumerate_connected_graphs"),
    ("search", "find_all_main_switching"),
    ("search", "verify_certificate"),
    ("exact", "char_poly"),
    ("exact", "walk_matrix"),
    ("exact", "rank_exact"),
    ("exact", "distinct_eigenvalue_count"),
    ("exact", "main_profile"),
    ("spectral", "eigen_sym"),
    ("spectral", "classify_main"),
    ("spectral", "multipartite_secular_roots"),
    ("spectral", "snr_cubic_roots"),
    ("construct", "multipartite_all_main_switching"),
    ("construct", "snr_all_main_switching"),
    ("graphs", "parse_graph6"),
    ("graphs", "adjacency_matrix"),
    ("graphs", "apply_switching"),
    ("cli", "run"),
)


class Tracer:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.durations: dict[str, list[float]] = {f"{m}.{f}": [] for m, f in TRACED}
        self.self_s: dict[str, float] = dict.fromkeys(self.durations, 0.0)
        # One entry per open span: the time taken by its traced children.
        self._open: list[float] = []

    def _wrap(self, name: str, fn):
        durations = self.durations[name]
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.self_s[name] += elapsed - open_spans.pop()
                durations.append(elapsed)
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in every loaded
        mainswitch module."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mainswitch" or name.startswith("mainswitch.")]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"mainswitch.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict[str, dict[str, float]]:
        out = {}
        for name, durations in self.durations.items():
            ds = sorted(durations)
            out[name] = {
                "calls": len(ds),
                "total_s": sum(ds),
                "self_s": self.self_s[name],
                "p50_ms": 1e3 * quantile(ds, 0.5),
                "tail_ms": 1e3 * quantile(ds, tail_quantile(len(ds))),
            }
        return out


def tail_quantile(count: int) -> float:
    """The highest of p99.9, p99 and p90 with at least ten samples beyond
    it; the median when there are too few samples for any of them."""
    for q in (0.999, 0.99, 0.9):
        if count * (1 - q) >= 10:
            return q
    return 0.5


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
