"""The package exports exactly the names its modules list in __all__, and
its entry points read integer arguments by one rule."""

import concurrent.futures

import numpy as np
import pytest

import mainswitch
from mainswitch import (Graph, SignedGraph, as_signed, candidate_family_distinct,
                        candidate_family_equal, construct, enumerate_connected_graphs,
                        enumerate_switchings, exact, graphs, parse_graph6, search,
                        snr_all_main_switching, snr_cubic_roots, snr_spectrum, spectral,
                        verify_conjecture)

MODULES = (construct, exact, graphs, search, spectral)


def test_each_module_all_is_defined_there_and_exported():
    for module in MODULES:
        for name in module.__all__:
            obj = vars(module)[name]
            if hasattr(obj, "__qualname__"):  # a class or function, not imported
                assert obj.__module__ == module.__name__, name
            assert getattr(mainswitch, name) is obj, name


def test_package_all_is_the_union_of_the_module_lists():
    names = {name for module in MODULES for name in module.__all__}
    submodules = {module.__name__.rsplit(".", 1)[1] for module in MODULES}
    assert sorted(mainswitch.__all__) == sorted(names | submodules)


# Each call puts x where an integer belongs: a vertex, a position, a size or
# a count.
INTEGER_ARGUMENTS = {
    "SignedGraph negative edge": lambda x: SignedGraph(parse_graph6("A_"), frozenset({(1, x)})),
    "SignedGraph.sign": lambda x: as_signed(parse_graph6("A_")).sign(1, x),
    "Graph.degree": lambda x: Graph(3, [(1, 2)]).degree(x),
    "candidate_family_distinct": lambda x: candidate_family_distinct([1, 2], [x]),
    "candidate_family_equal": lambda x: candidate_family_equal([1, 1], [x]),
    "snr_cubic_roots n": lambda x: snr_cubic_roots(x, 3),
    "snr_cubic_roots r": lambda x: snr_cubic_roots(8, x),
    "snr_spectrum n": lambda x: snr_spectrum(x, 3),
    "snr_spectrum r": lambda x: snr_spectrum(8, x),
    "snr_all_main_switching n": lambda x: snr_all_main_switching(x, 3),
    "snr_all_main_switching r": lambda x: snr_all_main_switching(8, x),
    "enumerate_switchings": lambda x: list(enumerate_switchings(x)),
    "enumerate_connected_graphs": enumerate_connected_graphs,
    "verify_conjecture max_n": lambda x: verify_conjecture(x),
    "verify_conjecture workers": lambda x: verify_conjecture(2, workers=x),
}


@pytest.mark.parametrize("value", [2.0, "2", None, np.True_], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_reject_other_types(monkeypatch, call, value):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        call(value)
