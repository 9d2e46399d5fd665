"""The package exports exactly the names its modules list in __all__, and
its entry points read integer arguments by one rule."""

import concurrent.futures
import dataclasses
import inspect
import re

import numpy as np
import pytest

import mainswitch
from mainswitch import (Graph, MainProfile, MultipartiteParams, SignedGraph, SnrParams,
                        apply_switching, as_signed, candidate_family_distinct,
                        candidate_family_equal, construct, enumerate_connected_graphs,
                        enumerate_switchings, exact, flip, graphs, make_certificate,
                        parse_graph6, search, snr_all_main_switching, snr_cubic_roots,
                        snr_spectrum, spectral, verify_conjecture, walk_matrix)

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
# a count.  A key is "callable parameter", or the callable alone for its one
# integer parameter that has no row of its own; a class stands for its
# constructor.
INTEGER_ARGUMENTS = {
    "SignedGraph negative edge": lambda x: SignedGraph(parse_graph6("A_"), frozenset({(1, x)})),
    "SignedGraph.sign u": lambda x: as_signed(parse_graph6("A_")).sign(x, 2),
    "SignedGraph.sign": lambda x: as_signed(parse_graph6("A_")).sign(1, x),
    "Graph n": lambda x: Graph(x, []),
    "Graph.from_edges": lambda x: Graph.from_edges(x, []),
    "Graph.degree": lambda x: Graph(3, [(1, 2)]).degree(x),
    "SnrParams n": lambda x: SnrParams(x, 3),
    "SnrParams r": lambda x: SnrParams(8, x),
    "MultipartiteParams.group_range": lambda x: MultipartiteParams.of([(2, 1)]).group_range(x),
    "apply_switching": lambda x: apply_switching(parse_graph6("A_"), [x]),
    "flip": lambda x: flip([1, 2], [x]),
    "make_certificate": lambda x: make_certificate(
        parse_graph6("A_"), [x], "constructive", MainProfile(1, 2, False)),
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
    "walk_matrix start": lambda x: walk_matrix([[0, 1], [1, 0]], [1, x]),
}


@pytest.mark.parametrize("value", [2.0, "2", None, np.True_], ids=repr)
@pytest.mark.parametrize("call", INTEGER_ARGUMENTS.values(), ids=INTEGER_ARGUMENTS.keys())
def test_integer_arguments_reject_other_types(monkeypatch, call, value):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError):
        call(value)


# Public integer parameters that need no row, each with the reason.
INTEGER_EXEMPT = {
    "GraphFormatError offset": "the byte offset that a parser reports, never read from a caller",
}
# An annotation that takes integers: int bare, in Sequence[...], Iterable[...]
# or list[...], or with "| None".
_INT_ANNOTATION = re.compile(r"(int|Sequence\[int\]|Iterable\[int\]|list\[int\])( \| None)?")


def _takes_values_as_given(cls):
    # A result dataclass that the package builds: the generated __init__
    # with no __post_init__ to read its fields.
    return (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.init
            and not hasattr(cls, "__post_init__"))


def _public_integer_parameters():
    """(callable, [integer parameters]) for every function in
    mainswitch.__all__, and for the constructor and public methods of every
    class there except the results the package builds."""
    found = []
    for name in mainswitch.__all__:
        obj = getattr(mainswitch, name)
        if inspect.isfunction(obj):
            found.append((name, obj))
        elif inspect.isclass(obj):
            for attr in vars(obj):
                fn = getattr(obj, attr)
                if attr == "__init__" and not _takes_values_as_given(obj):
                    found.append((name, fn))
                elif not attr.startswith("_") and (inspect.isfunction(fn)
                                                   or inspect.ismethod(fn)):
                    found.append((f"{name}.{attr}", fn))
    return [(key, [p.name for p in inspect.signature(fn).parameters.values()
                   if isinstance(p.annotation, str) and _INT_ANNOTATION.fullmatch(p.annotation)])
            for key, fn in found]


def test_integer_rows_cover_every_public_integer_parameter():
    walked = {key: params for key, params in _public_integer_parameters() if params}
    # The walk reaches functions, constructors, methods and classmethods.
    for key, param in (("snr_all_main_switching", "r"), ("SnrParams", "n"),
                       ("MultipartiteParams.group_range", "i"), ("Graph.from_edges", "n"),
                       ("make_certificate", "switching"), ("GraphFormatError", "offset"),
                       ("walk_matrix", "start")):
        assert param in walked.get(key, ()), (key, param)
    missing = []
    for key, params in walked.items():
        rest = [p for p in params if f"{key} {p}" not in INTEGER_ARGUMENTS
                and f"{key} {p}" not in INTEGER_EXEMPT]
        if rest and not (len(rest) == 1 and key in INTEGER_ARGUMENTS):
            missing += [f"{key} {p}" for p in rest]
    assert not missing
