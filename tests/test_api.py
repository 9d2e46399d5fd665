"""The package exports exactly the names its modules list in __all__."""

import mainswitch
from mainswitch import construct, exact, graphs, search, spectral

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
