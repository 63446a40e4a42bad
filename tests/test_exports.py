"""Every module's ``__all__`` lists exactly its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import weyltriplets

# the package and every submodule that declares an __all__
MODULES = [
    name for name in [weyltriplets.__name__] + [
        "%s.%s" % (weyltriplets.__name__, m.name)
        for m in pkgutil.iter_modules(weyltriplets.__path__)
    ]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_definitions(name):
    mod = importlib.import_module(name)
    listed = mod.__all__
    assert [n for n in listed if not hasattr(mod, n)] == []
    defined = {
        n for n, obj in vars(mod).items()
        if not n.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == name
    }
    assert sorted(defined - set(listed)) == []
