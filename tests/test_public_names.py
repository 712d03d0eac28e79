"""Every name that the package and its submodules export resolves."""

import importlib
import pkgutil

import pytest

import girthmax

MODULES = ["girthmax"] + sorted(f"girthmax.{info.name}" for info in pkgutil.iter_modules(girthmax.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate __all__ entry"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_public_modules_declare_all():
    declared = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]
    assert declared == ["girthmax", "girthmax.bounds", "girthmax.btu", "girthmax.girth", "girthmax.perm", "girthmax.search"]


SUBMODULES = [girthmax.btu, girthmax.girth, girthmax.perm, girthmax.search]


def test_the_package_exports_each_submodules_all():
    assert set(girthmax.__all__) == {name for module in SUBMODULES for name in module.__all__}
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(girthmax, name) is getattr(module, name), (module.__name__, name)
