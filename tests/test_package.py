"""The package surface: each module's __all__ is the one list of its public names."""

import importlib
import types

import pytest

import spinheat

_EXPORTED = ("sectors", "thermo", "thermometry", "otto", "dynamics")


def _all(name):
    return importlib.import_module(f"spinheat.{name}").__all__


def test_public_lists_are_disjoint():
    names = [n for module in _EXPORTED for n in _all(module)]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module", _EXPORTED)
def test_every_listed_name_resolves_in_its_module_and_the_package(module):
    mod = importlib.import_module(f"spinheat.{module}")
    for name in mod.__all__:
        assert getattr(spinheat, name) is getattr(mod, name)


def test_namespace_is_the_lists_and_the_submodules():
    # so no name of oracle, cli or special (main, coth, trajectory, ...) is star-exported
    public = {n for n in vars(spinheat) if not n.startswith("_")}
    modules = {n for n in public if isinstance(getattr(spinheat, n), types.ModuleType)}
    assert public - modules == {n for m in _EXPORTED for n in _all(m)}
