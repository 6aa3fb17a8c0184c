"""The package namespace is the union of its modules' ``__all__`` lists."""

import importlib

import pytest

import drsubmax

_MODULES = ("analysis", "bounds", "geometry", "objectives", "optimizers", "oracles")


@pytest.mark.parametrize("module", _MODULES)
def test_every_public_name_is_the_module_object(module):
    mod = importlib.import_module(f"drsubmax.{module}")
    for name in mod.__all__:
        assert getattr(drsubmax, name) is getattr(mod, name), name


def test_all_is_the_union_with_no_name_twice():
    names = [name for module in _MODULES
             for name in importlib.import_module(f"drsubmax.{module}").__all__]
    assert len(set(names)) == len(names)
    assert sorted(drsubmax.__all__) == sorted(names)
    # the command line stays out of the package namespace
    assert "main" not in vars(drsubmax)
