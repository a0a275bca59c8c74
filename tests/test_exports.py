"""Every name that pemsim or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import pemsim

MODULES = ["pemsim"] + [f"pemsim.{info.name}"
                        for info in pkgutil.iter_modules(pemsim.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
