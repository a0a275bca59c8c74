"""Every name that pemsim or one of its modules exports resolves."""

import importlib
import pkgutil

import pytest

import pemsim
from pemsim import core, transient

MODULES = ["pemsim"] + [f"pemsim.{info.name}"
                        for info in pkgutil.iter_modules(pemsim.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_their_home_objects():
    """A lazily resolved export is the object its home module defines."""
    for name in pemsim.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"pemsim.{pemsim._HOME[name]}")
        assert name in home.__all__, name
        assert getattr(pemsim, name) is getattr(home, name), name


def test_simulation_config_and_error_are_one_object_each():
    for name in ("SimConfig", "SimulationError"):
        assert getattr(core, name) is getattr(transient, name)
        assert getattr(core, name) is getattr(pemsim, name)
        assert name in core.__all__ and name in transient.__all__
    assert issubclass(transient.PhysicalBoundsError, core.SimulationError)
    assert pemsim.PhysicalBoundsError is transient.PhysicalBoundsError


def test_dir_lists_every_export():
    assert set(pemsim.__all__) <= set(dir(pemsim))
    assert "__all__" in dir(pemsim)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(pemsim, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pemsim import *", namespace)
    assert set(pemsim.__all__) <= set(namespace)
    for name in pemsim.__all__:
        assert namespace[name] is getattr(pemsim, name), name
