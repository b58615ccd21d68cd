"""The package namespace: ``torsob.__all__`` is exactly the union of its
modules' ``__all__`` lists, and every name in it resolves."""

import pkgutil
from importlib import import_module

import torsob


def test_package_exports_every_module_export():
    listed = {"__version__"}
    for info in pkgutil.iter_modules(torsob.__path__):
        listed |= set(getattr(import_module("torsob." + info.name), "__all__", ()))
    assert len(torsob.__all__) == len(set(torsob.__all__))
    assert set(torsob.__all__) == listed
    for name in torsob.__all__:
        assert getattr(torsob, name) is not None
