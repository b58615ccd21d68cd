"""The package namespace: ``torsob.__all__`` is exactly the union of its
modules' ``__all__`` lists, every name in it resolves, and each exported
function or class is declared once, in the module that exports it."""

import inspect
import pkgutil
from importlib import import_module

import torsob


def _modules():
    names = [info.name for info in pkgutil.iter_modules(torsob.__path__)]
    return [import_module("torsob." + name) for name in names]


def test_package_exports_every_module_export():
    listed = {"__version__"}
    for module in _modules():
        listed |= set(getattr(module, "__all__", ()))
    assert len(torsob.__all__) == len(set(torsob.__all__))
    assert set(torsob.__all__) == listed
    for name in torsob.__all__:
        assert getattr(torsob, name) is not None


def test_each_exported_function_or_class_is_defined_where_it_is_exported():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, (module.__name__, name)
