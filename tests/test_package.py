import importlib

import pytest

import ver4forms


def test_every_export_is_its_defining_module_object(monkeypatch):
    # unbind the names that load on first use, so each goes through the package's __getattr__
    for name in ver4forms._LAZY:
        monkeypatch.delitem(vars(ver4forms), name, raising=False)
    for name in ver4forms.__all__:
        value = getattr(ver4forms, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name
    assert set(ver4forms.__all__) <= set(dir(ver4forms))
    assert {"__version__", "linalg", "witt"} <= set(dir(ver4forms))
    namespace: dict = {}
    exec("from ver4forms import *", namespace)
    assert all(namespace[name] is getattr(ver4forms, name) for name in ver4forms.__all__)
    assert ver4forms.witt is importlib.import_module("ver4forms.witt")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'ver4forms' has no attribute 'no_such_name'"):
        ver4forms.no_such_name
