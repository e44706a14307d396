"""Package-level checks."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import frameport

MODULES = [m.name for m in pkgutil.iter_modules(frameport.__path__,
                                                "frameport.")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
