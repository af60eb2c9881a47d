"""The public surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import entbridge

MODULES = sorted(info.name for info in pkgutil.iter_modules(entbridge.__path__))


def test_package_exports_resolve():
    missing = [name for name in entbridge.__all__ if not hasattr(entbridge, name)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"entbridge.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
