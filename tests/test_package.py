"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import fmlab

MODULES = [importlib.import_module(f"fmlab.{m.name}") for m in pkgutil.iter_modules(fmlab.__path__)]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_all_entries_resolve(module):
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
