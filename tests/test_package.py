"""Package surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import nudgeflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(nudgeflow.__path__))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_is_defined(module_name):
    # a stale __all__ entry only fails at `from ... import *`, which
    # nothing in the package does
    module = importlib.import_module(f"nudgeflow.{module_name}")
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if name not in vars(module)] == []

