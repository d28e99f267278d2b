"""Package surface: every exported name exists, only outside arrays
enter through the validating constructor, and no runner keeps per-step
check state."""

import ast
import importlib
import os
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



def _calls_by_function(tree, attr):
    """(enclosing function name or None) of every call to `<expr>.attr`."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_from_coeffs_is_called_only_for_stored_snapshots():
    # package-built arrays hold the field invariants by construction and
    # use SpectralField._trusted; from_coeffs validates outside arrays
    callers = []
    for name in MODULES:
        path = os.path.join(nudgeflow.__path__[0], f"{name}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        callers += [(name, fn) for fn in _calls_by_function(tree, "from_coeffs")]
    assert callers == [("storage", "load_snapshot")]


def test_runners_keep_no_per_step_check_state():
    # runners record every step and judge from the recorded series, so no
    # per-step closure accumulates a verdict
    path = os.path.join(nudgeflow.__path__[0], "experiments.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=path)
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)] == []
