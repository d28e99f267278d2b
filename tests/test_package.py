"""Package surface: every exported name exists, only outside arrays
enter through the checking constructor, no code checks or repairs the
field invariants, no class subclasses the truth, packed vectors become
fields only at the march boundary, runners march only where they record
or build, no runner keeps per-step check state, and no module reaches a
private numpy or scipy module."""

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



def _trees():
    """{module: parsed source} of every module in the package."""
    trees = {}
    for module in MODULES:
        path = os.path.join(nudgeflow.__path__[0], f"{module}.py")
        with open(path, encoding="utf-8") as fh:
            trees[module] = ast.parse(fh.read(), filename=path)
    return trees


def _callers(name):
    """(module, enclosing function or None) of every call in the package to
    `name(...)` or `<expr>.name(...)`."""
    found = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == name:
                found.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, tree in _trees().items():
        visit(tree, module, None)
    return found


def test_from_coeffs_is_called_only_for_loaded_snapshots():
    # every amplitude vector is a field, so the package builds fields with
    # the plain constructor; from_coeffs checks the shape and finiteness of
    # outside arrays
    assert _callers("from_coeffs") == [("storage", "load_snapshot")]


def test_no_code_checks_or_repairs_the_field_invariants():
    # band-packed amplitudes are real, mean-free and solenoidal by
    # construction; the Leray projection of a (2, n, n) array serves only
    # the full-grid observation oracle, whose average is not band-limited,
    # and the projection oracle that checks it
    checkers = {"_conj_flip", "_validate", "_require_band"}
    defined = [
        (module, node.name) for module, tree in _trees().items()
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    ]
    assert [f for f in defined if f[1] in checkers] == []
    assert _callers("leray_project_raw") == [
        ("interpolants", "apply_ih"), *[("oracles", "projection_defect")] * 2,
    ]


def test_average_symbol_is_called_only_by_the_observation_builders():
    # the volume-average symbol enters the solver through one builder of
    # P_N P_sigma I_h; the interpolants module keeps its field oracle and c0
    assert sorted(set(_callers("_average_symbol"))) == [
        ("interpolants", "_off_band_gram"),
        ("interpolants", "apply_ih"),
        ("interpolants", "estimate_c0"),
        ("schemes", "_observation_map"),
    ]


def test_no_class_subclasses_the_truth():
    # every truth is packed frames read through a time stencil, so no
    # per-kind truth class exists
    subclasses = [
        (module, node.name) for module, tree in _trees().items()
        for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for base in node.bases
        if (base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None))
        == "Trajectory"
    ]
    assert subclasses == []


def test_packed_vectors_become_fields_only_at_the_march_boundary():
    # the packed vector is the solver's state: advance builds the final
    # field (and the last accepted one on a failure), and the truth and
    # trajectories build a field only when one is asked for by time
    assert sorted(set(_callers("_field"))) == [
        ("schemes", "advance"),
        ("storage", "at"),
        ("storage", "fields"),
    ]


def test_runners_march_only_where_they_record_or_build():
    # the stored trajectory is the one way iterates leave a march: the
    # runners record from it after `_Run._march`, so none marches again to
    # recover an iterate
    tree = _trees()["experiments"]
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    functions += [
        node for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
    ]
    marching = [
        fn.name for fn in functions
        if any(
            isinstance(node, ast.Call) and getattr(node.func, "id", None) == "advance"
            for node in ast.walk(fn)
        )
    ]
    assert sorted(marching) == [
        "_march", "build_truth", "run_contraction_test", "run_n_sweep",
    ]


def test_runners_keep_no_per_step_check_state():
    # runners record every step and judge from the recorded series, so no
    # per-step closure accumulates a verdict
    tree = _trees()["experiments"]
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Nonlocal)] == []


def _private_numpy_scipy(tree):
    """The `_`-prefixed numpy and scipy modules or members that a parsed
    module imports or reaches through an imported name, each as its dotted
    name up to the first private part."""
    names = []
    bound = {}  # local name -> the dotted name it stands for
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append(alias.name)
                root = alias.name if alias.asname else alias.name.split(".")[0]
                bound[alias.asname or root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names.append(f"{node.module}.{alias.name}")
                bound[alias.asname or alias.name] = names[-1]
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in bound:
            names.append(".".join([bound[node.id], *reversed(parts)]))
    private = set()
    for name in names:
        head, *rest = name.split(".")
        for i, part in enumerate(rest):
            if head in ("numpy", "scipy") and part.startswith("_"):
                private.add(".".join([head, *rest[: i + 1]]))
                break
    return sorted(private)


def test_no_module_reaches_a_private_numpy_or_scipy_module():
    # the transforms and every other numpy or scipy call go through the
    # public API, so cuts in their dispatch cannot tie the package to one
    # release's internals
    for source, expected in (
        ("import scipy.fft._pocketfft", ["scipy.fft._pocketfft"]),
        ("from scipy.fft._pocketfft import c2r", ["scipy.fft._pocketfft"]),
        ("from scipy.fft import _pocketfft as p", ["scipy.fft._pocketfft"]),
        ("import scipy.fft as f\nf._pocketfft.pypocketfft.c2r", ["scipy.fft._pocketfft"]),
        ("import numpy as np\nnp.fft._pocketfft_umath", ["numpy.fft._pocketfft_umath"]),
        ("import numpy as np\nimport scipy.fft as _fft\nnp.fft.rfft2\n_fft.irfft2", []),
    ):
        assert _private_numpy_scipy(ast.parse(source)) == expected, source
    assert {m: _private_numpy_scipy(t) for m, t in _trees().items()} == {m: [] for m in MODULES}
