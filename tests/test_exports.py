"""Module exports: every name a module lists in ``__all__`` exists, every
function the benchmark tracer wraps is still defined where it looks, and
names that only tests and the tracer use stay out of the package namespace."""

import ast
import importlib
import pathlib

import pytest

MODULES = ("analysis", "cli", "discretization", "errors", "mesh", "problem",
           "registry", "solver")

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# retired, the stability report's private type, and the four functions that
# stay defined in their modules for the tracer
NOT_EXPORTED = ("stability_audit", "double_mesh_difference", "ThetaVariant", "AuditReport",
                "thomas_solve", "residual_max_norm", "assemble", "double_mesh_error")


def traced_functions():
    """The (module, function) pairs of ``TRACED``, read without importing."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None)
                                             for t in node.targets] == ["TRACED"]:
            return sorted(ast.literal_eval(node.value).values())
    raise AssertionError(f"no TRACED assignment in {TRACING}")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"layersolve.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from layersolve.{name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("module,function", traced_functions())
def test_traced_function_is_defined_in_its_module(module, function):
    fn = getattr(importlib.import_module(module), function, None)
    assert callable(fn)
    assert fn.__module__ == module


@pytest.mark.parametrize("name", NOT_EXPORTED)
def test_name_is_not_exported(name):
    assert name not in dir(importlib.import_module("layersolve"))
    assert [m for m in MODULES
            if name in getattr(importlib.import_module(f"layersolve.{m}"), "__all__", ())] == []
