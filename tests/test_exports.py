"""Module exports: every name a module lists in ``__all__`` exists."""

import importlib

import pytest

MODULES = ("analysis", "cli", "discretization", "errors", "mesh", "problem",
           "registry", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"layersolve.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from layersolve.{name} import *", namespace)
    assert set(exported) <= set(namespace)
