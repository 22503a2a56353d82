"""The package namespace: public names resolve lazily to their home modules."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coopetition


def test_every_public_name_is_its_home_modules_object():
    for name, home in coopetition._HOME.items():
        module = importlib.import_module(f"coopetition.{home}")
        assert getattr(coopetition, name) is getattr(module, name), name


def test_grid_types_are_reexported_unchanged():
    from coopetition import model, oracle

    assert oracle.GridSpec is model.GridSpec is coopetition.GridSpec
    assert oracle.GridBudgetError is model.GridBudgetError is coopetition.GridBudgetError


def test_limit_errors_are_user_errors_and_runtime_errors():
    # The CLI reads an InstanceError as the input's fault (exit 1); a library
    # caller that catches RuntimeError around a budgeted search still works.
    assert issubclass(coopetition.GridBudgetError, coopetition.BudgetError)
    assert issubclass(coopetition.BudgetError, coopetition.InstanceError)
    assert issubclass(coopetition.BudgetError, RuntimeError)
    assert not issubclass(coopetition.InternalError, coopetition.InstanceError)


def test_no_builtin_value_or_runtime_error_is_raised_outside_simplex():
    # A builtin says nothing about whose fault an error is: input errors
    # raise InstanceError (or BudgetError), broken invariants InternalError.
    # Only simplex keeps ValueError for shapes its callers build themselves.
    raised = []
    for path in sorted(Path(coopetition.__file__).parent.glob("*.py")):
        if path.name == "simplex.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "RuntimeError"):
                    raised.append(f"{path.name}:{node.lineno}")
    assert raised == []


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from coopetition import *", namespace)
    for name in coopetition.__all__:
        assert namespace[name] is getattr(coopetition, name), name


def test_import_loads_no_submodule_until_one_is_read():
    # `dir` lists every public name before any is read, and tests and callers
    # reach submodules as attributes (`coopetition.polytope`) without
    # importing them first.
    probe = (
        "import sys, coopetition; "
        "listed = set(coopetition.__all__) <= set(dir(coopetition)); "
        "before = sorted(m for m in sys.modules if m.startswith('coopetition.')); "
        "print(listed, before, coopetition.polytope is sys.modules['coopetition.polytope'])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(coopetition.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["True", "[]", "True"]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        coopetition.nonexistent  # noqa: B018
