"""The benchmark's contract with the program.

``bench/tracing.py`` wraps program functions by name and
``bench/workloads.py`` calls them through module attributes, so a change
to ``src/`` that renames or deletes one of them breaks every benchmark
run. These tests read the two files with ``ast``, without importing them,
and check that each ``pmbnn`` attribute they use exists and is callable.
"""

import ast
import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"


def _program_uses(name: str) -> set[tuple[str, str]]:
    """(module, attribute) for each program name that ``bench/<name>`` uses:
    ``from pmbnn.m import a``, ``m.a`` for a module taken by ``from pmbnn
    import m``, and ``….wrap(m, "a", …)``."""
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    modules, uses = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pmbnn":
            modules.update((a.asname or a.name, f"pmbnn.{a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pmbnn."):
            uses.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "wrap" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)):
            uses.add((modules[node.args[0].id], node.args[1].value))
    return uses


@pytest.mark.parametrize("name, least", [("tracing.py", 20), ("workloads.py", 8)])
def test_every_program_name_the_benchmark_uses_is_callable(name, least):
    uses = _program_uses(name)
    assert len(uses) >= least  # the parse found the uses it is meant to find
    missing = [f"{module}.{attr}" for module, attr in sorted(uses)
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, f"bench/{name} uses names the program lacks: {missing}"
