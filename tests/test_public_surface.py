"""Every public name of the program has a user in the program or the benchmark.

A public top-level ``def`` or ``class`` of ``src/pmbnn``, or a public method
of one of its classes, that only tests call is a second surface to keep
working for nobody. These tests read ``src/`` and ``bench/`` with ``ast``,
without importing them, and list each public name that no code outside its
own definition refers to. Names match as names: a method counts as used
wherever an attribute of its name is read.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pmbnn"

#: (module, name) kept public though only tests use it, with the reason
SURFACE_EXCEPTIONS: dict[tuple[str, str], str] = {}


def _references(node) -> set[str]:
    """Names that ``node``'s code refers to: ``name``, ``x.name``, ``from m
    import name`` and ``wrap(m, "name", ...)``, as bench/tracing.py wraps
    program functions. Docstrings and other strings do not count."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(a.name for a in sub.names)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
              and sub.func.attr == "wrap" and len(sub.args) >= 2
              and isinstance(sub.args[1], ast.Constant)):
            found.add(sub.args[1].value)
    return found


def _top_level_nodes() -> list:
    """(module, top-level node) of every file of ``src/pmbnn`` and ``bench/``;
    the module is None for a ``bench/`` file."""
    tops = []
    for path in sorted(SRC.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")):
        module = path.stem if path.parent == SRC else None
        tops += [(module, top) for top in ast.parse(path.read_text(encoding="utf-8")).body]
    return tops


def _unused_public_names() -> tuple[set[tuple[str, str]], int]:
    """(module, name) of each public top-level def or class of ``src/pmbnn``
    that nothing in ``src/`` or ``bench/`` outside it refers to, and the
    number of public names checked."""
    tops = _top_level_nodes()
    public = [(module, top) for module, top in tops if module is not None
              and isinstance(top, (ast.FunctionDef, ast.ClassDef))
              and not top.name.startswith("_")]
    refs = {id(top): _references(top) for _, top in tops}
    unused = {(module, node.name) for module, node in public
              if not any(node.name in names for key, names in refs.items() if key != id(node))}
    return unused, len(public)


def test_every_public_name_has_a_user_outside_the_tests():
    unused, checked = _unused_public_names()
    assert checked >= 100   # the walk finds the definitions it is meant to find
    missing = sorted(unused - SURFACE_EXCEPTIONS.keys())
    assert not missing, f"public names that only tests use: {missing}"
    stale = sorted(SURFACE_EXCEPTIONS.keys() - unused)
    assert not stale, f"exceptions that now have a user: {stale}"


def _unused_public_methods() -> tuple[set[tuple[str, str, str]], int]:
    """(module, class, method) of each public method of a top-level class of
    ``src/pmbnn`` that nothing in ``src/`` or ``bench/`` outside the method
    refers to, and the number of public methods checked."""
    units = []   # (module, class or None, node): each top-level node, a class split by statement
    for module, top in _top_level_nodes():
        if isinstance(top, ast.ClassDef):
            units += [(module, top.name, stmt) for stmt in top.body]
        else:
            units.append((module, None, top))
    refs = [(id(node), _references(node)) for _, _, node in units]
    methods = [(module, cls, node) for module, cls, node in units
               if module is not None and cls is not None
               and isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    unused = {(module, cls, node.name) for module, cls, node in methods
              if not any(node.name in names for key, names in refs if key != id(node))}
    return unused, len(methods)


def test_every_public_method_has_a_user_outside_the_tests():
    unused, checked = _unused_public_methods()
    assert checked >= 8   # the walk finds the methods it is meant to find
    assert not unused, f"public methods that only tests use: {sorted(unused)}"
