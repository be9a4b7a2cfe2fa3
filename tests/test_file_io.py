"""Where the program touches files and CSV.

``cli`` reads every input and writes every artifact; the library modules
take and return bytes. Every CSV is split by ``signal_pipeline.csv_table``
and written by ``signal_pipeline.csv_bytes``, so that each malformed file
ends in the same typed errors. These tests read ``src/pmbnn/*.py`` with
``ast``, without importing it, and list each site that breaks the rule.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pmbnn"

#: (module, function) allowed to open files outside cli.py: the benchmark's
#: checks call ``save_checkpoint(path, ...)`` directly, so that thin wrapper
#: over ``checkpoint_bytes`` keeps its path argument
FILE_ACCESS_EXCEPTIONS = {("nn_core", "save_checkpoint")}
#: the one CSV writer and the one CSV reader
CSV_HELPERS = {("signal_pipeline", "csv_bytes"), ("signal_pipeline", "csv_table")}


def _sites(is_site) -> set[tuple[str, str]]:
    """(module, top-level function or ``<module>``) for each node of
    ``src/pmbnn/*.py`` where ``is_site(node)`` holds."""
    found = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
            found.update((path.stem, scope) for node in ast.walk(top) if is_site(node))
    return found


def _is_file_access(node) -> bool:
    """A call of ``open``, ``io.open``, ``os.open``, ``os.mkdir`` or ``os.makedirs``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "open"
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in {("io", "open"), ("os", "open"),
                                               ("os", "mkdir"), ("os", "makedirs")})


def _is_csv_codec(node) -> bool:
    """``csv.reader``/``writer``/``DictReader``/``DictWriter``, or any
    ``from csv import``."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "csv"
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "csv"
            and node.attr in ("reader", "writer", "DictReader", "DictWriter"))


def test_only_cli_opens_files():
    sites = _sites(_is_file_access)
    outside = sorted(s for s in sites - FILE_ACCESS_EXCEPTIONS if s[0] != "cli")
    assert not outside, f"file access outside cli.py: {outside}"
    # the walk finds what it is meant to find
    assert FILE_ACCESS_EXCEPTIONS <= sites and any(m == "cli" for m, _ in sites)


def _is_write_open(node) -> bool:
    """An ``open`` call whose mode (second argument or ``mode=``) writes."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def test_one_function_writes_artifacts():
    # each cmd_* wrote its own files, so a failed run could leave some behind
    assert _sites(_is_write_open) == {("cli", "_write_run"), ("nn_core", "save_checkpoint")}


def test_one_csv_reader_and_one_csv_writer():
    assert _sites(_is_csv_codec) == CSV_HELPERS
