"""The program's runtime dependencies: what ``src/`` imports, what
``pyproject.toml`` declares, and a pipeline run with scipy unimportable."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _imported_packages() -> set[str]:
    """Top-level names of every absolute import in ``src/pmbnn``, including
    imports nested in functions."""
    names = set()
    for path in (ROOT / "src" / "pmbnn").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"pmbnn"}


def _names(requirements) -> set[str]:
    return {re.match(r"[A-Za-z0-9_.-]+", r).group().lower() for r in requirements}


def test_runtime_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert _imported_packages() == _names(project["dependencies"])
    assert "scipy" in _names(project["optional-dependencies"]["test"])


PIPELINE = """
import sys
sys.modules["scipy"] = None   # any scipy import now fails
from pmbnn.cli import main

out = sys.argv[1]
data = f"{out}/prep/preprocessed.csv"
steps = [
    ["synth", "--out", f"{out}/synth", "--seed", "5", "--noise-hr", "2.0"],
    ["preprocess", "--input", f"{out}/synth/synthetic.csv", "--out", f"{out}/prep"],
    ["train", "--model", "pmbnn", "--input", data, "--out", f"{out}/train",
     "--train.max_epochs", "20"],
    ["train", "--model", "fcnn", "--input", data, "--out", f"{out}/train",
     "--train.max_epochs", "20"],
    ["train", "--model", "pm", "--input", data, "--out", f"{out}/train", "--pm.iters", "5"],
    ["reconstruct", "--checkpoint", f"{out}/train/pmbnn_checkpoint.json",
     "--input", data, "--out", f"{out}/recon"],
    ["evaluate", "--pred", *(f"{out}/train/predictions_{m}.csv" for m in ("pmbnn", "fcnn", "pm")),
     f"{out}/recon/predictions_pmbnn_r.csv", "--subject", "s01", "--out", f"{out}/eval"],
    ["report", "--metrics", f"{out}/eval/metrics.json", "--out", f"{out}/report"],
]
for argv in steps:
    code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
loaded = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod)
sys.exit(f"scipy modules loaded: {loaded}" if loaded else 0)
"""


def test_pipeline_runs_without_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PIPELINE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "report" / "report.json").is_file()
