"""The demos read only names the package has, and the quick ones run.

Each demo is parsed; every attribute it reads off a name bound to shelab,
shelab.analysis or shelab.experiments must resolve on that module, so a
renamed or deleted public name fails here rather than in a demo run.  The
demos that take a few seconds also run to completion.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
MODULES = ("shelab", "shelab.analysis", "shelab.experiments")


def package_aliases(tree: ast.Module) -> dict:
    """Local name -> module, for each import of a checked module."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
    return aliases


def test_demos_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_reads_only_existing_names(demo):
    tree = ast.parse(demo.read_text())
    aliases = package_aliases(tree)
    assert aliases, f"{demo.name} imports none of {MODULES}"
    missing = sorted(
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and not hasattr(importlib.import_module(aliases[node.value.id]), node.attr)
    )
    assert missing == [], f"{demo.name} reads names the package lacks: {missing}"


@pytest.mark.parametrize("name", ["02_solve_and_snapshot", "04_localization_and_independence"])
def test_quick_demo_runs(name):
    demo = DEMOS[0].parent / f"{name}.py"
    src = str(demo.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
