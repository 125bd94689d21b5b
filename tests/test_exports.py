"""Every public name of the package has a caller outside its own definition.

A name exported from shelab/__init__.py must be used by the package
itself, a demo, the benchmark, or a python block of the README.  Code that
only its own unit test reaches is deleted rather than exported.  Uses are
read from the syntax tree, so a name that appears only in a string, a
comment or its own body does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shelab"


def exports() -> dict:
    """Exported name -> module it is imported from."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def definition_lines(tree: ast.Module, name: str) -> range:
    """Lines of the top-level definition of name in a module."""
    for node in tree.body:
        targets = [t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name)]
        if getattr(node, "name", None) == name or name in targets:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"{name} is exported but not defined at the top level of its module")


def used_names(tree: ast.AST, skip: range = range(0)) -> set:
    """Names and attributes read in code, and dotted names in strings (the
    benchmark's tracer names its targets that way), outside the skipped lines."""
    found = set()
    for node in ast.walk(tree):
        if getattr(node, "lineno", None) in skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and re.fullmatch(r"[\w.]+", str(node.value)):
            found.update(str(node.value).split("."))
    return found


def readme_blocks() -> list:
    text = (ROOT / "README.md").read_text()
    return [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", text, flags=re.S)]


def test_every_export_is_used_outside_its_definition():
    trees = {p: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    others = [ast.parse(p.read_text()) for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py"))]
    others += readme_blocks()
    # every tree is scanned once; an export's home module is scanned again
    # without the export's own definition
    scanned = {path: used_names(tree) for path, tree in trees.items()}
    outside = set().union(*(used_names(tree) for tree in others))
    unused = []
    for name, module in exports().items():
        home = PACKAGE / f"{module}.py"
        used = used_names(trees[home], definition_lines(trees[home], name)) | outside
        used |= set().union(*(names for path, names in scanned.items() if path != home))
        if name not in used:
            unused.append(name)
    assert unused == [], f"exported names used only by tests: {unused}"
