"""Module layout rules, read from the source with ``ast``.

No module imports an underscore name from another ``spikefst`` module,
and ``decoder.py`` holds the search and nothing else: it does not score.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spikefst"
MODULES = sorted(SRC.rglob("*.py"))


def _package_imports(tree):
    """(line, module, name) of every ``from`` import of a spikefst module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "spikefst" or module.startswith("spikefst."):
                for alias in node.names:
                    yield node.lineno, "." * node.level + module, alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_name_imported_across_modules(path):
    tree = ast.parse(path.read_text())
    private = [
        f"line {line}: from {module} import {name}"
        for line, module, name in _package_imports(tree)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
    ]
    assert not private


def test_decoder_holds_only_the_search():
    tree = ast.parse((SRC / "decoder.py").read_text())
    scoring = [
        (line, module, name) for line, module, name in _package_imports(tree)
        if module.split(".")[-1] == "scoring" or name == "scoring"
    ]
    assert not scoring
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    assert {n for n in names if not n.startswith("_")} == {
        "DecoderConfig", "DecodeResult", "decode", "BatchResult", "decode_batch"}
