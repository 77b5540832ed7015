"""Module layout rules, read from the source with ``ast``.

No module imports an underscore name from another ``spikefst`` module,
and ``decoder.py`` holds the search and nothing else: it does not score,
and of ``compress`` it needs only the type that carries a source map.
Only ``spikefst.wfst`` touches an ``Fst``'s arc rows, and the public
names of ``Fst`` and ``SymbolTable`` are pinned, so that no mutator comes
back unnoticed.  Only
``errors.py`` writes a file: everything else calls ``errors.write_file``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spikefst"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


def test_decoder_reads_only_the_compressed_type_from_compress():
    tree = ast.parse((SRC / "decoder.py").read_text())
    assert [name for _, module, name in _package_imports(tree)
            if module.split(".")[-1] == "compress"] == ["CompressedPosteriors"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.parent.name != "wfst"] + TESTS,
                         ids=lambda p: p.name)
def test_only_the_wfst_package_reaches_arc_rows(path):
    tree = ast.parse(path.read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_arcs"]


def _wfst_class(name):
    tree = ast.parse((SRC / "wfst" / "fst.py").read_text())
    return next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == name)


def _public_names(cls):
    """The public methods of *cls* and the public attributes it sets on self."""
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(t.attr for t in targets
                     if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                     and t.value.id == "self")
    return {n for n in names if not n.startswith("_")}


def test_fst_public_names_are_pinned():
    assert _public_names(_wfst_class("Fst")) == {
        "start", "finals", "isyms", "osyms", "num_states", "num_arcs", "arcs", "all_arcs",
        "final_weight", "is_final"}


def test_symbol_table_public_names_are_pinned():
    cls = _wfst_class("SymbolTable")
    assert _public_names(cls) == {"find_id", "find_symbol", "items", "from_file", "to_file"}
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    assert [a.arg for a in init.args.args] == ["self", "symbols"]
    assert not init.args.kwonlyargs and not init.args.vararg and not init.args.kwarg


_WRITES = {"write_text", "write_bytes", "open", "mkstemp", "atomic_write"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "errors.py"],
                         ids=lambda p: str(p.relative_to(SRC)))
def test_only_errors_writes_files(path):
    tree = ast.parse(path.read_text())
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [
        f"line {f.lineno}: {ast.unparse(f)}" for f in calls
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in _WRITES
        or ast.unparse(f) == "os.replace"]
