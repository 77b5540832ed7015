"""Module layout rules, read from the source with ``ast``.

No module imports an underscore name from another ``spikefst`` module,
and ``decoder.py`` holds the search and nothing else: it does not score,
and it imports nothing from ``compress``.  Only ``spikefst.wfst``
touches an ``Fst``'s arc rows, and the public names of ``Fst`` and
``SymbolTable`` are pinned, so that no mutator comes back unnoticed.
Every name ``spikefst.wfst`` exports has a caller in ``src/`` or
``perfbench/`` outside the module that defines it, so no API that only
tests use comes back unnoticed.
``compress.py``'s public names and ``CompressConfig``'s fields are
pinned too, so that ``compress`` stays the one way to compress and no
knob comes back unnoticed, and it reads and writes no file: the
posterior file format is ``posterior.py``'s alone.  So is the row
gather: ``compress.py`` builds no ``CompressedPosteriors`` itself and
never touches the inserted blank row, so a second gather cannot return
unnoticed.  Only ``errors.py``
writes a file: everything else calls ``errors.write_file``.  It also
numbers the lines of a text file: no other loader enumerates
``splitlines()`` itself.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spikefst"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_decoder_imports_nothing_from_compress():
    tree = ast.parse((SRC / "decoder.py").read_text())
    assert not [name for _, module, name in _package_imports(tree)
                if module.split(".")[-1] == "compress" or name == "compress"]


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


def _top_level_names(tree):
    """Names a module binds at its top level by ``def``, ``class`` or ``=``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return names


def test_every_wfst_export_has_a_caller():
    init = SRC / "wfst" / "__init__.py"
    (exports,) = [ast.literal_eval(n.value) for n in ast.parse(init.read_text()).body
                  if isinstance(n, ast.Assign) and n.targets[0].id == "__all__"]
    definer = {name: path for path in (SRC / "wfst").glob("*.py") if path != init
               for name in _top_level_names(ast.parse(path.read_text()))}
    callers = [p for p in MODULES + sorted(PERFBENCH.glob("*.py")) if p != init]
    assert not [name for name in exports if not any(
        re.search(rf"\b{name}\b", p.read_text()) for p in callers if p != definer[name])]


def test_symbol_table_public_names_are_pinned():
    cls = _wfst_class("SymbolTable")
    assert _public_names(cls) == {"find_id", "find_symbol", "items", "from_file", "to_file"}
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    assert [a.arg for a in init.args.args] == ["self", "symbols"]
    assert not init.args.kwonlyargs and not init.args.vararg and not init.args.kwarg


def test_compress_public_names_are_pinned():
    tree = ast.parse((SRC / "compress.py").read_text())
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert {n for n in functions if not n.startswith("_")} == {
        "segment_blocks", "koo_select", "compress"}
    assert {n for n in classes if not n.startswith("_")} == {"CompressConfig"}


def test_compress_config_fields_are_the_papers_knobs():
    # one inserted blank per blank run, and every frame of an ioo_nb run, are not knobs
    tree = ast.parse((SRC / "compress.py").read_text())
    (config,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "CompressConfig"]
    fields = {n.target.id for n in config.body if isinstance(n, ast.AnnAssign)}
    assert fields == {"mode", "koo_strategy", "nb_threshold", "lsd_threshold", "swd_window"}


def test_compress_does_no_file_io():
    tree = ast.parse((SRC / "compress.py").read_text())
    calls = [ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = [name for _, _, name in _package_imports(tree)]
    assert not [c for c in calls + names
                if c.split(".")[-1] in ("read_file", "write_file", "load_posteriors",
                                        "save_posteriors", "open", "read_bytes", "read_text")]


def test_compress_gathers_only_through_select_rows():
    tree = ast.parse((SRC / "compress.py").read_text())
    calls = [ast.unparse(node.func).split(".")[-1]
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    names = [name for _, _, name in _package_imports(tree)]
    assert "CompressedPosteriors" not in calls
    assert "custom_blank" not in calls + names
    assert "select_rows" in calls


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


# read_fst_text splits every line into fields anyway and skips a line with
# none, so it keeps its own loop: errors.text_lines would cost it a second
# pass over the graph text on every read.
_OWN_LINE_LOOP = {("wfst/fst.py", "read_fst_text")}


def test_text_lines_are_numbered_in_one_place():
    found = []
    for path in MODULES:
        name = path.relative_to(SRC).as_posix()
        if name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        exempt = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and (name, fn.name) in _OWN_LINE_LOOP for node in ast.walk(fn)}
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in exempt and isinstance(node, ast.Call)
                  and ast.unparse(node.func) == "enumerate" and node.args
                  and isinstance(node.args[0], ast.Call)
                  and ast.unparse(node.args[0].func).endswith(".splitlines")]
    assert not found
