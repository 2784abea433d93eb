"""Every module in src/, tests/ and demos/ uses each name it imports, and
every private name defined in src/ is used there.

No linter ships with the project, so these scans stand in for one: an
import whose name the module never reads is dead code, and so is a private
(``_name``, not dunder) function, class, method or module constant that
no module of src/ references beyond its definition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src", "tests", "demos")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source):
    """(line, name) of each imported name that no Name node of ``source`` reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_definitions(tree):
    """(line, name) of each private function, class, method and module constant, by line."""
    defs = [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        defs += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted((line, name) for line, name in defs if is_private(name))


def unreferenced_private_names(sources):
    """(module, line, name) of each private definition no source reads.

    ``sources`` maps module names to their text.  A read is a loaded Name
    or any attribute access, so ``self._helper()`` counts for a method.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    return [(module, line, name) for module, tree in trees.items()
            for line, name in private_definitions(tree) if name not in used]


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau as t\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "t")]


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a": "_LIMIT = 3\n_SEEN = 0\ndef _dead():\n    pass\n"
             "class _Box:\n    def __init__(self):\n        self._n = _LIMIT\n"
             "    def _grow(self):\n        pass\n    def _shrink(self):\n        pass\n",
        "b": "from a import _Box\n_Box()._grow()\n",
    }
    assert unreferenced_private_names(sources) == [
        ("a", 2, "_SEEN"), ("a", 3, "_dead"), ("a", 10, "_shrink")]


def test_modules_are_found():
    assert "src/factored_sdp/objective.py" in MODULES
    assert "tests/test_imports.py" in MODULES
    assert any(m.startswith("demos/") for m in MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    source = (ROOT / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_no_unreferenced_private_name():
    sources = {module: (ROOT / module).read_text(encoding="utf-8")
               for module in MODULES if module.startswith("src/")}
    assert unreferenced_private_names(sources) == []
