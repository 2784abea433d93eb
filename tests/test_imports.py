"""Every module in src/, tests/ and demos/ uses each name it imports, and
every private name and function parameter defined in src/ is used there.

No linter ships with the project, so these scans stand in for one: an
import whose name the module never reads is dead code, and so is a private
(``_name``, not dunder) function, class, method or module constant that
no module of src/ references beyond its definition, and a parameter that
its function's body never reads.  A last scan keeps those modules and the
README from citing a ROADMAP direction by its number, which changes each
time the ROADMAP is re-anchored; they name the item instead.
"""

import ast
import re
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


def only_raises_not_implemented(fn):
    """Whether ``fn``'s body, past any docstring, is one ``raise NotImplementedError``."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(source):
    """(line, function, parameter) of each parameter its function never reads.

    A read is a loaded Name anywhere in the body, nested functions included.
    ``self`` and ``cls`` are exempt, as the method protocol passes them, and
    so is a method that only raises NotImplementedError: it declares an
    interface.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                or only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(arg for arg in (a.vararg, a.kwarg) if arg is not None)]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found += [(fn.lineno, fn.name, arg.arg) for arg in params
                  if arg.arg not in read | {"self", "cls"}]
    return found


ROADMAP_NUMBER = re.compile(r"ROADMAP\s+direction\s+\d")


def roadmap_direction_numbers(text):
    """(line, citation) of each ROADMAP direction that ``text`` cites by number."""
    return [(text.count("\n", 0, m.start()) + 1, m.group())
            for m in ROADMAP_NUMBER.finditer(text)]


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


def test_scan_finds_an_unread_parameter():
    source = ("def f(a, b, *c, d, **e):\n    return a + c[0] + e['x']\n"
              "class K:\n    def m(self, x):\n        \"\"\"Doc.\"\"\"\n"
              "        raise NotImplementedError\n"
              "    def n(self, y, z):\n        def g():\n            return y\n"
              "        return g\n")
    assert unread_parameters(source) == [(1, "f", "b"), (1, "f", "d"), (7, "n", "z")]


def test_scan_finds_a_roadmap_direction_number():
    word = "ROADMAP"  # spelled apart, so this module passes its own scan
    text = (f"see {word} direction 2,\nor the {word}\ndirection 6(a); "
            f"not {word} aim 3 or the {word} item on safe embed defaults\n")
    assert roadmap_direction_numbers(text) == [
        (1, f"{word} direction 2"), (2, f"{word}\ndirection 6")]


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


@pytest.mark.parametrize("module", [m for m in MODULES if m.startswith("src/")])
def test_no_unread_parameter(module):
    source = (ROOT / module).read_text(encoding="utf-8")
    assert unread_parameters(source) == []


def test_no_roadmap_direction_number():
    found = [(document, *hit) for document in [*MODULES, "README.md"]
             for hit in roadmap_direction_numbers(
                 (ROOT / document).read_text(encoding="utf-8"))]
    assert found == []
