"""Every module in src/, tests/ and demos/ uses each name it imports.

No linter ships with the project, so this scan stands in for one: an
import whose name the module never reads is dead code.
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


def test_scan_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau as t\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "t")]


def test_modules_are_found():
    assert "src/factored_sdp/objective.py" in MODULES
    assert "tests/test_imports.py" in MODULES
    assert any(m.startswith("demos/") for m in MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    source = (ROOT / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []
