"""Every name a module of the package or of its tests imports is used in that module."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
SOURCES = sorted((TESTS.parent / "src" / "wtal").glob("*.py")) + sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import but never reads, apart from
    imports on a line marked ``noqa: F401``, which are kept on purpose."""
    tree, lines = ast.parse(source), source.splitlines()
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias, alias.asname or alias.name) for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for alias, name in imported
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport numpy as np\nnp.zeros(1)\n", ["os"]),
    ("from a import b, c as d\nprint(d)\n", ["b"]),
    ("import os.path\nos.path.join()\n", []),
    ("from __future__ import annotations\nfrom t import T\ndef f() -> T: pass\n", []),
    ("import os  # noqa: F401 - loaded on purpose\nfrom a import (\n b,\n c,  # noqa: F401\n)\n",
     ["b"]),
], ids=["module", "from_import", "dotted", "annotation", "noqa"])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
