"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "wtal").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import but never reads."""
    tree = ast.parse(source)
    imported, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\nimport numpy as np\nnp.zeros(1)\n", ["os"]),
    ("from a import b, c as d\nprint(d)\n", ["b"]),
    ("import os.path\nos.path.join()\n", []),
    ("from __future__ import annotations\nfrom t import T\ndef f() -> T: pass\n", []),
], ids=["module", "from_import", "dotted", "annotation"])
def test_unused_imports_are_found(source, unused):
    assert unused_imports(source) == unused
