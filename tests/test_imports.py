"""Every name a module of the package or of its tests imports is used in that
module, and every top-level function and class of the package is read by the
package itself, so that no helper lives in it for the tests alone."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent
PACKAGE = sorted((TESTS.parent / "src" / "wtal").glob("*.py"))
SOURCES = PACKAGE + sorted(TESTS.glob("*.py"))
# read only by the tests and the benchmark's tracer, until the MMD reads that
# take raw batches are folded away
READ_OUTSIDE_THE_PACKAGE = ["transfer.median_bandwidth", "transfer.mmd2", "transfer.mmd2_grad_u"]


def names_read(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The names that ``tree`` reads bare, and those it reads as attributes."""
    bare, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
    return bare, attributes


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by import but never reads, apart from
    imports on a line marked ``noqa: F401``, which are kept on purpose."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(alias, alias.asname or alias.name) for alias in node.names]
    used, _ = names_read(tree)
    return [name for alias, name in imported
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]]


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each top-level function and class of the modules
    ``sources`` (name -> source text) that none of them reads, as a name or
    an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(set.union(*names_read(tree)) for tree in trees.values()))
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read]


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


def test_every_definition_of_the_package_is_read_by_the_package():
    sources = {path.stem: path.read_text() for path in PACKAGE}
    assert unread_definitions(sources) == READ_OUTSIDE_THE_PACKAGE


def test_unread_definitions_are_found():
    sources = {"a": "def f(): pass\ndef g(): f()\ndef h(): pass\nclass C: pass\n",
               "b": "import a\na.g()\nx = a.C\n"}
    assert unread_definitions(sources) == ["a.h"]
