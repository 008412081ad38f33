"""No module of the package imports a name it never uses, or defines a private helper
that nothing calls.

No linter ships with the toolchain, so this is the one unused-import check: each
module is parsed with ``ast``, and every name bound by an import must appear as a
name elsewhere in it. ``from __future__`` imports and lines marked
``# noqa: F401`` are exempt; ``__init__.py`` re-exports by design. Likewise every
module-level ``_name`` function or class must be named somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

import lesionbench

MODULES = sorted(p for p in Path(lesionbench.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom typing import Sequence, Mapping\nx: Mapping = os.sep\n"
    assert unused_imports(source) == ["line 2: Sequence"]


def unused_helpers(sources: list[str]) -> list[str]:
    """The module-level ``_name`` functions and classes of ``sources`` that no module names."""
    trees = [ast.parse(source) for source in sources]
    helpers = [node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    return [name for name in helpers if name not in used]


def test_every_private_helper_has_a_caller():
    package = sorted(Path(lesionbench.__file__).parent.glob("*.py"))
    assert unused_helpers([p.read_text(encoding="utf-8") for p in package]) == []


def test_an_uncalled_helper_is_found():
    sources = ["def _used():\n    pass\n\ndef _left():\n    pass\n",
               "class _Kept:\n    pass\n\nx = _Kept, _used\n"]
    assert unused_helpers(sources) == ["_left"]
