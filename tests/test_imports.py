"""No module of the package or of the tests imports a name it never uses, no module
of the package defines a private helper that nothing calls, and only ``cli.main`` prints.

No linter ships with the toolchain, so this is the one unused-import check: each
package module and each ``tests/*.py`` file is parsed with ``ast``, and every name
bound by an import must appear as a name elsewhere in it. ``from __future__``
imports and lines marked ``# noqa: F401`` are exempt; ``__init__.py`` re-exports
by design. Likewise every module-level ``_name`` function or class must be named
somewhere in the package. The commands return their lines, and ``main`` prints
them once the command has succeeded, so no other code in ``cli.py`` may call
``print`` or name ``sys.stdout`` or ``sys.stderr``.
"""

import ast
from pathlib import Path

import pytest

import lesionbench

MODULES = sorted(p for p in Path(lesionbench.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS,
                         ids=[p.name for p in MODULES] + [f"tests/{p.name}" for p in TESTS])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os\nfrom typing import Sequence, Mapping\nx: Mapping = os.sep\n"
    assert unused_imports(source) == ["line 2: Sequence"]


def output_outside_main(source: str) -> list[str]:
    """Each call of ``print`` and each use of ``sys.stdout`` or ``sys.stderr`` in
    ``source`` outside its module-level ``main``, as ``line <n>: <what>``."""
    found = []
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) and top.name == "main":
            continue
        for node in ast.walk(top):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "print"):
                found.append(f"line {node.lineno}: print")
            elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
                  and isinstance(node.value, ast.Name) and node.value.id == "sys"):
                found.append(f"line {node.lineno}: sys.{node.attr}")
    return found


def test_only_cli_main_prints():
    cli = Path(lesionbench.__file__).parent / "cli.py"
    assert output_outside_main(cli.read_text(encoding="utf-8")) == []


def test_output_outside_main_is_found():
    source = ("import sys\n\ndef _cmd(args):\n    print(args)\n    return 0\n\n"
              "def _warn(line):\n    sys.stderr.write(line)\n\n"
              "def main():\n    print(_cmd(1), file=sys.stderr)\n    sys.exit(0)\n")
    assert output_outside_main(source) == ["line 4: print", "line 8: sys.stderr"]


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
