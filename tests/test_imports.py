"""Every module-level import in the package is used.

No linter ships with the project, so this reads each source file with
the standard library's ``ast``: a name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in the module. The package
``__init__.py`` files only re-export, and ``from __future__`` imports
bind nothing, so neither is checked.
"""

import ast
from pathlib import Path

import walkerkit

PACKAGE = Path(walkerkit.__file__).parent


def _imported(tree: ast.Module) -> dict:
    """Name bound -> line, for each import statement of the module body."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in used)


def test_no_unused_module_imports():
    modules = [p for p in sorted(PACKAGE.rglob("*.py"))
               if p.name != "__init__.py"]
    assert len(modules) >= 10
    unused = {str(p.relative_to(PACKAGE)): found for p in modules
              if (found := unused_imports(p.read_text()))}
    assert unused == {}


def test_the_check_sees_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .expr import coord, diff\n"
              "def f(e):\n"
              "    return diff(e, os.sep)\n")
    assert unused_imports(source) == [(3, "coord")]
