"""Every module-level import and private name in the package is used.

No linter ships with the project, so this reads each source file with
the standard library's ``ast``: a name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in the module. The package
``__init__.py`` files only re-export, and ``from __future__`` imports
bind nothing, so neither is checked. A private name (one leading
underscore) that a module defines at top level, by ``def``, ``class``
or assignment, must be read somewhere in the package.

Importing the CLI loads neither ``dataclasses`` nor ``inspect``: the
package's records are tuples or slotted classes, so no import pays for
generated methods or for the ``inspect``/``ast``/``dis`` chain.
"""

import ast
import os
import subprocess
import sys
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


def _modules() -> list:
    return [p for p in sorted(PACKAGE.rglob("*.py"))
            if p.name != "__init__.py"]


def test_no_unused_module_imports():
    modules = _modules()
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


def _private_defined(tree: ast.Module) -> dict:
    """Private name -> line, for each top-level def, class or assignment."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if (isinstance(name, ast.Name) and name.id.startswith("_")
                        and not name.id.startswith("__")):
                    bound[name.id] = node.lineno
    return bound


def _read_names(tree: ast.Module) -> set:
    """Names read as a variable, or as an attribute of a module."""
    return ({n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def unused_private_names(sources: dict) -> dict:
    """{module: [(line, name)]} of private names no module reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set().union(*map(_read_names, trees.values()))
    unused = {mod: sorted((line, name) for name, line
                          in _private_defined(tree).items()
                          if name not in read)
              for mod, tree in trees.items()}
    return {mod: found for mod, found in unused.items() if found}


def test_no_unused_private_names():
    sources = {str(p.relative_to(PACKAGE)): p.read_text()
               for p in PACKAGE.rglob("*.py")}
    assert unused_private_names(sources) == {}


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a.py": ("from fractions import Fraction\n"
                 "_USED = 1\n"
                 "_LEFT, _OVER = 2, 3\n"
                 "class _Kept:\n"
                 "    pass\n"
                 "def _gone(e):\n"
                 "    _local = e\n"
                 "    return _local\n"
                 "def f():\n"
                 "    return _USED + _LEFT\n"),
        "b.py": ("from . import a\n"
                 "x = a._Kept()\n"
                 "_gone = 0\n"),
    }
    assert unused_private_names(sources) == {
        "a.py": [(3, "_OVER"), (6, "_gone")], "b.py": [(3, "_gone")]}


def test_cli_import_loads_no_dataclasses_or_inspect():
    script = ("import sys, walkerkit.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["[]"]
