"""Every module-level import in the package is used by its module, and
every private helper by the package.

A name bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in the module, or be listed in its ``__all__`` (a re-export).
``from __future__`` imports are exempt. A module-level function or class
whose name starts with one underscore must be read somewhere in the
package, so a helper that a refactor leaves behind does not linger.
"""

import ast
from pathlib import Path

import pytest

import ccwinner

PACKAGE = Path(ccwinner.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_checker_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom x import a, b\n"
    source += "__all__ = ['b']\nprint(np.zeros(1))\n"
    assert unused_imports(source) == ["a (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Module-level ``_private`` functions and classes, with their lines."""
    return {
        node.name: node.lineno
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


def names_read(source: str) -> set[str]:
    """Names loaded, attributes read and names imported anywhere in the source."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    read = set().union(*(names_read(source) for source in sources.values()))
    return sorted(
        f"{module}: {name} (line {line})"
        for module, source in sources.items()
        for name, line in private_definitions(source).items()
        if name not in read
    )


def test_checker_finds_an_unread_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\ndef _left():\n    pass\nclass _Gone:\n    pass\n"
                "def __getattr__(name):\n    pass\ndef public():\n    pass\n",
        "b.py": "from .a import _used\n_used()\n",
    }
    assert unread_private_helpers(sources) == ["a.py: _Gone (line 5)", "a.py: _left (line 3)"]


def test_package_reads_every_private_helper():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unread_private_helpers(sources) == []
