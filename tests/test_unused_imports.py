"""Lint gate: no unused top-level import under ``src/repro``.

A name a module imports at top level (in its body, or under a
top-level ``if`` or ``try``, as ``TYPE_CHECKING`` imports are) must be
read somewhere in that module: as a name, or inside a string
annotation.  A deliberate re-export is listed in the module's
``__all__`` or marked ``# noqa: F401`` on its import statement.

No linter is installed, so the check is written with stdlib ``ast``.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, List, Set

PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src", "repro")


def _imports(body: Iterable[ast.stmt], lines: List[str],
             out: Dict[str, int]) -> None:
    """Bound name -> line of each top-level import in ``body``, except
    ``__future__`` imports and those marked ``# noqa: F401``."""
    for node in body:
        if isinstance(node, (ast.If, ast.Try)):
            for block in ([node.body, node.orelse]
                          + [handler.body for handler
                             in getattr(node, "handlers", [])]):
                _imports(block, lines, out)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            statement = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno


def _read_names(tree: ast.Module) -> Set[str]:
    """Every name the module reads, in code or in a string annotation,
    and every name its ``__all__`` lists."""
    names: Set[str] = set()
    annotations: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            names.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant))
    for annotation in filter(None, annotations):
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                names.update(name.id for name in ast.walk(
                    ast.parse(item.value, mode="eval"))
                    if isinstance(name, ast.Name))
    return names


def unused_imports(source: str) -> List[str]:
    """``name (line N)`` for each unused top-level import of ``source``."""
    tree = ast.parse(source)
    imported: Dict[str, int] = {}
    _imports(tree.body, source.splitlines(), imported)
    read = _read_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_no_unused_top_level_imports():
    found = []
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as handle:
                    unused = unused_imports(handle.read())
                found.extend(f"{os.path.relpath(path, PACKAGE)}: {entry}"
                             for entry in unused)
    assert found == []


def test_the_scan_sees_what_it_must():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from typing import TYPE_CHECKING, Dict, List\n"
        "from x import kept  # noqa: F401\n"
        "from y import listed\n"
        "__all__ = ['listed']\n"
        "if TYPE_CHECKING:\n"
        "    from z import Quoted, Unread\n"
        "def f(a: 'Quoted') -> Dict[str, int]:\n"
        "    return os.sep\n")
    assert unused_imports(source) == ["List (line 4)", "Unread (line 9)",
                                      "json (line 3)"]
