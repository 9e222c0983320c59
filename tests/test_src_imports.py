"""Every module-level import in ``src/`` binds a name the module reads.

The scan walks the AST of each ``src/`` module and collects the names its
top-level imports bind (including those under a top-level ``if`` or
``try``, such as ``if TYPE_CHECKING:`` blocks). A bound name counts as
read when the module loads it anywhere (``ast.Name`` in a load context)
or names it inside a string annotation. Package ``__init__`` modules are
exempt, as their imports are re-exports, and so are ``__future__``
imports, which bind nothing a module reads.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _module_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module's top level."""
    found = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                found.append((bound, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                found.append((alias.asname or alias.name, node.lineno))
    return found


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, string annotations included."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {
                    name.id for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                }
    return read


def unused_imports() -> list[str]:
    """``"file:line name"`` for each module-level import never read."""
    unused = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = _read_names(tree)
        for name, line in _module_imports(tree):
            if name not in read:
                unused.append(f"{path.relative_to(SRC)}:{line} {name}")
    return sorted(unused)


def test_every_module_import_is_read():
    unused = unused_imports()
    assert not unused, "unused module-level imports in src/: " + ", ".join(unused)


def test_scan_sees_string_annotations_and_guarded_imports():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from a import Quoted, Dropped\n"
        "import os.path\n"
        "def f(x: 'Quoted') -> None: ...\n"
        "if TYPE_CHECKING: pass\n"
    )
    read = _read_names(tree)
    unread = [name for name, __ in _module_imports(tree) if name not in read]
    assert sorted(unread) == ["Dropped", "os"]
