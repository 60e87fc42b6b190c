"""Every module-level import in src/ and tests/ is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")  # an __init__ imports to re-export


def names_used(tree: ast.AST) -> set[str]:
    """Every name read anywhere in the tree, in quoted annotations and
    ``__all__`` too."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [n.returns] + [a.annotation for a in ast.walk(n.args)
                                         if isinstance(a, ast.arg)]
        elif isinstance(n, ast.AnnAssign):
            annotations = [n.annotation]
        elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            used |= {c.value for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
            continue
        else:
            continue
        for c in (c for a in annotations if a is not None for c in ast.walk(a)):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= names_used(ast.parse(c.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each module-level import whose name is never read;
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported: list[tuple[int, str]] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = names_used(tree)
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path, json as j\n"
              "from typing import Mapping, Sequence, Any\n"
              "__all__ = ['Any']\n"
              "def f(x: 'Mapping[str, int]') -> None:\n"
              "    return os.path.join(x)\n")
    assert unused_imports(source) == [(2, "j"), (3, "Sequence")]
