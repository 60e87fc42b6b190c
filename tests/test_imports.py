"""Every module-level import in src/ and tests/ is used, and every
module-level function and class of the package, and every public method and
property of its classes, is named somewhere in the program besides its own
definition; every module-level assignment of the package is read, and every
name an annotation of the package reads is defined."""

import ast
import builtins
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")  # an __init__ imports to re-export
PROGRAM = sorted(p for d in ("src", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def annotation_names(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each name read in an annotation of the tree, quoted
    ones included, the line being the annotation's."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [n.returns] + [a.annotation for a in ast.walk(n.args)
                                         if isinstance(a, ast.arg)]
        elif isinstance(n, ast.AnnAssign):
            annotations = [n.annotation]
        else:
            continue
        for a in filter(None, annotations):
            for c in ast.walk(a):
                if isinstance(c, ast.Name):
                    found.append((a.lineno, c.id))
                elif isinstance(c, ast.Constant) and isinstance(c.value, str):
                    found += [(a.lineno, name) for _, name in annotation_names(
                        ast.parse(f"x: {c.value}"))]
    return found


def names_used(tree: ast.AST) -> set[str]:
    """Every name read anywhere in the tree, in quoted annotations and
    ``__all__`` too."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {name for _, name in annotation_names(tree)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets):
            used |= {c.value for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
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


def undefined_annotation_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an annotation reads that is not a builtin
    and that the module neither imports nor defines at module level, so
    that ``typing.get_type_hints`` would raise ``NameError`` on it."""
    tree = ast.parse(source)
    defined = set(dir(builtins))
    for node in tree.body:
        if isinstance(node, ast.Import):
            defined |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            defined |= {a.asname or a.name for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted((line, name) for line, name in annotation_names(tree) if name not in defined)


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_annotation_name_is_defined(path):
    assert undefined_annotation_names(path.read_text(encoding="utf-8")) == []


def test_undefined_annotation_names_are_found():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from typing import Mapping\n"
              "Alias = int\n"
              "class C:\n"
              "    field: 'Missing'\n"
              "def f(x: Mapping[str, np.ndarray], y: 'list[Alias]') -> tuple[C, Iri]:\n"
              "    z: Local = 0\n"
              "    return x\n")
    assert undefined_annotation_names(source) == [(6, "Missing"), (7, "Iri"), (8, "Local")]


def names_reached(tree: ast.AST) -> set[str]:
    """Every name the tree imports or reaches as an attribute, and every
    string constant, which ``getattr`` and patching reach names by."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            names.add(n.value)
    return names


def names_referenced(tree: ast.AST) -> set[str]:
    """Every name the tree reads, imports, reaches as an attribute or names
    in a string."""
    return names_used(tree) | names_reached(tree)


def unreferenced_definitions(sources: dict[str, str], package: str) -> list[str]:
    """``module.name`` of each module-level function and class of the
    modules under ``package`` (keys are paths) that no source names."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    referenced = set().union(*map(names_referenced, trees.values()))
    return sorted(f"{Path(path).stem}.{node.name}" for path, tree in trees.items()
                  if path.startswith(package) for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in referenced)


def test_every_definition_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PROGRAM}
    assert unreferenced_definitions(sources, "src/kbtopics/") == []


def test_unreferenced_definitions_are_found():
    sources = {"src/kbtopics/a.py": "def used(): pass\ndef alone(): pass\nclass C: pass\n",
               "src/kbtopics/b.py": "from .a import used\nx = getattr(y, 'C')\n",
               "scripts/s.py": "def script_only(): pass\n"}
    assert unreferenced_definitions(sources, "src/kbtopics/") == ["a.alone"]


def unreferenced_members(sources: dict[str, str], package: str) -> list[str]:
    """``module.Class.name`` of each public method and property of the
    module-level classes under ``package`` that no source names; dunders,
    which the language calls, are not public."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    referenced = set().union(*map(names_referenced, trees.values()))
    return sorted(f"{Path(path).stem}.{cls.name}.{node.name}"
                  for path, tree in trees.items() if path.startswith(package)
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for node in cls.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and node.name not in referenced)


def test_every_method_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PROGRAM}
    assert unreferenced_members(sources, "src/kbtopics/") == []


def test_unreferenced_members_are_found():
    sources = {"src/kbtopics/a.py": ("class C:\n"
                                     "    def called(self): pass\n"
                                     "    def alone(self): pass\n"
                                     "    @property\n"
                                     "    def view(self): pass\n"
                                     "    @property\n"
                                     "    def read(self): pass\n"
                                     "    def _private(self): pass\n"
                                     "    def __len__(self): return 0\n"
                                     "def f(c):\n"
                                     "    return c.called(), c.read\n"),
               "scripts/s.py": "class S:\n    def script_only(self): pass\n"}
    assert unreferenced_members(sources, "src/kbtopics/") == ["a.C.alone", "a.C.view"]


def unread_assignments(sources: dict[str, str], package: str) -> list[str]:
    """``module.name`` of each module-level assignment of the modules under
    ``package`` whose module never loads the name and that no other source
    imports, reads as an attribute or names in a string; dunders, which the
    language and tools read, are exempt."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    reached = {path: names_reached(tree) for path, tree in trees.items()}
    found = []
    for path, tree in trees.items():
        if not path.startswith(package):
            continue
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        elsewhere = set().union(*(names for other, names in reached.items() if other != path))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [f"{Path(path).stem}.{n.id}" for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and not n.id.startswith("__")
                      and n.id not in loaded | elsewhere]
    return sorted(found)


def test_every_module_level_assignment_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in PROGRAM}
    assert unread_assignments(sources, "src/kbtopics/") == []


def test_unread_assignments_are_found():
    sources = {"src/kbtopics/a.py": ("import logging\n"
                                     "__all__ = ['f']\n"
                                     "logger = logging.getLogger(__name__)\n"
                                     "LIMIT: int = 3\n"
                                     "LOCAL, SHARED = 1, 2\n"
                                     "BY_NAME = 4\n"
                                     "ALONE = 5\n"
                                     "def f():\n"
                                     "    return LOCAL\n"),
               "src/kbtopics/b.py": ("from .a import SHARED\n"
                                     "from . import a\n"
                                     "print(getattr(a, 'BY_NAME') + a.LIMIT)\n"
                                     "logger = 0\n"),
               "scripts/s.py": "ALONE = 6\nprint(ALONE)\n"}
    assert unread_assignments(sources, "src/kbtopics/") == ["a.ALONE", "a.logger", "b.logger"]


HELPERS = ("tests/oracles.py", "tests/row_table.py")


def unused_helpers(sources: dict[str, str], helpers: tuple[str, ...]) -> list[str]:
    """``module.name`` of each module-level function and class of the
    ``helpers`` modules that no test module (``test_*.py``) names and no
    other statement of a helper module, imports aside, uses."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    in_tests = set().union(*(names_referenced(tree) for path, tree in trees.items()
                             if Path(path).name.startswith("test_")))
    statements = [node for path in helpers for node in trees[path].body
                  if not isinstance(node, (ast.Import, ast.ImportFrom))]
    return sorted(f"{Path(path).stem}.{node.name}" for path in helpers
                  for node in trees[path].body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and node.name not in in_tests.union(
                      *(names_referenced(other) for other in statements if other is not node)))


def test_every_test_helper_is_used():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "tests").glob("*.py"))}
    assert unused_helpers(sources, HELPERS) == []


def test_unused_helpers_are_found():
    sources = {"tests/h.py": ("def tested(): pass\n"
                              "def inner(): pass\n"
                              "def outer(): return inner()\n"
                              "def recursive(n): return recursive(n - 1)\n"
                              "class Alone: pass\n"),
               "tests/g.py": "from h import tested, Alone\n",
               "tests/test_x.py": "from h import tested, outer\n",
               "tests/other.py": "def f(): return Alone()\n"}
    assert unused_helpers(sources, ("tests/h.py", "tests/g.py")) == ["h.Alone", "h.recursive"]
