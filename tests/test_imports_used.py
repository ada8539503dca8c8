"""Every module-level import in ``src/repro`` is used or re-exported.

No linter runs over the package, so this AST check stands in for one:
a name bound by a module-level ``import`` (including those under ``if
TYPE_CHECKING:`` and ``try``) must appear in the file as a name -- in
code, or inside a string annotation or ``cast("T", ...)`` -- or be
listed in the file's ``__all__``.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _module_imports(tree: ast.Module):
    """``(bound name, line)`` for every module-level import."""
    todo = list(tree.body)
    while todo:
        stmt = todo.pop(0)
        if isinstance(stmt, (ast.If, ast.Try)):
            todo[:0] = [*stmt.body, *stmt.orelse,
                        *(s for h in getattr(stmt, "handlers", [])
                          for s in h.body),
                        *getattr(stmt, "finalbody", [])]
            continue
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        for alias in stmt.names:
            if alias.asname:
                yield alias.asname, stmt.lineno
            elif isinstance(stmt, ast.Import):
                yield alias.name.split(".")[0], stmt.lineno
            elif alias.name != "*":
                yield alias.name, stmt.lineno


def _string_names(text: str) -> set[str]:
    try:
        expr = ast.parse(text, mode="eval")
    except SyntaxError:
        return set()
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _used_names(tree: ast.Module) -> set[str]:
    used: set[str] = set()
    typed: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            typed.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            typed.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            typed.append(node.annotation)
        elif isinstance(node, ast.Call) and node.args:
            typed.append(node.args[0])  # cast("T", value)
    for root in typed:
        for node in ast.walk(root):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _string_names(node.value)
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in stmt.targets):
            used |= {e.value for e in getattr(stmt.value, "elts", [])
                     if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _module_imports(tree)
            if name not in used]


def test_checker_flags_an_unused_import():
    source = ("from typing import TYPE_CHECKING, Optional\n"
              "import os.path\n"
              "if TYPE_CHECKING:\n"
              "    from x import Used, Unused\n"
              "from y import Exported\n"
              "__all__ = ['Exported']\n"
              "def f(a: 'Optional[Used]') -> None:\n"
              "    return None\n")
    assert unused_imports(source) == [("os", 2), ("Unused", 4)]


def test_no_unused_module_level_imports():
    found = [f"{path.relative_to(PACKAGE)}:{line}: {name}"
             for path in sorted(PACKAGE.rglob("*.py"))
             for name, line in unused_imports(path.read_text())]
    assert not found, found
