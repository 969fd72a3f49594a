"""Every name a module under src/axial imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "axial"

# Imports that exist to be re-exported: the package's public names in
# `__init__.py`, and the kernel module bound in `_backend`.
REEXPORTS = {("_backend.py", "kernels")}
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _names_in_strings(node) -> set[str]:
    """Names inside the string constants under node, each read as an expression."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            expr = ast.parse(sub.value, mode="eval")
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _names_in_strings(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _names_in_strings(node.returns)
    return [
        f"{path.name}:{line} {name}"
        for name, line in sorted(imported.items())
        if name not in used and (path.name, name) not in REEXPORTS
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports(SRC / module) == []


def test_every_private_module_name_is_used():
    # A module-level `_` name is internal to the package, so a definition
    # that nothing under src/axial reads is dead code.
    defined = {}
    used = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.name}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in used) == []
