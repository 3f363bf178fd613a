"""Every module of the package references each name it imports."""

import ast
from pathlib import Path

import pytest

import storyfactors

SOURCES = sorted(Path(storyfactors.__file__).parent.glob("*.py"))


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[str]:
    """Imported names the module never references, with their line numbers.

    ``from __future__`` imports are directives, not names.  A name listed in
    ``__all__`` counts as referenced (the package's re-exports), and so does
    a name inside a quoted annotation.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                used |= _names(ast.parse(annotation.value, mode="eval"))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_references_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_what_a_module_never_references():
    source = ('from __future__ import annotations\nimport math\nimport os.path\n'
              'from typing import Sequence\nfrom x import y as z, kept\n'
              'def f(a: "Sequence[int]") -> None:\n    return os.path.join(kept)\n'
              '__all__ = ["z"]\n')
    assert unused_imports(source) == ["math (line 2)"]
