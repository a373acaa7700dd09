"""A standard-library lint of the package: no unused imports, and every
name in ``eeesim.__all__`` resolves."""

import ast
from pathlib import Path

import pytest

import eeesim

MODULES = sorted(Path(eeesim.__file__).parent.glob("*.py"))


def _imports(tree):
    """``(bound name, line)`` of every import in ``tree``, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _string_annotation_names(tree):
    """Names read inside the string annotations of ``tree``, such as
    ``-> "Scenario"``, which ``ast`` leaves as text."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        else:
            continue
        for part in ast.walk(annotation) if annotation is not None else ():
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                for name in ast.walk(ast.parse(part.value, mode="eval")):
                    if isinstance(name, ast.Name):
                        yield name.id


def _used(tree):
    """Names the module reads: in code, in string annotations, or listed in
    ``__all__`` (so ``__init__.py`` may import what it exports)."""
    used = set(_string_annotation_names(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_unused_name(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imports(tree)
              if name not in used]
    assert unused == []


def test_every_exported_name_resolves():
    assert len(set(eeesim.__all__)) == len(eeesim.__all__)
    assert [name for name in eeesim.__all__ if not hasattr(eeesim, name)] == []
