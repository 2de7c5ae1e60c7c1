"""The benchmark's tracer wraps package functions by dotted name; every name
must still resolve, or a traced run silently stops measuring that layer.
Conversely, a package module imports a name it never uses only so that the
tracer can bind it there."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
PACKAGE = ROOT / "src" / "fracmom"


def _bindings(monkeypatch) -> dict:
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer").BINDINGS


def test_every_binding_resolves_to_a_callable(monkeypatch):
    targets = [t for names in _bindings(monkeypatch).values() for t in names]
    assert targets
    for target in targets:
        module, attr = target.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            target


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name)}


def test_every_unused_import_is_a_tracer_binding(monkeypatch):
    """A name a module imports and never uses is dead, unless the tracer
    binds it through that module; __init__ re-exports every name it
    imports."""
    targets = {t for names in _bindings(monkeypatch).values() for t in names}
    kept = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name in _unused_imports(ast.parse(path.read_text("utf-8"))):
            kept.add(f"fracmom.{path.stem}.{name}")
    assert kept <= targets, sorted(kept - targets)
