"""The benchmark's tracer wraps package functions by dotted name; every name
must still resolve, or a traced run silently stops measuring that layer."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_binding_resolves_to_a_callable(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    targets = [t for names in tracer.BINDINGS.values() for t in names]
    assert targets
    for target in targets:
        module, attr = target.rsplit(".", 1)
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            target
