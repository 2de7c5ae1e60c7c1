"""The package's layout: the estimators, the baselines, the plug-in moments
and ``fracmom estimate`` import numpy only, and every public name of the
lazy ``fracmom`` namespace resolves to the object its module defines."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracmom

SRC = Path(__file__).resolve().parent.parent / "src"

NUMPY_ONLY = f"""
import sys
import fracmom, fracmom.estimators, fracmom.baselines, fracmom.moments
from fracmom.cli import cli_main
assert cli_main(["estimate", "--data", sys.argv[1], "--alpha", "0.05",
                 "--method", "proxy"]) == 0
assert cli_main(["estimate", "--data", sys.argv[1], "--alpha", "0.3"]) == 0
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "fracmom.distributions"))
"""


def test_estimate_imports_no_scipy(tmp_path):
    data = tmp_path / "far.txt"
    data.write_text("-1\n-1\n-1\n1e20\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", NUMPY_ONLY, str(data)],
                         capture_output=True, text=True, env=env, check=True)
    lines = run.stdout.splitlines()
    assert lines[0].startswith("theta_hat=1.107919295475559e+19 method=proxy")
    assert lines[-1] == "[]"


def _defining_module(name: str) -> str:
    """The one package module whose top level defines or assigns name."""
    homes = []
    for path in sorted((SRC / "fracmom").glob("*.py")):
        for node in ast.parse(path.read_text("utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            if name in names:
                homes.append(path.stem)
    assert len(homes) == 1, (name, homes)
    return homes[0]


@pytest.mark.parametrize("name", fracmom.__all__)
def test_public_name_is_its_module_object(name):
    value = getattr(fracmom, name)
    if (SRC / "fracmom" / f"{name}.py").exists():
        assert value is importlib.import_module(f"fracmom.{name}")
        return
    module = importlib.import_module(f"fracmom.{_defining_module(name)}")
    assert value is getattr(module, name)
    assert getattr(fracmom, name) is value  # the cached binding


def test_unknown_attribute_raises_attribute_error():
    # MC_ESTIMATORS and alpha_list are module names, not package names
    for name in ("no_such_name", "MC_ESTIMATORS", "alpha_list"):
        with pytest.raises(AttributeError, match=name):
            getattr(fracmom, name)
    assert not hasattr(fracmom, "no_such_name")
