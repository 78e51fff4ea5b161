"""The package's public surface and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import curveshift
from curveshift import SimulationSpec, generate

MODULES = ["criterion", "fourier", "inference", "landmark", "optimize", "simulate"]
README = Path(__file__).resolve().parents[1] / "README.md"


def package_imports():
    """(module, name) for every name that curveshift/__init__.py imports from a submodule."""
    tree = ast.parse(Path(curveshift.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"curveshift.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"curveshift.{module}.__all__ lists missing {name!r}"


def test_package_imports_are_listed_in_all():
    imports = package_imports()
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"curveshift.{module}")
        assert name in mod.__all__, f"curveshift imports {name!r}, not in {module}.__all__"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    spec = SimulationSpec("sinc15", n_curves=5, n_samples=101, replicates=1)
    y = generate(spec, 0).curves.samples
    namespace = {"y": y}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert np.all(np.isfinite(namespace["report"].std_errors))
    assert capsys.readouterr().out
