"""Public surface: the README example runs, and every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import pairrank

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("pairrank",) + tuple(
    f"pairrank.{info.name}" for info in pkgutil.iter_modules(pairrank.__path__)
)
REMOVED = (
    "Sample",
    "ValidationReport",
    "validate_dataset",
    "SolverConfig",
    "BatchProvenance",
    "SubsampleProvenance",
    "PopulationProvenance",
)


def test_readme_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    auc, phi = map(float, capsys.readouterr().out.split())
    assert 0.5 < auc <= 1.0 and 0.0 <= phi < 0.5


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", ())
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mod, name), f"{module}.__all__ names missing {name}"


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in pairrank.__all__
        assert not hasattr(pairrank, name)
