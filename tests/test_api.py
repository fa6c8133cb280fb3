"""Public surface: the README example runs, and every exported name resolves.

The package exports exactly its submodules' ``__all__`` lists plus
``__version__``, each name bound to its submodule's object.
"""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import pairrank

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("pairrank",) + tuple(
    f"pairrank.{info.name}" for info in pkgutil.iter_modules(pairrank.__path__)
)
# The submodules whose names the package re-exports, in export order.
EXPORTING = ("core", "moments", "solver", "evaluation", "synth", "bounds", "io", "baseline")
REMOVED = (
    "Sample",
    "ValidationReport",
    "validate_dataset",
    "SolverConfig",
    "BatchProvenance",
    "SubsampleProvenance",
    "PopulationProvenance",
    "save_gmm_spec",
    "load_gmm_spec",
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


def test_package_exports_are_the_submodule_lists():
    lists = [importlib.import_module(f"pairrank.{name}").__all__ for name in EXPORTING]
    assert pairrank.__all__ == ["__version__"] + [name for names in lists for name in names]
    for name in pairrank.__all__[1:]:
        assert not name.startswith("_")
        assert not isinstance(getattr(pairrank, name), types.ModuleType)


@pytest.mark.parametrize("module", EXPORTING)
def test_exported_names_are_the_submodule_objects(module):
    mod = importlib.import_module(f"pairrank.{module}")
    for name in mod.__all__:
        assert getattr(pairrank, name) is getattr(mod, name)


def test_write_csv_is_not_exported():
    assert "write_csv" not in pairrank.__all__
    assert "write_csv" not in pairrank.io.__all__
    assert not hasattr(pairrank, "write_csv")


def test_float_cell_format_lives_only_in_io():
    """The 17-significant-digit float rule is spelled once, in io's cell rule."""
    package = Path(pairrank.__file__).parent
    holders = [path.name for path in sorted(package.glob("*.py"))
               if "17g" in path.read_text(encoding="utf-8")]
    assert holders == ["io.py"]
