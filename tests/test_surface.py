"""Every name a module lists in ``__all__`` resolves on that module."""
import importlib
import pathlib

import pytest

MODULES = sorted(p.stem for p in (pathlib.Path(__file__).parents[1] / "src" / "levyfp").glob("*.py"))


def test_modules_are_found():
    # an empty list would turn the parametrized check into a silent skip
    assert {"cli", "operators", "particles"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"levyfp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
