"""Every name a module lists in ``__all__`` resolves on that module, and no
module imports a name it never uses."""
import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "levyfp").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "levyfp").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_modules_are_found():
    # an empty list would turn the parametrized check into a silent skip
    assert {"cli", "operators", "particles"} <= set(MODULES)
    assert {"test_cli.py", "test_surface.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"levyfp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, neither as a name nor
    through ``__all__``. An import on a line marked ``# noqa: F401`` is a
    deliberate re-export and is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_what_it_should():
    source = ("from a import b, c  # noqa: F401\nimport d.e\nfrom f import (\n    g,\n    h,  # noqa: F401\n)\n"
              "from i import j\n__all__ = ['j']\nprint(d)\n")
    assert unused_imports(source) == ["g (line 4)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
