"""Every name a module lists in ``__all__`` resolves on that module and is
loaded outside the unit tests, no module imports a name it never uses,
every parameter is read by its body and every dataclass field outside the
unit tests, every function, class and method is named by other code of the
package, no two classes declare one field list, importing levyfp loads
neither scipy nor multiprocessing, and the names the benchmark's tracer
wraps resolve."""
import ast
import collections
import importlib
import importlib.util
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
    through ``__all__``. No marker exempts one: a module re-exports a name
    only through ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_import_check_sees_what_it_should():
    source = ("from a import b, c  # noqa: F401\nimport d.e\nfrom f import (\n    g,\n    h,  # noqa: F401\n)\n"
              "from i import j\n__all__ = ['j']\nprint(d, c)\n")
    assert unused_imports(source) == ["b (line 1)", "g (line 4)", "h (line 5)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


DEFERRED = ("scipy", "multiprocessing")


def import_time_imports(source: str) -> list:
    """Imports of a package in ``DEFERRED`` that run when the module is loaded:
    every statement outside a function body, class bodies and ``if``/``try``
    blocks included."""
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            names = []
        found.extend(f"{n} (line {node.lineno})" for n in names if n.split(".")[0] in DEFERRED)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_import_time_check_sees_what_it_should():
    source = ("import numpy\nfrom scipy.special import pdtrc\nif True:\n    import multiprocessing.pool\n"
              "class A:\n    import scipy\n    def f(self):\n        import scipy.integrate\n"
              "def g():\n    from scipy.integrate import quad\nfrom .scipy import x\nimport scipyx\n")
    assert import_time_imports(source) == [
        "scipy.special (line 2)", "multiprocessing.pool (line 4)", "scipy (line 6)"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "levyfp").glob("*.py")), ids=lambda p: p.name)
def test_no_import_time_scipy_or_multiprocessing(path):
    assert import_time_imports(path.read_text()) == []


def unread_parameters(source: str) -> list:
    """Parameters of a module-level function or of a method that the body never
    reads. ``self`` and ``cls`` are exempt, and so are lambdas and functions
    nested in a function: callbacks such as ``solve_ivp``'s ``rhs(t, y)`` and
    drift lambdas take the arguments their protocol passes."""
    found = []

    def check(fn, owner):
        args = fn.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found.extend(f"{owner}{fn.name}({p.arg}) (line {fn.lineno})" for p in params
                     if p.arg not in ("self", "cls") and p.arg not in read)

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(source).body:
        if isinstance(node, functions):
            check(node, "")
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    check(item, f"{node.name}.")
    return found


def test_unread_parameter_check_sees_what_it_should():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + args[0] + kw['x']\n"
              "def g(x, y):\n    def rhs(t, v):\n        return x\n    return rhs, (lambda t, z: y)\n"
              "class A:\n    def m(self, u):\n        return self\n    @classmethod\n    def n(cls, w=None):\n"
              "        w = 1\n        return cls\n")
    assert unread_parameters(source) == [
        "f(b) (line 1)", "f(c) (line 1)", "A.m(u) (line 8)", "A.n(w) (line 11)"]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "levyfp").glob("*.py")), ids=lambda p: p.name)
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


def shared_field_lists(sources: dict) -> list:
    """Groups of classes that declare the same annotated fields, names and
    annotations in the same order: copies of one record type. ``sources``
    maps a module name to its source text."""
    owners = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                fields = tuple((s.target.id, ast.unparse(s.annotation)) for s in node.body
                               if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
                if fields:
                    owners.setdefault(fields, []).append(f"{module}.{node.name}")
    return sorted(sorted(names) for names in owners.values() if len(names) > 1)


def test_shared_field_list_check_sees_what_it_should():
    sources = {
        "a": "class A:\n    x: int\n    y: float = 0.0\n    def f(self):\n        z: int = 1\n"
             "class C:\n    x: int\nclass D:\n    x: float\n    y: float\n",
        "b": "class B:\n    x: int\n    y: float\n    def g(self):\n        return 1\n"
             "class E:\n    y: float\n    x: int\nclass F:\n    pass\nclass G:\n    pass\n",
    }
    assert shared_field_lists(sources) == [["a.A", "b.B"]]


def test_no_two_classes_share_a_field_list():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "levyfp").glob("*.py"))}
    assert shared_field_lists(sources) == []


def unread_fields(declaring: dict, reading: list) -> list:
    """Fields of a dataclass declared in ``declaring`` (module name -> source)
    whose name no attribute load in any ``reading`` source reads. The match is
    by name alone: a load of ``.dt`` reads every dataclass field named ``dt``.
    ``dataclasses.asdict(f(...))`` reads every field of the class that ``f``,
    a module-level function of a declaring source, is annotated to return."""
    fields, returns = {}, {}
    for module, source in declaring.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields.setdefault(node.name, []).extend(
                    (s.target.id, f"{module}.{node.name}.{s.target.id} (line {s.lineno})") for s in node.body
                    if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
                returns[node.name] = ast.unparse(node.returns).strip("'\"")
    read = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("asdict", "dataclasses.asdict")
                  and node.args and isinstance(node.args[0], ast.Call)):
                callee = node.args[0].func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
                read |= {f for f, _ in fields.get(returns.get(name), [])}
    return sorted(where for entries in fields.values() for f, where in entries if f not in read)


def test_unread_field_check_sees_what_it_should():
    declaring = {
        "a": "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass A:\n    x: int\n    y: float = 0.0\n"
             "    def f(self):\n        return self.x\nclass Plain:\n    z: int\n",
        "b": "import dataclasses\n@dataclasses.dataclass\nclass R:\n    p: float\n    q: float\n"
             "def report() -> R:\n    return R(1.0, 2.0)\n@dataclasses.dataclass\nclass S:\n    u: int\n"
             "def other() -> 'S':\n    return S(1)\n",
    }
    assert unread_fields({"c": "def f(x):\n    return x.y\n"}, []) == []
    assert unread_fields(declaring, []) == [
        "a.A.x (line 4)", "a.A.y (line 5)", "b.R.p (line 4)", "b.R.q (line 5)", "b.S.u (line 10)"]
    readers = ["import dataclasses\nprint(dataclasses.asdict(report()))\nA(x=1, y=2).y = 3\n",
               "from dataclasses import asdict\nasdict(b.other())\n"]
    # a method's self.x is a read; a store is not; asdict of an annotated call reads the whole class
    assert unread_fields(declaring, declaring.values()) == [
        "a.A.y (line 5)", "b.R.p (line 4)", "b.R.q (line 5)", "b.S.u (line 10)"]
    assert unread_fields(declaring, readers) == ["a.A.x (line 4)", "a.A.y (line 5)"]


# stored values that only the unit tests read, each with the reason it stays
FIELDS_READ_BY_TESTS_ONLY = {
    "particles.CouplingRun.x_final": "the oracle tests pin the reflected Y moves bit for bit through it",
    "particles.CouplingRun.y_final": "the oracle tests pin the reflected Y moves bit for bit through it",
}


def test_no_unread_fields():
    # a reader outside the unit tests: the package, the benchmark, or an acceptance item
    declaring = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "levyfp").glob("*.py"))}
    reading = [*declaring.values(), *(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))),
               (ROOT / "tests" / "test_acceptance.py").read_text()]
    assert len(reading) > len(declaring) > 10
    found = {entry.split(" (line")[0]: entry for entry in unread_fields(declaring, reading)}
    unread = [entry for name, entry in found.items() if name not in FIELDS_READ_BY_TESTS_ONLY]
    assert unread == [], "no reader outside the unit tests: " + ", ".join(unread)
    # an exemption whose field has gained a reader, or is gone, goes too
    assert sorted(found) == sorted(FIELDS_READ_BY_TESTS_ONLY)


def unloaded_public_names(declaring: dict, reading: list) -> list:
    """Names in the ``__all__`` of a ``declaring`` source (module name ->
    source text) that no ``reading`` source loads: as a name, as an
    attribute, or as an import alias. The match is by name alone; a string
    constant, the ``__all__`` entry itself included, is no load."""
    public = []
    for module, source in declaring.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public.extend((elt.value, f"{module}.{elt.value}") for elt in node.value.elts)
    loaded = set()
    for source in reading:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    return sorted(where for name, where in public if name not in loaded)


def test_unloaded_public_name_check_sees_what_it_should():
    declaring = {
        "a": "__all__ = ['f', 'g', 'h', 'k', 'unread']\ndef f():\n    return 'unread'\ndef g():\n    pass\n"
             "def h():\n    pass\ndef k():\n    pass\ndef unread():\n    pass\n",
        "b": "__all__ = ['B']\nclass B:\n    pass\n",
    }
    readers = ["from a import f\nimport a\nprint(a.g)\n", "class C:\n    def m(self):\n        return h(B)\n"
               "def k():\n    pass\n"]
    # a store (k's def) and a string constant ('unread') are no loads
    assert unloaded_public_names(declaring, readers) == ["a.k", "a.unread"]
    assert unloaded_public_names(declaring, []) == ["a.f", "a.g", "a.h", "a.k", "a.unread", "b.B"]


def test_every_public_name_has_a_reader_outside_the_unit_tests():
    # the readers of test_no_unread_fields: the package, the benchmark, or an acceptance item
    declaring = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "levyfp").glob("*.py"))}
    reading = [*declaring.values(), *(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))),
               (ROOT / "tests" / "test_acceptance.py").read_text()]
    assert len(reading) > len(declaring) > 10
    assert unloaded_public_names(declaring, reading) == []


def unreferenced_definitions(sources: dict) -> list:
    """Functions, classes and methods defined in ``sources`` (module name ->
    source text), nested ones included, whose name no code outside their own
    definition names: as a loaded name, as a loaded attribute, or as a string
    constant (``__all__`` entries, ``getattr`` names). The match is by name
    alone, across all the sources. Dunder methods, which Python calls, are
    exempt."""
    def named(node) -> collections.Counter:
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Constant) and isinstance(n.value, str))

    trees = {module: ast.parse(source) for module, source in sources.items()}
    everywhere = sum((named(tree) for tree in trees.values()), collections.Counter())
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and everywhere[node.name] == named(node)[node.name]):
                found.append(f"{module}.{node.name} (line {node.lineno})")
    return sorted(found)


def test_unreferenced_definition_check_sees_what_it_should():
    sources = {
        "a": "__all__ = ['f']\ndef f():\n    return g()\ndef g():\n    return 1\n"
             "def h(n):\n    return h(n - 1)\nclass A:\n    def __init__(self):\n        self.m()\n"
             "    def m(self):\n        def inner():\n            pass\n        return 'by_name'\n"
             "    def by_name(self):\n        pass\n    def unused(self):\n        pass\n",
        "b": "from a import A\nclass B(A):\n    def m(self):\n        pass\ndef k():\n    pass\nk = 1\n",
    }
    # a definition named only by itself (h), stored over (k) or never named is
    # flagged; a method named through one class (m) is named for every class
    assert unreferenced_definitions(sources) == [
        "a.h (line 6)", "a.inner (line 12)", "a.unused (line 17)", "b.B (line 2)", "b.k (line 5)"]


def test_no_unreferenced_definitions():
    sources = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "levyfp").glob("*.py"))}
    assert len(sources) > 10
    assert unreferenced_definitions(sources) == []


# the trace targets known to be gone, which the benchmark's tracer reports as
# "not found": the jump field left the steppers and step_ensemble the particles
STALE_TRACE_TARGETS = {"levyfp.forward.levy_integral_field", "levyfp.adjoint.levy_integral_field",
                       "levyfp.particles.step_ensemble"}


def test_trace_targets_resolve():
    # perfbench/tracing.py wraps each module-level name of SPAN_TARGETS; a
    # refactor that moves one makes its layer read 0
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [target for targets in tracing.SPAN_TARGETS.values() for target in targets]
    assert "levyfp.cli.solve" in targets and "levyfp.forward.weighted_tv_norm" in targets
    missing = set()
    for target in targets:
        module, name = target.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), name):
            missing.add(target)
    assert missing <= STALE_TRACE_TARGETS
