"""Every name a hypermono module, a test module or a script imports at top
level is used in it, every private top-level name a hypermono module
defines is read in it, and the certification modules use no floating point.

No linter is a dependency, so this parses each module with `ast`. It fails
on top-level imports that nothing in the module refers to (`from __future__`
imports are exempt), on a top-level `_name` (function, class or assignment)
that the module never loads, and on a float literal, a `float(` call or a
math.sqrt/floor/ceil in the modules whose results certify something.
`growth` and `spin` measure and draw, and are exempt. The construction and
search modules (`levelt`, `lattice`, `distgraph`) and the growth enumeration
work in integers alone and must not name `Fraction`.

No module imports a `_`-prefixed name from another hypermono module, at
any depth: what one module shares with another is public. The scripts and
the benchmark are outside the package and exempt.

It also checks that every function the benchmark tracer wraps by name
(`SPANNED` in bench/tracing.py) still exists, since `--trace 1` looks each
one up with getattr.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hypermono"
MODULES = sorted(SRC.glob("*.py"))
EXACT_MODULES = ("exact.py", "lattice.py", "levelt.py", "distgraph.py",
                 "exponents.py")
FLOAT_MATH = {"sqrt", "floor", "ceil"}
INTEGER_MODULES = ("levelt.py", "lattice.py", "distgraph.py", "growth.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def float_uses(source: str) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            hits.append(f"float literal {node.value!r} (line {node.lineno})")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            hits.append(f"float( call (line {node.lineno})")
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            hits.append(f"math.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            hits += [f"math.{a.name} (line {node.lineno})" for a in node.names
                     if a.name in FLOAT_MATH]
    return hits


def test_modules_found():
    assert any(p.name == "lattice.py" for p in MODULES)
    assert {p.name for p in MODULES} >= set(EXACT_MODULES)


@pytest.mark.parametrize(
    "path", MODULES + sorted(ROOT.glob("tests/*.py"))
    + sorted(ROOT.glob("scripts/*.py")),
    ids=lambda p: p.name if p.parent == SRC else str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "from math import gcd, lcm\n"
           "x = lcm(2, 3)\n")
    assert unused_imports(src) == ["os (line 2)", "gcd (line 3)"]


def top_level_names(tree) -> dict[str, int]:
    """Each name a top-level function, class or assignment defines, with
    the line of its first definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [e.id for t in node.targets for e in ast.walk(t)
                     if isinstance(e, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [e.id for e in ast.walk(node.target)
                     if isinstance(e, ast.Name)]
        else:
            continue
        for name in names:
            defined.setdefault(name, node.lineno)
    return defined


def loaded_names(tree) -> set[str]:
    """Names read as a variable or as an attribute (`module.name`)."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def dead_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})"
            for name, line in top_level_names(tree).items()
            if name.startswith("_") and not name.startswith("__")
            and name not in loaded]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []


def test_detects_dead_private_name():
    src = ("def _used():\n"
           "    return _CONST\n"
           "def _dead():\n"
           "    return _used()\n"
           "class _Gone:\n"
           "    pass\n"
           "_CONST, _other = 1, 2\n"
           "_TABLE: dict = {}\n"
           "__all__ = []\n"
           "public = 3\n")
    assert dead_private_names(src) == [
        "_dead (line 3)", "_Gone (line 5)", "_other (line 7)",
        "_TABLE (line 8)"]


def unused_public_names(modules: dict[str, str], users: list[str],
                        exempt: set[str]) -> list[str]:
    """`module.name` for each public top-level name of the modules (name ->
    source) that no module and no user source loads, as a variable or an
    attribute, outside the `module.name` pairs in exempt."""
    trees = {m: ast.parse(source) for m, source in modules.items()}
    loaded = set().union(*map(loaded_names, trees.values()),
                         *(loaded_names(ast.parse(u)) for u in users))
    return [f"{m}.{name} (line {line})" for m, tree in trees.items()
            for name, line in top_level_names(tree).items()
            if not name.startswith("_") and name not in loaded
            and f"{m}.{name}" not in exempt]


def test_no_unused_public_names():
    # the tracer wraps its SPANNED names by string, and the console script
    # of pyproject.toml calls its entry point
    exempt = {f"{m}.{name}" for m, names in _spanned().items()
              for name in names}
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    exempt |= {f"{m}.{name}" for m, name in
               re.findall(r'"hypermono\.(\w+):(\w+)"', pyproject)}
    assert exempt >= {"cli.main", "levelt.hr_generators"}
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    users = [p.read_text(encoding="utf-8")
             for p in sorted(ROOT.glob("scripts/*.py"))]
    assert unused_public_names(modules, users, exempt) == []


def test_detects_unused_public_name():
    modules = {"a": ("LIMIT = 3\n"
                     "ALIAS = int\n"
                     "def used():\n"
                     "    return LIMIT\n"
                     "def dead():\n"
                     "    return _private()\n"
                     "def _private():\n"
                     "    return 1\n"
                     "class Gone:\n"
                     "    pass\n"
                     "def traced():\n"
                     "    pass\n"),
               "b": ("from .a import used\n"
                     "def entry():\n"
                     "    return used()\n")}
    users = ["import hypermono.b as b\nb.entry()\n"]
    assert unused_public_names(modules, users, {"a.traced"}) == [
        "a.ALIAS (line 2)", "a.dead (line 5)", "a.Gone (line 9)"]


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_no_floating_point_in_certification_modules(name):
    assert float_uses((SRC / name).read_text(encoding="utf-8")) == []


def test_detects_floating_point():
    src = ("import math\n"
           "from math import floor, isqrt\n"
           "a = 1e-6 + float(2) + math.sqrt(3) + math.ceil(4) + isqrt(5)\n"
           "b = 2 / 3\n")
    assert sorted(float_uses(src)) == [
        "float literal 1e-06 (line 3)", "float( call (line 3)",
        "math.ceil (line 3)", "math.floor (line 2)", "math.sqrt (line 3)"]


def private_imports(source: str) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "hypermono":
            continue
        hits += [(node.lineno, f"{a.name} from {module} (line {node.lineno})")
                 for a in node.names
                 if a.name.startswith("_") and not a.name.startswith("__")]
    return [hit for _, hit in sorted(hits)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(path.read_text(encoding="utf-8")) == []


def test_detects_private_import():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .lattice import reflect, _helper\n"
           "from hypermono.exponents import _candidate_ids\n"
           "from . import __version__\n"
           "def f():\n"
           "    from .exact import _inner\n")
    assert private_imports(src) == [
        "_helper from .lattice (line 3)",
        "_candidate_ids from hypermono.exponents (line 4)",
        "_inner from .exact (line 7)"]


def fraction_uses(source: str) -> list[str]:
    hits = []
    for node in ast.walk(ast.parse(source)):
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name if isinstance(node, ast.alias) else None)
        if name in ("Fraction", "fractions"):
            hits.append(f"{name} (line {node.lineno})")
    return hits


@pytest.mark.parametrize("name", INTEGER_MODULES)
def test_no_fraction_in_integer_modules(name):
    assert fraction_uses((SRC / name).read_text(encoding="utf-8")) == []


def test_detects_fraction():
    src = ("from fractions import Fraction\n"
           "import fractions\n"
           "a = Fraction(1, 2) + fractions.Fraction(1, 3)\n")
    assert sorted(fraction_uses(src)) == [
        "Fraction (line 1)", "Fraction (line 3)", "Fraction (line 3)",
        "fractions (line 2)", "fractions (line 3)"]


def _spanned() -> dict:
    source = (ROOT / "bench" / "tracing.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "SPANNED"):
            return ast.literal_eval(node.value)
    raise AssertionError("SPANNED not found in bench/tracing.py")


def test_traced_functions_exist():
    spanned = _spanned()
    assert "growth" in spanned and "spin" in spanned
    missing = [f"{module}.{name}" for module, names in spanned.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"hypermono.{module}"), name, None))]
    assert missing == []
