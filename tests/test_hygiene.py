"""Every name a hypermono module imports at top level is used in it, and
the certification modules use no floating point.

No linter is a dependency, so this parses each module with `ast`. It fails
on top-level imports that nothing in the module refers to (`from __future__`
imports are exempt), and on a float literal, a `float(` call or a
math.sqrt/floor/ceil in the modules whose results certify something.
`growth` and `spin` measure and draw, and are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermono"
MODULES = sorted(SRC.glob("*.py"))
EXACT_MODULES = ("exact.py", "lattice.py", "levelt.py", "distgraph.py",
                 "exponents.py")
FLOAT_MATH = {"sqrt", "floor", "ceil"}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "from math import gcd, lcm\n"
           "x = lcm(2, 3)\n")
    assert unused_imports(src) == ["os (line 2)", "gcd (line 3)"]


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
