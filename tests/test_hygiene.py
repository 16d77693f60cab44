"""Every name a hypermono module imports at top level is used in it.

No linter is a dependency, so this parses each module with `ast` and fails
on top-level imports that nothing in the module refers to. `from __future__`
imports are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hypermono"
MODULES = sorted(SRC.glob("*.py"))


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


def test_modules_found():
    assert any(p.name == "lattice.py" for p in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = ("from __future__ import annotations\n"
           "import os\n"
           "from math import gcd, lcm\n"
           "x = lcm(2, 3)\n")
    assert unused_imports(src) == ["os (line 2)", "gcd (line 3)"]
