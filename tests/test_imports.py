"""Source hygiene: every name a library module imports is used in it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ncforms"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read, as 'name:line'.
    ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name}:{line}" for name, line in imported.items()
                  if name not in used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Callable, Optional\n"
              "def f(x: Optional[int]) -> None:\n"
              "    from fractions import Fraction\n"
              "    return np.zeros(x)\n")
    assert unused_imports(source) == ["Callable:4", "Fraction:6", "os:2"]


def test_library_modules_import_nothing_unused():
    # __init__.py imports names in order to re-export them
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 9
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {name: names for name, names in found.items() if names} == {}
