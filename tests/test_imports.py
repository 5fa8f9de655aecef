"""Source hygiene: every name a library module imports is used in it,
every function, class and method it defines is named somewhere else, only
``linalg`` multiplies integer arrays, forms a Kronecker product or packs a
coefficient vector, one point loads a module by name, and each command
report loads only the library modules it runs and no optional package."""

import ast
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from ncforms.algebra import inner_derivation
from ncforms.dsl import builtin_algebra
from ncforms.fieldforms import field_from_derivation, field_valued_form_space
from ncforms.schouten import commutator_bivector

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ncforms"


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


def imports_in_functions(source: str) -> list[str]:
    """'function:line' of each import statement inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{node.name}:{inner.lineno}" for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
    return sorted(found)


def test_function_import_scanner():
    source = ("import os\n"
              "def f():\n"
              "    import sys\n"
              "    def g():\n"
              "        from os import path\n"
              "class C:\n"
              "    def m(self):\n"
              "        from . import x\n")
    # g's import is inside f too
    assert imports_in_functions(source) == ["f:3", "f:5", "g:5", "m:8"]


def test_library_imports_at_module_top():
    # no import cycle among the modules needs a deferred import
    found = {p.name: imports_in_functions(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in found.items() if where} == {}


LOADERS = {"import_module", "__import__", "LazyLoader"}


def module_loads(source: str) -> list[str]:
    """'function:line' of each mention of a by-name module loader (as a
    name, an attribute, an imported name or a string), with ``<module>``
    for the module body."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            names = [getattr(child, "id", None), getattr(child, "attr", None),
                     getattr(child, "value", None)]
            if isinstance(child, ast.ImportFrom):
                names += [alias.name for alias in child.names]
            if LOADERS.intersection(n for n in names if isinstance(n, str)):
                found.append(f"{where}:{child.lineno}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_module_load_scanner():
    source = ("import importlib\n"
              "from importlib.util import LazyLoader\n"
              "def f(name):\n"
              "    return importlib.import_module(name)\n"
              "def g():\n"
              "    def h():\n"
              "        return __import__('os'), getattr(importlib, 'import_module')\n"
              "x = importlib.reload(importlib)\n")
    assert module_loads(source) == ["<module>:2", "f:4", "h:7", "h:7"]


def test_one_point_loads_a_module_by_name():
    # the package's __getattr__ is the lazy-loading point; anything else
    # loading by name would hide which modules a report loads
    found = {p.name: module_loads(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    found = {name: where for name, where in found.items() if where}
    assert list(found) == ["__init__.py"]
    assert [where.partition(":")[0] for where in found["__init__.py"]] == ["__getattr__"]


def undecorated_definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each top-level function or class, and each method of
    a top-level class, that carries no decorator.  Decorated ones (click
    commands, properties, classmethods) are reached through the decorator;
    dunder methods through the protocol they implement."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = []
    for node in ast.parse(source).body:
        if isinstance(node, kinds):
            nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes += [m for m in node.body if isinstance(m, kinds)
                      and not (m.name.startswith("__") and m.name.endswith("__"))]
    return [(n.name, n.lineno) for n in nodes if not n.decorator_list]


def test_definition_scanner():
    source = ("class C:\n"
              "    def __init__(self): pass\n"
              "    @property\n"
              "    def p(self): pass\n"
              "    def m(self): pass\n"
              "@decorated\n"
              "def f(): pass\n"
              "def g():\n"
              "    def inner(): pass\n")
    assert undecorated_definitions(source) == [("C", 1), ("m", 5), ("g", 8)]


def test_every_library_definition_is_named_elsewhere():
    # what a collapse leaves unused goes: a definition whose name appears
    # nowhere but on its own def line, across src, tests and perfbench, is dead
    words = Counter(word for top in ("src", "tests", "perfbench")
                    for path in (ROOT / top).rglob("*.py")
                    for word in re.findall(r"\w+", path.read_text(encoding="utf-8")))
    dead = []
    for module in sorted(SRC.glob("*.py")):
        source = module.read_text(encoding="utf-8")
        lines = source.splitlines()
        for name, line in undecorated_definitions(source):
            if words[name] == re.findall(r"\w+", lines[line - 1]).count(name):
                dead.append(f"{module.name}:{line} {name}")
    assert dead == []


NUMPY_PRODUCTS = {"dot", "kron", "tensordot", "matmul", "einsum"}


def products_outside_linalg(source: str) -> list[str]:
    """'np.name:line' of each numpy product named (called or passed), and
    'name:line' of each underscore name imported from ``linalg``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in NUMPY_PRODUCTS
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append(f"np.{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"np.{a.name}:{node.lineno}" for a in node.names
                      if a.name in NUMPY_PRODUCTS]
        elif isinstance(node, ast.ImportFrom) and node.module in ("linalg", "ncforms.linalg"):
            found += [f"{a.name}:{node.lineno}" for a in node.names
                      if a.name.startswith("_")]
    return sorted(found)


def test_product_scanner():
    source = ("import numpy as np\n"
              "from numpy import einsum\n"
              "from .linalg import QMat, _exact_pair\n"
              "x = np.dot(a, b) + np.zeros(3)\n"
              "y = functools.reduce(np.kron, mats)\n"
              "z = a @ b\n")
    assert products_outside_linalg(source) == [
        "_exact_pair:3", "np.dot:4", "np.einsum:2", "np.kron:5"]


def test_only_linalg_multiplies_integer_arrays():
    # every integer product is QMat @ or kron_apply, where the int64/object
    # rule is stated once; no module reaches past them
    found = {p.name: products_outside_linalg(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"}
    assert {name: where for name, where in found.items() if where} == {}


def kron_mentions(source: str) -> list[int]:
    """The line of each attribute ``kron``, called (``x.kron(y)``) or passed."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "kron")


def test_kron_scanner():
    source = ("a = M @ x.kron(y)\n"
              "b = functools.reduce(QMat.kron, cols)\n"
              "c = kron_apply([(x, y)], X)  # not x.kron(y)\n")
    assert kron_mentions(source) == [1, 2]


def test_only_linalg_forms_a_kronecker_product():
    # a multilinear map is evaluated by linalg.multilinear or kron_apply;
    # QMat.kron is left to the tests as the dense reference
    found = {p.name: kron_mentions(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def column_packings(source: str) -> list[int]:
    """The line of each mention of ``QMat.column`` (called or passed)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "column"
                  and getattr(node.value, "id", None) == "QMat")


def test_column_scanner():
    source = ("a = QMat.column(v)\n"
              "b = map(QMat.column, vs)\n"
              "c = x.column(v) + QMat.col(0)\n")
    assert column_packings(source) == [1, 2]


def test_only_linalg_packs_a_coefficient_vector():
    # every public entry converts its vector with linalg.checked_column, the
    # one length check; a QMat.column elsewhere would take a vector unchecked
    found = {p.name: column_packings(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def structure_reads(source: str) -> list[int]:
    """The line of each mention of an attribute ``structure`` or ``structure_den``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("structure", "structure_den"))


def test_structure_scanner():
    source = ("c = A.structure[i][j]\n"
              "den = alg.structure_den\n"
              "mu = A.mu2.column_fractions(0)  # structure constants\n"
              "self.structure = table\n")
    assert structure_reads(source) == [1, 2, 4]


def test_no_module_reads_a_structure_table():
    # mu^2 is the only stored form of the product: no module keeps or reads
    # a nested table of structure constants beside it
    found = {p.name: structure_reads(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def run_python(code: str, **env: str) -> str:
    """stdout of ``python -c code`` in a fresh interpreter that imports
    ncforms from this checkout, with OPENBLAS_NUM_THREADS unset unless
    given in env."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = str(SRC.parent)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120, env={**base, **env})
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_start_up_loads_no_optional_package():
    # every report pays for what ``import ncforms.cli`` loads: the test-only
    # packages must not slip in, nor dataclasses' per-class code generation
    heavy = ("dataclasses", "sympy", "scipy", "hypothesis", "jsonschema")
    code = ("import sys, ncforms.cli; print(sorted(m for m in sys.modules "
            f"if m.partition('.')[0] in {heavy!r}))")
    assert run_python(code) == "[]"


def loaded_modules(*args: str) -> list[str]:
    """The ``ncforms`` modules a fresh interpreter holds after ``import
    ncforms.cli`` and, given ``args``, the report they name."""
    code = ("import json, sys, ncforms.cli\n"
            f"argv = {list(args)!r}\n"
            "if argv:\n"
            "    ncforms.cli.main.main(args=argv, prog_name='ncforms',"
            " standalone_mode=False)\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m.partition('.')[0] == 'ncforms')))")
    return json.loads(run_python(code).splitlines()[-1])


START_UP = ["ncforms", "ncforms.algebra", "ncforms.cli", "ncforms.dsl",
            "ncforms.linalg"]


def test_cli_start_up_loads_only_what_every_report_runs():
    assert loaded_modules() == START_UP


@pytest.fixture(scope="module")
def bracket_files(tmp_path_factory):
    """Two degree-0 fields, a degree-1 field-valued form and the commutator
    bivector of m2, serialized."""
    base = tmp_path_factory.mktemp("brackets")
    m2 = builtin_algebra("m2")
    mod = m2.regular_bimodule()
    unit = [[Fraction(int(i == j)) for i in range(4)] for j in range(4)]
    objs = {"X": field_from_derivation(m2, inner_derivation(mod, unit[1])),
            "Y": field_from_derivation(m2, inner_derivation(mod, unit[2])),
            "L": field_valued_form_space(m2, 1)[0], "mu": commutator_bivector(m2)}
    for name, obj in objs.items():
        (base / f"{name}.json").write_text(json.dumps(obj.to_json()))
    return base


@pytest.mark.parametrize("command, files, extra", [
    ("info", (), ["forms"]),
    ("derham", (), ["forms"]),
    ("kernel-mu-n", (), ["forms"]),
    ("hochschild", (), ["forms", "hochschild"]),
    ("fn-bracket", ("X", "Y"), ["fieldforms", "forms"]),
    ("alg-bracket", ("L", "L"), ["fieldforms", "forms"]),
    ("nr-bracket", ("mu", "mu"), ["schouten"]),
    ("poisson-check", (), ["schouten"]),
    ("curvature", (), ["connections", "fieldforms", "forms"]),
    ("bianchi", (), ["connections", "fieldforms", "forms"]),
    ("connection-check", (), ["connections", "fieldforms", "forms"]),
    ("verify", (), ["connections", "fieldforms", "forms", "hochschild",
                    "identities", "schouten"]),
])
def test_each_report_loads_only_the_modules_it_runs(bracket_files, command, files, extra):
    paths = [str(bracket_files / f"{name}.json") for name in files]
    loaded = loaded_modules(command, *paths, "--builtin", "m2", "-N", "2")
    assert loaded == sorted(START_UP + [f"ncforms.{name}" for name in extra])
