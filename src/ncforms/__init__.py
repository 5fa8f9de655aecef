"""Exact differential calculus over finite-dimensional associative algebras.

Modules:

* :mod:`ncforms.linalg` — exact rational linear algebra (primitive integer
  subspaces, integer-matrix engine; ``Fraction`` only at its listed boundary).
* :mod:`ncforms.algebra` — algebras by structure constants, bimodules,
  homomorphisms, derivations.
* :mod:`ncforms.dsl` — text format for defining algebras and group actions.
* :mod:`ncforms.forms` — differential forms with values in the algebra.
* :mod:`ncforms.fieldforms` — forms with values in vector fields, graded
  derivations, and their brackets.
* :mod:`ncforms.connections` — distributions, projections, curvature,
  bundles and connections.
* :mod:`ncforms.hochschild` — normalized cochain cohomology, two routes.
* :mod:`ncforms.schouten` — multivector calculus and Poisson structures.
* :mod:`ncforms.identities` — the seeded identity suite that ``verify`` runs.
* :mod:`ncforms.cli` — the ``ncforms`` command line tool.

Importing the package loads none of them.  Each loads on its first import
or its first read off the package (``ncforms.forms``) through ``__getattr__``,
the package's one point that loads a module by name, so that a command line
report loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {"linalg", "algebra", "dsl", "forms", "fieldforms", "connections",
            "hochschild", "schouten", "identities", "cli"}


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
