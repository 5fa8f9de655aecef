"""Exact differential calculus over finite-dimensional associative algebras.

Subpackages:

* :mod:`ncforms.linalg` — exact rational linear algebra (Fraction subspaces,
  integer-matrix engine).
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
"""

__version__ = "0.1.0"
