"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals.
Two representations are used:

* :class:`Subspace` — the contract-level view: its unique basis as
  primitive integer rows, read as the reduced row echelon form over
  ``Fraction`` (pivots ascending, pivot entries 1, pivot columns cleared).
* :class:`QMat` — a dense matrix as an integer numpy array plus one positive
  denominator.  The numerators are int64 or object (Python ints), nothing
  else, and read-only, so max |num| is scanned once per QMat.  Integer
  matrix products run at C speed; an operation whose result could exceed
  2**62 first reduces its operands, then if need be promotes them from int64
  to Python objects, so results are always exact.

Six conventions are fixed here and nowhere else:

* Tuple indexing.  Form bases, bar tuples, tensor bimodules and multimaps
  are indexed by tuples whose digits run over ``lo..lo+base-1``;
  :func:`flat_index` and :func:`digits_at` are the one big-endian codec
  between such a tuple and its flat index.
* Matrix building.  A structural operator (a bimodule action, d) is a
  Kronecker term list; :func:`kron_matrix` builds a list's matrix only
  where its entries are read: ``FormSpace.stacked_right``,
  ``Bimodule.validate``, the stacked actions of ``semidirect_product`` and
  of the free bimodule in ``hochschild``, and ``verify``'s
  ``d-squared-zero`` and ``bimodule-associativity``.  A multilinear map
  (mu^2, a cochain, a multimap) is its matrix M, evaluated on argument
  blocks as M (X_1 (x) ... (x) X_k) by :func:`multilinear`.  Small integer
  matrices (unit columns, mu^2) come from :meth:`QMat.from_coo`, columns
  join by :func:`qmat_hstack`, ``Fraction`` data by
  :meth:`QMat.from_columns`; all three return the reduced (num, den).
  Every integer product in the package is ``QMat @`` or :func:`kron_apply`,
  so the int64/object choice is made only here; :meth:`QMat.kron` is the
  dense reference the tests check them against.
* Elimination.  Every rank, kernel, solve, inverse and span goes through
  :class:`RowReducer`, fraction-free: primitive integer rows in echelon
  form, eliminated by cross-multiplying and back-substituted once on read.
  ``Fraction`` values are built only when a basis or coset is read.
* Linear conditions.  A system whose matrix is a sum of Kronecker products
  of actions (derivations, form homs, cocycles, polyderivations, tensor
  relations and spans, commutators) is written as its list of terms, the
  actions' terms spliced in, and turned into sparse integer rows (of the
  :func:`kron_transpose` for columns) by :func:`kron_rows`, which feed
  :func:`nullspace` or a :class:`RowReducer`.  The same list is evaluated
  on a block by :func:`kron_apply`, so each operator is stated once.
* Vector format.  Inside the package a block of vectors is a QMat of
  columns or a Subspace of integer rows (:meth:`Subspace.row_matrix`);
  a system A X = B is one :func:`solve_linear` call for all columns of B.
  A matrix unknown (a cochain, a derivation) is read as :meth:`QMat.vec`,
  and a kernel of them as :meth:`Subspace.unvec_basis`.  ``Fraction``
  lists (from ``Subspace.basis``, ``RowReducer.reduce_dense``, QMat's
  ``entry``, ``column_fractions`` and ``to_fraction_rows``) appear only at
  the boundary, which is exactly: text (one literal grammar,
  :data:`RATIONAL`, read by :func:`parse_scalar` and the ``dsl`` lexer and
  written by :func:`format_scalar`; the JSON matrix codec
  :func:`qmat_to_json` / :func:`qmat_from_json`); the coefficient vectors
  of the public API, each one it takes turned into a column by
  :func:`checked_column`, the one check of their length, and each one it
  returns read by the readers above; inputs that are ``Fraction`` by
  contract (polynomial coefficients, in ``minimal_polynomial`` and
  ``find_projections`` with its centre scan); and ``verify``'s witness
  strings and the draws it passes to those readers.  An algebra's product
  is its mu^2 QMat alone, read as ``Fraction`` columns only by
  ``print_algebra`` and those witnesses.
* Exact objects.  An algebra element, a form, a field-valued form, a
  multimap and a cochain are each one QMat in a space: they take +, -,
  scale, ==, is_zero and the same-space check from :class:`QVector`, and
  the last four write and read their matrices as JSON with the codec
  above.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

_INT64_SAFE = 2 ** 62

# The one rational literal of every text input (the DSL lexer and
# parse_scalar): ASCII decimal p or p/q, no sign.
RATIONAL = "[0-9]+(?:/[0-9]+)?"
_SCALAR = re.compile(rf"\s*([+-]?)({RATIONAL})\s*")


class LinAlgError(ValueError):
    pass


def make_scalar(p: int, q: int = 1) -> Fraction:
    """Exact rational p/q.  Rejects q = 0 with a domain error."""
    if q == 0:
        raise LinAlgError("scalar denominator must be nonzero")
    return Fraction(p, q)


def parse_scalar(text: str) -> Fraction:
    """Parse a :data:`RATIONAL` literal with one optional sign, surrounding
    whitespace allowed."""
    if not isinstance(text, str):
        raise LinAlgError(f"rational literal {text!r} is not a string")
    m = _SCALAR.fullmatch(text)
    if m is None:
        raise LinAlgError(f"malformed rational literal {text!r}")
    p, _, q = m[2].partition("/")
    return make_scalar(int(m[1] + p), int(q or 1))


def format_scalar(x: Fraction) -> str:
    """Inverse of parse_scalar: '3', '-1/2', ..."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# Tuple codec: big-endian, digits in lo..lo+base-1
# ---------------------------------------------------------------------------


def flat_index(digits: Iterable[int], base: int, lo: int = 0) -> int:
    """Flat index of a digit tuple, most significant digit first."""
    idx = 0
    for d in digits:
        if not lo <= d < lo + base:
            raise LinAlgError(f"digit {d} outside {lo}..{lo + base - 1}")
        idx = idx * base + (d - lo)
    return idx


def digits_at(idx: int, base: int, length: int, lo: int = 0) -> tuple[int, ...]:
    """Inverse of :func:`flat_index`: the length-digit tuple at idx."""
    if not 0 <= idx < base ** length:
        raise LinAlgError(f"flat index {idx} outside 0..{base ** length - 1}")
    out = [lo] * length
    for t in range(length - 1, -1, -1):
        idx, r = divmod(idx, base)
        out[t] += r
    return tuple(out)


# ---------------------------------------------------------------------------
# Row reduction: the one elimination
# ---------------------------------------------------------------------------


def _integer_row(row: dict) -> tuple[int, dict[int, int]]:
    """(den, den * row) as a new dict without zeros, den the lcm of the
    denominators; a row of nonzero ints is only copied."""
    if set(map(type, row.values())) == {int} and 0 not in row.values():
        return 1, dict(row)
    den = math.lcm(*(v.denominator for v in row.values()))
    if den == 1:
        return 1, {c: int(v) for c, v in row.items() if v}
    return den, {c: v.numerator * (den // v.denominator)
                 for c, v in row.items() if v}


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> int:
    """Clear column c of row in place: row <- s * row - f * prow, with
    f / s = row[c] / prow[c] in lowest terms (prow[c] > 0); returns s."""
    g = math.gcd(row[c], prow[c])
    f, s = row[c] // g, prow[c] // g
    if s != 1:
        for cc in row:
            row[cc] *= s
    for cc, vv in prow.items():
        nv = row.get(cc, 0) - f * vv
        if nv:
            row[cc] = nv
        else:
            del row[cc]
    return s


def _primitive(row: dict[int, int], lead: int) -> dict[int, int]:
    """row divided by its content, signed so that row[lead] > 0."""
    g = math.gcd(*row.values()) if row[lead] > 0 else -math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


class RowReducer:
    """Incremental sparse fraction-free row echelon accumulator.

    Rows are dicts {column: value} with int or Fraction values, scaled to
    integers on entry.  A new row is reduced only until its leading column
    is not a pivot, then stored primitive (content 1, positive pivot
    entry).  The first read after a batch of adds clears every pivot column
    from the other rows, once; divided by their pivot entries, those rows
    are the canonical RREF.  Only ``basis``, ``subspace`` (through
    :attr:`Subspace.basis`) and ``reduce_dense`` build ``Fraction`` values.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: dict[int, dict[int, int]] = {}
        self._reduced = True

    def _reduce(self, row: dict[int, int]) -> dict[int, int]:
        # in echelon form: in the span iff clearing leading pivots ends at 0
        rows = self._rows
        while row:
            c = min(row)
            if c not in rows:
                break
            _eliminate(row, rows[c], c)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self._reduce(_integer_row(row)[1])
        if not row:
            return False
        c = min(row)
        self._rows[c] = _primitive(row, c)
        self._reduced = False
        return True

    def add_columns(self, mat: "QMat") -> None:
        """Insert every column of mat (its numerators: the same span)."""
        for col in mat.T.sparse_rows():
            self.add(col)

    def _dense(self, row: Iterable) -> dict:
        """{col: value} of a row given in full, of length ambient."""
        vec = dict(enumerate(row))
        if len(vec) != self.ambient:
            raise LinAlgError(f"a row of length {len(vec)} in a space of "
                              f"dimension {self.ambient}")
        return vec

    def add_dense(self, row: Iterable) -> bool:
        return self.add(self._dense(row))

    def contains(self, row: Iterable) -> bool:
        return not self._reduce(_integer_row(self._dense(row))[1])

    def reduce_dense(self, row: Iterable) -> list[Fraction]:
        """The canonical representative of row modulo the span (0 at pivots)."""
        self.int_rows()
        rows, (den, vec) = self._rows, _integer_row(self._dense(row))
        # reduced rows hold no other pivot column, so the hits stay fixed
        for c in [c for c in vec if c in rows]:
            den *= _eliminate(vec, rows[c], c)
        out = [Fraction(0)] * self.ambient
        for c, v in vec.items():
            out[c] = Fraction(v, den)
        return out

    @property
    def dim(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def int_rows(self) -> list[dict[int, int]]:
        """The canonical basis as primitive integer rows, by ascending pivot;
        the first call after adds runs the back substitution."""
        rows = self._rows
        if not self._reduced:
            for p in sorted(rows, reverse=True):   # later rows are reduced
                hits = [c for c in rows[p] if c != p and c in rows]
                if hits:
                    row = dict(rows[p])            # Subspaces share rows
                    for c in hits:
                        _eliminate(row, rows[c], c)
                    rows[p] = _primitive(row, p)
            self._reduced = True
        return [rows[p] for p in sorted(rows)]

    def basis(self) -> list[list[Fraction]]:
        """The canonical RREF basis over Fraction."""
        return [list(vec) for vec in self.subspace().basis]

    def subspace(self) -> "Subspace":
        """The span of the rows added so far."""
        return Subspace(self.ambient, self.int_rows(), self.pivots())


class Subspace:
    """A linear subspace of Q^n in canonical form.

    ``rows`` is the canonical basis as primitive integer rows {col: int}
    (content 1, positive pivot entry) by ascending pivot; ``basis``, built
    on first read, is the same basis as the RREF over Fraction.  Both are
    unique, so subspace equality is row equality.  The producers
    (:meth:`RowReducer.subspace`, :func:`nullspace`) pass canonical rows.
    """

    __slots__ = ("ambient", "rows", "pivots", "_basis")

    def __init__(self, ambient: int, rows: Sequence[dict[int, int]],
                 pivots: Sequence[int]):
        self.ambient = ambient
        self.rows = tuple(rows)
        self.pivots = tuple(pivots)
        self._basis: Optional[tuple[tuple[Fraction, ...], ...]] = None

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        if self._basis is None:
            dense = [[Fraction(0)] * self.ambient for _ in self.rows]
            for vec, p, row in zip(dense, self.pivots, self.rows):
                for c, v in row.items():
                    vec[c] = Fraction(v, row[p])
            self._basis = tuple(map(tuple, dense))
        return self._basis

    @classmethod
    def from_generators(cls, ambient: int, gens: Iterable[Sequence]) -> "Subspace":
        red = RowReducer(ambient)
        for g in gens:
            red.add_dense(g)
        return red.subspace()

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        return nullspace(ambient, ())      # the kernel of no equations

    @property
    def dim(self) -> int:
        return len(self.rows)

    def row_matrix(self) -> "QMat":
        """The integer rows as a dim x ambient QMat: the same row space."""
        return QMat.from_coo((self.dim, self.ambient), (
            (i, c, v) for i, row in enumerate(self.rows) for c, v in row.items()))

    def basis_matrix(self) -> "QMat":
        """The canonical basis as the columns of an ambient x dim QMat."""
        den = math.lcm(*(row[p] for p, row in zip(self.pivots, self.rows)))
        return QMat.from_coo((self.ambient, self.dim), (
            (c, i, v * (den // row[p]))
            for i, (p, row) in enumerate(zip(self.pivots, self.rows))
            for c, v in row.items()), den)

    def unvec_basis(self, nrows: int, ncols: int) -> list["QMat"]:
        """Each canonical basis vector as the reduced nrows x ncols matrix
        whose :meth:`QMat.vec` it is: a column of :meth:`basis_matrix`."""
        B = self.basis_matrix()
        return [B.col(j).unvec(nrows, ncols).canonical() for j in range(self.dim)]

    def contains(self, vec: Sequence) -> bool:
        return self._reducer().contains(vec)

    def _reducer(self) -> RowReducer:
        red = RowReducer(self.ambient)
        red._rows = dict(zip(self.pivots, self.rows))
        return red

    def is_subspace_of(self, other: "Subspace") -> bool:
        red = other._reducer()
        return not any(red._reduce(dict(row)) for row in self.rows)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise LinAlgError("subspace sum: ambient dimensions differ")
        red = self._reducer()
        for row in other.rows:
            red.add(row)
        return red.subspace()

    __add__ = add

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors in both: the annihilator of the sum of the two
        annihilators (each the kernel of the other's rows as equations)."""
        if self.ambient != other.ambient:
            raise LinAlgError("subspace intersection: ambient dimensions differ")
        n = self.ambient
        return nullspace(n, nullspace(n, self.rows).rows + nullspace(n, other.rows).rows)

    def quotient_dim(self, sub: "Subspace") -> int:
        if not sub.is_subspace_of(self):
            raise LinAlgError("quotient: not a subspace")
        return self.dim - sub.dim

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient, self.pivots,
                     tuple(frozenset(r.items()) for r in self.rows)))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def rank(rows: Sequence[Sequence]) -> int:
    red = RowReducer(len(rows[0]) if rows else 0)
    for r in rows:
        red.add_dense(r)
    return red.dim


def nullspace(ncols: int, rows: Iterable[dict]) -> Subspace:
    """Kernel {x : A x = 0} of the system with sparse rows {col: coeff}.

    Columns are eliminated last to first (column c is reduced as
    ncols-1-c), so each reduced row solves for its highest column p in
    terms of lower free columns.  The kernel vectors
    e_f - sum_p (row_p[f] / row_p[p]) e_p, one per free column f, lead at f
    and vanish at every other free column: made primitive, they are the
    canonical rows.
    """
    last = ncols - 1
    red = RowReducer(ncols)
    for row in rows:
        red.add({last - c: v for c, v in row.items()})
    terms: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(ncols) if last - f not in red._rows}
    for q, prow in zip(red.pivots(), red.int_rows()):
        for c, v in prow.items():
            if c != q:
                terms[last - c].append((last - q, v, prow[q]))
    kernel = []
    for f, ts in terms.items():
        lead = math.lcm(*(b for _, _, b in ts))
        kernel.append(_primitive({f: lead, **{p: -v * (lead // b) for p, v, b in ts}}, f))
    return Subspace(ncols, kernel, list(terms))


# ---------------------------------------------------------------------------
# Linear conditions: sums of Kronecker products, row by row
# ---------------------------------------------------------------------------


def kron_rows(terms: Sequence[Sequence[QMat | int]]) -> tuple[int, Iterator[dict[int, int]]]:
    """The rows of sum_t F_t1 (x) F_t2 (x) ..., as integers over one denominator.

    A term is a sequence of factors; a factor is a QMat or an int n, which
    stands for the identity I_n.  Every term's Kronecker product must have
    the same shape.  Returns (den, rows): den is the lcm over the terms of
    the product of their factors' denominators, and rows yields, in row
    order, one dict {col: int} per row of den * sum (empty for a zero row).
    Each row is built from the factors' sparse rows; no Kronecker product
    is formed as a matrix.
    """
    shapes = {_kron_shape(t) for t in terms}
    if len(shapes) > 1:
        raise LinAlgError(f"kron_rows: terms of shapes {sorted(shapes)}")
    terms = [[_kron_factor(f) for f in term] for term in terms]
    den = math.lcm(*(math.prod(d for _, _, d in t) for t in terms))
    parts = [_term_rows(t, den // math.prod(d for _, _, d in t)) for t in terms]

    def rows() -> Iterator[dict[int, int]]:
        for row_parts in zip(*parts):
            row: dict[int, int] = {}
            for part in row_parts:
                for c, v in part.items():
                    row[c] = row.get(c, 0) + v
            yield {c: v for c, v in row.items() if v}

    return den, rows()


def _kron_shape(term: Sequence[QMat | int]) -> tuple[int, int]:
    """The shape of a term's Kronecker product (an int n is I_n)."""
    return (math.prod(f.shape[0] if isinstance(f, QMat) else f for f in term),
            math.prod(f.shape[1] if isinstance(f, QMat) else f for f in term))


def _kron_factor(f: QMat | int) -> tuple[list[dict[int, int]], int, int]:
    """(sparse integer rows, width, den) of a kron_rows factor."""
    if isinstance(f, QMat):
        return f.sparse_rows(), f.shape[1], f.den
    return [{i: 1} for i in range(f)], f, 1


def _term_rows(factors: list, scale: int) -> Iterator[dict[int, int]]:
    """The rows of scale * F_1 (x) ... (x) F_k in order; a zero row of an
    outer factor stands for a whole block of zero rows."""
    def level(k: int, acc: dict[int, int]) -> Iterator[dict[int, int]]:
        rows, width, _ = factors[k]
        block = math.prod(len(r) for r, _, _ in factors[k + 1:])
        for frow in rows:
            if not frow:
                yield from itertools.repeat({}, block)
                continue
            out = {c * width + fc: v * fv for c, v in acc.items()
                   for fc, fv in frow.items()}
            if k + 1 == len(factors):
                yield out
            else:
                yield from level(k + 1, out)

    return level(0, {0: scale})


def kron_apply(terms: Sequence[Sequence[QMat | int]], X: QMat,
               height: Optional[int] = None) -> QMat:
    """(sum_t F_t1 (x) F_t2 (x) ...) X for a block X, the terms as in
    :func:`kron_rows`; they fix the height, which only an empty list needs
    given.  Terms of two shapes, or not X.shape[0] wide, raise LinAlgError.
    One np.dot per QMat factor, shrinking factors first, and no Kronecker
    product; the bound sum_t prod (width * max|F|) * max|X|, over the common
    denominator, picks int64 or object before any product."""
    shapes = {_kron_shape(t) for t in terms} | (set() if height is None
                                                 else {(height, X.shape[0])})
    if len(shapes) != 1 or next(iter(shapes))[1] != X.shape[0]:
        raise LinAlgError(f"kron_apply: terms of shapes {sorted(shapes)} "
                          f"on a block of height {X.shape[0]}")
    (height, _), = shapes
    mats = [[(k, f) for k, f in enumerate(t) if isinstance(f, QMat)] for t in terms]
    dens = [math.prod(f.den for _, f in fs) for fs in mats]
    den = math.lcm(*dens)
    # floored at 1, so the bound also covers each operand's own entries
    bound = max(1, X.max_abs) * max(1, sum((den // d) * math.prod(
        max(1, f.shape[1] * f.max_abs) for _, f in fs) for fs, d in zip(mats, dens)))
    dtype = _int_dtype(bound)
    x, out = X.num.astype(dtype, copy=False), np.zeros((height, X.shape[1]), dtype=dtype)
    for t, fs, d in zip(terms, mats, dens):
        Y, dims = x, [f.shape[1] if isinstance(f, QMat) else f for f in t] + [X.shape[1]]
        for k, f in sorted(fs, key=lambda kf: kf[1].shape[0] / max(kf[1].shape[1], 1)):
            (r, c), pre, post = f.shape, math.prod(dims[:k]), math.prod(dims[k + 1:])
            Y = np.dot(f.num.astype(dtype, copy=False),
                       Y.reshape(pre, c, post).transpose(1, 0, 2).reshape(c, pre * post))
            Y, dims[k] = Y.reshape(r, pre, post).transpose(1, 0, 2), r
        out += (den // d) * Y.reshape(height, X.shape[1])
    return QMat(out, den * X.den).canonical()


def kron_transpose(terms: Sequence[Sequence[QMat | int]]) -> list[tuple]:
    """The terms of the transposed sum: every QMat factor transposed."""
    return [tuple(f.T if isinstance(f, QMat) else f for f in t) for t in terms]


def multilinear(M: QMat, *blocks: QMat | int) -> QMat:
    """M (X_1 (x) ... (x) X_k), an int n standing for I_n: the multilinear
    map whose matrix is M evaluated on a block of argument tuples.  It is
    kron_apply on M^T, so no Kronecker product is formed."""
    return kron_apply(kron_transpose([blocks]), M.T).T


def kron_matrix(terms: Sequence[Sequence[QMat | int]]) -> QMat:
    """The reduced matrix of a non-empty term list, from its sparse rows."""
    den, rows = kron_rows(terms)
    return QMat.from_coo(_kron_shape(terms[0]), ((r, c, v) for r, row in enumerate(rows)
                                                 for c, v in row.items()), den)


def solve_linear(A: QMat, B: QMat) -> Optional[QMat]:
    """The X with A X = B whose free unknowns are 0, or None when some
    column of B is outside the column space of A.

    One elimination of the rows [den_B a | den_A b]; each pivot row p < n
    (n the width of A) reads off row p of X over its pivot entry.
    """
    if A.shape[0] != B.shape[0]:
        raise LinAlgError("solve: A and B differ in height")
    n, k = A.shape[1], B.shape[1]
    red = RowReducer(n + k)
    for a, b in zip(A.sparse_rows(), B.sparse_rows()):
        red.add({**{c: B.den * v for c, v in a.items()},
                 **{n + j: A.den * v for j, v in b.items()}})
    pivots, rows = red.pivots(), red.int_rows()
    if pivots and pivots[-1] >= n:
        return None
    den = math.lcm(*(row[p] for p, row in zip(pivots, rows)))
    return QMat.from_coo((n, k), ((p, c - n, v * (den // row[p]))
                                  for p, row in zip(pivots, rows)
                                  for c, v in row.items() if c >= n), den)


# ---------------------------------------------------------------------------
# QMat: integer numpy array + denominator
# ---------------------------------------------------------------------------


def _int_dtype(big: int):
    """int64 for integers below 2**62 in absolute value, else Python objects."""
    return object if big >= _INT64_SAFE else np.int64


def _exact_pair(x: "QMat", y: "QMat", bound) -> tuple["QMat", "QMat"]:
    """x and y for an integer operation with entries at most bound(x, y):
    int64 while that is below 2**62, reducing both if need be; otherwise
    both with object numerators."""
    if x.num.dtype != object and y.num.dtype != object:
        if bound(x, y) < _INT64_SAFE:
            return x, y
        x, y = x.reduced(), y.reduced()
        if bound(x, y) < _INT64_SAFE:
            return x, y
    return (QMat(np.asarray(x.num, dtype=object), x.den),
            QMat(np.asarray(y.num, dtype=object), y.den))


class QMat:
    """Exact rational matrix: integer array `num` / positive int `den`."""

    __slots__ = ("num", "den", "_max")

    def __init__(self, num: np.ndarray, den: int = 1):
        if num.dtype != np.int64 and num.dtype != object:
            raise LinAlgError(f"QMat numerators must be int64 or object, not {num.dtype}")
        if den == 0:
            raise LinAlgError("QMat denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num.flags.writeable = False
        self.num, self.den, self._max = num, den, None

    @property
    def max_abs(self) -> int:
        """max |num| (0 when empty), scanned once: num is read-only."""
        if self._max is None:
            self._max = int(abs(self.num).max()) if self.num.size else 0
        return self._max

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "QMat":
        return cls(np.zeros((nrows, ncols), dtype=np.int64))

    @classmethod
    def eye(cls, n: int) -> "QMat":
        return cls(np.eye(n, dtype=np.int64))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "QMat":
        fr = [[Fraction(v) for v in r] for r in rows]
        den = math.lcm(*(v.denominator for r in fr for v in r))
        ints = [[int(v * den) for v in r] for r in fr]
        big = max((abs(v) for r in ints for v in r), default=0)
        arr = np.array(ints, dtype=_int_dtype(big))
        if arr.ndim == 1:  # empty rows edge case
            arr = arr.reshape(len(ints), 0)
        return cls(arr, den)

    @classmethod
    def from_coo(cls, shape: tuple[int, int],
                 entries: Iterable[tuple[int, int, int]], den: int = 1) -> "QMat":
        """The reduced matrix with integer entries (row, col, value) over den.
        Values at a repeated (row, col) add up; the dtype follows the 2**62
        rule of :meth:`from_rows`, applied after reduction."""
        acc: dict[tuple[int, int], int] = {}
        for r, c, v in entries:
            acc[r, c] = acc.get((r, c), 0) + v
        g = math.gcd(den, *acc.values())
        vals = [v // g for v in acc.values()]
        big = max(map(abs, vals), default=0)
        num = np.zeros(shape, dtype=_int_dtype(big))
        for rc, v in zip(acc, vals):
            num[rc] = v
        return cls(num, den // g)

    @classmethod
    def from_columns(cls, height: int, cols: Sequence[Sequence]) -> "QMat":
        """The height x len(cols) matrix whose j-th column is cols[j]."""
        if any(len(c) != height for c in cols):
            raise LinAlgError(f"every column must have length {height}")
        if not cols:
            return cls.zeros(height, 0)
        return cls.from_rows(cols).T

    @classmethod
    def column(cls, values: Sequence) -> "QMat":
        """The len(values) x 1 matrix, 0 x 1 when values is empty."""
        return cls.from_columns(len(values), [values])

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape  # type: ignore[return-value]

    def reduced(self) -> "QMat":
        """Divide out gcd(all entries, den)."""
        if self.den == 1:
            return self
        if not self.num.any():  # gcd(den, 0) = den, which may not fit int64
            return QMat(np.zeros_like(self.num), 1)
        g = math.gcd(self.den, int(np.gcd.reduce(self.num, axis=None)))
        if g == 1:
            return self
        return QMat(self.num // g, self.den // g)

    def canonical(self) -> "QMat":
        """Reduced, and int64 unless an entry reaches 2**62 (as from_rows)."""
        out = self.reduced()
        fits = out.num.dtype == object and out.max_abs < _INT64_SAFE
        return QMat(out.num.astype(np.int64), out.den) if fits else out

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(int(self.num[i, j]), self.den)

    def to_fraction_rows(self) -> list[list[Fraction]]:
        d = self.den
        return [[Fraction(int(v), d) for v in row] for row in self.num]

    def column_fractions(self, j: int) -> list[Fraction]:
        d = self.den
        return [Fraction(int(v), d) for v in self.num[:, j]]

    def sparse_rows(self) -> list[dict[int, int]]:
        """The nonzero numerator entries of each row, {col: int}.  Rows
        scaled by den span the same space and have the same kernel."""
        r, c = np.nonzero(self.num)
        cols, vals = c.tolist(), self.num[r, c].tolist()
        ends = np.cumsum(np.bincount(r, minlength=self.shape[0])).tolist()
        return [dict(zip(cols[a:b], vals[a:b])) for a, b in zip([0, *ends], ends)]

    def is_zero(self) -> bool:
        return not self.num.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return (self - other).is_zero()

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "QMat") -> tuple[np.ndarray, np.ndarray, int]:
        def bound(x: QMat, y: QMat) -> int:
            l = math.lcm(x.den, y.den)
            return 2 * max(x.max_abs * (l // x.den), y.max_abs * (l // y.den))
        x, y = _exact_pair(self, other, bound)
        l = math.lcm(x.den, y.den)
        return x.num * (l // x.den), y.num * (l // y.den), l

    def __add__(self, other: "QMat") -> "QMat":
        a, b, l = self._aligned(other)
        return QMat(a + b, l)

    def __sub__(self, other: "QMat") -> "QMat":
        a, b, l = self._aligned(other)
        return QMat(a - b, l)

    def __neg__(self) -> "QMat":
        return QMat(-self.num, self.den)

    def scale(self, c) -> "QMat":
        c = Fraction(c)
        n = c.numerator
        x, y = _exact_pair(self, QMat(np.array([[n]], dtype=_int_dtype(abs(n)))),
                           lambda x, y: x.max_abs * y.max_abs)
        return QMat(x.num * y.num[0, 0], x.den * c.denominator)

    def __matmul__(self, other: "QMat") -> "QMat":
        x, y = _exact_pair(self, other,
                           lambda x, y: x.shape[1] * x.max_abs * y.max_abs)
        return QMat(np.dot(x.num, y.num), x.den * y.den)

    def kron(self, other: "QMat") -> "QMat":
        x, y = _exact_pair(self, other, lambda x, y: x.max_abs * y.max_abs)
        return QMat(np.kron(x.num, y.num), x.den * y.den)

    def vec(self) -> "QMat":
        """The columns stacked into one column: entry (i, j) at j * nrows + i."""
        return QMat(self.num.T.reshape(-1, 1), self.den)

    def unvec(self, nrows: int, ncols: int) -> "QMat":
        """The nrows x ncols matrix whose :meth:`vec` is this column."""
        return QMat(self.num.reshape(ncols, nrows).T.copy(), self.den)

    @property
    def T(self) -> "QMat":
        return QMat(self.num.T.copy(), self.den)

    def col(self, j: int) -> "QMat":
        return QMat(self.num[:, j:j + 1].copy(), self.den)

    def __repr__(self) -> str:
        return f"QMat({self.shape[0]}x{self.shape[1]}, den={self.den})"


def checked_column(values: Sequence, n: int, error: type = LinAlgError,
                   of: str = "an algebra") -> QMat:
    """The n x 1 QMat of a coefficient vector the public API takes, and the
    one check of its length: any other length raises ``error``, the
    caller's class, naming both lengths."""
    if len(values) != n:
        raise error(f"coefficient vector of length {len(values)} for {of} of dimension {n}")
    return QMat.column(values)


def qmat_inverse(mat: QMat) -> QMat:
    """Inverse of a square QMat, the solution of M X = I; raises
    LinAlgError if singular."""
    if mat.shape[0] != mat.shape[1]:
        raise LinAlgError("inverse of non-square matrix")
    inv = solve_linear(mat, QMat.eye(mat.shape[0]))
    if inv is None:
        raise LinAlgError("matrix is singular")
    return inv


def qmat_sum(mats: Iterable[QMat]) -> QMat:
    """Sum of one or more QMats, added one by one (a generator keeps one alive)."""
    mats = iter(mats)
    acc = next(mats)
    for m in mats:
        acc = acc + m
    return acc


def qmat_hstack(height: int, blocks: Sequence[QMat]) -> QMat:
    """The blocks side by side over one common denominator, reduced."""
    if not blocks:
        return QMat.zeros(height, 0)
    den = math.lcm(*(b.den for b in blocks))
    big = max(b.max_abs * (den // b.den) for b in blocks)
    return QMat(np.hstack([b.num.astype(_int_dtype(big)) * (den // b.den) for b in blocks]),
                den).reduced()


def subspace_from_columns(mat: QMat) -> Subspace:
    """Column space of a QMat as a canonical Subspace."""
    red = RowReducer(mat.shape[0])
    red.add_columns(mat)
    return red.subspace()


def is_idempotent_kernel(space: Subspace, M: QMat) -> bool:
    """Is M idempotent with kernel exactly space?  No elimination: an
    idempotent's rank is its trace, so M M = M, M space = 0 and dim space =
    n - tr M prove it (0 and 1 need no product); otherwise False."""
    n = space.ambient
    if M.shape != (n, n):
        return False
    if M.is_zero():
        return space.dim == n
    if M == QMat.eye(n):
        return space.dim == 0
    if M @ M != M:
        return False
    trace = Fraction(sum(int(v) for v in M.num.diagonal()), M.den)  # no int64 wrap
    return space.dim == n - trace and (M @ space.row_matrix().T).is_zero()


# ---------------------------------------------------------------------------
# Exact objects: one linear structure, one JSON matrix text
# ---------------------------------------------------------------------------


class QVector:
    """An element of an exact space held as one QMat.  A subclass names the
    attribute holding it (``_field``) and the error of a space mismatch
    (``_error``), and defines ``_space()``, the key two elements must share
    to combine, and ``_with(data)``, the element of its space holding data.
    Each operation is the QMat one, with its (num, den, dtype).  Defining
    ``__eq__`` leaves elements (and QMats) unhashable."""

    __slots__ = ()
    _field: str
    _error: type = LinAlgError

    def _qmat(self) -> QMat:
        return getattr(self, self._field)

    def _same(self, other: "QVector") -> None:
        if not isinstance(other, type(self)) or self._space() != other._space():
            raise self._error(f"{type(self).__name__}s of different spaces")

    def __add__(self, other: "QVector") -> "QVector":
        self._same(other)
        return self._with(self._qmat() + other._qmat())

    def __sub__(self, other: "QVector") -> "QVector":
        self._same(other)
        return self._with(self._qmat() - other._qmat())

    def __neg__(self) -> "QVector":
        return self._with(-self._qmat())

    def scale(self, c) -> "QVector":
        return self._with(self._qmat().scale(c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self._qmat() == other._qmat()

    def is_zero(self) -> bool:
        return self._qmat().is_zero()


def qmat_to_json(mat: QMat) -> list[list[str]]:
    """The rows of mat as :func:`format_scalar` strings."""
    return [[format_scalar(v) for v in row] for row in mat.to_fraction_rows()]


def qmat_from_json(rows: Sequence[Sequence[str]]) -> QMat:
    """Inverse of :func:`qmat_to_json`; anything but a list of lists of
    rational literals raises LinAlgError."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise LinAlgError("a matrix must be a list of rows, each a list")
    return QMat.from_rows([[parse_scalar(v) for v in row] for row in rows])
