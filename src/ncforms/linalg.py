"""Exact rational linear algebra.

Everything in this package reduces to linear algebra over the rationals.
Two representations are used:

* ``Fraction`` rows / :class:`Subspace` — the contract-level view.  A
  subspace is stored as its reduced row echelon basis (pivots ascending,
  pivot entries 1, pivot columns cleared), which is unique, so subspace
  equality is tuple equality.
* :class:`QMat` — a dense matrix as an integer numpy array plus one positive
  denominator.  Integer matrix products run at C speed; the array dtype is
  promoted from int64 to Python objects before any operation whose result
  could exceed 2**62, so results are always exact.

Four conventions are fixed here and nowhere else:

* Tuple indexing.  Form bases, bar tuples, tensor bimodules and multimaps
  are indexed by tuples whose digits run over ``lo..lo+base-1``;
  :func:`flat_index` and :func:`digits_at` are the one big-endian codec
  between such a tuple and its flat index.
* Matrix building.  An operator fixed by integer constants (bimodule
  actions from structure constants, d, mu^n, unit columns) is emitted as
  integer (row, col, value) triples over one denominator and built by
  :meth:`QMat.from_coo`; columns that are already QMats are joined by
  :func:`qmat_hstack`.  :meth:`QMat.from_columns` is kept for genuine
  ``Fraction`` data.  All three return the reduced (num, den).
* Elimination.  Every rank, kernel, solve, inverse and span goes through
  :class:`RowReducer`; :meth:`RowReducer.subspace` and :func:`nullspace`
  hand out canonical subspaces without a second reduction.
* Linear conditions.  A system whose matrix is a sum of Kronecker products
  of action matrices (derivations, bimodule maps, cocycles,
  polyderivations, commutants, tensor relations, tensor spans) is written
  as its list of terms and turned into sparse integer rows by
  :func:`kron_rows`, which feed :func:`nullspace` or a :class:`RowReducer`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

Scalar = Fraction

_INT64_SAFE = 2 ** 62


class LinAlgError(ValueError):
    pass


def make_scalar(p: int, q: int = 1) -> Fraction:
    """Exact rational p/q.  Rejects q = 0 with a domain error."""
    if q == 0:
        raise LinAlgError("scalar denominator must be nonzero")
    return Fraction(p, q)


def parse_scalar(text: str) -> Fraction:
    """Parse 'p' or 'p/q' (ASCII decimal integers, optional sign)."""
    s = text.strip()
    if "/" in s:
        p_str, _, q_str = s.partition("/")
        try:
            p, q = int(p_str), int(q_str)
        except ValueError:
            raise LinAlgError(f"malformed rational literal {text!r}") from None
        return make_scalar(p, q)
    try:
        return Fraction(int(s))
    except ValueError:
        raise LinAlgError(f"malformed rational literal {text!r}") from None


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


class RowReducer:
    """Incremental sparse RREF accumulator.

    Rows are dicts {column: value} with int or Fraction values.  The stored
    rows always form a reduced echelon basis over Fraction (monic pivots,
    pivot columns cleared in all other rows), so ``basis()`` is canonical.
    """

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.rows: dict[int, dict[int, Fraction]] = {}

    def _reduce(self, row: dict) -> dict:
        # Eliminate every pivot coordinate (not just leading ones), so the
        # result is the canonical coset representative: supported on free
        # columns only.  Stored rows touch only their own pivot plus free
        # columns, so each subtraction below removes one pivot coordinate
        # and introduces none.
        row = {c: v for c, v in row.items() if v != 0}
        while True:
            hit = min((c for c in row if c in self.rows), default=None)
            if hit is None:
                return row
            f = row[hit]
            for cc, vv in self.rows[hit].items():
                nv = row.get(cc, Fraction(0)) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self._reduce(row)
        if not row:
            return False
        c = min(row)
        inv = Fraction(1) / row[c]          # 1 / int would be a float
        row = {cc: vv * inv for cc, vv in row.items()}
        # clear the new pivot column from existing rows
        for pc, prow in self.rows.items():
            f = prow.get(c)
            if f:
                for cc, vv in row.items():
                    nv = prow.get(cc, Fraction(0)) - f * vv
                    if nv:
                        prow[cc] = nv
                    else:
                        prow.pop(cc, None)
        self.rows[c] = row
        return True

    def add_columns(self, mat: "QMat") -> None:
        """Insert every column of mat (its numerators: the same span)."""
        for col in mat.T.sparse_rows():
            self.add(col)

    def add_dense(self, row: Iterable) -> bool:
        return self.add({i: Fraction(v) for i, v in enumerate(row) if v})

    def contains(self, row: Iterable) -> bool:
        return not self._reduce({i: Fraction(v) for i, v in enumerate(row) if v})

    def reduce_dense(self, row: Iterable) -> list[Fraction]:
        red = self._reduce({i: Fraction(v) for i, v in enumerate(row) if v})
        out = [Fraction(0)] * self.ambient
        for c, v in red.items():
            out[c] = v
        return out

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[Fraction]]:
        out = []
        for c in sorted(self.rows):
            dense = [Fraction(0)] * self.ambient
            for cc, vv in self.rows[c].items():
                dense[cc] = vv
            out.append(dense)
        return out

    def pivots(self) -> list[int]:
        return sorted(self.rows)

    def subspace(self) -> "Subspace":
        """The span of the rows added so far."""
        return Subspace(self.ambient, self.basis(), self.pivots())


class Subspace:
    """A linear subspace of Q^n in canonical (RREF basis) form.

    The constructor stores a basis that is already canonical; every
    producer (:meth:`RowReducer.subspace`, :func:`nullspace`, the
    classmethods below) hands it one.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: Sequence[Sequence[Fraction]],
                 pivots: Sequence[int]):
        self.ambient = ambient
        self.basis = tuple(tuple(r) for r in basis)
        self.pivots = tuple(pivots)

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
        return len(self.basis)

    def contains(self, vec: Sequence) -> bool:
        red = self._reducer()
        return red.contains(vec)

    def _reducer(self) -> RowReducer:
        red = RowReducer(self.ambient)
        red.rows = {p: {c: v for c, v in enumerate(row) if v}
                    for p, row in zip(self.pivots, self.basis)}
        return red

    def is_subspace_of(self, other: "Subspace") -> bool:
        red = other._reducer()
        return all(red.contains(row) for row in self.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise LinAlgError("subspace sum: ambient dimensions differ")
        red = self._reducer()
        for row in other.basis:
            red.add_dense(row)
        return red.subspace()

    __add__ = add

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus-free intersection: x in both row spaces."""
        if self.ambient != other.ambient:
            raise LinAlgError("subspace intersection: ambient dimensions differ")
        if not self.basis or not other.basis:
            return Subspace.zero(self.ambient)
        # solve alpha^T * self.basis = beta^T * other.basis
        k1, k2 = self.dim, other.dim
        rows = []
        for col in range(self.ambient):
            row = {i: b[col] for i, b in enumerate(self.basis) if b[col]}
            row.update((k1 + j, -b[col]) for j, b in enumerate(other.basis)
                       if b[col])
            rows.append(row)
        ns = nullspace(k1 + k2, rows)
        gens = []
        for sol in ns.basis:
            vec = [Fraction(0)] * self.ambient
            for i in range(k1):
                if sol[i]:
                    for c in range(self.ambient):
                        vec[c] += sol[i] * self.basis[i][c]
            gens.append(vec)
        return Subspace.from_generators(self.ambient, gens)

    def quotient_dim(self, sub: "Subspace") -> int:
        if not sub.is_subspace_of(self):
            raise LinAlgError("quotient: not a subspace")
        return self.dim - sub.dim

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient, self.basis))

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
    e_f - sum_p row_p[f] e_p, one per free column f, then lead at f and
    are zero at every other free column: they already are the canonical
    basis, with pivots at the free columns.
    """
    last = ncols - 1
    red = RowReducer(ncols)
    for row in rows:
        red.add({last - c: v for c, v in row.items()})
    kernel = {f: [Fraction(0)] * ncols for f in range(ncols)
              if last - f not in red.rows}
    for f, vec in kernel.items():
        vec[f] = Fraction(1)
    for q, prow in red.rows.items():
        for c, v in prow.items():
            if c != q:
                kernel[last - c][last - q] = -v
    return Subspace(ncols, list(kernel.values()), list(kernel))


# ---------------------------------------------------------------------------
# Linear conditions: sums of Kronecker products, row by row
# ---------------------------------------------------------------------------


def kron_rows(terms: Iterable[Sequence[QMat | int]]) -> tuple[int, Iterator[dict[int, int]]]:
    """The rows of sum_t F_t1 (x) F_t2 (x) ..., as integers over one denominator.

    A term is a sequence of factors; a factor is a QMat or an int n, which
    stands for the identity I_n.  Every term's Kronecker product must have
    the same shape.  Returns (den, rows): den is the lcm over the terms of
    the product of their factors' denominators, and rows yields, in row
    order, one dict {col: int} per row of den * sum (empty for a zero row).
    Each row is built from the factors' sparse rows; no Kronecker product
    is formed as a matrix.
    """
    terms = [[_kron_factor(f) for f in term] for term in terms]
    shapes = {(math.prod(len(rows) for rows, _, _ in t),
               math.prod(width for _, width, _ in t)) for t in terms}
    if len(shapes) > 1:
        raise LinAlgError(f"kron_rows: terms of shapes {sorted(shapes)}")
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


def solve_linear(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One solution of A x = b, or None if inconsistent."""
    ncols = len(rows[0])
    red = RowReducer(ncols + 1)
    for r, v in zip(rows, rhs):
        red.add_dense([*r, v])
    if ncols in red.rows:
        return None
    sol = [Fraction(0)] * ncols
    for p, row in red.rows.items():
        sol[p] = row.get(ncols, Fraction(0))
    return sol


# ---------------------------------------------------------------------------
# QMat: integer numpy array + denominator
# ---------------------------------------------------------------------------


def _as_object(a: np.ndarray) -> np.ndarray:
    if a.dtype == object:
        return a
    return a.astype(object)


def _max_abs(a: np.ndarray) -> int:
    if a.size == 0:
        return 0
    if a.dtype == object:
        return max((abs(int(v)) for v in a.flat), default=0)
    return int(np.max(np.abs(a)))


class QMat:
    """Exact rational matrix: integer array `num` / positive int `den`."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: int = 1):
        if den == 0:
            raise LinAlgError("QMat denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        self.num = num
        self.den = den

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
        den = 1
        for r in fr:
            for v in r:
                den = den * v.denominator // math.gcd(den, v.denominator)
        ints = [[int(v * den) for v in r] for r in fr]
        big = max((abs(v) for r in ints for v in r), default=0)
        dtype = object if big >= _INT64_SAFE else np.int64
        arr = np.array(ints, dtype=dtype)
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
        num = np.zeros(shape, dtype=object if big >= _INT64_SAFE else np.int64)
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
        return cls.from_rows([[v] for v in values])

    # -- bookkeeping --------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.num.shape  # type: ignore[return-value]

    def reduced(self) -> "QMat":
        """Divide out gcd(all entries, den)."""
        if self.den == 1:
            return self
        g = math.gcd(self.den, int(np.gcd.reduce(self.num, axis=None)))
        if g == 1:
            return self
        return QMat(self.num // g, self.den // g)

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
        return [{int(j): int(row[j]) for j in np.flatnonzero(row)}
                for row in self.num]

    def is_zero(self) -> bool:
        if self.num.dtype == object:
            return all(int(v) == 0 for v in self.num.flat)
        return not self.num.any()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QMat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return (self - other).is_zero()

    def __hash__(self):  # pragma: no cover - QMats are not dict keys
        raise TypeError("QMat is unhashable")

    # -- arithmetic ----------------------------------------------------------

    def _aligned(self, other: "QMat") -> tuple[np.ndarray, np.ndarray, int]:
        l = self.den * other.den // math.gcd(self.den, other.den)
        fa, fb = l // self.den, l // other.den
        a, b = self.num, other.num
        if a.dtype != object and b.dtype != object:
            bound = max(_max_abs(a) * fa, _max_abs(b) * fb)
            if bound * 2 >= _INT64_SAFE:
                a, b = _as_object(a), _as_object(b)
        elif a.dtype == object or b.dtype == object:
            a, b = _as_object(a), _as_object(b)
        return a * fa, b * fb, l

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
        num, den = self.num, self.den * c.denominator
        if num.dtype != object:
            if _max_abs(num) * abs(c.numerator) >= _INT64_SAFE:
                num = _as_object(num)
        return QMat(num * c.numerator, den)

    def __matmul__(self, other: "QMat") -> "QMat":
        a, b = self.num, other.num
        if a.dtype != object and b.dtype != object:
            bound = a.shape[1] * _max_abs(a) * _max_abs(b)
            if bound >= _INT64_SAFE:
                a, b = _as_object(a), _as_object(b)
        elif a.dtype == object or b.dtype == object:
            a, b = _as_object(a), _as_object(b)
        return QMat(np.dot(a, b), self.den * other.den)

    def kron(self, other: "QMat") -> "QMat":
        a, b = self.num, other.num
        if a.dtype != object and b.dtype != object:
            if _max_abs(a) * _max_abs(b) >= _INT64_SAFE:
                a, b = _as_object(a), _as_object(b)
        elif a.dtype == object or b.dtype == object:
            a, b = _as_object(a), _as_object(b)
        return QMat(np.kron(a, b), self.den * other.den)

    @property
    def T(self) -> "QMat":
        return QMat(self.num.T.copy(), self.den)

    def col(self, j: int) -> "QMat":
        return QMat(self.num[:, j:j + 1].copy(), self.den)

    def __repr__(self) -> str:
        return f"QMat({self.shape[0]}x{self.shape[1]}, den={self.den})"


def qmat_inverse(mat: QMat) -> QMat:
    """Inverse of a square QMat; raises LinAlgError if singular.

    Reduces [num | I] to [I | num^-1]; the inverse is den * num^-1.
    """
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise LinAlgError("inverse of non-square matrix")
    red = RowReducer(2 * n)
    for i, row in enumerate(mat.sparse_rows()):
        red.add({**row, n + i: 1})
    if red.pivots()[:n] != list(range(n)):
        raise LinAlgError("matrix is singular")
    return QMat.from_rows([[mat.den * red.rows[i].get(n + j, 0)
                            for j in range(n)] for i in range(n)])


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
    big = max(_max_abs(b.num) * (den // b.den) for b in blocks)
    dtype = object if big >= _INT64_SAFE else np.int64
    return QMat(np.hstack([b.num.astype(dtype) * (den // b.den) for b in blocks]),
                den).reduced()


def subspace_from_columns(mat: QMat) -> Subspace:
    """Column space of a QMat as a canonical Subspace."""
    red = RowReducer(mat.shape[0])
    red.add_columns(mat)
    return red.subspace()
