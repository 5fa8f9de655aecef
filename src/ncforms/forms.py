"""Differential forms over an algebra, in the concrete model A (x) Abar^k.

Degree-k forms have basis e_i . d(e_{j1}) ... d(e_{jk}) indexed by tuples
(i, j_1..j_k) with i in 0..m-1 and j_t in 1..m-1 (the unit has index 0 and
d(1) = 0, so unit indices never appear in d-slots).  The flat index is
i * (m-1)^k plus the index of (j_1..j_k) under the tuple codec of
``linalg`` (base m-1, digits from 1), so i is the most significant digit.

This makes every structural operator a Kronecker term list (``linalg``):
d is d_0 (x) I, a row shift on a block (:meth:`FormSpace.apply_d`) and a
column shift composed from the right (:meth:`FormSpace.compose_d`); the left
action is L_i (x) I, the right action one term per slot of the merge formula.
The product a.b = sum_p (R_p a) (x) S_p b lives only in :func:`products`,
which multiplies whole blocks of forms by :attr:`FormSpace.stacked_right`,
the right actions built dense once from the terms.  The other dense reads of
an action (``Bimodule.validate``, two of ``verify``'s identities) are listed
in ``linalg``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .algebra import Algebra, AlgebraHom, Bimodule, MathError
from .linalg import (QMat, QVector, RowReducer, Subspace, checked_column, digits_at,
                     flat_index, format_scalar, kron_matrix, kron_rows, kron_transpose,
                     multilinear, nullspace, parse_scalar)


class FormError(MathError):
    pass


def form_space(algebra: Algebra, degree: int) -> "FormSpace":
    """The degree-k form space, built at most once per (algebra, degree)."""
    if degree < 0:
        raise FormError("form degree must be >= 0")
    with algebra._form_lock:
        sp = algebra._form_spaces.get(degree)
        if sp is None:
            sp = algebra._form_spaces[degree] = FormSpace(algebra, degree)
        return sp


class FormSpace(Bimodule):
    """All degree-k forms over one algebra, an A-bimodule.  The dimension and
    indexing are set on construction, the actions on first read, once (so
    ``Bimodule.__init__``, which takes the actions, is not called)."""

    def __init__(self, algebra: Algebra, degree: int):
        self.algebra = algebra
        self.degree = degree
        self.name = f"Omega{degree}"
        m = algebra.dim
        self.dim = m * (m - 1) ** degree
        self._tail = (m - 1) ** degree

    @cached_property
    def right(self) -> list[list[tuple]]:
        """The right action of each e_b as the terms of the merge formula
        (a0 da1..dan).b = sum_{t=1..n} (-1)^{n-t} a0 da1..d(a_t a_{t+1})..da_{n+1}
        + (-1)^n (a0 a1) da2..da_{n+1}, a_{n+1} = b: for t < n, Cbar (a, c) |->
        e_a e_c mod 1 on slots t, t+1 with b's unit column u_b appended; for t = n,
        Cbar_b a |-> e_a e_b mod 1 on slot n; and C01 (i, j) |-> e_i e_j on (a0, a1)
        with u_b appended, all slices of mu^2.  R_0 is the identity."""
        A, n, m = self.algebra, self.degree, self.algebra.dim
        if n == 0:
            return [[(R,)] for R in A.right]
        mu = A.mu2.num.reshape(m, m, m)            # [k, i, j]: e_i e_j at e_k
        cbar = QMat(mu[1:, 1:, 1:].reshape(m - 1, (m - 1) ** 2), A.mu2.den)
        c01 = QMat(mu[:, :, 1:].reshape(m, m * (m - 1)), A.mu2.den)
        out = [[(self.dim,)]]
        for b in range(1, m):
            u = QMat.from_coo((m - 1, 1), [(b - 1, 0, 1)])
            out.append([(m * (m - 1) ** (t - 1), -cbar if (n - t) % 2 else cbar,
                         (m - 1) ** (n - t - 1), u) for t in range(1, n)]
                       + [(m * (m - 1) ** (n - 1), QMat(mu[1:, 1:, b], A.mu2.den)),
                          (-c01 if n % 2 else c01, (m - 1) ** (n - 1), u)])
        return out

    @cached_property
    def left(self) -> list[list[tuple]]:
        """L_i (x) I: the left action of e_i multiplies the leading coefficient."""
        return [[(L, self._tail)] for L in self.algebra.left]

    # -- indexing ------------------------------------------------------------

    def index_of(self, i: int, J: Sequence[int]) -> int:
        m = self.algebra.dim
        return flat_index((i,), m) * self._tail + flat_index(J, m - 1, 1)

    def tuple_of(self, idx: int) -> tuple[int, tuple[int, ...]]:
        i, rest = divmod(idx, self._tail)
        return i, digits_at(rest, self.algebra.dim - 1, self.degree, 1)

    # -- differential ----------------------------------------------------------

    def apply_d(self, X: QMat) -> QMat:
        """d on a block of k-forms (one per column), a row shift.

        d(e_i dJ) = d(e_i) dJ is the basis form (0; i, J), whose flat index
        is idx - (m-1)^k; forms with i = 0 go to zero.
        """
        moved = X.num[self._tail:]
        num = np.zeros((self.dim * (self.algebra.dim - 1), X.shape[1]), dtype=X.num.dtype)
        num[:moved.shape[0]] = moved
        return QMat(num, X.den)

    def compose_d(self, X: QMat) -> QMat:
        """X d, a column shift: column (i, J) is column (0; i, J) of X, 0 for i = 0."""
        num = np.zeros((X.shape[0], self.dim), dtype=X.num.dtype)
        num[:, self._tail:] = X.num[:, :self.dim - self._tail]
        return QMat(num, X.den)

    @property
    def d_terms(self) -> list[tuple]:
        """d as its term d_0 (x) I, d_0 on Omega_0, which the shifts evaluate."""
        return [(form_space(self.algebra, 0).d_matrix, self._tail)]

    @cached_property
    def d_matrix(self) -> QMat:
        """d as a matrix, the shift of the identity (d_0 on Omega_0)."""
        return self.apply_d(QMat.eye(self.dim))

    # -- actions ---------------------------------------------------------------

    @cached_property
    def stacked_right(self) -> QMat:
        """R_0, ..., R_{m-1} stacked, (m * dim) x dim over one denominator."""
        m = self.algebra.dim
        units = [QMat.from_coo((m, 1), [(b, 0, 1)]) for b in range(m)]
        return kron_matrix([(u, *t) for u, R in zip(units, self.right) for t in R])

    # -- elements ---------------------------------------------------------------

    def form(self, coords: Sequence) -> "Form":
        return Form(self, checked_column(coords, self.dim, FormError, self.name))

    def zero(self) -> "Form":
        return Form(self, QMat.zeros(self.dim, 1))

    def basis_form(self, idx: int) -> "Form":
        return Form(self, QMat.from_coo((self.dim, 1), [(idx, 0, 1)]))

    def __repr__(self) -> str:
        return f"FormSpace({self.algebra.name}, degree={self.degree}, dim={self.dim})"


class Form(QVector):
    """A differential form: coordinate column over its FormSpace basis."""

    __slots__ = ("space", "vec")
    _field, _error = "vec", FormError

    def __init__(self, space: FormSpace, vec: QMat):
        self.space = space
        self.vec = vec

    def _space(self) -> tuple:
        return (self.space,)

    def _with(self, vec: QMat) -> "Form":
        return Form(self.space, vec)

    @property
    def degree(self) -> int:
        return self.space.degree

    def d(self) -> "Form":
        target = form_space(self.space.algebra, self.degree + 1)
        return Form(target, self.space.apply_d(self.vec))

    def left_mult(self, a: Sequence[Fraction]) -> "Form":
        return Form(self.space, self.space.left_action(a, self.vec))

    def right_mult(self, b: Sequence[Fraction]) -> "Form":
        return Form(self.space, self.space.right_action(b, self.vec))

    def coords(self) -> list[Fraction]:
        return self.vec.column_fractions(0)

    def to_json(self) -> dict:
        return {"degree": self.degree,
                "coords": [format_scalar(v) for v in self.coords()]}

    def __repr__(self) -> str:
        return f"Form(degree={self.degree}, coords={self.coords()})"


def form_from_json(algebra: Algebra, obj: dict) -> Form:
    sp = form_space(algebra, int(obj["degree"]))
    return sp.form([parse_scalar(s) for s in obj["coords"]])


def products(algebra: Algebra, P: Optional[QMat], k: int, Q: QMat, l: int,
             pairs: int = 1) -> QMat:
    """All products of a block of k-forms with a block of l-forms.

    P (dim Omega_k x r) and Q (dim Omega_l x s) hold forms as columns; P None
    stands for the identity, every basis k-form, and costs no matmul.  The
    result is the dim Omega_{k+l} x r*s block whose column i*s + j is
    P_i . Q_j, reduced:

        P . Q = sum_p (R_p P) (x) (S_p Q),

    with R_p the right action of e_p on Omega_k and S_p Q the rows of Q with
    leading index p: (omega)(e_p dJ) = (omega . e_p) dJ.  The sum over p is
    one integer matrix product, the stacked R_p P (one row per (a, i))
    against Q (one column per (t, j)), whose entries are then moved to the
    Kronecker row a*(m-1)^l + t, the target word, and column i*s + j, the
    pair, both big-endian.

    With pairs = q > 1, the columns of P are (h, i) and those of Q are (h, j)
    for h < q, and column i*(s/q) + j of the result is sum_h P_(h,i) . Q_(h,j):
    the same product, summed over h as well as p.
    """
    left = form_space(algebra, k)
    m, dim, w = algebra.dim, left.dim, form_space(algebra, l)._tail
    RP = left.stacked_right if P is None else left.stacked_right @ P
    r, s = RP.shape[1] // pairs, Q.shape[1] // pairs
    T = (QMat(RP.num.reshape(m, dim, pairs, r).transpose(1, 3, 0, 2)
              .reshape(dim * r, m * pairs), RP.den)
         @ QMat(Q.num.reshape(m, w, pairs, s).transpose(0, 2, 1, 3)
                .reshape(m * pairs, w * s), Q.den))
    num = T.num.reshape(dim, r, w, s).transpose(0, 2, 1, 3).reshape(dim * w, r * s)
    return QMat(num, T.den).reduced()


def product(a: Form, b: Form) -> Form:
    """Concatenation product Omega_k x Omega_l -> Omega_{k+l}."""
    A = a.space.algebra
    if A is not b.space.algebra:
        raise FormError("cannot multiply forms over different algebras")
    return Form(form_space(A, a.degree + b.degree),
                products(A, a.vec, a.degree, b.vec, b.degree))


class GradedForm:
    """Inhomogeneous form truncated at degree N: components 0..N."""

    def __init__(self, algebra: Algebra, truncation: int,
                 components: Optional[Sequence[Form]] = None):
        self.algebra = algebra
        self.truncation = truncation
        if components is None:
            components = [form_space(algebra, k).zero()
                          for k in range(truncation + 1)]
        comps = list(components)
        if len(comps) != truncation + 1:
            raise FormError("need one component per degree 0..N")
        for k, c in enumerate(comps):
            if c.degree != k or c.space.algebra is not algebra:
                raise FormError("component in the wrong space")
        self.components = comps

    def __add__(self, other: "GradedForm") -> "GradedForm":
        n = min(self.truncation, other.truncation)
        return GradedForm(self.algebra, n, [
            self.components[k] + other.components[k] for k in range(n + 1)])

    def __mul__(self, other: "GradedForm") -> "GradedForm":
        n = min(self.truncation, other.truncation)
        out = [form_space(self.algebra, k).zero() for k in range(n + 1)]
        for i, a in enumerate(self.components):
            for j, b in enumerate(other.components):
                if i + j <= n:
                    out[i + j] = out[i + j] + product(a, b)
        return GradedForm(self.algebra, n, out)

    def d(self) -> "GradedForm":
        comps = [form_space(self.algebra, 0).zero()]
        comps += [self.components[k - 1].d() for k in range(1, self.truncation + 1)]
        return GradedForm(self.algebra, self.truncation, comps)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, GradedForm)
                and self.truncation == other.truncation
                and all(a == b for a, b in zip(self.components, other.components)))


# ---------------------------------------------------------------------------
# Functoriality
# ---------------------------------------------------------------------------


def d_slots(images: QMat) -> QMat:
    """Columns 1..m-1 of values on d e_0..d e_{m-1}: the d-slots (d1 = 0)."""
    return QMat(images.num[:, 1:], images.den)


def multiplicative_extension(algebra: Algebra, lead: Optional[QMat], dimages: QMat,
                             degree: int) -> list[QMat]:
    """The maps M_k: e_i dJ |-> lead(e_i) . dimages_{j1} ... dimages_{jk} into
    Omega_k, for k = 0..degree, from one pass.

    lead sends A into Omega_0(algebra) (None: the identity of A) and
    column j of dimages is the image of d e_j, a one-form over algebra
    (column 0, the image of d1 = 0, is not read).  Degree by degree,
    M_k = products(M_{k-1}, k-1, dimages[:, 1:], 1): the big-endian column
    order of the block is the basis order of Omega_k.
    """
    maps = [QMat.eye(algebra.dim) if lead is None else lead.reduced()]
    M = lead
    for n in range(degree):
        M = products(algebra, M, n, d_slots(dimages), 1)
        maps.append(M)
    return maps


def omega_functor(f: AlgebraHom, degree: int) -> list[QMat]:
    """Matrices of Omega_k(f), k = 0..degree:
    e_i dJ |-> f(e_i) d(f(e_{j1})) ... d(f(e_{jk}))."""
    B = f.target
    return multiplicative_extension(B, f.matrix, form_space(B, 0).d_matrix @ f.matrix,
                                    degree)


# ---------------------------------------------------------------------------
# Kernel of iterated multiplication
# ---------------------------------------------------------------------------


def multiplication_matrix(algebra: Algebra, n: int) -> QMat:
    """mu^n : A^(x n) -> A as a matrix (m x m^n, big-endian index): mu^2 has
    column (i, j) = column j of L_i, and mu^(l+1) = mu^2 (mu^l (x) id)."""
    if n < 1:
        raise FormError("multiplication arity must be >= 1")
    m = algebra.dim
    mu = QMat.eye(m)
    for _ in range(n - 1):
        mu = multilinear(algebra.mu2, mu, m)
    return mu


def kernel_of_mu_n(algebra: Algebra, n: int, size_cap: int = 100000) -> dict:
    """Does ker(mu^n) equal the sum of A^i (x) ker(mu^2) (x) A^(n-2-i)?

    Returns a report with both dimensions and the verdict.
    """
    if n < 2:
        raise FormError("kernel comparison needs arity >= 2")
    m = algebra.dim
    if m ** n > size_cap:
        raise FormError(f"tensor power dimension {m ** n} exceeds cap {size_cap}")
    ker = nullspace(m ** n, multiplication_matrix(algebra, n).sparse_rows())
    k2 = nullspace(m * m, algebra.mu2.sparse_rows())
    K2 = k2.row_matrix()
    red = RowReducer(m ** n)
    for i in range(n - 1):
        for row in kron_rows([(m ** i, K2, m ** (n - 2 - i))])[1]:
            red.add(row)
    span = red.subspace()
    return {
        "arity": n,
        "dim_kernel": ker.dim,
        "dim_span": span.dim,
        "equal": ker == span,
    }


# ---------------------------------------------------------------------------
# Graded commutators and De Rham homology
# ---------------------------------------------------------------------------


def commutator_subspace(algebra: Algebra, r: int) -> Subspace:
    """C_r, the span of [w, h] = w.h - (-1)^{ab} h.w over degrees a + b = r.  The e_i and
    d e_j generate Omega(A) and [xy, h] = [x, yh] + (-1)^{|x|(|y|+|h|)} [y, hx], so the
    [d e_j, h], h in Omega_{r-1}, and [e_i, h] = (L_i - R_i) h, h in Omega_r, span it.
    Each block's columns are kron_rows of its transposed terms: for h = e_i dJ,
    d e_j . h = (d e_j . e_i) dJ is R1_j (x) I and h . d e_j = (i; J, j) is I (x) u_j.
    The d e_j blocks go first: they span most of C_r, the e_i blocks add few pivots."""
    sp, m = form_space(algebra, r), algebra.dim
    blocks = []
    if r:
        n = form_space(algebra, r - 1).dim
        de = d_slots(form_space(algebra, 0).d_matrix)
        R1 = products(algebra, de, 1, QMat.eye(m), 0)  # column j*m + i: d e_(j+1) . e_i
        blocks += [[(QMat(R1.num[:, j * m:(j + 1) * m], R1.den), (m - 1) ** (r - 1)),
                    (n, QMat.from_coo((m - 1, 1), [(j, 0, (-1) ** r)]))] for j in range(m - 1)]
    blocks += [sp.left[i] + [(-QMat.eye(1), *t) for t in sp.right[i]] for i in range(1, m)]
    red = RowReducer(sp.dim)
    for terms in blocks:
        for row in kron_rows(kron_transpose(terms))[1]:
            red.add(row)
    return red.subspace()


def de_rham_homology(algebra: Algebra, truncation: int,
                     size_cap: int = 100000) -> dict:
    """Homology of the commutator quotient complex, exact up to degree N-1.

    Degree N is reported as a lower bound (the differential out of degree N
    would need the degree-(N+1) commutator space) and flagged.
    """
    N = truncation
    if N < 1:
        raise FormError("truncation must be >= 1")
    m = algebra.dim
    if m * max(1, (m - 1)) ** (N + 1) > size_cap:
        raise FormError("form space dimension exceeds cap")
    comm = [commutator_subspace(algebra, r) for r in range(N + 1)]
    quot_dims = [form_space(algebra, r).dim - comm[r].dim for r in range(N + 1)]
    # d maps commutators into commutators, so the induced map out of degree
    # r has rank dim(C_{r+1} + im d_r) - dim C_{r+1}; d(e_i dJ) = (0; i, J),
    # so im d_r is the span of the first (m-1)^(r+1) basis forms
    ranks = []
    for r in range(N):
        t = (m - 1) ** (r + 1)
        image = Subspace(comm[r + 1].ambient, [{c: 1} for c in range(t)], range(t))
        ranks.append((comm[r + 1] + image).dim - comm[r + 1].dim)
    dims = [quot_dims[p] - ranks[p] - (ranks[p - 1] if p else 0) for p in range(N)]
    # degree N: only a lower bound, d(rep) = 0 on the nose (without C_{N+1} that
    # undercounts the induced kernel).  d_N kills the first (m-1)^N basis forms
    # e_0 dJ and is injective on the rest: its kernel on free coordinates is a count
    kerN = len(set(range((m - 1) ** N)) - set(comm[N].pivots))
    lower_N = max(0, kerN - ranks[N - 1])
    return {
        "truncation": N,
        "homology_dims": dims,                  # exact, degrees 0..N-1
        "top_degree_lower_bound": lower_N,      # degree N, flagged
        "top_degree_incomplete": True,
        "quotient_dims": quot_dims,
        "commutator_dims": [c.dim for c in comm],
    }
