"""Finite-dimensional unital associative algebras over Q.

An algebra is stored by its product mu^2: A (x) A -> A, one exact m x m^2
matrix against a basis whose first vector is the unit:

    e_i * e_j = sum_k mu^2[k, i*m + j] e_k,       e_0 = 1.

Its slices are the left and right multiplication operators and the factors
of the operators on forms and cochains; every construction builds it as a
matrix, and all the derived data (centers, derivations, bimodules) are
exact rational matrices too.
"""

from __future__ import annotations

import itertools
import threading
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .linalg import (LinAlgError, QMat, QVector, RowReducer, Subspace, checked_column,
                     kron_apply, kron_matrix, kron_rows, kron_transpose, multilinear,
                     nullspace, qmat_hstack, qmat_inverse, qmat_sum, solve_linear)


class MathError(ValueError):
    """A computation cannot go on: a check fails with it, the command exits 2."""


class AlgebraError(MathError):
    pass


class Algebra:
    """Unital associative algebra given by its product mu^2, unit first."""

    def __init__(self, name: str, basis_names: Sequence[str], mu2: QMat,
                 check: bool = True):
        self.name = name
        self.basis_names = list(basis_names)
        self.dim = m = len(basis_names)
        if mu2.shape != (m, m * m):
            raise AlgebraError("structure tensor shape mismatch")
        # mu^2: column i*m + j is e_i e_j, reduced, int64 below 2**62
        self.mu2 = mu2.canonical()
        mu = self.mu2.num.reshape(m, m, m)
        # left multiplication: column j of L[i] is e_i e_j; right: column i of R[j]
        self.left = [QMat(mu[:, i].copy(), self.mu2.den).canonical() for i in range(m)]
        self.right = [QMat(mu[:, :, j].copy(), self.mu2.den).canonical() for j in range(m)]
        # degree -> FormSpace, filled by forms.form_space; owned by the
        # algebra so the spaces die with it
        self._form_spaces: dict = {}
        self._form_lock = threading.Lock()
        if check:
            self.validate()

    # -- structure checks ----------------------------------------------------

    def validate(self) -> None:
        m = self.dim
        eye = QMat.eye(m)
        if self.left[0] != eye or self.right[0] != eye:
            raise AlgebraError(
                f"{self.name}: basis vector 0 is not a two-sided unit")
        # associativity: row (i, j, l) of (mu^2 (mu^2 (x) I))^T is (e_i e_j) e_l,
        # of (mu^2 (I (x) mu^2))^T it is e_i (e_j e_l)
        muT = self.mu2.T
        bad = (kron_apply([(muT, m)], muT) - kron_apply([(m, muT)], muT)).num.any(axis=1)
        if bad.any():
            i, j = divmod(int(bad.argmax()) // m, m)
            raise AlgebraError(f"{self.name}: product not associative at "
                               f"({self.basis_names[i]}, {self.basis_names[j]})")

    # -- products --------------------------------------------------------------

    def mult_vec(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> list[Fraction]:
        """uv = mu^2 (u (x) v)."""
        return (self.element(u) * self.element(v)).col.column_fractions(0)

    # -- elements ---------------------------------------------------------------

    def element(self, coeffs: Sequence) -> "Element":
        return Element(self, checked_column(coeffs, self.dim, AlgebraError))

    def unit(self) -> "Element":
        return self.basis_element(0)

    def zero(self) -> "Element":
        return self.element([0] * self.dim)

    def basis_element(self, i: int) -> "Element":
        return self.element([Fraction(k == i) for k in range(self.dim)])

    def elements(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    # -- invariants --------------------------------------------------------------

    def is_commutative(self) -> bool:
        return self.mu2 == self._opposite_mu2()

    def center(self) -> Subspace:
        """{x : xa = ax for all a}, as coefficient vectors."""
        return nullspace(self.dim, (
            row for j in range(self.dim)
            for row in (self.left[j] - self.right[j]).sparse_rows()))

    def _opposite_mu2(self) -> QMat:
        """mu^2 with column i*m + j moved to j*m + i: x * y = yx."""
        m = self.dim
        return QMat(self.mu2.num.reshape(m, m, m).transpose(0, 2, 1).reshape(m, m * m),
                    self.mu2.den)

    def opposite(self, name: Optional[str] = None) -> "Algebra":
        return Algebra(name or f"op({self.name})", self.basis_names, self._opposite_mu2(),
                       check=False)

    def regular_bimodule(self) -> "Bimodule":
        return Bimodule(self, self.dim, self.left, self.right,
                        name=self.name, check=False)

    def __repr__(self) -> str:
        return f"Algebra({self.name!r}, dim={self.dim})"


class Element(QVector):
    """Algebra element: its coefficient column against the algebra basis."""

    __slots__ = ("algebra", "col")
    _field, _error = "col", AlgebraError

    def __init__(self, algebra: Algebra, col: QMat):
        self.algebra = algebra
        self.col = col

    def _space(self) -> tuple:
        return (self.algebra,)

    def _with(self, col: QMat) -> "Element":
        return Element(self.algebra, col)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(self.col.column_fractions(0))

    def __mul__(self, other) -> "Element":
        if not isinstance(other, Element):
            return self.scale(other)
        self._same(other)
        return self._with(multilinear(self.algebra.mu2, self.col, other.col))

    __rmul__ = QVector.scale

    def __pow__(self, n: int) -> "Element":
        out = self.algebra.unit()
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self) -> str:
        parts = []
        for c, name in zip(self.coeffs, self.algebra.basis_names):
            if not c:
                continue
            if c == 1:
                parts.append(name)
            elif c == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{c}*{name}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


class Bimodule:
    """A-bimodule: commuting left action (hom) and right action (anti-hom).

    Each basis element acts by a Kronecker term list (see :func:`kron_rows`);
    a QMat M given for it is the list [(M,)]."""

    def __init__(self, algebra: Algebra, dim: int, left: Sequence, right: Sequence,
                 name: str = "M", check: bool = True):
        self.algebra = algebra
        self.dim = dim
        self.left = [[(M,)] if isinstance(M, QMat) else list(M) for M in left]
        self.right = [[(M,)] if isinstance(M, QMat) else list(M) for M in right]
        self.name = name
        if check:
            self.validate()

    def validate(self) -> None:
        """The bimodule laws for all j at once, the action terms applied to the
        blocks H = [M_0 .. M_{m-1}] of the matrices: block j of H (a_i (x) I), a_i
        the algebra's, is sum_k a_i[k, j] M_k, and R_j L_i is (L_i^T R_j^T)^T."""
        A, dM, m = self.algebra, self.dim, self.algebra.dim
        L, R = ([kron_matrix(t) for t in acts] for acts in (self.left, self.right))
        if len(L) != m or len(R) != m or any(M.shape != (dM, dM) for M in L + R):
            raise AlgebraError(f"{self.name}: need one {dM} x {dM} action per basis vector")
        if L[0] != QMat.eye(dM) or R[0] != QMat.eye(dM):
            raise AlgebraError(f"{self.name}: unit must act as identity")
        HL, HR, HRt = (qmat_hstack(dM, Ms) for Ms in (L, R, [M.T for M in R]))
        for i in range(m):
            # (e_i e_j) . x = e_i . (e_j . x) and x . (e_j e_i) = (x . e_j) . e_i
            if kron_apply(self.left[i], HL) != multilinear(HL, A.left[i], dM):
                raise AlgebraError(f"{self.name}: left action not multiplicative")
            if kron_apply(self.right[i], HR) != multilinear(HR, A.right[i], dM):
                raise AlgebraError(f"{self.name}: right action not anti-multiplicative")
            RLt = kron_apply(kron_transpose(self.left[i]), HRt)     # block j: (R_j L_i)^T
            RL = RLt.num.reshape(dM, m, dM).transpose(2, 1, 0).reshape(dM, m * dM)
            if kron_apply(self.left[i], HR) != QMat(RL, RLt.den):
                raise AlgebraError(f"{self.name}: left and right actions do not commute")

    def left_action(self, a: Sequence[Fraction], X: Optional[QMat] = None) -> QMat:
        """a . X, for X the identity (the matrix of a) when None."""
        return self._act(self.left, a, X)

    def right_action(self, a: Sequence[Fraction], X: Optional[QMat] = None) -> QMat:
        """X . a, for X the identity (the matrix of a) when None."""
        return self._act(self.right, a, X)

    def _act(self, acts: list, a: Sequence[Fraction], X: Optional[QMat]) -> QMat:
        a = checked_column(a, self.algebra.dim, AlgebraError).column_fractions(0)
        X = QMat.eye(self.dim) if X is None else X
        return qmat_sum([kron_apply(T, X).scale(ai) for T, ai in zip(acts, a)])

    def __repr__(self) -> str:
        return f"Bimodule({self.name!r}, dim={self.dim} over {self.algebra.name})"


class AlgebraHom:
    """Unit-preserving multiplicative linear map between algebras."""

    def __init__(self, source: Algebra, target: Algebra, matrix: QMat,
                 name: str = "f", check: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.name = name
        if check:
            self.validate()

    def validate(self) -> None:
        F, T = self.matrix, self.target
        if F.shape != (T.dim, self.source.dim):
            raise AlgebraError(f"{self.name}: matrix shape mismatch")
        if F.col(0) != QMat.eye(T.dim).col(0):
            raise AlgebraError(f"{self.name}: does not preserve the unit")
        # f(e_i e_j) = f(e_i) f(e_j) at column i*m + j of F mu^2 = mu^2 (F (x) F)
        bad = (F @ self.source.mu2 - multilinear(T.mu2, F, F)).num.any(axis=0)
        if bad.any():
            i, j = divmod(int(bad.argmax()), self.source.dim)
            raise AlgebraError(f"{self.name}: not multiplicative at basis pair ({i},{j})")

    def __call__(self, x: Element) -> Element:
        if x.algebra is not self.source:
            raise AlgebraError(f"{self.name}: element of {x.algebra.name}, not of {self.source.name}")
        return Element(self.target, self.matrix @ x.col)

    def compose(self, other: "AlgebraHom") -> "AlgebraHom":
        if other.target is not self.source:
            raise AlgebraError("composition: domains do not match")
        return AlgebraHom(other.source, self.target, self.matrix @ other.matrix,
                          name=f"{self.name}o{other.name}", check=False)

    def is_isomorphism(self) -> bool:
        if self.source.dim != self.target.dim:
            return False
        try:
            qmat_inverse(self.matrix)
            return True
        except LinAlgError:
            return False

    def __repr__(self) -> str:
        return f"AlgebraHom({self.source.name} -> {self.target.name})"


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def rebase_unit_first(name: str, basis_names: Sequence[str], mu2: QMat,
                      unit_coeffs: Sequence) -> Algebra:
    """Re-express an algebra, given by its m x m^2 product mu^2, so the
    (given) unit is basis vector 0.

    Keeps as many of the original basis vectors as possible: the new basis is
    the unit followed by the original basis vectors that remain independent,
    in order.  Basis names are preserved for the kept vectors.
    """
    m = len(basis_names)
    if mu2.shape != (m, m * m):
        raise AlgebraError("structure tensor shape mismatch")
    unit = checked_column(unit_coeffs, m, AlgebraError, "the unit")
    red = RowReducer(m)
    if not red.add(unit.T.sparse_rows()[0]):
        raise AlgebraError("unit vector is zero")
    keep = [t for t in range(m) if red.add({t: 1})]
    P = qmat_hstack(m, [unit, QMat(np.eye(m, dtype=np.int64)[:, keep])])
    # column i*m + j: the new coordinates of the product of new basis vectors
    return Algebra(name, ["1"] + [basis_names[t] for t in keep],
                   solve_linear(P, multilinear(mu2, P, P)))


def matrix_algebra(n: int) -> Algebra:
    """Full n x n matrix algebra; basis = identity then E_ij minus one slot.

    The identity replaces E_nn, so the basis is 1, E11, E12, ..., with
    E_nn = 1 - E11 - ... recovered implicitly.
    """
    names = ["1"] + [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)
                     if not (i == n - 1 and j == n - 1)]
    m = n * n
    # the product in the full E_ij basis first: E_ij E_jl = E_il
    mu2 = QMat.from_coo((m, m * m), ((i * n + l, (i * n + j) * m + j * n + l, 1)
                                     for i, j, l in itertools.product(range(n), repeat=3)))
    unit = [int(i == j) for i in range(n) for j in range(n)]
    full_names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    alg = rebase_unit_first(f"matrix({n})", full_names, mu2, unit)
    assert alg.basis_names == names
    return alg


def truncated_polynomial_algebra(n: int, var: str = "t") -> Algebra:
    """Q[t] / (t^n): basis 1, t, ..., t^(n-1)."""
    if n < 1:
        raise AlgebraError("truncation order must be >= 1")
    names = ["1"] + [var if p == 1 else f"{var}^{p}" for p in range(1, n)]
    mu2 = QMat.from_coo((n, n * n), ((i + j, i * n + j, 1) for i in range(n)
                                     for j in range(n - i)))
    return Algebra(f"truncpoly({n})", names, mu2)


def dual_numbers() -> Algebra:
    a = truncated_polynomial_algebra(2, var="eps")
    a.name = "dual"
    return a


def base_field() -> Algebra:
    a = truncated_polynomial_algebra(1)
    a.name = "k"
    return a


def _inclusion(n: int, lo: int, k: int) -> QMat:
    """The n x k matrix placing Q^k at coordinates lo .. lo+k-1 of Q^n."""
    return QMat(np.eye(n, k, -lo, dtype=np.int64))


def product_algebra(a: Algebra, b: Algebra, name: Optional[str] = None) -> Algebra:
    """Direct product A x B, rebased so the unit (1,1) comes first."""
    m = a.dim + b.dim
    # each factor's product on its own block: i mu^2 (i^T (x) i^T)
    mu2 = qmat_sum(i @ multilinear(x.mu2, i.T, i.T)
                   for i, x in ((_inclusion(m, 0, a.dim), a), (_inclusion(m, a.dim, b.dim), b)))
    names = [f"a.{s}" for s in a.basis_names] + [f"b.{s}" for s in b.basis_names]
    unit = [int(i == 0 or i == a.dim) for i in range(m)]
    return rebase_unit_first(name or f"product({a.name},{b.name})", names, mu2, unit)


def semidirect_product(mod: Bimodule, name: Optional[str] = None) -> "SemidirectProduct":
    """Square-zero extension A (+) M with (a,m)(a',m') = (aa', a.m' + m.a')."""
    A, dM, m = mod.algebra, mod.dim, mod.algebra.dim
    n = m + dM
    iA, iM = _inclusion(n, 0, m), _inclusion(n, m, dM)
    # a.m' = sum_i a_i L_i m' on a (x) m', m.a' = sum_i a'_i R_i m on m (x) a'
    units = [QMat.from_coo((1, m), [(0, i, 1)]) for i in range(m)]
    acts = kron_matrix([(u, *t) for u, L in zip(units, mod.left) for t in L])
    coacts = kron_matrix([(*t, u) for u, R in zip(units, mod.right) for t in R])
    mu2 = (iA @ multilinear(A.mu2, iA.T, iA.T)
           + iM @ (multilinear(acts, iA.T, iM.T) + multilinear(coacts, iM.T, iA.T)))
    names = list(A.basis_names) + [f"{mod.name}.{p}" for p in range(dM)]
    alg = Algebra(name or f"semidirect({A.name},{mod.name})", names, mu2)
    return SemidirectProduct(alg, A, mod)


class SemidirectProduct:
    def __init__(self, algebra: Algebra, base: Algebra, module: Bimodule):
        self.algebra = algebra
        self.base = base
        self.module = module

    def embed(self, a: Sequence[Fraction], mvec: Sequence[Fraction]) -> Element:
        cols = [checked_column(a, self.base.dim, AlgebraError),
                checked_column(mvec, self.module.dim, AlgebraError, "a module")]
        return Element(self.algebra, qmat_hstack(1, [c.T for c in cols]).T)

    def project_module(self, x: Element) -> list[Fraction]:
        if x.algebra is not self.algebra:
            raise AlgebraError(f"element of {x.algebra.name}, not of {self.algebra.name}")
        return list(x.coeffs[self.base.dim:])


# ---------------------------------------------------------------------------
# Finite groups and their actions
# ---------------------------------------------------------------------------


def group_identity(elements: Sequence[str], table: dict) -> str:
    """The identity of the finite group with multiplication table {(g,h): gh}.

    Raises unless the table is complete and closed, with a unique identity,
    associative and with an inverse for every element.
    """
    if len(set(elements)) != len(elements):
        raise AlgebraError("duplicate group element names")
    for g in elements:
        for h in elements:
            if (g, h) not in table:
                raise AlgebraError(f"group table is missing {g}*{h}")
            if table[g, h] not in elements:
                raise AlgebraError(f"group table value {table[g, h]!r} not an element")
    ident = [e for e in elements
             if all(table[e, g] == g and table[g, e] == g for g in elements)]
    if len(ident) != 1:
        raise AlgebraError("group table has no unique identity")
    for g in elements:
        for h in elements:
            for k in elements:
                if table[table[g, h], k] != table[g, table[h, k]]:
                    raise AlgebraError(
                        f"group table is not associative at ({g}, {h}, {k})")
        if not any(table[g, h] == ident[0] for h in elements):
            raise AlgebraError(f"group element {g!r} has no inverse")
    return ident[0]


def group_algebra(elements: Sequence[str], table: dict, name: Optional[str] = None) -> Algebra:
    """Group algebra QG from a multiplication table {(g,h): gh}, identity first."""
    n = len(elements)
    ident = group_identity(elements, table)
    order = [ident] + [g for g in elements if g != ident]
    pos = {g: i for i, g in enumerate(order)}
    mu2 = QMat.from_coo((n, n * n), ((pos[table[g, h]], pos[g] * n + pos[h], 1)
                                     for g in order for h in order))
    return Algebra(name or "group_algebra", order, mu2)


class GroupAction:
    """A finite group acting on A by algebra automorphisms; ``homs`` maps
    each group element's name to its automorphism."""

    def __init__(self, algebra: Algebra, homs: Sequence[AlgebraHom],
                 check: bool = True):
        self.algebra = algebra
        self.homs = {h.name: h for h in homs}
        if len(self.homs) != len(homs):
            raise AlgebraError("group elements need distinct names")
        if check:
            self.validate()

    def validate(self) -> None:
        mats = [h.matrix for h in self.homs.values()]
        ident = QMat.eye(self.algebra.dim)
        if not any(M == ident for M in mats):
            raise AlgebraError("action lacks the identity")
        for h in self.homs.values():
            if h.source is not self.algebra or h.target is not self.algebra:
                raise AlgebraError("action maps must be endomorphisms")
            if not h.is_isomorphism():
                raise AlgebraError("action map is not invertible")
        for a in mats:
            for b in mats:
                ab = a @ b
                if not any(ab == M for M in mats):
                    raise AlgebraError("action is not closed under composition")

    def fixed_subspace(self) -> Subspace:
        """Elements fixed by every automorphism of the action (a subalgebra)."""
        m = self.algebra.dim
        return nullspace(m, (row for h in self.homs.values()
                             for row in (h.matrix - QMat.eye(m)).sparse_rows()))


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


def leibniz_terms(mod: Bimodule) -> list[tuple]:
    """Kronecker terms of the Leibniz system of a linear D: A -> M.

    On vec(D) (D[r, j] at index j*dM + r), row (i*m + j)*dM + r of
    C (x) I - sum_a (u_a (x) I (x) L_a + I (x) u_a (x) R_a) is coordinate r of
    D(e_i e_j) - e_i.D(e_j) - D(e_i).e_j: C = (mu^2)^T holds the structure
    constants and u_a is the unit column of e_a (the head and tail terms of
    the coboundary).  The module's term lists L_a, R_a are spliced in.
    """
    m = mod.algebra.dim
    units = [QMat.from_coo((m, 1), [(a, 0, -1)]) for a in range(m)]
    return [(mod.algebra.mu2.T, mod.dim),
            *((u, m, *t) for u, L in zip(units, mod.left) for t in L),
            *((m, u, *t) for u, R in zip(units, mod.right) for t in R)]


def derivation_space(mod: Bimodule) -> Subspace:
    """All linear D: A -> M with D(ab) = a.D(b) + D(a).b.

    Vectors live in Q^(m*dM): D[r, j] at index j*dM + r (column-major).
    """
    _, rows = kron_rows(leibniz_terms(mod))
    return nullspace(mod.algebra.dim * mod.dim, rows)


def derivation_matrix(mod: Bimodule, vec: Sequence[Fraction]) -> QMat:
    """Reshape a derivation-space vector into the dM x m matrix of D."""
    return checked_column(vec, mod.dim * mod.algebra.dim, AlgebraError,
                          "Hom(A, M)").unvec(mod.dim, mod.algebra.dim)


def derivation_vector(mod: Bimodule, mat: QMat) -> list[Fraction]:
    """The dM x m matrix of D read column by column (D[r, j] at j*dM + r)."""
    if mat.shape != (mod.dim, mod.algebra.dim):
        raise AlgebraError(f"a {mat.shape[0]} x {mat.shape[1]} matrix for Hom(A, M) "
                           f"of shape {mod.dim} x {mod.algebra.dim}")
    return mat.vec().column_fractions(0)


def derivation_defect(mod: Bimodule, mat: QMat) -> Optional[tuple[int, int]]:
    """First basis pair (i, j) where D(e_i e_j) != e_i.D(e_j) + D(e_i).e_j,
    or None when the dM x m matrix of D is a derivation: the first nonzero
    row of the Leibniz terms applied to vec(D)."""
    bad = np.flatnonzero(kron_apply(leibniz_terms(mod), mat.vec()).num)
    return divmod(int(bad[0]) // mod.dim, mod.algebra.dim) if bad.size else None


def is_derivation(mod: Bimodule, mat: QMat) -> bool:
    return derivation_defect(mod, mat) is None


def inner_derivation(mod: Bimodule, mvec: Sequence[Fraction]) -> QMat:
    """D_m(a) = m.a - a.m for a fixed module element m."""
    col = checked_column(mvec, mod.dim, AlgebraError, "a module")
    return qmat_hstack(mod.dim, [kron_apply(R, col) - kron_apply(L, col)
                                 for L, R in zip(mod.left, mod.right)])


def derivation_to_hom(sd: SemidirectProduct, dmat: QMat) -> AlgebraHom:
    """a |-> (a, D(a)); an algebra map into A (+) M iff D is a derivation."""
    A = sd.base
    graph = qmat_hstack(A.dim, [QMat.eye(A.dim), dmat.T]).T
    return AlgebraHom(A, sd.algebra, graph, name="graph")


def hom_to_derivation(sd: SemidirectProduct, hom: AlgebraHom) -> QMat:
    """Inverse of derivation_to_hom for maps of the form a |-> (a, D(a))."""
    A, F = sd.base, hom.matrix
    if QMat(F.num[:A.dim], F.den) != QMat.eye(A.dim):
        raise AlgebraError("homomorphism is not a graph over the base algebra")
    return QMat(F.num[A.dim:].copy(), F.den).canonical()


# ---------------------------------------------------------------------------
# Tensor product over A
# ---------------------------------------------------------------------------


class TensorQuotient:
    """M (x)_A N: the tensor product over the algebra.

    Quotient of M (x) N (index p*dimN + q) by the middle-action relations
    m.a (x) n - m (x) a.n.  ``free`` lists the coordinates that survive as a
    basis of the quotient.
    """

    def __init__(self, right_mod: Bimodule, left_mod: Bimodule):
        if right_mod.algebra is not left_mod.algebra:
            raise AlgebraError("tensor over A needs modules over the same algebra")
        self.algebra = right_mod.algebra
        self.m_mod = right_mod
        self.n_mod = left_mod
        dm, dn = right_mod.dim, left_mod.dim
        self.ambient = dm * dn
        red = RowReducer(self.ambient)
        # m.a (x) n - m (x) a.n, a != 0: rows R_a^T (x) I - I (x) L_a^T (-1 a factor)
        for a in range(1, self.algebra.dim):
            _, rows = kron_rows([*((*t, dn) for t in kron_transpose(right_mod.right[a])),
                                 *((-QMat.eye(1), dm, *t)
                                   for t in kron_transpose(left_mod.left[a]))])
            for row in rows:
                red.add(row)
        self.relations = red.subspace()
        self._reducer = red
        pivset = set(red.pivots())
        self.free = [t for t in range(self.ambient) if t not in pivset]
        self.dim = len(self.free)

    def project_vector(self, vec: Sequence[Fraction]) -> list[Fraction]:
        """Coordinates of the class of vec against the free-coordinate basis."""
        col = checked_column(vec, self.ambient, AlgebraError, "M (x) N")
        rep = self._reducer.reduce_dense(col.column_fractions(0))
        return [rep[t] for t in self.free]

    def pure_tensor(self, mvec: Sequence[Fraction], nvec: Sequence[Fraction]) -> list[Fraction]:
        m = checked_column(mvec, self.m_mod.dim, AlgebraError, "a module")
        n = checked_column(nvec, self.n_mod.dim, AlgebraError, "a module")
        return self.project_vector(kron_apply([(m, n)], QMat.eye(1)).column_fractions(0))

    def factor_map(self, mat: QMat) -> Optional[QMat]:
        """Induced matrix on the quotient of a map defined on M (x) N.

        Returns None when the map does not kill the relations (i.e. it is not
        middle-linear).
        """
        if not (mat @ self.relations.row_matrix().T).is_zero():
            return None
        return QMat(mat.num[:, self.free], mat.den).reduced()


def tensor_over_A(right_mod: Bimodule, left_mod: Bimodule) -> TensorQuotient:
    return TensorQuotient(right_mod, left_mod)
