"""Forms with values in fields: contraction, Lie operators, and brackets.

A field-valued k-form K is a bimodule homomorphism Omega_1 -> Omega_k.  By
universality it is determined by the derivation delta = K o d : A -> Omega_k,
and every Leibniz map arises this way, so K is *stored* as delta (a
dim Omega_k by m matrix) and extended back via K(a0 da1) = a0 . delta(a1).

Degree bookkeeping: the subscript of K is the target form degree; the
contraction j_K has operator degree (subscript - 1), the Lie operator
L_K = [j_K, d] has operator degree (subscript).

Operators are applied to blocks of forms, never built whole: a graded
derivation is fixed by its values on A and dA, so every bracket and operator
identity reads a few blocks (the fields' deltas, or the identity blocks of
low degrees).  ``GradedDerivation.mats`` is ``apply`` on I, built only where
a matrix is asked for (the graded Leibniz test and the decomposition).
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .algebra import Algebra, AlgebraHom, MathError, derivation_defect, derivation_space
from .forms import Form, d_slots, form_space, omega_functor, products
from .linalg import QMat, QVector, qmat_from_json, qmat_to_json, solve_linear


class FieldFormError(MathError):
    pass


class FieldValuedForm(QVector):
    """K: Omega_1 -> Omega_k stored by its generating derivation delta."""

    _field, _error = "delta", FieldFormError

    def __init__(self, algebra: Algebra, degree: int, delta: QMat,
                 check: bool = True):
        if degree < 0:
            raise FieldFormError("field-valued form degree must be >= 0")
        self.algebra = algebra
        self.degree = degree
        self.delta = delta
        self._ext: Optional[QMat] = None
        if delta.shape != (form_space(algebra, degree).dim, algebra.dim):
            raise FieldFormError("delta matrix has the wrong shape")
        if check:
            self.validate()

    def validate(self) -> None:
        """delta(ab) = delta(a).b + a.delta(b) on all basis pairs."""
        pair = derivation_defect(form_space(self.algebra, self.degree), self.delta)
        if pair is not None:
            raise FieldFormError(
                f"not a derivation into forms at basis pair ({pair[0]},{pair[1]})")

    def extension(self) -> QMat:
        """The bimodule-hom matrix Omega_1 -> Omega_k, K(e_i de_j) = e_i.delta(e_j):
        products(I, 0, delta[:, 1:], k), column i*(m-1) + j-1."""
        if self._ext is None:
            self._ext = products(self.algebra, None, 0, d_slots(self.delta),
                                 self.degree)
        return self._ext

    def _space(self) -> tuple:
        return (self.algebra, self.degree)

    def _with(self, delta: QMat) -> "FieldValuedForm":
        return FieldValuedForm(self.algebra, self.degree, delta, check=False)

    def apply(self, w: Form) -> Form:
        if w.degree != 1:
            raise FieldFormError("field-valued forms act on one-forms")
        tgt = form_space(self.algebra, self.degree)
        return Form(tgt, self.extension() @ w.vec)

    def to_json(self) -> dict:
        return {"degree": self.degree, "delta": qmat_to_json(self.delta)}

    def __repr__(self) -> str:
        return f"FieldValuedForm(degree={self.degree}, algebra={self.algebra.name})"


def field_valued_form_from_json(algebra: Algebra, obj: dict) -> FieldValuedForm:
    delta = qmat_from_json(obj["delta"])
    return FieldValuedForm(algebra, int(obj["degree"]), delta)


def zero_field_valued_form(algebra: Algebra, degree: int) -> FieldValuedForm:
    return FieldValuedForm(
        algebra, degree,
        QMat.zeros(form_space(algebra, degree).dim, algebra.dim), check=False)


def identity_one_form(algebra: Algebra) -> FieldValuedForm:
    """Id of Omega_1 as a field-valued one-form: delta(a) = da."""
    return FieldValuedForm(algebra, 1, form_space(algebra, 0).d_matrix,
                           check=False)


def field_from_derivation(algebra: Algebra, dmat: QMat) -> FieldValuedForm:
    """A derivation A -> A as a degree-0 field."""
    return FieldValuedForm(algebra, 0, dmat)


def field_valued_form_space(algebra: Algebra, degree: int) -> list[FieldValuedForm]:
    """Basis of Omega^1_degree = derivations A -> Omega_degree, each the
    dim Omega_degree x m matrix of a column of the derivation block."""
    sp = form_space(algebra, degree)
    return [FieldValuedForm(algebra, degree, delta, check=False)
            for delta in derivation_space(sp).unvec_basis(sp.dim, algebra.dim)]


def field_space(algebra: Algebra) -> list[FieldValuedForm]:
    return field_valued_form_space(algebra, 0)


# ---------------------------------------------------------------------------
# Graded derivations of the form algebra
# ---------------------------------------------------------------------------


class GradedDerivation:
    """Degree-k operator on forms, applied to blocks of forms.

    ``apply(n, X)`` sends a block X of n-forms (dim Omega_n x s, one form
    per column) to its image, a dim Omega_{n+k} x s block.  A form space
    below degree 0 has dimension 0, so an image there has 0 rows.  An
    operator given by matrices applies ``mats[n]``, Omega_n -> Omega_{n+k};
    d, j_K and L_K (and their sums and commutators) apply one recurrence
    each and hold no matrix until one is read.  ``inputs`` are the degrees
    whose matrices a caller may read: ``mat(n)`` is apply(n, I), built once.
    """

    def __init__(self, algebra: Algebra, degree: int, mats: dict[int, QMat]):
        self.algebra, self.degree = algebra, degree
        self._mats = dict(mats)
        self.inputs = sorted(self._mats)
        self._rule: Optional[Callable[[int, QMat], QMat]] = None

    @classmethod
    def by_rule(cls, algebra: Algebra, degree: int, inputs: Iterable[int],
                rule: Callable[[int, QMat], QMat]) -> "GradedDerivation":
        """The operator applying rule(n, X) for n >= 0."""
        op = cls(algebra, degree, {})
        op.inputs, op._rule = sorted(inputs), rule
        return op

    def apply(self, n: int, X: QMat) -> QMat:
        if n < 0:
            return QMat.zeros(_dim(self.algebra, n + self.degree), X.shape[1])
        return self._rule(n, X) if self._rule else self.mat(n) @ X

    def mat(self, n: int) -> QMat:
        if n not in self.inputs:
            raise FieldFormError(f"operator not stored on input degree {n}")
        if n not in self._mats:
            self._mats[n] = self.apply(n, QMat.eye(_dim(self.algebra, n)))
        return self._mats[n]

    @property
    def mats(self) -> dict[int, QMat]:
        return {n: self.mat(n) for n in self.inputs}

    def __add__(self, other: "GradedDerivation") -> "GradedDerivation":
        if self.degree != other.degree:
            raise FieldFormError("cannot add operators of different degrees")
        return GradedDerivation.by_rule(
            self.algebra, self.degree, set(self.inputs) & set(other.inputs),
            lambda n, X: self.apply(n, X) + other.apply(n, X))

    def commutator(self, other: "GradedDerivation") -> "GradedDerivation":
        """[D, E] = D o E - (-1)^{|D||E|} E o D."""
        sign = (-1) ** ((self.degree * other.degree) % 2)
        return GradedDerivation.by_rule(
            self.algebra, self.degree + other.degree, set(self.inputs) & set(other.inputs),
            lambda n, X: self.apply(n + other.degree, other.apply(n, X))
            - other.apply(n + self.degree, self.apply(n, X)).scale(sign))


def _dim(algebra: Algebra, degree: int) -> int:
    """dim Omega_degree, 0 below degree 0."""
    return form_space(algebra, degree).dim if degree >= 0 else 0


def d_operator(algebra: Algebra, max_input: int = 1) -> GradedDerivation:
    """d, applied to blocks by :meth:`FormSpace.apply_d` (a row shift)."""
    return GradedDerivation.by_rule(algebra, 1, range(max_input + 1),
                                    lambda n, X: form_space(algebra, n).apply_d(X))


def contraction(K: FieldValuedForm, max_input: int = 1) -> GradedDerivation:
    """j_K: the algebraic derivation replacing one d-slot by K.

    For K of subscript k, j_K has degree k - 1 and kills Omega_0.  A block X
    of n-forms, its rows indexed (prefix in Omega_{n-1}, last slot j), is
    also a block Y of (n-1)-forms with one column per (j, form).  Then

        j_K X = (j_K Y, with j moved back into the rows) + (-1)^{(n-1)(k-1)} S_n X,

    where S_n X = products(Y, n-1, delta[:, 1:], k, pairs=m-1) has column
    sum_j Y_(j,c) . K(d e_j) for form c: the last slot rewritten by K.  Each
    degree costs one products call on a block, and no Kronecker product.
    """
    A = K.algebra
    m, k, slots = A.dim, K.degree, d_slots(K.delta)

    def rule(n: int, X: QMat) -> QMat:
        if n == 0 or m == 1:
            return QMat.zeros(_dim(A, n + k - 1), X.shape[1])
        Y = QMat(X.num.reshape(_dim(A, n - 1), (m - 1) * X.shape[1]), X.den)
        S = products(A, Y, n - 1, slots, k, pairs=m - 1)
        S = -S if ((n - 1) * (k - 1)) % 2 else S
        if n == 1:
            return S
        head = rule(n - 1, Y)
        return QMat(head.num.reshape(S.shape), head.den) + S
    return GradedDerivation.by_rule(A, k - 1, range(max_input + 1), rule)


def lie_operator(K: FieldValuedForm, max_input: int = 1) -> GradedDerivation:
    """L_K = [j_K, d] = j_K o d - (-1)^(k-1) d o j_K for K of subscript k."""
    return contraction(K, max_input).commutator(d_operator(K.algebra, max_input))


def _same_algebra(K: FieldValuedForm, L: FieldValuedForm) -> None:
    if K.algebra is not L.algebra:
        raise FieldFormError("algebra mismatch")


def lie_bracket_fields(X: FieldValuedForm, Y: FieldValuedForm) -> FieldValuedForm:
    _same_algebra(X, Y)
    if X.degree != 0 or Y.degree != 0:
        raise FieldFormError("lie bracket of fields needs degree 0")
    return FieldValuedForm(X.algebra, 0,
                           X.delta @ Y.delta - Y.delta @ X.delta, check=False)


def algebraic_bracket(K: FieldValuedForm, L: FieldValuedForm) -> FieldValuedForm:
    """[K,L]^Delta = j_K o L - (-1)^{(k-1)(l-1)} j_L o K, subscripts k,l >= 1."""
    _same_algebra(K, L)
    if K.degree < 1 or L.degree < 1:
        raise FieldFormError("algebraic bracket needs subscripts >= 1")
    sign = (-1) ** (((K.degree - 1) * (L.degree - 1)) % 2)
    delta = (contraction(K).apply(L.degree, L.delta)
             - contraction(L).apply(K.degree, K.delta).scale(sign))
    return FieldValuedForm(K.algebra, K.degree + L.degree - 1, delta, check=False)


def fn_bracket(K: FieldValuedForm, L: FieldValuedForm) -> FieldValuedForm:
    """Graded bracket characterized by [L_K, L_L] = L_([K,L])."""
    _same_algebra(K, L)
    lk = lie_operator(K)
    ll = lk if L is K else lie_operator(L)
    sign = (-1) ** ((K.degree * L.degree) % 2)
    delta = lk.apply(L.degree, L.delta) - ll.apply(K.degree, K.delta).scale(sign)
    return FieldValuedForm(K.algebra, K.degree + L.degree, delta, check=False)


def insertion_compose(K: FieldValuedForm, L: FieldValuedForm) -> FieldValuedForm:
    """j_K o L as a field-valued form (delta = j_K applied to L's delta)."""
    _same_algebra(K, L)
    out = contraction(K).apply(L.degree, L.delta)
    return FieldValuedForm(K.algebra, L.degree + K.degree - 1, out, check=False)


def is_graded_derivation(D: GradedDerivation) -> bool:
    """Graded Leibniz D(wh) = D(w)h + (-1)^{k deg w} w D(h) on basis pairs.

    One block identity per degree pair (a, b) with a, b and a + b in
    ``D.inputs``, over all basis pairs:
    D_{a+b} mu(I, I) = mu(D_a, I) + (-1)^{ka} mu(I, D_b), where a factor
    mapped below degree 0 makes its term a zero block.
    """
    A, k, degs = D.algebra, D.degree, D.inputs
    for a in degs:
        for b in degs:
            if a + b not in degs:
                continue
            eye_b = QMat.eye(_dim(A, b))
            lhs = D.mat(a + b) @ products(A, None, a, eye_b, b)
            rhs = QMat.zeros(*lhs.shape)
            if a + k >= 0:
                rhs = rhs + products(A, D.mat(a), a + k, eye_b, b)
            if b + k >= 0:
                rhs = rhs + products(A, None, a, D.mat(b), b + k).scale((-1) ** ((k * a) % 2))
            if lhs != rhs:
                return False
    return True


def decompose_derivation(D: GradedDerivation) -> tuple[FieldValuedForm, FieldValuedForm]:
    """Split D = L_K + j_L; K from D|A, L from (D - L_K)(dA)."""
    A = D.algebra
    k = D.degree
    if k < 0:
        raise FieldFormError("decomposition needs operator degree >= 0")
    if not {0, 1} <= set(D.inputs):
        raise FieldFormError("need the operator on degrees 0 and 1")
    if not is_graded_derivation(D):
        raise FieldFormError("operator is not a graded derivation")
    K = FieldValuedForm(A, k, D.mat(0))  # validates Leibniz
    d0 = form_space(A, 0).d_matrix
    L = FieldValuedForm(A, k + 1, D.apply(1, d0) - lie_operator(K).apply(1, d0))
    return K, L


def reconstruct_derivation(K: FieldValuedForm, L: FieldValuedForm,
                           max_input: int) -> GradedDerivation:
    """L_K + j_L on input degrees 0..max_input."""
    if L.degree != K.degree + 1:
        raise FieldFormError("expected subscripts (k, k+1)")
    return lie_operator(K, max_input) + contraction(L, max_input)


# ---------------------------------------------------------------------------
# Identity suites
# ---------------------------------------------------------------------------


def check_lie_contraction_identity(K: FieldValuedForm, L: FieldValuedForm,
                                   trunc: int) -> bool:
    """[L_K, j_L] = j([K,L]) - (-1)^{k l} L(j_L o K), for K of subscript k
    and L of subscript l+1; operators compared on input degrees <= trunc."""
    lhs = lie_operator(K).commutator(contraction(L))
    jb, lj = contraction(fn_bracket(K, L)), lie_operator(insertion_compose(L, K))
    sign = (-1) ** ((K.degree * (L.degree - 1)) % 2)
    return all(lhs.apply(n, X) == jb.apply(n, X) - lj.apply(n, X).scale(sign)
               for n, X in _identity_blocks(K.algebra, trunc))


def _identity_blocks(algebra: Algebra, top: int):
    """(n, I on Omega_n) for n = 0..top: operators agree there iff they
    agree on input degrees <= top."""
    return ((n, QMat.eye(_dim(algebra, n))) for n in range(top + 1))


def check_bracket_expansion_identities(K1: FieldValuedForm, K2: FieldValuedForm,
                                       L1: FieldValuedForm, L2: FieldValuedForm,
                                       trunc: int) -> dict:
    """The three expansion identities tying L, j, FN and Delta brackets.

    Requires subscripts L_i = subscript K_i + 1.  The first is an operator
    identity (checked to ``trunc``); the other two are exact identities of
    field-valued forms.
    """
    k1, k2 = K1.degree, K2.degree
    if L1.degree != k1 + 1 or L2.degree != k2 + 1:
        raise FieldFormError("expected subscripts (k_i, k_i + 1)")
    report = {}

    # (1) [L_{K1} + j_{L1}, L_{K2} + j_{L2}]
    #       = L([K1,K2] + j_{L1} K2 - (-1)^{k1 k2} j_{L2} K1)
    #       + j([L1,L2]^Delta + [K1,L2] - (-1)^{k1 k2} [K2,L1])
    lhs = (lie_operator(K1) + contraction(L1)).commutator(lie_operator(K2) + contraction(L2))
    sgn = (-1) ** ((k1 * k2) % 2)
    lpart = fn_bracket(K1, K2) + insertion_compose(L1, K2) \
        - insertion_compose(L2, K1).scale(sgn)
    jpart = algebraic_bracket(L1, L2) + fn_bracket(K1, L2) \
        - fn_bracket(K2, L1).scale(sgn)
    rhs = lie_operator(lpart) + contraction(jpart)
    report["operator_commutator"] = all(
        lhs.apply(n, X) == rhs.apply(n, X) for n, X in _identity_blocks(K1.algebra, trunc))

    # (2) j_L [K1,K2] = [j_L K1, K2] + (-1)^{k1 l} [K1, j_L K2]
    #       - ((-1)^{k1 l} j([K1,L]) K2 - (-1)^{(k1+l) k2} j([K2,L]) K1),  L = L1
    L, ell = L1, L1.degree - 1
    lhs2 = insertion_compose(L, fn_bracket(K1, K2))
    t1 = fn_bracket(insertion_compose(L, K1), K2)
    t2 = fn_bracket(K1, insertion_compose(L, K2)).scale((-1) ** ((k1 * ell) % 2))
    t3 = insertion_compose(fn_bracket(K1, L), K2).scale((-1) ** ((k1 * ell) % 2))
    t4 = insertion_compose(fn_bracket(K2, L), K1).scale((-1) ** (((k1 + ell) * k2) % 2))
    report["insertion_into_fn"] = (lhs2 == t1 + t2 - (t3 - t4))

    # (3) [K, [L1,L2]^D] = [[K,L1], L2]^D + (-1)^{k k1} [L1, [K,L2]]^D
    #       - ((-1)^{k k1} [j(L1) K, L2] - (-1)^{(k+k1) k2} [j(L2) K, L1]),  K = K1
    K, k = K1, k1
    lhs3 = fn_bracket(K, algebraic_bracket(L1, L2))
    u1 = algebraic_bracket(fn_bracket(K, L1), L2)
    u2 = algebraic_bracket(L1, fn_bracket(K, L2)).scale((-1) ** ((k * k1) % 2))
    u3 = fn_bracket(insertion_compose(L1, K), L2).scale((-1) ** ((k * k1) % 2))
    u4 = fn_bracket(insertion_compose(L2, K), L1).scale((-1) ** (((k + k1) * k2) % 2))
    report["fn_into_algebraic"] = (lhs3 == u1 + u2 - (u3 - u4))

    report["all"] = all(v for v in report.values())
    return report


# ---------------------------------------------------------------------------
# Naturality
# ---------------------------------------------------------------------------


def f_related(f: AlgebraHom, K: FieldValuedForm, Kp: FieldValuedForm) -> bool:
    """K' o Omega_1(f) = Omega_k(f) o K as matrices."""
    if K.degree != Kp.degree:
        return False
    om = omega_functor(f, max(K.degree, 1))
    return Kp.extension() @ om[1] == om[K.degree] @ K.extension()


def pushforward(f: AlgebraHom, K: FieldValuedForm) -> Optional[FieldValuedForm]:
    """The f-related form on the target, when one exists (f surjective).

    Solves delta' F = Omega_k(f) delta for delta', F the matrix of f, as
    F^T delta'^T = (Omega_k(f) delta)^T; returns None when the system is
    inconsistent (K does not descend).
    """
    delta_t = solve_linear(f.matrix.T, (omega_functor(f, K.degree)[-1] @ K.delta).T)
    if delta_t is None:
        return None
    try:
        return FieldValuedForm(f.target, K.degree, delta_t.T)
    except FieldFormError:
        return None


def naturality_report(f: AlgebraHom, K1: FieldValuedForm, K2: FieldValuedForm,
                      K1p: FieldValuedForm, K2p: FieldValuedForm) -> dict:
    """Given two f-related pairs, are the derived brackets f-related too?"""
    rep = {
        "pairs_related": f_related(f, K1, K1p) and f_related(f, K2, K2p),
        "fn_bracket_related": f_related(
            f, fn_bracket(K1, K2), fn_bracket(K1p, K2p)),
    }
    if K1.degree >= 1 and K2.degree >= 1:
        rep["algebraic_bracket_related"] = f_related(
            f, algebraic_bracket(K1, K2), algebraic_bracket(K1p, K2p))
        rep["insertion_related"] = f_related(
            f, insertion_compose(K1, K2), insertion_compose(K1p, K2p))
    rep["all"] = all(v for v in rep.values())
    return rep
