"""Skew multilinear calculus: wedge, insertion, graded bracket, Poisson.

A multimap of arity k is a k-linear map on the algebra with values in the
algebra or in scalars, stored as the QMat of its values on all basis
tuples (flat index big-endian).  Skewness is validated on construction by
adjacent-argument swaps.

Wedge and insertion each take their values from one ``linalg`` product
(the Kronecker term phi^T (x) psi^T applied to mu^2 transposed, or to the
identity when a side is scalar; phi's first slot contracted with the
inserted map) and then sum signed column permutations, one per shuffle.
The same signed sum (:func:`_signed_sum`) gives the alternation, the
skewness test and the commutator bivector.  Because the inputs are skew
the shuffle sums equal the full permutation sums with their 1/k!l! and
1/(k+1)!(p-1)! normalizations, and that equality is itself checked in the
test suite.  ``Fraction`` values appear only when values are read
(``value``) and in JSON.  The graded bracket of algebra-valued
multimaps is i_K L - (-1)^{kl} i_L K with k, l the arities shifted down by
one; the polyderivations (first-slot Leibniz maps) are closed under it, and
a skew biderivation with vanishing self-bracket is a Poisson structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import Algebra, MathError, leibniz_terms
from .linalg import (QMat, QVector, checked_column, flat_index, kron_apply, kron_rows,
                     nullspace, qmat_from_json, qmat_sum, qmat_to_json)

MAX_ARITY = 6


class SchoutenError(MathError):
    pass


class MultiMap(QVector):
    """Skew k-linear map A^k -> A (or -> scalars), by values on basis tuples."""

    _field, _error = "data", SchoutenError

    def __init__(self, algebra: Algebra, arity: int, data: QMat,
                 scalar: bool = False, check: bool = True):
        if arity < 0:
            raise SchoutenError("multimap arity must be >= 0")
        if arity > MAX_ARITY:
            raise SchoutenError(f"multimap arity exceeds cap {MAX_ARITY}")
        self.algebra = algebra
        self.arity = arity
        self.scalar = scalar
        self.target_dim = 1 if scalar else algebra.dim
        if data.shape != (self.target_dim, algebra.dim ** arity):
            raise SchoutenError(
                f"multimap data must be {self.target_dim} x "
                f"{algebra.dim ** arity}, got {data.shape}")
        self.data = data
        if check and not is_skew(self):
            raise SchoutenError("multimap values are not skew-symmetric")

    @classmethod
    def zeros(cls, algebra: Algebra, arity: int,
              scalar: bool = False) -> "MultiMap":
        dim = 1 if scalar else algebra.dim
        return cls(algebra, arity, QMat.zeros(dim, algebra.dim ** arity),
                   scalar=scalar, check=False)

    def value(self, I: Sequence[int]) -> list[Fraction]:
        if len(I) != self.arity:
            raise SchoutenError("tuple length does not match arity")
        return self.data.column_fractions(flat_index(I, self.algebra.dim))

    def evaluate(self, *args: Sequence[Fraction]) -> list[Fraction]:
        """The value on coefficient vectors: the numerator times their
        Kronecker product."""
        if len(args) != self.arity:
            raise SchoutenError("argument count does not match arity")
        cols = (checked_column(w, self.algebra.dim, SchoutenError) for w in args)
        vec = functools.reduce(QMat.kron, cols, QMat.eye(1))
        return MultiMap(self.algebra, 0, self.data @ vec, scalar=self.scalar,
                        check=False).value(())

    def value_with_first(self, w: Sequence[Fraction],
                         rest: Sequence[int]) -> list[Fraction]:
        """Value on (w, e_rest) with w a coefficient vector."""
        return MultiMap(self.algebra, self.arity - 1, derivation_matrix_of(self, w),
                        scalar=self.scalar, check=False).value(rest)

    def _space(self) -> tuple:
        return (self.algebra, self.arity, self.scalar)

    def _with(self, data: QMat) -> "MultiMap":
        return MultiMap(self.algebra, self.arity, data, scalar=self.scalar,
                        check=False)

    def to_json(self) -> dict:
        return {"arity": self.arity, "scalar": self.scalar,
                "coords": qmat_to_json(self.data)}

    def __repr__(self) -> str:
        kind = "scalar" if self.scalar else "algebra"
        return (f"MultiMap(arity={self.arity}, {kind}-valued over "
                f"{self.algebra.name})")


def multimap_from_json(algebra: Algebra, obj: dict) -> MultiMap:
    data = qmat_from_json(obj["coords"])
    return MultiMap(algebra, int(obj["arity"]), data,
                    scalar=bool(obj.get("scalar", False)))


def _first_slot(mm: MultiMap, w: QMat) -> QMat:
    """mm(w_j, e_rest) at column (j, rest), for the columns w_j of an m-row
    block w: the data times w (x) I."""
    return kron_apply([(w.T, mm.algebra.dim ** (mm.arity - 1))], mm.data.T).T


def _permuted_columns(m: int, k: int, perm: Sequence[int]) -> np.ndarray:
    """idx with idx[flat I] = flat (I[perm[0]], .., I[perm[k-1]]), so
    num[:, idx] holds the values on the permuted tuples."""
    return np.arange(m ** k).reshape((m,) * k).transpose(np.argsort(perm)).ravel()


def _adjacent_swaps(k: int) -> list[tuple[int, ...]]:
    return [(*range(t), t + 1, t, *range(t + 2, k)) for t in range(k - 1)]


def _signed_sum(T: QMat, m: int, n: int, perms: Iterable[Sequence[int]]) -> QMat:
    """sum_p sign(p) T_p over perms, where column I of T_p is T's column at
    the tuple (I[p[0]], .., I[p[n-1]]) of n digits below m."""
    # QMat moves the sign of a negative denominator onto the numerators
    return qmat_sum(QMat(T.num[:, _permuted_columns(m, n, p)], _perm_sign(p) * T.den)
                    for p in perms)


def _shuffles(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """S + rest for each k-subset S of range(n); its sign is (-1)^(sum S - k(k-1)/2)."""
    return (S + tuple(t for t in range(n) if t not in S)
            for S in itertools.combinations(range(n), k))


def is_skew(mm: MultiMap) -> bool:
    """Adjacent swaps negate the value on every basis tuple."""
    return all(_signed_sum(mm.data, mm.algebra.dim, mm.arity, [swap]) == mm.data
               for swap in _adjacent_swaps(mm.arity))


def alternation(mm: MultiMap) -> MultiMap:
    """Skew-symmetrization (1/k!) sum of signed argument permutations."""
    k = mm.arity
    total = _signed_sum(mm.data, mm.algebra.dim, k, itertools.permutations(range(k)))
    return MultiMap(mm.algebra, k, total.scale(Fraction(1, math.factorial(k))).canonical(),
                    scalar=mm.scalar)


def _perm_sign(perm: Sequence[int]) -> int:
    return -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 else 1


# ---------------------------------------------------------------------------
# Wedge and insertion
# ---------------------------------------------------------------------------


def wedge(phi: MultiMap, psi: MultiMap) -> MultiMap:
    """Shuffle wedge; values multiply (scalars scale, algebra values use
    the product in the given order)."""
    if phi.algebra is not psi.algebra:
        raise SchoutenError("wedge needs multimaps over one algebra")
    A = phi.algebra
    n = phi.arity + psi.arity
    if n > MAX_ARITY:
        raise SchoutenError(f"wedge arity {n} exceeds cap {MAX_ARITY}")
    # column (a, b) of phi (x) psi is phi(e_a) (x) psi(e_b): a scalar side
    # scales the other; two algebra values are multiplied out by mu^2
    mult = QMat.eye(phi.target_dim * psi.target_dim) if phi.scalar or psi.scalar else A.mu2
    T = kron_apply([(phi.data.T, psi.data.T)], mult.T).T
    data = _signed_sum(T, A.dim, n, _shuffles(n, phi.arity))
    return MultiMap(A, n, data.canonical(), scalar=phi.scalar and psi.scalar,
                    check=False)


def insertion(K: MultiMap, phi: MultiMap) -> MultiMap:
    """Insert an algebra-valued multimap into the first slot, shuffled over
    the remaining slots.  Inserting into an arity-0 map gives zero."""
    if K.scalar:
        raise SchoutenError("can only insert algebra-valued multimaps")
    if K.algebra is not phi.algebra:
        raise SchoutenError("insertion needs multimaps over one algebra")
    A = K.algebra
    kappa, p = K.arity, phi.arity
    if p == 0:
        if kappa == 0:
            raise SchoutenError("insertion of a constant into a constant")
        return MultiMap.zeros(A, kappa - 1, scalar=phi.scalar)
    n = kappa - 1 + p
    if n > MAX_ARITY:
        raise SchoutenError(f"insertion arity {n} exceeds cap {MAX_ARITY}")
    # column (S, rest) is phi(K(e_S), e_rest)
    data = _signed_sum(_first_slot(phi, K.data), A.dim, n, _shuffles(n, kappa))
    return MultiMap(A, n, data.canonical(), scalar=phi.scalar, check=False)


def nr_bracket(K: MultiMap, L: MultiMap) -> MultiMap:
    """i_K L - (-1)^{kl} i_L K, with k, l the arities shifted down by one."""
    if K.scalar or L.scalar:
        raise SchoutenError("the bracket needs algebra-valued multimaps")
    if K.arity + L.arity < 1:
        raise SchoutenError("the bracket needs at least one arity >= 1")
    sign = -1 if ((K.arity - 1) * (L.arity - 1)) % 2 else 1
    return insertion(K, L) - insertion(L, K).scale(sign)


# ---------------------------------------------------------------------------
# Polyderivations and Poisson structures
# ---------------------------------------------------------------------------


def _slot_leibniz_terms(algebra: Algebra, before: int, after: int) -> list[tuple]:
    """The derivation terms on vec of a multimap at the slot with ``before``
    slots ahead of it and ``after`` behind (unknown flat tuple * m + component)."""
    m = algebra.dim
    return [(m ** before, *t[:-1], m ** after, t[-1])
            for t in leibniz_terms(algebra.regular_bimodule())]


def _is_slot_derivation(K: MultiMap, before: int) -> bool:
    """K is a derivation in its argument with ``before`` slots ahead."""
    terms = _slot_leibniz_terms(K.algebra, before, K.arity - 1 - before)
    return kron_apply(terms, K.data.vec()).is_zero()


def first_slot_leibniz(K: MultiMap) -> bool:
    """a |-> K(a, rest) is a derivation for every basis rest-tuple."""
    if K.scalar or K.arity < 1:
        raise SchoutenError("Leibniz test needs an algebra-valued arity >= 1")
    return _is_slot_derivation(K, 0)


def is_polyderivation(K: MultiMap) -> bool:
    return is_skew(K) and first_slot_leibniz(K)


def schouten_closure_check(K1: MultiMap, K2: MultiMap) -> bool:
    """The bracket of two polyderivations is again one."""
    if not (is_polyderivation(K1) and is_polyderivation(K2)):
        raise SchoutenError("closure check needs polyderivation inputs")
    return is_polyderivation(nr_bracket(K1, K2))


def polyderivation_space(algebra: Algebra, arity: int) -> list[MultiMap]:
    """Basis of the skew multimaps of the given arity whose first slot is a
    derivation (hence, by skewness, every slot)."""
    if arity < 1:
        raise SchoutenError("polyderivations have arity >= 1")
    m = algebra.dim
    N = m ** arity  # unknown index: flat tuple * m + component
    # adjacent swaps negate: (I + P_t) (x) I_m, stacked over t; of the two
    # equal rows f and P_t f only the first is kept.  These sparse rows go
    # first: they halve the unknowns before the Leibniz rows arrive.
    swaps = QMat.from_coo((N * (arity - 1), N), (
        (t * N + f, g, 1) for t, swap in enumerate(_adjacent_swaps(arity))
        for f, idx in enumerate(_permuted_columns(m, arity, swap)) if f <= idx
        for g in (f, int(idx))))
    _, skew = kron_rows([(swaps, m)])
    # first-slot Leibniz: the derivation terms on K(., rest), rest in the middle
    _, leibniz = kron_rows(_slot_leibniz_terms(algebra, 0, arity - 1))
    return [MultiMap(algebra, arity, data)
            for data in nullspace(N * m, itertools.chain(skew, leibniz)).unvec_basis(m, N)]


def commutator_bivector(algebra: Algebra) -> MultiMap:
    """mu(a, b) = ab - ba."""
    mu = _signed_sum(algebra.mu2, algebra.dim, 2, itertools.permutations(range(2)))
    return MultiMap(algebra, 2, mu.canonical())


def poisson_check(mu: MultiMap) -> dict:
    """Three independent verdicts on a bilinear candidate."""
    if mu.scalar or mu.arity != 2:
        raise SchoutenError("a Poisson candidate is algebra-valued arity 2")
    skew = is_skew(mu)
    first = first_slot_leibniz(mu)
    second = _is_slot_derivation(mu, 1)
    jacobi = nr_bracket(mu, mu).is_zero()
    return {"skew": skew, "biderivation": first and second,
            "jacobi": jacobi, "poisson": skew and first and second and jacobi}


def derivation_matrix_of(mu: MultiMap, a: Sequence[Fraction]) -> QMat:
    """The values of mu(a, .) on basis tuples: for a bivector, the linear map
    b |-> mu(a, b) as a matrix."""
    if mu.arity < 1:
        raise SchoutenError("an arity-0 multimap has no first slot")
    return _first_slot(mu, checked_column(a, mu.algebra.dim, SchoutenError))


def poisson_bracket_hom_check(mu: MultiMap) -> dict:
    """a |-> mu(a, .) lands in derivations and turns mu into commutators."""
    m = mu.algebra.dim
    # mats[i] = mu(e_i, .), a derivation iff the second slot is one; the
    # image of mu(e_i, e_j) is the same slot contracted with column i*m + j
    eye = QMat.eye(m)
    mats = [_first_slot(mu, eye.col(i)) for i in range(m)]
    derivation_valued = _is_slot_derivation(mu, 1)
    lie_hom = all(_first_slot(mu, mu.data.col(i * m + j))
                  == mats[i] @ mats[j] - mats[j] @ mats[i]
                  for i in range(m) for j in range(m))
    return {"derivation_valued": derivation_valued,
            "lie_homomorphism": lie_hom,
            "all": derivation_valued and lie_hom}


def poisson_scan(algebra: Algebra, bound: int = 1, cap: int = 100000) -> list[MultiMap]:
    """All nonzero integer combinations of the skew-biderivation basis with
    coefficients in [-bound, bound] that have vanishing self-bracket.

    The Leibniz and skew conditions are linear, so the lattice only ranges
    over the solution space of those; the quadratic self-bracket condition
    is then checked exactly.
    """
    basis = polyderivation_space(algebra, 2)
    count = (2 * bound + 1) ** len(basis)
    if count > cap:
        raise SchoutenError(f"lattice of {count} candidates exceeds cap {cap}")
    found = []
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        mu = sum((b.scale(c) for c, b in zip(coeffs, basis) if c),
                 MultiMap.zeros(algebra, 2))
        if any(coeffs) and nr_bracket(mu, mu).is_zero():
            found.append(mu)
    return found
