"""Skew multilinear calculus: wedge, insertion, graded bracket, Poisson.

A multimap of arity k is a k-linear map on the algebra with values in the
algebra or in scalars, stored as the QMat of its values on all basis
tuples (flat index big-endian).  Skewness is validated on construction by
adjacent-argument swaps.

Wedge and insertion are one contraction of the integer numerators each
(a Kronecker product, multiplied out for two algebra values; the first
slot against the inserted map) plus a signed sum of column permutations,
one per shuffle: exact, in int64 below 2**62 and on Python ints above.
Because the inputs are skew this equals the full permutation sums with
their 1/k!l! and 1/(k+1)!(p-1)! normalizations, and that equality is itself
checked in the test suite.  ``Fraction`` values appear only when values
are read (``value``) and in JSON.  The graded bracket of algebra-valued
multimaps is i_K L - (-1)^{kl} i_L K with k, l the arities shifted down by
one; the polyderivations (first-slot Leibniz maps) are closed under it, and
a skew biderivation with vanishing self-bracket is a Poisson structure.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .algebra import Algebra, leibniz_terms
from .linalg import (QMat, QVector, _exact_pair, flat_index, kron_apply,
                     kron_rows, nullspace, qmat_from_json, qmat_sum, qmat_to_json)

MAX_ARITY = 6


class SchoutenError(ValueError):
    pass


def _shuffle_sign(S: Sequence[int]) -> int:
    """Sign of the permutation that moves the sorted positions S up front."""
    total = sum(S) - sum(range(len(S)))
    return -1 if total % 2 else 1


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
        vec = functools.reduce(QMat.kron, map(QMat.column, args), QMat.eye(1))
        return MultiMap(self.algebra, 0, self.data @ vec, scalar=self.scalar,
                        check=False).value(())

    def value_with_first(self, w: Sequence[Fraction],
                         rest: Sequence[int]) -> list[Fraction]:
        """Value on (w, e_rest) with w a coefficient vector."""
        return MultiMap(self.algebra, self.arity - 1, _first_slot(self, QMat.column(w)),
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
    """The values of mm(w, .) on basis tuples, w an m x 1 column: the data
    times w (x) I."""
    return kron_apply([(w.T, mm.algebra.dim ** (mm.arity - 1))], mm.data.T).T


def _permuted_columns(m: int, k: int, perm: Sequence[int]) -> np.ndarray:
    """idx with idx[flat I] = flat (I[perm[0]], .., I[perm[k-1]]), so
    num[:, idx] holds the values on the permuted tuples."""
    return np.arange(m ** k).reshape((m,) * k).transpose(np.argsort(perm)).ravel()


def _adjacent_swaps(k: int) -> list[tuple[int, ...]]:
    return [(*range(t), t + 1, t, *range(t + 2, k)) for t in range(k - 1)]


def is_skew(mm: MultiMap) -> bool:
    """Adjacent swaps negate the value on every basis tuple."""
    num = mm.data.num
    return not any(
        np.count_nonzero(num + num[:, _permuted_columns(mm.algebra.dim, mm.arity, swap)])
        for swap in _adjacent_swaps(mm.arity))


def alternation(mm: MultiMap) -> MultiMap:
    """Skew-symmetrization (1/k!) sum of signed argument permutations."""
    m, k = mm.algebra.dim, mm.arity
    total = qmat_sum([QMat(mm.data.num[:, _permuted_columns(m, k, perm)]).scale(
        _perm_sign(perm)) for perm in itertools.permutations(range(k))])
    data = QMat(total.num, mm.data.den * math.factorial(k)).reduced()
    return MultiMap(mm.algebra, k, data, scalar=mm.scalar)


def _perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Wedge and insertion
# ---------------------------------------------------------------------------


def _shuffle_sum(T: np.ndarray, m: int, n: int, k: int, lead: bool) -> np.ndarray:
    """sum_S sign(S) T[:, idx_S] over the k-subsets S of range(n), where
    column I of T[:, idx_S] is T's column at the tuple (I_S, I_rest) if
    lead, else at (I_rest, I_S)."""
    out = np.zeros_like(T)
    for S in itertools.combinations(range(n), k):
        rest = tuple(t for t in range(n) if t not in S)
        perm = S + rest if lead else rest + S
        out += _shuffle_sign(S) * T[:, _permuted_columns(m, n, perm)]
    return out


def wedge(phi: MultiMap, psi: MultiMap) -> MultiMap:
    """Shuffle wedge; values multiply (scalars scale, algebra values use
    the product in the given order)."""
    if phi.algebra is not psi.algebra:
        raise SchoutenError("wedge needs multimaps over one algebra")
    A = phi.algebra
    m = A.dim
    k, l = phi.arity, psi.arity
    if k + l > MAX_ARITY:
        raise SchoutenError(f"wedge arity {k + l} exceeds cap {MAX_ARITY}")
    # kron(phi, psi) has column (a, b) = phi(e_a) (x) psi(e_b): a scalar
    # side scales the other; two algebra values are multiplied out
    multiply = not (phi.scalar or psi.scalar)
    mult = A.mu2 if multiply else QMat.eye(1)
    count = math.comb(k + l, k) * mult.shape[1] * mult.max_abs
    x, y = _exact_pair(phi.data, psi.data,
                       lambda x, y: count * x.max_abs * y.max_abs)
    T = np.kron(x.num, y.num)
    if multiply:
        T = np.dot(mult.num.astype(T.dtype), T)
    data = QMat(_shuffle_sum(T, m, k + l, k, lead=True), x.den * y.den * mult.den)
    return MultiMap(A, k + l, data.canonical(), scalar=phi.scalar and psi.scalar,
                    check=False)


def insertion(K: MultiMap, phi: MultiMap) -> MultiMap:
    """Insert an algebra-valued multimap into the first slot, shuffled over
    the remaining slots.  Inserting into an arity-0 map gives zero."""
    if K.scalar:
        raise SchoutenError("can only insert algebra-valued multimaps")
    if K.algebra is not phi.algebra:
        raise SchoutenError("insertion needs multimaps over one algebra")
    A = K.algebra
    m = A.dim
    kappa, p = K.arity, phi.arity
    if p == 0:
        if kappa == 0:
            raise SchoutenError("insertion of a constant into a constant")
        return MultiMap.zeros(A, kappa - 1, scalar=phi.scalar)
    n = kappa - 1 + p
    if n > MAX_ARITY:
        raise SchoutenError(f"insertion arity {n} exceeds cap {MAX_ARITY}")
    count = math.comb(n, kappa) * m
    x, y = _exact_pair(phi.data, K.data,
                       lambda x, y: count * x.max_abs * y.max_abs)
    # T has column (rest, S) = phi(K(e_S), e_rest)
    T = np.tensordot(x.num.reshape(phi.target_dim, m, -1), y.num, axes=(1, 0))
    data = QMat(_shuffle_sum(T.reshape(phi.target_dim, -1), m, n, kappa, lead=False),
                x.den * y.den)
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
    mult = algebra.mu2
    swapped = QMat(mult.num[:, _permuted_columns(algebra.dim, 2, (1, 0))], mult.den)
    return MultiMap(algebra, 2, (mult - swapped).canonical())


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
    """The linear map b |-> mu(a, b) as a matrix."""
    return _first_slot(mu, QMat.column(a))


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


def poisson_scan(algebra: Algebra, bound: int = 1,
                 cap: int = 100000) -> list[MultiMap]:
    """All nonzero integer combinations of the skew-biderivation basis with
    coefficients in [-bound, bound] that have vanishing self-bracket.

    The Leibniz and skew conditions are linear, so the lattice only ranges
    over the solution space of those; the quadratic self-bracket condition
    is then checked exactly.
    """
    basis = polyderivation_space(algebra, 2)
    count = (2 * bound + 1) ** len(basis)
    if count > cap:
        raise SchoutenError(
            f"lattice of {count} candidates exceeds cap {cap}")
    found = []
    for coeffs in itertools.product(range(-bound, bound + 1),
                                    repeat=len(basis)):
        if not any(coeffs):
            continue
        mu = MultiMap.zeros(algebra, 2)
        for c, b in zip(coeffs, basis):
            if c:
                mu = mu + b.scale(c)
        if nr_bracket(mu, mu).is_zero():
            found.append(mu)
    return found
