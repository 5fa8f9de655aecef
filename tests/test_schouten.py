"""Skew multimaps: wedge, insertion, graded bracket, polyderivations, Poisson."""

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncforms.algebra import (derivation_matrix, derivation_space, inner_derivation,
                             is_derivation, matrix_algebra)
from ncforms.fieldforms import field_from_derivation, lie_bracket_fields
from ncforms.linalg import QMat
from ncforms.schouten import (
    MAX_ARITY, MultiMap, SchoutenError, alternation, commutator_bivector,
    derivation_matrix_of, first_slot_leibniz, insertion, is_polyderivation,
    is_skew, multimap_from_json, nr_bracket, poisson_bracket_hom_check,
    poisson_check, poisson_scan, polyderivation_space, schouten_closure_check,
    wedge,
)
from oracles import (loop_alternation, loop_derivation_defect, loop_evaluate,
                     loop_first_slot_leibniz, loop_insertion, loop_value_with_first,
                     loop_wedge, numpy_insertion, numpy_wedge, sympy_polyderivation_dim)
from test_algebra import DER_DIMS, catalog
from test_forms import _algebras

F = Fraction

# Skew first-slot-Leibniz maps A^arity -> A, frozen by hand:
#  * arity 1 is the derivation space (see DER_DIMS).
#  * arity 2: writing mu(a, .) = D_a, skewness forces mu(a, a) = 0, i.e.
#    D_a(a) = 0 for all a.  Over k, k[eps], k[t]/t^3 and the commutative
#    products the derivation spaces are too small to admit a nonzero such
#    family (kxk, kC2 have Der = 0; for dual/truncpoly3 every derivation
#    fixes no complement of the radical and D_a(a) = 0 for all a forces
#    the family to vanish).  For M_2 and the upper-triangular algebra all
#    derivations are inner, D_a = ad_{g(a)}, and D_a(a) = 0 says g(a)
#    commutes with a for every a; polarizing leaves exactly the line
#    spanned by mu(a, b) = ab - ba.
#  * arity 3 vanishes for every catalog algebra (confirmed by an
#    independent symbolic rank computation below).
POLYDER_DIMS = {
    1: dict(DER_DIMS),
    2: {"k": 0, "dual": 0, "truncpoly3": 0, "kxk": 0, "m2": 1, "kc2": 0,
        "upper2": 1},
    3: {"k": 0, "dual": 0, "truncpoly3": 0, "kxk": 0, "m2": 0, "kc2": 0,
        "upper2": 0},
}


@pytest.fixture(scope="module")
def algebras():
    return catalog()


def raw_multimap(rng, algebra, arity, scalar=False):
    dim = 1 if scalar else algebra.dim
    return MultiMap(algebra, arity, QMat.from_rows(
        [[F(rng.randint(-2, 2)) for _ in range(algebra.dim ** arity)]
         for _ in range(dim)]), scalar=scalar, check=False)


def random_multimap(rng, algebra, arity, scalar=False):
    return alternation(raw_multimap(rng, algebra, arity, scalar))


def basis_vec(m, i):
    return [F(r == i) for r in range(m)]


def element(algebra, coords):
    """Arity-0 algebra-valued multimap holding a fixed element."""
    return MultiMap(algebra, 0, QMat.from_rows([[F(c)] for c in coords]))


# ---------------------------------------------------------------------------
# Storage, validation, evaluation
# ---------------------------------------------------------------------------


def test_constructor_validates_shape_and_skewness(algebras):
    A = algebras["dual"]
    with pytest.raises(SchoutenError):
        MultiMap(A, 2, QMat.zeros(2, 3))
    with pytest.raises(SchoutenError):
        MultiMap(A, 1, QMat.zeros(1, 2))  # algebra-valued must have 2 rows
    sym = QMat.from_rows([[0, 1, 1, 0], [0, 0, 0, 0]])
    with pytest.raises(SchoutenError):
        MultiMap(A, 2, sym)
    MultiMap(A, 2, sym, check=False)  # explicit opt-out accepted
    with pytest.raises(SchoutenError):
        MultiMap(A, MAX_ARITY + 1, QMat.zeros(2, 2 ** (MAX_ARITY + 1)))
    with pytest.raises(SchoutenError):
        MultiMap(A, -1, QMat.zeros(2, 1))


def test_alternation_is_canonical_projection(algebras):
    rng = random.Random(1)
    A = algebras["upper2"]
    for arity in (1, 2, 3):
        raw = raw_multimap(rng, A, arity)
        alt = alternation(raw)
        assert is_skew(alt)
        assert alternation(alt) == alt
    skew = random_multimap(rng, A, 2, scalar=True)
    assert alternation(skew) == skew


def test_value_matches_evaluate_on_basis(algebras):
    rng = random.Random(2)
    A = algebras["m2"]
    mm = random_multimap(rng, A, 2)
    m = A.dim
    for i in range(m):
        for j in range(m):
            assert mm.evaluate(basis_vec(m, i), basis_vec(m, j)) \
                == mm.value((i, j))


def test_evaluate_is_multilinear(algebras):
    rng = random.Random(3)
    A = algebras["upper2"]
    mm = random_multimap(rng, A, 2)
    m = A.dim
    u = [F(rng.randint(-3, 3)) for _ in range(m)]
    v = [F(rng.randint(-3, 3)) for _ in range(m)]
    w = [F(rng.randint(-3, 3)) for _ in range(m)]
    c = F(5, 3)
    lhs = mm.evaluate([c * a + b for a, b in zip(u, v)], w)
    rhs = [c * a + b for a, b in zip(mm.evaluate(u, w), mm.evaluate(v, w))]
    assert lhs == rhs
    assert mm.evaluate(u, v) == [-x for x in mm.evaluate(v, u)]


# Bad arguments raise SchoutenError, not the TypeError, LinAlgError or numpy
# ValueError of the contraction they would reach.


def test_first_slot_of_an_arity_zero_map_is_a_schouten_error(algebras):
    const = element(algebras["m2"], [1, 2, 0, 3])
    with pytest.raises(SchoutenError, match="no first slot"):
        const.value_with_first(basis_vec(4, 0), [])
    with pytest.raises(SchoutenError, match="no first slot"):
        derivation_matrix_of(const, basis_vec(4, 0))


def test_first_slot_rejects_a_vector_of_the_wrong_length(algebras):
    mu = commutator_bivector(algebras["m2"])
    for w in ([F(1)] * 3, [F(1)] * 5):
        with pytest.raises(SchoutenError, match=f"length {len(w)} for an algebra of dimension 4"):
            mu.value_with_first(w, [0])
        with pytest.raises(SchoutenError, match=f"length {len(w)} for an algebra of dimension 4"):
            derivation_matrix_of(mu, w)


def test_evaluate_rejects_a_vector_of_the_wrong_length(algebras):
    mu = commutator_bivector(algebras["m2"])
    assert mu.evaluate(basis_vec(4, 1), basis_vec(4, 2)) == mu.value((1, 2))
    for short in ([F(1)] * 3, []):
        with pytest.raises(SchoutenError, match=f"length {len(short)} for an algebra"):
            mu.evaluate(basis_vec(4, 1), short)


def test_json_round_trip(algebras):
    rng = random.Random(4)
    A = algebras["truncpoly3"]
    for scalar in (False, True):
        mm = random_multimap(rng, A, 2, scalar=scalar).scale(F(1, 3))
        obj = mm.to_json()
        assert obj["arity"] == 2 and obj["scalar"] is scalar
        assert all(isinstance(v, str) for row in obj["coords"] for v in row)
        assert multimap_from_json(A, obj) == mm


# ---------------------------------------------------------------------------
# Wedge
# ---------------------------------------------------------------------------


def test_wedge_arity_one_hand_formula(algebras):
    rng = random.Random(5)
    A = algebras["m2"]
    m = A.dim
    phi = random_multimap(rng, A, 1, scalar=True)
    psi = random_multimap(rng, A, 1, scalar=True)
    prod = wedge(phi, psi)
    for i in range(m):
        for j in range(m):
            want = (phi.value((i,))[0] * psi.value((j,))[0]
                    - phi.value((j,))[0] * psi.value((i,))[0])
            assert prod.value((i, j)) == [want]


def test_wedge_self_vanishes_in_odd_arity(algebras):
    rng = random.Random(6)
    A = algebras["upper2"]
    for arity in (1, 3):
        phi = random_multimap(rng, A, arity, scalar=True)
        assert wedge(phi, phi).is_zero()


def test_wedge_graded_commutative_for_scalars(algebras):
    rng = random.Random(7)
    A = algebras["upper2"]
    for k, l in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        phi = random_multimap(rng, A, k, scalar=True)
        psi = random_multimap(rng, A, l, scalar=True)
        sign = -1 if (k * l) % 2 else 1
        assert wedge(phi, psi) == wedge(psi, phi).scale(sign)


def test_wedge_associative(algebras):
    rng = random.Random(8)
    A = algebras["upper2"]
    cases = [(True, True, True), (True, True, False), (True, False, True),
             (False, False, False)]
    for s1, s2, s3 in cases:
        phi = random_multimap(rng, A, 1, scalar=s1)
        psi = random_multimap(rng, A, 2, scalar=s2)
        theta = random_multimap(rng, A, 1, scalar=s3)
        assert wedge(wedge(phi, psi), theta) == wedge(phi, wedge(psi, theta))


def test_wedge_with_element_is_pointwise_multiplication(algebras):
    rng = random.Random(9)
    A = algebras["m2"]
    m = A.dim
    K = random_multimap(rng, A, 2)
    a = [F(rng.randint(-2, 2)) for _ in range(m)]
    right = wedge(K, element(A, a))
    left = wedge(element(A, a), K)
    for i in range(m):
        for j in range(m):
            assert right.value((i, j)) == A.mult_vec(K.value((i, j)), a)
            assert left.value((i, j)) == A.mult_vec(a, K.value((i, j)))


def test_wedge_arity_cap(algebras):
    A = algebras["dual"]
    phi = MultiMap.zeros(A, 4, scalar=True)
    psi = MultiMap.zeros(A, 3, scalar=True)
    with pytest.raises(SchoutenError):
        wedge(phi, psi)


# ---------------------------------------------------------------------------
# The shuffle sums equal the full permutation sums with their factorials
# ---------------------------------------------------------------------------


def perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def tuples(m, k):
    return itertools.product(range(m), repeat=k)


def wedge_full_sum(phi, psi):
    A = phi.algebra
    m = A.dim
    k, l = phi.arity, psi.arity
    norm = F(1, math.factorial(k) * math.factorial(l))
    out = {}
    for I in tuples(m, k + l):
        dim = 1 if (phi.scalar and psi.scalar) else m
        acc = [F(0)] * dim
        for perm in itertools.permutations(range(k + l)):
            sign = perm_sign(perm)
            a = phi.value(tuple(I[perm[t]] for t in range(k)))
            b = psi.value(tuple(I[perm[k + t]] for t in range(l)))
            if phi.scalar and psi.scalar:
                term = [a[0] * b[0]]
            elif phi.scalar:
                term = [a[0] * v for v in b]
            elif psi.scalar:
                term = [v * b[0] for v in a]
            else:
                term = A.mult_vec(a, b)
            for r in range(dim):
                acc[r] += sign * term[r]
        out[I] = [v * norm for v in acc]
    return out


def insertion_full_sum(K, phi):
    m = K.algebra.dim
    kap, p = K.arity, phi.arity
    n = kap - 1 + p
    norm = F(1, math.factorial(kap) * math.factorial(p - 1))
    out = {}
    for I in tuples(m, n):
        acc = [F(0)] * phi.target_dim
        for perm in itertools.permutations(range(n)):
            sign = perm_sign(perm)
            w = K.value(tuple(I[perm[t]] for t in range(kap)))
            rest = tuple(I[perm[kap + t]] for t in range(p - 1))
            term = phi.value_with_first(w, rest)
            for r in range(phi.target_dim):
                acc[r] += sign * term[r]
        out[I] = [v * norm for v in acc]
    return out


def test_wedge_shuffle_equals_normalized_full_sum(algebras):
    rng = random.Random(10)
    A = algebras["upper2"]
    for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        for s1, s2 in [(True, True), (True, False), (False, False)]:
            phi = random_multimap(rng, A, k, scalar=s1)
            psi = random_multimap(rng, A, l, scalar=s2)
            prod = wedge(phi, psi)
            full = wedge_full_sum(phi, psi)
            assert all(prod.value(I) == full[I] for I in tuples(A.dim, k + l))


def test_insertion_shuffle_equals_normalized_full_sum(algebras):
    rng = random.Random(11)
    A = algebras["upper2"]
    for kap, p in [(1, 1), (1, 2), (2, 1), (2, 2), (0, 2)]:
        K = random_multimap(rng, A, kap)
        phi = random_multimap(rng, A, p, scalar=bool(rng.randint(0, 1)))
        ins = insertion(K, phi)
        full = insertion_full_sum(K, phi)
        n = kap - 1 + p
        assert all(ins.value(I) == full[I] for I in tuples(A.dim, n))


# ---------------------------------------------------------------------------
# Insertion
# ---------------------------------------------------------------------------


def test_insertion_of_linear_map_is_composition(algebras):
    rng = random.Random(12)
    A = algebras["m2"]
    m = A.dim
    K = random_multimap(rng, A, 1)
    phi = random_multimap(rng, A, 1)
    composed = insertion(K, phi)
    for i in range(m):
        assert composed.value((i,)) == phi.value_with_first(K.value((i,)), ())


def test_insertion_of_element_plugs_first_slot(algebras):
    rng = random.Random(13)
    A = algebras["upper2"]
    m = A.dim
    a = [F(rng.randint(-2, 2)) for _ in range(m)]
    phi = random_multimap(rng, A, 3, scalar=True)
    plugged = insertion(element(A, a), phi)
    assert plugged.arity == 2
    for I in tuples(m, 2):
        assert plugged.value(I) == phi.value_with_first(a, I)


def test_insertion_into_constant_is_zero(algebras):
    A = algebras["dual"]
    K = MultiMap(A, 2, QMat.from_rows(
        [[0, 0, 0, 0], [0, 1, -1, 0]]))
    const = element(A, [1, 2])
    out = insertion(K, const)
    assert out.arity == 1 and out.is_zero() and not out.scalar
    with pytest.raises(SchoutenError):
        insertion(element(A, [1, 0]), const)


def test_insertion_arity_bookkeeping_and_caps(algebras):
    rng = random.Random(14)
    A = algebras["dual"]
    for kap, p in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        K = random_multimap(rng, A, kap)
        phi = random_multimap(rng, A, p, scalar=True)
        assert insertion(K, phi).arity == kap - 1 + p
    with pytest.raises(SchoutenError):
        insertion(MultiMap.zeros(A, 4), MultiMap.zeros(A, 4, scalar=True))
    with pytest.raises(SchoutenError):
        insertion(MultiMap.zeros(A, 1, scalar=True), MultiMap.zeros(A, 2))


def test_insertion_is_graded_derivation_of_wedge(algebras):
    rng = random.Random(15)
    A = algebras["upper2"]
    for _ in range(6):
        kap = rng.choice([1, 2])
        p = rng.choice([1, 2])
        q = rng.choice([1, 2])
        K = random_multimap(rng, A, kap)
        phi = random_multimap(rng, A, p, scalar=True)
        psi = random_multimap(rng, A, q,
                              scalar=bool(rng.randint(0, 1)))
        lhs = insertion(K, wedge(phi, psi))
        sign = -1 if ((kap - 1) * p) % 2 else 1
        rhs = wedge(insertion(K, phi), psi) \
            + wedge(phi, insertion(K, psi)).scale(sign)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# The graded bracket
# ---------------------------------------------------------------------------


def test_bracket_operator_identity_on_scalar_forms(algebras):
    rng = random.Random(16)
    A = algebras["upper2"]
    for _ in range(5):
        kap, lam = rng.choice([1, 2]), rng.choice([1, 2])
        K = random_multimap(rng, A, kap)
        L = random_multimap(rng, A, lam)
        p = rng.choice([2, 3])
        phi = random_multimap(rng, A, p, scalar=True)
        k, l = kap - 1, lam - 1
        sign = -1 if (k * l) % 2 else 1
        lhs = insertion(K, insertion(L, phi)) \
            - insertion(L, insertion(K, phi)).scale(sign)
        assert lhs == insertion(nr_bracket(K, L), phi)


def test_bracket_graded_antisymmetry_and_even_squares(algebras):
    rng = random.Random(17)
    A = algebras["upper2"]
    for kap, lam in [(1, 1), (1, 2), (2, 2), (2, 3)]:
        K = random_multimap(rng, A, kap)
        L = random_multimap(rng, A, lam)
        sign = -1 if ((kap - 1) * (lam - 1)) % 2 else 1
        assert nr_bracket(K, L) == nr_bracket(L, K).scale(-sign)
    for kap in (1, 3):  # even operator degree kap - 1
        K = random_multimap(rng, A, kap)
        assert nr_bracket(K, K).is_zero()


def test_bracket_graded_jacobi(algebras):
    rng = random.Random(18)
    A = algebras["truncpoly3"]
    for _ in range(4):
        arities = [rng.choice([1, 2]) for _ in range(3)]
        K = [random_multimap(rng, A, a) for a in arities]
        g = [a - 1 for a in arities]

        def signed(i, j, X):
            return X.scale(-1 if (g[i] * g[j]) % 2 else 1)

        total = signed(0, 2, nr_bracket(nr_bracket(K[0], K[1]), K[2])) \
            + signed(1, 0, nr_bracket(nr_bracket(K[1], K[2]), K[0])) \
            + signed(2, 1, nr_bracket(nr_bracket(K[2], K[0]), K[1]))
        assert total.is_zero()


def test_bracket_of_linear_maps_is_reversed_composition_commutator(algebras):
    rng = random.Random(19)
    A = algebras["m2"]
    m = A.dim
    K = random_multimap(rng, A, 1)
    L = random_multimap(rng, A, 1)
    br = nr_bracket(K, L)
    for i in range(m):
        lk = L.value_with_first(K.value((i,)), ())
        kl = K.value_with_first(L.value((i,)), ())
        assert br.value((i,)) == [a - b for a, b in zip(lk, kl)]


def test_bracket_restricted_to_derivations_matches_field_bracket(algebras):
    """On arity-1 maps the bracket is the field bracket with the arguments
    swapped: insertion composes in application order."""
    rng = random.Random(20)
    for name in ("m2", "upper2", "truncpoly3"):
        A = algebras[name]
        der = derivation_space(A.regular_bimodule())
        if not der.dim:
            continue
        def pick():
            mat = QMat.zeros(A.dim, A.dim)
            for vec in der.basis:
                c = rng.randint(-2, 2)
                if c:
                    mat = mat + QMat.from_rows(
                        [[vec[j * A.dim + r] for j in range(A.dim)]
                         for r in range(A.dim)]).scale(c)
            return mat
        d1, d2 = pick(), pick()
        K = MultiMap(A, 1, d1)
        L = MultiMap(A, 1, d2)
        X = field_from_derivation(A, d1)
        Y = field_from_derivation(A, d2)
        assert nr_bracket(K, L).data == lie_bracket_fields(Y, X).delta


def test_self_bracket_of_bivector_doubles_insertion_and_jacobiator(algebras):
    rng = random.Random(21)
    A = algebras["upper2"]
    m = A.dim
    mu = random_multimap(rng, A, 2)
    br = nr_bracket(mu, mu)
    assert br == insertion(mu, mu).scale(2)

    def mu_of(x, y):
        acc = [F(0)] * m
        for j, yj in enumerate(y):
            if yj:
                col = mu.value_with_first(x, (j,))
                for r in range(m):
                    acc[r] += yj * col[r]
        return acc

    for I in tuples(m, 3):
        ea, eb, ec = (basis_vec(m, i) for i in I)
        jac = [2 * (x + y + z) for x, y, z in zip(
            mu_of(mu_of(ea, eb), ec), mu_of(mu_of(eb, ec), ea),
            mu_of(mu_of(ec, ea), eb))]
        assert br.value(I) == jac


# ---------------------------------------------------------------------------
# Polyderivations
# ---------------------------------------------------------------------------


def test_arity_one_polyderivation_is_derivation(algebras):
    rng = random.Random(22)
    A = algebras["m2"]
    M = A.regular_bimodule()
    der = derivation_space(M)
    for vec in der.basis:
        mat = QMat.from_rows([[vec[j * A.dim + r] for j in range(A.dim)]
                              for r in range(A.dim)])
        assert is_polyderivation(MultiMap(A, 1, mat))
    not_der = MultiMap(A, 1, QMat.from_rows(
        [[1 if i == j == 0 else 0 for j in range(4)] for i in range(4)]))
    assert not is_polyderivation(not_der)
    assert not is_derivation(M, not_der.data)


def test_polyderivation_space_dims_match_frozen_table(algebras):
    for name, A in algebras.items():
        for arity in (1, 2, 3):
            sp = polyderivation_space(A, arity)
            assert len(sp) == POLYDER_DIMS[arity][name], (name, arity)
            for K in sp:
                assert is_polyderivation(K)


def test_polyderivation_dims_match_symbolic_rank_oracle(algebras):
    for name, A in algebras.items():
        for arity in (1, 2, 3):
            assert sympy_polyderivation_dim(A, arity) \
                == POLYDER_DIMS[arity][name], (name, arity)


def test_commutator_bivector_is_polyderivation(algebras):
    for name, A in algebras.items():
        mu = commutator_bivector(A)
        assert is_polyderivation(mu), name
        if name in ("m2", "upper2"):
            assert not mu.is_zero()
            sp = polyderivation_space(A, 2)
            assert len(sp) == 1
            # the commutator spans the whole arity-2 space here
            basis = sp[0]
            ratio = None
            for flat in range(A.dim ** 2):
                col_mu = mu.data.column_fractions(flat)
                col_b = basis.data.column_fractions(flat)
                for x, y in zip(col_mu, col_b):
                    if y:
                        r = x / y
                        assert ratio is None or r == ratio
                        ratio = r
                    else:
                        assert not x
            assert ratio not in (None, 0)


def test_bracket_of_polyderivations_is_polyderivation(algebras):
    rng = random.Random(23)
    for name in ("dual", "m2", "upper2"):
        A = algebras[name]
        pool = polyderivation_space(A, 1) + polyderivation_space(A, 2)
        if len(pool) < 2:
            pool = pool * 2
        for _ in range(4):
            K1, K2 = rng.choice(pool), rng.choice(pool)
            K1 = K1.scale(rng.randint(1, 2))
            assert schouten_closure_check(K1, K2)
    with pytest.raises(SchoutenError):
        A = algebras["m2"]
        bad = MultiMap(A, 1, QMat.from_rows(
            [[1 if i == j == 0 else 0 for j in range(4)] for i in range(4)]))
        schouten_closure_check(bad, bad)


def test_closure_proof_identities(algebras):
    """i(K^a)L = i_K L^a + K^i_a L and the mirrored identity with the
    extra sign; L ranges over polyderivations, K over random skew maps."""
    rng = random.Random(24)
    for name in ("m2", "upper2"):
        A = algebras[name]
        m = A.dim
        polys = polyderivation_space(A, 1) + polyderivation_space(A, 2)
        for _ in range(3):
            kap = rng.choice([1, 2])
            K = random_multimap(rng, A, kap)
            L = rng.choice(polys)
            a = element(A, [F(rng.randint(-2, 2)) for _ in range(m)])
            k = kap - 1
            ell = L.arity - 1
            lhs2 = insertion(wedge(K, a), L)
            rhs2 = wedge(insertion(K, L), a) + wedge(K, insertion(a, L))
            assert lhs2 == rhs2
            lhs3 = insertion(wedge(a, K), L)
            sign = -1 if ((k + 1) * ell) % 2 else 1
            rhs3 = wedge(a, insertion(K, L)) \
                + wedge(insertion(a, L), K).scale(sign)
            assert lhs3 == rhs3


def test_element_insertion_operator_identity(algebras):
    """i_a i_K - (-1)^k i_K i_a = i(i_a K) on scalar test forms."""
    rng = random.Random(25)
    A = algebras["upper2"]
    m = A.dim
    for _ in range(4):
        kap = rng.choice([1, 2])
        K = random_multimap(rng, A, kap)
        a = element(A, [F(rng.randint(-2, 2)) for _ in range(m)])
        p = rng.choice([2, 3])
        phi = random_multimap(rng, A, p, scalar=True)
        k = kap - 1
        lhs = insertion(a, insertion(K, phi)) \
            - insertion(K, insertion(a, phi)).scale(-1 if k % 2 else 1)
        rhs = insertion(insertion(a, K), phi)
        assert lhs == rhs
        # and i_a K is itself the bracket [a, K]
        assert insertion(a, K) == nr_bracket(a, K)


# ---------------------------------------------------------------------------
# Poisson structures
# ---------------------------------------------------------------------------


def test_commutator_is_poisson_on_every_algebra(algebras):
    for name, A in algebras.items():
        verdict = poisson_check(commutator_bivector(A))
        assert verdict == {"skew": True, "biderivation": True,
                           "jacobi": True, "poisson": True}, name


def test_zero_bivector_is_poisson(algebras):
    verdict = poisson_check(MultiMap.zeros(algebras["m2"], 2))
    assert verdict["poisson"]


def test_poisson_check_verdicts_are_independent(algebras):
    A = algebras["dual"]
    # symmetric product-like candidate: fails skew, and the first-slot
    # Leibniz rule, but not for the same reason
    sym = MultiMap(A, 2, QMat.from_rows([[0, 0, 0, 1], [0, 0, 0, 0]]),
                   check=False)
    verdict = poisson_check(sym)
    assert not verdict["skew"]
    assert not verdict["poisson"]
    # skew but not a biderivation
    A2 = algebras["m2"]
    skew = alternation(raw_multimap(random.Random(26), A2, 2))
    v2 = poisson_check(skew)
    assert v2["skew"]
    assert not v2["biderivation"]
    with pytest.raises(SchoutenError):
        poisson_check(MultiMap.zeros(A2, 1))


def test_commutator_leibniz_identities(algebras):
    """mu(ab, c) = a mu(b,c) + mu(a,c) b and mu(a, bc) = b mu(a,c)
    + mu(a,b) c for the commutator, expanded exactly on basis triples."""
    for name in ("m2", "upper2", "kxk"):
        A = algebras[name]
        m = A.dim
        mu = commutator_bivector(A)

        def mu_vec(x, y):
            acc = [F(0)] * m
            for j, yj in enumerate(y):
                if yj:
                    col = mu.value_with_first(x, (j,))
                    for r in range(m):
                        acc[r] += yj * col[r]
            return acc

        for i, j, l in itertools.product(range(m), repeat=3):
            a, b, c = basis_vec(m, i), basis_vec(m, j), basis_vec(m, l)
            ab = A.mult_vec(a, b)
            bc = A.mult_vec(b, c)
            first = [x + y for x, y in zip(
                A.mult_vec(a, mu_vec(b, c)), A.mult_vec(mu_vec(a, c), b))]
            assert mu_vec(ab, c) == first
            second = [x + y for x, y in zip(
                A.mult_vec(b, mu_vec(a, c)), A.mult_vec(mu_vec(a, b), c))]
            assert mu_vec(a, bc) == second


def test_poisson_bracket_hom_check(algebras):
    for name in ("m2", "upper2", "truncpoly3"):
        A = algebras[name]
        report = poisson_bracket_hom_check(commutator_bivector(A))
        assert report == {"derivation_valued": True,
                          "lie_homomorphism": True, "all": True}, name


def test_commutator_hamiltonian_fields_are_inner_derivations(algebras):
    A = algebras["m2"]
    M = A.regular_bimodule()
    mu = commutator_bivector(A)
    for i in range(A.dim):
        mat = derivation_matrix_of(mu, basis_vec(A.dim, i))
        assert mat == inner_derivation(M, basis_vec(A.dim, i))


@pytest.mark.parametrize("name", sorted(catalog()) + ["matrix3", "m2frac", "t3big"])
def test_slot_leibniz_checks_match_derivation_loops(name):
    A = matrix_algebra(3) if name == "matrix3" else _algebras()[name]
    m = A.dim
    rng = random.Random(name)
    M = A.regular_bimodule()
    ders = [derivation_matrix(M, v) for v in derivation_space(M).basis]
    D = ders[0] if ders else QMat.zeros(m, m)
    c = [rng.randint(-2, 2) for _ in range(m)]
    # column (i, j) = c_j D(e_i): a derivation in the first slot only; its
    # transpose c_i D(e_j) in the second slot only
    firsts = QMat.from_coo((m, m * m), [(r, i * m + j, c[j] * int(v))
                                        for (r, i), v in np.ndenumerate(D.num)
                                        for j in range(m)], D.den)
    seconds = QMat.from_coo((m, m * m), [(r, i * m + j, c[i] * int(v))
                                         for (r, j), v in np.ndenumerate(D.num)
                                         for i in range(m)], D.den)
    bump = QMat.from_coo((m, m * m), [(rng.randrange(m), rng.randrange(m * m), 1)], 3)
    mu = commutator_bivector(A)
    bivectors = [mu, MultiMap(A, 2, mu.data + bump, check=False),
                 MultiMap(A, 2, firsts, check=False), MultiMap(A, 2, seconds, check=False),
                 raw_multimap(rng, A, 2)]
    for K in bivectors:
        first = loop_first_slot_leibniz(K)
        second = all(loop_derivation_defect(M, QMat(K.data.num[:, i * m:(i + 1) * m],
                                                    K.data.den)) is None for i in range(m))
        assert first_slot_leibniz(K) == first
        assert poisson_check(K)["biderivation"] == (first and second)
        assert poisson_bracket_hom_check(K)["derivation_valued"] == second
    for K in [MultiMap(A, 1, d) for d in ders] + [raw_multimap(rng, A, 1),
                                                  raw_multimap(rng, A, 3)]:
        assert first_slot_leibniz(K) == loop_first_slot_leibniz(K)


def test_poisson_scan(algebras):
    A = algebras["m2"]
    found1 = poisson_scan(A, bound=1)
    found2 = poisson_scan(A, bound=2)
    assert len(found1) == 2 and len(found2) == 4
    assert all(poisson_check(mu)["poisson"] for mu in found2)
    # byte-determinism of the scan order
    again = poisson_scan(A, bound=2)
    assert [mu.to_json() for mu in again] == [mu.to_json() for mu in found2]
    assert poisson_scan(algebras["truncpoly3"], bound=2) == []
    with pytest.raises(SchoutenError):
        poisson_scan(A, bound=100000)


def test_scan_results_include_commutator_direction(algebras):
    A = algebras["upper2"]
    mu = commutator_bivector(A)
    found = poisson_scan(A, bound=1)
    assert any(f == mu or f == mu.scale(-1) for f in found)


# ---------------------------------------------------------------------------
# The integer contractions against the per-basis-tuple Fraction loops
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parity_algebras():
    algs = {name: A for name, A in catalog().items()
            if name in ("m2", "upper2", "truncpoly3")}
    algs["matrix3"] = matrix_algebra(3)
    return algs


def _scale_factor(rng, big):
    """A random rational over a denominator from 1, 2, 3, 7; with big, its
    numerator is past 2**62."""
    return F(rng.choice([1, -1, 2, 5]) * (2 ** 62 + 1 if big else 1),
             rng.choice([1, 2, 3, 7]))


def _scaled_multimap(rng, algebra, arity, scalar, big, skew=True):
    """A random multimap (skew unless told otherwise) scaled by
    :func:`_scale_factor`; with big its numerators live on Python integers."""
    c = _scale_factor(rng, big)
    mm = random_multimap if skew else raw_multimap
    return mm(rng, algebra, arity, scalar).scale(c)


def _signature(mm):
    return mm.arity, mm.scalar, mm.data.num.tolist(), mm.data.den, mm.data.num.dtype


# (op, k, l) with output arity at most 3; arity 0 on either side included
SHAPES = ([("insertion", k, p) for k in range(4) for p in range(4)
           if k + p and k - 1 + p <= 3]
          + [("wedge", k, l) for k in range(4) for l in range(4 - k)]
          + [(op, k, 0) for op in ("alternation", "is_skew") for k in range(4)]
          + [("commutator", 1, 1)])


@given(name=st.sampled_from(["m2", "upper2", "truncpoly3", "matrix3"]),
       shape=st.sampled_from(SHAPES), s1=st.booleans(), s2=st.booleans(),
       big=st.booleans(), seed=st.integers(0, 2 ** 32))
@example(name="m2", shape=("insertion", 0, 2), s1=False, s2=True, big=False, seed=0)
@example(name="upper2", shape=("insertion", 2, 0), s1=False, s2=False, big=True, seed=1)
@example(name="truncpoly3", shape=("wedge", 0, 0), s1=True, s2=False, big=True, seed=2)
@example(name="matrix3", shape=("wedge", 1, 1), s1=False, s2=False, big=True, seed=3)
@example(name="m2", shape=("wedge", 0, 0), s1=True, s2=False, big=True, seed=425862)
@example(name="upper2", shape=("alternation", 3, 0), s1=False, s2=False, big=True, seed=4)
@example(name="m2", shape=("is_skew", 2, 0), s1=True, s2=False, big=True, seed=5)
@example(name="matrix3", shape=("is_skew", 3, 0), s1=False, s2=True, big=True, seed=6)
@example(name="m2", shape=("commutator", 1, 1), s1=False, s2=False, big=True, seed=7)
@settings(max_examples=30, deadline=None)
def test_wedge_and_insertion_match_shuffle_loops(name, shape, s1, s2, big, seed):
    # and alternation, is_skew and the commutator, on the same inputs
    A = _parity_algebras()[name]
    op, k, l = shape
    rng = random.Random(seed)
    if op == "insertion":
        K = _scaled_multimap(rng, A, k, False, big)
        phi = _scaled_multimap(rng, A, l, s2, big and rng.random() < 0.5)
        got, want = insertion(K, phi), loop_insertion(K, phi)
        assert _signature(numpy_insertion(K, phi)) == _signature(want)
    elif op == "wedge":
        phi = _scaled_multimap(rng, A, k, s1, big)
        psi = _scaled_multimap(rng, A, l, s2, False)
        got, want = wedge(phi, psi), loop_wedge(phi, psi)
        assert _signature(numpy_wedge(phi, psi)) == _signature(want)
    elif op == "alternation":
        phi = _scaled_multimap(rng, A, k, s1, big, skew=False)
        got, want = alternation(phi), loop_alternation(phi)
    elif op == "is_skew":
        phi = _scaled_multimap(rng, A, k, s1, big, skew=s2)
        assert is_skew(phi) == (loop_alternation(phi) == phi)
        got = want = phi
    else:
        # mu(a, b) = ab - ba is the wedge of the identity with itself
        c1, c2 = _scale_factor(rng, big), _scale_factor(rng, big)
        ident = MultiMap(A, 1, QMat.eye(A.dim))
        got = MultiMap(A, 2, commutator_bivector(A).data.scale(c1 * c2).canonical())
        want = loop_wedge(ident.scale(c1), ident.scale(c2))
    assert _signature(got) == _signature(want)
    if big and not got.is_zero():
        assert got.data.num.dtype == object


@given(name=st.sampled_from(["m2", "upper2", "truncpoly3", "matrix3"]),
       arity=st.integers(0, 3), scalar=st.booleans(), big=st.booleans(),
       seed=st.integers(0, 2 ** 32))
@settings(max_examples=30, deadline=None)
def test_evaluate_and_value_with_first_match_loops(name, arity, scalar, big, seed):
    A = _parity_algebras()[name]
    rng = random.Random(seed)
    mm = _scaled_multimap(rng, A, arity, scalar, big)
    args = [[F(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range(A.dim)]
            for _ in range(arity)]
    assert mm.evaluate(*args) == loop_evaluate(mm, *args)
    if arity:
        rest = [rng.randrange(A.dim) for _ in range(arity - 1)]
        assert mm.value_with_first(args[0], rest) == loop_value_with_first(mm, args[0], rest)
