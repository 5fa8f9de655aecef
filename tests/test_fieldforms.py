"""Field-valued forms: contraction/Lie operators, brackets, naturality."""

import random
from fractions import Fraction

import pytest

from ncforms.algebra import (
    AlgebraHom, derivation_matrix, derivation_space, dual_numbers,
    inner_derivation, matrix_algebra, truncated_polynomial_algebra,
)
from ncforms.fieldforms import (
    FieldFormError, FieldValuedForm, GradedDerivation, algebraic_bracket,
    check_bracket_expansion_identities, check_lie_contraction_identity,
    contraction, d_operator, decompose_derivation, f_related,
    field_from_derivation, field_space, field_valued_form_from_json,
    field_valued_form_space, fn_bracket, identity_one_form, insertion_compose,
    is_graded_derivation, lie_bracket_fields, lie_operator, naturality_report,
    pushforward, reconstruct_derivation, zero_field_valued_form,
)
from ncforms.forms import form_space
from ncforms.linalg import QMat
from oracles import (NoneGradedDerivation, compose_lie_operator, handmade_lie_operator,
                     kron_contraction, kron_dense, matrix_algebraic_bracket, matrix_d_operator,
                     matrix_fn_bracket, matrix_insertion_compose, slotwise_contraction)
from test_algebra import DER_DIMS, catalog, upper_triangular2
from test_forms import _algebras

F = Fraction


def random_form(rng, basis, algebra, degree):
    """Random integer combination of a basis of Omega^1_degree."""
    out = zero_field_valued_form(algebra, degree)
    for b in basis:
        c = rng.randint(-2, 2)
        if c:
            out = out + b.scale(c)
    return out


@pytest.fixture(scope="module")
def algebras():
    return catalog()


@pytest.fixture(scope="module")
def bases(algebras):
    """Bases of Omega^1_k for the small test algebras, k <= 3."""
    out = {}
    for name in ("dual", "truncpoly3", "kxk"):
        A = algebras[name]
        out[name] = {k: field_valued_form_space(A, k) for k in range(4)}
    A = algebras["m2"]
    out["m2"] = {k: field_valued_form_space(A, k) for k in range(3)}
    return out


# -- the basics -------------------------------------------------------------


def test_field_valued_form_validates_leibniz(algebras):
    A = algebras["dual"]
    # delta(eps) = d(eps) is Leibniz; delta(eps) = 1*d(eps) + constant is not
    d0 = form_space(A, 0).d_matrix
    FieldValuedForm(A, 1, d0)  # fine
    bad = QMat.from_rows([[1, 0], [0, 1]])  # delta(1) = d(eps) violates D(1)=0
    with pytest.raises(FieldFormError):
        FieldValuedForm(A, 1, bad)


def test_degree_zero_fields_are_derivations(algebras):
    for name, A in algebras.items():
        fs = field_space(A)
        assert len(fs) == DER_DIMS[name]
        assert all(K.degree == 0 for K in fs)


def test_extension_of_identity_is_identity(algebras):
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        I = identity_one_form(A)
        assert I.extension() == QMat.eye(form_space(A, 1).dim)


def test_extension_left_linearity(algebras):
    A = algebras["m2"]
    K = identity_one_form(A)
    sp1 = form_space(A, 1)
    # K(a . w) = a . K(w) for the extension of any K
    for L in map(kron_dense, sp1.left):
        assert K.extension() @ L == L @ K.extension()


def test_contraction_of_identity_counts_degree(algebras):
    for name, top in (("dual", 3), ("truncpoly3", 3), ("m2", 2)):
        A = algebras[name]
        j = contraction(identity_one_form(A), top)
        for n in range(top + 1):
            dim = form_space(A, n).dim
            assert j.mats[n] == QMat.eye(dim).scale(n)


def test_lie_of_identity_is_d(algebras):
    for name, top in (("dual", 3), ("truncpoly3", 2), ("m2", 2)):
        A = algebras[name]
        L = lie_operator(identity_one_form(A), top)
        d = d_operator(A, top)
        assert L.inputs == d.inputs and all(L.mat(n) == d.mat(n) for n in d.inputs)


def test_contraction_example_dual():
    A = dual_numbers()
    # the field X with X(eps) = eps, contracted into (d eps)(d eps)
    X = field_from_derivation(A, QMat.from_rows([[0, 0], [0, 1]]))
    jX = contraction(X, 2)
    sp2 = form_space(A, 2)
    w = sp2.basis_form(sp2.index_of(0, (1, 1)))    # (d eps)(d eps)
    out = jX.apply(2, w.vec)
    sp1 = form_space(A, 1)
    expect = sp1.basis_form(sp1.index_of(1, (1,))).scale(2)   # 2 eps d eps
    assert out == expect.vec
    # degree-0 forms are killed: the map into degree -1 has 0 rows
    assert jX.mats[0].shape == (0, A.dim)


def test_lie_operator_on_functions_is_composition_with_d(algebras, bases):
    rng = random.Random(11)
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        for X in bases[name][0]:
            L = lie_operator(X, 0)
            assert L.mats[0] == X.delta
        for _ in range(5):
            K = random_form(rng, bases[name][1], A, 1)
            # j_K recovers delta: j_K(da) = delta(a)
            jk = contraction(K, 1)
            assert jk.mats[1] @ form_space(A, 0).d_matrix == K.delta


def test_lie_operators_commute_with_d(algebras, bases):
    rng = random.Random(23)
    for name, top in (("dual", 2), ("truncpoly3", 2), ("m2", 1)):
        A = algebras[name]
        for k in (0, 1, 2):
            K = random_form(rng, bases[name][k], A, k)
            L = lie_operator(K, top + 1)
            d = d_operator(A, top + max(k, 1))
            comm = L.commutator(d)
            assert comm.inputs == list(range(top + 2))
            assert all(M.is_zero() for M in comm.mats.values())


def test_contraction_and_lie_are_graded_derivations(algebras, bases):
    rng = random.Random(37)
    for name in ("dual", "truncpoly3"):
        A = algebras[name]
        for k in (0, 1, 2):
            K = random_form(rng, bases[name][k], A, k)
            assert is_graded_derivation(contraction(K, 3))
            assert is_graded_derivation(lie_operator(K, 2))


def _same_operator(ours, ref):
    """Equal to the None-encoded reference in (shape, num, den, dtype) on
    every degree the reference stores; None is a matrix with 0 rows."""
    assert isinstance(ref, NoneGradedDerivation)
    assert ours.degree == ref.degree and set(ref.mats) <= set(ours.inputs)
    for j, r in ref.mats.items():
        m = ours.mats[j]
        assert isinstance(m, QMat), j
        if r is None:
            assert m.shape == (0, form_space(ours.algebra, j).dim), j
            continue
        a, b = m.reduced(), r.reduced()
        assert (a.shape, a.den, a.num.dtype) == (b.shape, b.den, b.num.dtype), j
        assert (a.num == b.num).all(), j


@pytest.mark.parametrize("name", [*catalog(), "matrix3"])
def test_operators_match_the_none_encoded_reference(name):
    # j_K by the slot recurrence and L_K through compose, against the sum
    # over slots and the handmade commutator; matrix(3) (dim Omega_2 = 576)
    # on fields of subscript <= 1 and L_K on inputs <= 1
    A = matrix_algebra(3) if name == "matrix3" else catalog()[name]
    subscripts, top = ((0, 1), 1) if name == "matrix3" else ((0, 1, 2), 2)
    rng = random.Random(101)
    fields = [identity_one_form(A)]
    for k in subscripts:
        mod = form_space(A, k)
        vec = [Fraction(rng.randint(-2, 2)) for _ in range(mod.dim)]
        if mod.dim:
            fields.append(FieldValuedForm(A, k, inner_derivation(mod, vec)))
    if name == "dual":    # an outer field: X(eps) = eps
        fields.append(field_from_derivation(A, QMat.from_rows([[0, 0], [0, 1]])))
    assert {K.degree for K in fields} >= {0, 1}
    for K in fields:
        jk, ref_jk = contraction(K, top + 1), slotwise_contraction(K, top + 1)
        _same_operator(jk, ref_jk)
        lk, ref_lk = lie_operator(K, top), handmade_lie_operator(K, top)
        _same_operator(lk, ref_lk)
        # compose: j_K after j_K maps Omega_0 below zero when K is a field
        _same_operator(lk.commutator(jk), ref_lk.commutator(ref_jk))
        _same_operator(jk.commutator(jk), ref_jk.commutator(ref_jk))


def _inner_fields(A, rng, subscripts):
    """identity_one_form and one inner field per subscript, with den != 1."""
    fields = [identity_one_form(A)]
    for k in subscripts:
        mod = form_space(A, k)
        vec = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(mod.dim)]
        if mod.dim:
            fields.append(FieldValuedForm(A, k, inner_derivation(mod, vec)))
    return fields


@pytest.mark.parametrize("name", [*catalog(), "m2frac", "t3big"])
def test_block_route_matches_the_matrix_route(name):
    # d, j_K and L_K applied to random blocks of n-forms (n <= 3, den != 1),
    # and the three brackets, against the matrices the operators were built
    # as before: j_K by one Kronecker product per degree, L_K by composing
    A = _algebras()[name]
    rng = random.Random(f"blocks:{name}")
    fields = _inner_fields(A, rng, (0, 1, 2))
    d = matrix_d_operator(A, 3)
    for K in fields:
        jk, lk = kron_contraction(K, 3), compose_lie_operator(K, 3)
        for n in range(4):
            X = QMat.from_rows([[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 6)))
                                 for _ in range(3)] for _ in range(form_space(A, n).dim)])
            assert contraction(K).apply(n, X) == jk.mats[n] @ X, (K.degree, n)
            assert lie_operator(K).apply(n, X) == lk.mats[n] @ X, (K.degree, n)
            assert d_operator(A).apply(n, X) == d.mats[n] @ X, n
        for L in fields:
            assert fn_bracket(K, L).delta == matrix_fn_bracket(K, L)
            if K.degree + L.degree >= 1:
                assert insertion_compose(K, L).delta == matrix_insertion_compose(K, L)
            if K.degree >= 1 and L.degree >= 1:
                assert algebraic_bracket(K, L).delta == matrix_algebraic_bracket(K, L)


def test_no_bracket_or_identity_builds_operator_matrices(algebras, monkeypatch):
    # the brackets and the operator identities apply the operators to the
    # blocks they read; only mat(n) builds a matrix
    A = algebras["m2"]
    fields = _inner_fields(A, random.Random(5), (0, 1, 2))
    K0, K1, K2 = fields[1:]

    def refuse(self, n):
        raise AssertionError(f"built the matrix of {self!r} on degree {n}")

    monkeypatch.setattr(GradedDerivation, "mat", refuse)
    for K in fields:
        for L in fields:
            fn_bracket(K, L)
            if K.degree + L.degree:
                insertion_compose(K, L)
            if K.degree and L.degree:
                algebraic_bracket(K, L)
    assert check_lie_contraction_identity(K1, K2, trunc=1)
    assert check_bracket_expansion_identities(K0, K1, K1, K2, trunc=1)["all"]
    with pytest.raises(AssertionError):
        contraction(K1).mats


def test_graded_leibniz_checks_the_pairs_through_degree_zero(algebras):
    # a degree -1 operator maps Omega_0 below zero, so mu(D_0, I) is a zero
    # block, and D_1 must still be left and right A-linear on Omega_1
    A = algebras["m2"]
    zero_on_A = QMat.zeros(0, A.dim)
    rng = random.Random(3)
    noise = QMat.from_rows([[rng.randint(-2, 2) for _ in range(12)] for _ in range(4)])
    assert not is_graded_derivation(GradedDerivation(A, -1, {0: zero_on_A, 1: noise}))
    X = _inner_fields(A, rng, (0,))[1]
    j = contraction(X).mat(1)
    assert is_graded_derivation(GradedDerivation(A, -1, {0: zero_on_A, 1: j}))
    assert not is_graded_derivation(
        GradedDerivation(A, -1, {0: zero_on_A, 1: j + QMat.from_coo(j.shape, [(0, 0, 1)])}))


# -- brackets ---------------------------------------------------------------


def _agree_on_blocks(D, E, top):
    """D and E take every n-form to the same image, n <= top."""
    assert D.degree == E.degree
    for n in range(top + 1):
        eye = QMat.eye(form_space(D.algebra, n).dim)
        assert D.apply(n, eye) == E.apply(n, eye), n


def test_algebraic_bracket_antisymmetry_and_identity(algebras, bases):
    rng = random.Random(41)
    for name in ("dual", "truncpoly3"):
        A = algebras[name]
        I = identity_one_form(A)
        assert algebraic_bracket(I, I).is_zero()
        for ka, kb in ((1, 1), (1, 2), (2, 2), (2, 3)):
            K = random_form(rng, bases[name][ka], A, ka)
            L = random_form(rng, bases[name][kb], A, kb)
            sgn = (-1) ** (((ka - 1) * (kb - 1)) % 2)
            assert algebraic_bracket(K, L) == algebraic_bracket(L, K).scale(-sgn)


def test_algebraic_bracket_matches_insertion_commutator(algebras, bases):
    rng = random.Random(43)
    for name, pairs in (("dual", ((1, 1), (1, 2), (2, 2))),
                        ("truncpoly3", ((1, 1), (1, 2))),
                        ("m2", ((1, 1),))):
        A = algebras[name]
        trunc = 2
        for ka, kb in pairs:
            K = random_form(rng, bases[name][ka], A, ka)
            L = random_form(rng, bases[name][kb], A, kb)
            lhs = contraction(K).commutator(contraction(L))
            _agree_on_blocks(lhs, contraction(algebraic_bracket(K, L)), trunc)


def test_fn_bracket_antisymmetry(algebras, bases):
    rng = random.Random(47)
    for name in ("dual", "truncpoly3"):
        A = algebras[name]
        for ka, kb in ((0, 0), (0, 1), (1, 1), (1, 2), (2, 2)):
            K = random_form(rng, bases[name][ka], A, ka)
            L = random_form(rng, bases[name][kb], A, kb)
            sgn = (-1) ** ((ka * kb) % 2)
            assert fn_bracket(K, L) == fn_bracket(L, K).scale(-sgn)


def test_fn_bracket_matches_lie_commutator(algebras, bases):
    rng = random.Random(53)
    for name, pairs in (("dual", ((0, 1), (1, 1), (1, 2), (2, 2))),
                        ("truncpoly3", ((0, 1), (1, 1), (1, 2))),
                        ("m2", ((0, 1), (1, 1)))):
        A = algebras[name]
        trunc = 2
        for ka, kb in pairs:
            K = random_form(rng, bases[name][ka], A, ka)
            L = random_form(rng, bases[name][kb], A, kb)
            lhs = lie_operator(K).commutator(lie_operator(L))
            _agree_on_blocks(lhs, lie_operator(fn_bracket(K, L)), trunc)


def test_identity_one_form_is_fn_central(algebras, bases):
    rng = random.Random(59)
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        I = identity_one_form(A)
        for k in (0, 1, 2):
            K = random_form(rng, bases[name][k], A, k)
            assert fn_bracket(K, I).is_zero()
            assert fn_bracket(I, K).is_zero()


def test_fn_bracket_of_fields_is_lie_bracket(algebras, bases):
    rng = random.Random(61)
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        B = bases[name][0]
        if not B:
            continue
        for _ in range(5):
            X = random_form(rng, B, A, 0)
            Y = random_form(rng, B, A, 0)
            fn = fn_bracket(X, Y)
            lie = lie_bracket_fields(X, Y)
            assert fn == lie
            assert fn.delta == X.delta @ Y.delta - Y.delta @ X.delta


def test_inner_fields_bracket_like_commutators():
    A = matrix_algebra(2)
    mod = A.regular_bimodule()
    x = [F(0), F(1), F(0), F(0)]            # E11
    y = [F(0), F(0), F(1), F(0)]            # E12
    ad = lambda v: field_from_derivation(A, inner_derivation(mod, v))
    # [E11, E12] = E12, so [ad_E11, ad_E12] = ad_E12
    assert lie_bracket_fields(ad(x), ad(y)) == ad(y)


def test_fn_jacobi(algebras, bases):
    rng = random.Random(67)
    A = algebras["dual"]
    for ka, kb, kc in ((0, 1, 1), (1, 1, 1), (1, 1, 2), (0, 1, 2)):
        K = random_form(rng, bases["dual"][ka], A, ka)
        L = random_form(rng, bases["dual"][kb], A, kb)
        M = random_form(rng, bases["dual"][kc], A, kc)
        lhs = fn_bracket(K, fn_bracket(L, M))
        rhs = fn_bracket(fn_bracket(K, L), M) + \
            fn_bracket(L, fn_bracket(K, M)).scale((-1) ** ((ka * kb) % 2))
        assert lhs == rhs


# -- decomposition ----------------------------------------------------------


def test_decompose_d_gives_identity(algebras):
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        D = d_operator(A, 2)
        K, L = decompose_derivation(D)
        assert K == identity_one_form(A)
        assert L.is_zero()


def test_decompose_pure_contraction(algebras, bases):
    rng = random.Random(71)
    for name in ("dual", "truncpoly3"):
        A = algebras[name]
        M = random_form(rng, bases[name][2], A, 2)
        D = contraction(M, 2)
        K, L = decompose_derivation(D)
        assert K.is_zero()
        assert L == M


def test_decompose_round_trip(algebras, bases):
    rng = random.Random(73)
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        for k in (0, 1):
            K = random_form(rng, bases[name][k], A, k)
            L = random_form(rng, bases[name][k + 1], A, k + 1)
            D = reconstruct_derivation(K, L, 2)
            K2, L2 = decompose_derivation(D)
            assert K2 == K and L2 == L


def test_decompose_rejects_non_derivation(algebras):
    A = algebras["dual"]
    mats = {0: QMat.from_rows([[1, 0], [0, 0]]),   # sends 1 to 1: not Leibniz
            1: QMat.zeros(2, 2), 2: QMat.zeros(2, 2)}
    D = GradedDerivation(A, 0, mats)
    with pytest.raises(FieldFormError):
        decompose_derivation(D)


def test_graded_leibniz_rejects_perturbations_in_positive_degree(algebras, bases):
    # only mats[2] (resp. mats[1]) changes, so every failure comes from a
    # pair of forms of positive total degree, where the (-1)^{ka} sign acts
    rng = random.Random(83)
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        fields = [identity_one_form(A)] + [
            random_form(rng, bases[name][k], A, k) for k in (1, 2)]
        for K in fields:
            if K.is_zero():
                continue
            j = contraction(K, 3)
            assert is_graded_derivation(j)
            bumped = j.mats[2] + QMat.from_coo(j.mats[2].shape, [(0, 0, 1)])
            assert not is_graded_derivation(
                GradedDerivation(A, j.degree, {**j.mats, 2: bumped})), name
            L = lie_operator(K, 2)
            assert is_graded_derivation(L)
            assert not is_graded_derivation(
                GradedDerivation(A, L.degree, {**L.mats, 1: -L.mats[1]})), name


# -- the operator identities ------------------------------------------------


def test_operator_inputs_bound_the_matrices_read(algebras):
    # the matrices read are those of the input degrees; blocks of any degree
    # are applied, and a sum or commutator reads the degrees both operands do
    A = algebras["dual"]
    d, j = d_operator(A, 3), contraction(identity_one_form(A), 1)
    assert d.inputs == [0, 1, 2, 3] and set(d.mats) == {0, 1, 2, 3}
    with pytest.raises(FieldFormError):
        d.mat(4)
    eye4 = QMat.eye(form_space(A, 4).dim)
    assert d.apply(4, eye4) == form_space(A, 4).d_matrix
    assert j.apply(4, eye4) == eye4.scale(4)
    assert (d + d).inputs == d.inputs and d.commutator(j).inputs == [0, 1]
    # below degree 0 every image is a block with 0 rows
    assert j.apply(-1, QMat.zeros(0, 3)).shape == (0, 3)
    assert d.apply(-1, QMat.zeros(0, 3)) == QMat.zeros(A.dim, 3)


def test_lie_contraction_identity(algebras, bases):
    rng = random.Random(79)
    for name, combos in (("dual", ((0, 1), (1, 1), (1, 2), (2, 2), (2, 3))),
                         ("truncpoly3", ((0, 1), (1, 1), (1, 2))),
                         ("m2", ((0, 1), (1, 1)))):
        A = algebras[name]
        for k, lsub in combos:
            K = random_form(rng, bases[name][k], A, k)
            L = random_form(rng, bases[name][lsub], A, lsub)
            assert check_lie_contraction_identity(K, L, trunc=2)


def test_bracket_expansion_identities(algebras, bases):
    rng = random.Random(83)
    for name, combos in (("dual", ((0, 0), (0, 1), (1, 1), (1, 2))),
                         ("truncpoly3", ((0, 1), (1, 1))),
                         ("m2", ((0, 0), (0, 1), (1, 1)))):
        A = algebras[name]
        for k1, k2 in combos:
            K1 = random_form(rng, bases[name][k1], A, k1)
            K2 = random_form(rng, bases[name][k2], A, k2)
            L1 = random_form(rng, bases[name][k1 + 1], A, k1 + 1)
            L2 = random_form(rng, bases[name][k2 + 1], A, k2 + 1)
            rep = check_bracket_expansion_identities(K1, K2, L1, L2, trunc=2)
            assert rep["all"], (name, k1, k2, rep)


# -- naturality -------------------------------------------------------------


def quotient_to_dual():
    src = truncated_polynomial_algebra(3)
    tgt = dual_numbers()
    # t |-> eps, t^2 |-> 0
    return AlgebraHom(src, tgt, QMat.from_rows([[1, 0, 0], [0, 1, 0]]),
                      name="quot")


def test_f_related_multiplication_twist():
    f = quotient_to_dual()
    src, tgt = f.source, f.target
    # K(a0 da1) = a0 t da1 upstairs, K'(b0 db1) = b0 eps db1 downstairs
    d_src = form_space(src, 0).d_matrix
    d_tgt = form_space(tgt, 0).d_matrix
    K = FieldValuedForm(src, 1, form_space(src, 1).left_action(
        [F(0), F(1), F(0)]) @ d_src)
    Kp = FieldValuedForm(tgt, 1, form_space(tgt, 1).left_action(
        [F(0), F(1)]) @ d_tgt)
    assert f_related(f, K, Kp)
    # perturbing the downstairs form breaks relatedness
    bad = Kp + identity_one_form(tgt)
    assert not f_related(f, K, bad)
    # pushforward recovers K'
    assert pushforward(f, K) == Kp


def test_pushforward_of_killed_multiplier_is_zero():
    f = quotient_to_dual()
    src = f.source
    # delta(a) = t^2 da is Leibniz (t^2 central); t^2 maps to 0 downstairs,
    # so the pushforward exists and is the zero one-form
    delta = form_space(src, 1).left_action([F(0), F(0), F(1)]) @ \
        form_space(src, 0).d_matrix
    K = FieldValuedForm(src, 1, delta)
    assert pushforward(f, K) == zero_field_valued_form(f.target, 1)


def test_pushforward_inconsistent_system_returns_none():
    # upper-triangular 2x2 onto k x k kills the nilpotent n; the one-form
    # with delta(n) = p dp, delta(p) = 0 is Leibniz upstairs but would need
    # 0 = delta'(f(n)) = p dp downstairs, so no pushforward exists
    src = upper_triangular2()
    tgt = catalog()["kxk"]
    f = AlgebraHom(src, tgt,
                   QMat.from_rows([[1, 0, 0], [0, 1, 0]]), name="killn")
    sp1 = form_space(src, 1)
    col_n = [F(0)] * sp1.dim
    col_n[sp1.index_of(1, (1,))] = F(1)    # p dp
    delta = QMat.from_rows(
        [[F(0), F(0), col_n[r]] for r in range(sp1.dim)])
    K = FieldValuedForm(src, 1, delta)
    assert pushforward(f, K) is None


def test_naturality_report_quotient():
    f = quotient_to_dual()
    src, tgt = f.source, f.target
    rng = random.Random(89)
    rep_count = 0
    for k1, k2 in ((0, 0), (0, 1), (1, 1)):
        for _ in range(8):
            K1 = random_form(rng, field_valued_form_space(src, k1), src, k1)
            K2 = random_form(rng, field_valued_form_space(src, k2), src, k2)
            K1p = pushforward(f, K1)
            K2p = pushforward(f, K2)
            if K1p is None or K2p is None:
                continue
            rep = naturality_report(f, K1, K2, K1p, K2p)
            assert rep["all"], rep
            rep_count += 1
    assert rep_count >= 10


# -- spaces and serialization ----------------------------------------------


def test_field_valued_form_space_dims(algebras):
    # derivations A -> Omega_k; degree 0 matches the frozen derivation dims
    A = algebras["dual"]
    assert len(field_valued_form_space(A, 0)) == 1
    assert len(field_valued_form_space(A, 1)) == 2
    for k in range(4):
        for B in field_valued_form_space(A, k):
            B.validate()   # genuinely Leibniz


def test_identity_in_one_form_space(algebras):
    for name in ("dual", "truncpoly3", "kxk", "m2"):
        A = algebras[name]
        basis = field_valued_form_space(A, 1)
        mod = form_space(A, 1)
        space = derivation_space(mod)
        I = identity_one_form(A)
        vec = [I.delta.entry(r, j) for j in range(A.dim) for r in range(mod.dim)]
        assert space.contains(vec)
        assert len(basis) == space.dim


def test_serialization_round_trip(algebras):
    A = algebras["truncpoly3"]
    rng = random.Random(97)
    K = random_form(rng, field_valued_form_space(A, 2), A, 2).scale(F(1, 3))
    obj = K.to_json()
    assert obj["degree"] == 2
    K2 = field_valued_form_from_json(A, obj)
    assert K2 == K


def test_operator_algebra_basics(algebras):
    A = algebras["dual"]
    d = d_operator(A, 2)
    with pytest.raises(FieldFormError):
        d + GradedDerivation(A, 0, {0: QMat.eye(2)})
    two_d = d + d
    assert all(two_d.mat(n) == d.mat(n).scale(2) for n in d.inputs)
    with pytest.raises(FieldFormError):
        GradedDerivation(A, 0, {5: QMat.eye(2)}).mat(1)


def _fields_over_two_algebras(degree):
    """A field-valued form of the given degree over m2 and one over
    truncpoly(4): both algebras have dimension 4, so every shape agrees."""
    out = []
    for A in (matrix_algebra(2), truncated_polynomial_algebra(4)):
        if degree:
            out.append(identity_one_form(A))
        else:
            mod = A.regular_bimodule()
            out.append(field_from_derivation(A, derivation_matrix(mod, derivation_space(mod).basis[0])))
    return out


@pytest.mark.parametrize("bracket, degree", [(lie_bracket_fields, 0), (algebraic_bracket, 1),
                                             (insertion_compose, 1), (fn_bracket, 1)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_brackets_reject_fields_over_two_algebras(bracket, degree):
    K, L = _fields_over_two_algebras(degree)
    with pytest.raises(FieldFormError, match="algebra mismatch"):
        bracket(K, L)
    with pytest.raises(FieldFormError, match="algebra mismatch"):
        bracket(L, K)
