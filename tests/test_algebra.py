"""Structure-constant algebras, bimodules, homs, derivations, tensor-over-A."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncforms.algebra import (
    Algebra, AlgebraError, AlgebraHom, Bimodule, base_field, derivation_defect,
    derivation_matrix, derivation_space, derivation_to_hom, derivation_vector, dual_numbers,
    group_algebra, hom_to_derivation, inner_derivation, is_derivation,
    matrix_algebra, product_algebra, rebase_unit_first, semidirect_product,
    tensor_over_A, truncated_polynomial_algebra,
)
from ncforms.forms import form_space
from ncforms.linalg import QMat
from oracles import TupleElement, loop_derivation_defect, loop_mult_vec


def upper_triangular2():
    # span{1, p, n} with p*p=p, p*n=n, n*p=0, n*n=0
    z, o = Fraction(0), Fraction(1)
    c = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        c[0][i][i] = o
        c[i][0][i] = o
    c[1][1][1] = o          # p*p = p
    c[1][2][2] = o          # p*n = n
    return Algebra("upper2", ["1", "p", "n"], c)


def c2_group_algebra():
    return group_algebra(["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                                      ("g", "e"): "g", ("g", "g"): "e"},
                         name="kc2")


def catalog():
    return {
        "k": base_field(),
        "dual": dual_numbers(),
        "truncpoly3": truncated_polynomial_algebra(3),
        "kxk": product_algebra(base_field(), base_field(), name="kxk"),
        "m2": matrix_algebra(2),
        "kc2": c2_group_algebra(),
        "upper2": upper_triangular2(),
    }


DER_DIMS = {"k": 0, "dual": 1, "truncpoly3": 2, "kxk": 0, "m2": 3,
            "kc2": 0, "upper2": 2}
CENTER_DIMS = {"k": 1, "dual": 2, "truncpoly3": 3, "kxk": 2, "m2": 1,
               "kc2": 2, "upper2": 1}


def test_validation_rejects_non_associative():
    z, o = Fraction(0), Fraction(1)
    c = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    for i in range(2):
        c[0][i][i] = o
        c[i][0][i] = o
    c[1][1][0] = o  # x*x = 1 ... fine, this IS associative (group algebra C2)
    Algebra("ok", ["1", "x"], c)
    c[1][1][0] = z
    c[1][1][1] = o  # x*x = x: then (xx)x = x but associativity as operators:
    Algebra("idem", ["1", "x"], c)  # still associative
    # now a genuinely broken one: x*x = 1 + x but tweak only one side later
    z3 = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        z3[0][i][i] = Fraction(1)
        z3[i][0][i] = Fraction(1)
    z3[1][1][2] = Fraction(1)   # x*x = y
    z3[1][2][0] = Fraction(1)   # x*y = 1  -> (xx)x = yx = 0, x(xx) = xy = 1
    with pytest.raises(AlgebraError, match="associative"):
        Algebra("bad", ["1", "x", "y"], z3)


def test_validation_rejects_missing_unit():
    z, o = Fraction(0), Fraction(1)
    c = [[[z] * 2 for _ in range(2)] for _ in range(2)]
    c[0][0][0] = o  # e0*e0 = e0 but e0*e1 = 0: not a unit
    with pytest.raises(AlgebraError, match="unit"):
        Algebra("bad", ["1", "x"], c)


def test_matrix_algebra_products():
    m2 = matrix_algebra(2)
    assert m2.dim == 4
    assert m2.basis_names == ["1", "E11", "E12", "E21"]
    one, e11, e12, e21 = m2.elements()
    assert e12 * e21 == e11
    assert e21 * e12 == one - e11
    assert e12 * e12 == m2.zero()
    assert e11 * e12 == e12
    assert e12 * e11 == m2.zero()
    assert not m2.is_commutative()


def test_truncated_polynomials():
    a = truncated_polynomial_algebra(3)
    one, t, t2 = a.elements()
    assert t * t == t2
    assert t2 * t == a.zero()
    assert (one + t) * (one + t) == one + 2 * t + t2
    assert a.is_commutative()
    assert repr(one + 2 * t - t2) == "1 + 2*t - t^2"


def test_product_algebra_idempotent_basis():
    kxk = product_algebra(base_field(), base_field())
    assert kxk.dim == 2
    one, p = kxk.elements()
    assert p * p == p
    assert (one - p) * (one - p) == one - p
    assert p * (one - p) == kxk.zero()


def test_group_algebra_c2():
    a = c2_group_algebra()
    one, g = a.elements()
    assert g * g == one
    with pytest.raises(AlgebraError, match="inverse"):
        group_algebra(["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                                   ("g", "e"): "g", ("g", "g"): "g"})
    with pytest.raises(AlgebraError, match="associative"):
        group_algebra(["e", "a", "b"],
                      {("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
                       ("a", "e"): "a", ("b", "e"): "b",
                       ("a", "a"): "b", ("a", "b"): "e",
                       ("b", "a"): "a", ("b", "b"): "b"})
    with pytest.raises(AlgebraError, match="identity"):
        group_algebra(["a", "b"], {("a", "a"): "b", ("a", "b"): "a",
                                   ("b", "a"): "b", ("b", "b"): "a"})


def test_opposite():
    m2 = matrix_algebra(2)
    op = m2.opposite()
    op.validate()
    for i in range(4):
        for j in range(4):
            assert op.structure[i][j] == m2.structure[j][i]
    tp = truncated_polynomial_algebra(3)
    assert tp.opposite().structure == tp.structure


def test_center_dims():
    for name, alg in catalog().items():
        assert alg.center().dim == CENTER_DIMS[name], name


def test_center_of_m2_is_scalars():
    m2 = matrix_algebra(2)
    z = m2.center()
    assert z.dim == 1
    assert z.contains([1, 0, 0, 0])


@given(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4),
       st.lists(st.integers(-5, 5), min_size=4, max_size=4))
@settings(max_examples=40)
def test_m2_element_arithmetic_laws(xa, xb, xc):
    m2 = matrix_algebra(2)
    a, b, c = m2.element(xa), m2.element(xb), m2.element(xc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert m2.unit() * a == a and a * m2.unit() == a


CATALOG = catalog()
_SCALARS = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.sampled_from(sorted(CATALOG)), st.data())
@settings(max_examples=80, deadline=None)
def test_element_arithmetic_matches_the_tuple_oracle(name, data):
    A = CATALOG[name]
    vectors = st.lists(_SCALARS, min_size=A.dim, max_size=A.dim)
    xs, ys = data.draw(vectors), data.draw(vectors)
    c, n = data.draw(_SCALARS), data.draw(st.integers(0, 3))
    x, y = A.element(xs), A.element(ys)
    ox, oy = TupleElement(A, xs), TupleElement(A, ys)
    pairs = [(x + y, ox + oy), (x - y, ox - oy), (-x, -ox), (x * y, ox * oy),
             (x * c, ox * c), (c * x, c * ox), (x ** n, ox ** n)]
    for got, want in pairs:
        assert got.algebra is A and got.coeffs == want.coeffs
    assert (x == y) == (ox == oy) and (x == A.element(xs))
    assert x.is_zero() == (not any(ox.coeffs))


def test_rebase_unit_first():
    # k x k presented on the idempotent basis {p, q}, unit p + q
    z, o = Fraction(0), Fraction(1)
    c = [[[o, z], [z, z]], [[z, z], [z, o]]]
    alg = rebase_unit_first("kxk2", ["p", "q"], c, [1, 1])
    assert alg.dim == 2
    assert alg.basis_names == ["1", "p"]
    one, p = alg.elements()
    assert p * p == p


def test_regular_bimodule_validates():
    for alg in catalog().values():
        alg.regular_bimodule().validate()


def test_bimodule_rejects_bad_actions():
    dual = dual_numbers()
    eye = QMat.eye(2)
    bad = QMat.from_rows([[0, 0], [0, 1]])  # not the regular action
    with pytest.raises(AlgebraError):
        Bimodule(dual, 2, [eye, bad], [eye, bad.T])


def test_left_action_rejects_a_coefficient_vector_of_the_wrong_length():
    # zip dropped the missing coefficients: [0, 1] acted as e_1 on M_2
    reg = matrix_algebra(2).regular_bimodule()
    for a in ([0, 1], [0, 1, 0, 0, 1]):
        with pytest.raises(AlgebraError, match=f"length {len(a)} for an algebra of dimension 4"):
            reg.left_action(a)


def test_right_action_rejects_a_coefficient_vector_of_the_wrong_length():
    # zip ignored a fifth coefficient
    reg = matrix_algebra(2).regular_bimodule()
    assert reg.right_action([0, 1, 0, 0]) == matrix_algebra(2).right[1]
    for a in ([0, 1, 0, 0, 1], [1]):
        with pytest.raises(AlgebraError, match=f"length {len(a)} for an algebra of dimension 4"):
            reg.right_action(a)


def test_mult_vec_rejects_vectors_of_the_wrong_length():
    # numpy raised "shapes (4,16) and (8,1) not aligned"
    m2 = matrix_algebra(2)
    for u, v in (([1, 0], [1, 0, 0, 0]), ([1, 0, 0, 0], [1, 0, 0, 0, 0])):
        bad = len(u) if len(u) != 4 else len(v)
        with pytest.raises(AlgebraError, match=f"length {bad} for an algebra of dimension 4"):
            m2.mult_vec(u, v)


def test_pure_tensor_rejects_vectors_of_the_wrong_length():
    # [0, 1] was read as e_1, so this returned the class of e_1 (x) e_0
    reg = matrix_algebra(2).regular_bimodule()
    t = tensor_over_A(reg, reg)
    for m, n in (([0, 1], [1, 0, 0, 0]), ([1, 0, 0, 0], [0, 0, 0, 0, 1])):
        bad = len(m) if len(m) != 4 else len(n)
        with pytest.raises(AlgebraError, match=f"length {bad} for a module of dimension 4"):
            t.pure_tensor(m, n)


def test_augmentation_bimodule():
    # one-dimensional module over dual numbers: eps acts as zero on both sides
    dual = dual_numbers()
    zero1 = QMat.zeros(1, 1)
    eye1 = QMat.eye(1)
    aug = Bimodule(dual, 1, [eye1, zero1], [eye1, zero1], name="aug")
    ders = derivation_space(aug)
    assert ders.dim == 1  # D(eps) arbitrary, D(1) = 0


def test_derivation_space_frozen_dims():
    for name, alg in catalog().items():
        ders = derivation_space(alg.regular_bimodule())
        assert ders.dim == DER_DIMS[name], name


def test_derivation_space_members_satisfy_leibniz():
    for alg in [truncated_polynomial_algebra(3), matrix_algebra(2),
                upper_triangular2()]:
        mod = alg.regular_bimodule()
        sp = derivation_space(mod)
        for vec in sp.basis:
            mat = derivation_matrix(mod, vec)
            assert is_derivation(mod, mat)
            assert derivation_vector(mod, mat) == list(vec)
        # D(1) = 0 for every derivation
        for vec in sp.basis:
            mat = derivation_matrix(mod, vec)
            assert mat.col(0).is_zero()


def test_inner_derivations():
    m2 = matrix_algebra(2)
    mod = m2.regular_bimodule()
    sp = derivation_space(mod)
    inner = [inner_derivation(mod, [Fraction(v == i) for v in range(4)])
             for i in range(4)]
    for mat in inner:
        assert is_derivation(mod, mat)
        assert sp.contains(derivation_vector(mod, mat))
    # inner derivations of matrix algebra exhaust all derivations
    from ncforms.linalg import Subspace
    inner_span = Subspace.from_generators(
        16, [derivation_vector(mod, mat) for mat in inner])
    assert inner_span.dim == 3
    assert inner_span == sp


def test_algebra_hom_truncation():
    tp3 = truncated_polynomial_algebra(3)
    dual = dual_numbers()
    # t |-> eps, t^2 |-> 0
    f = AlgebraHom(tp3, dual, QMat.from_rows([[1, 0, 0], [0, 1, 0]]), name="q")
    one, t, t2 = tp3.elements()
    assert f(t * t) == f(t) * f(t)
    assert f(t2).coeffs == (Fraction(0), Fraction(0))
    # t |-> 1 is not multiplicative (nor unital in the needed way)
    with pytest.raises(AlgebraError):
        AlgebraHom(tp3, dual, QMat.from_rows([[1, 1, 0], [0, 0, 0]]))


def test_algebra_hom_iso_kc2_kxk():
    kc2 = c2_group_algebra()
    kxk = product_algebra(base_field(), base_field())
    # g |-> 2p - 1 squares to 1
    f = AlgebraHom(kc2, kxk, QMat.from_rows([[1, -1], [0, 2]]), name="split")
    assert f.is_isomorphism()
    g = kc2.basis_element(1)
    assert f(g * g) == kxk.unit()


@pytest.mark.parametrize("name", ["truncpoly3", "m2", "upper2", "kc2"])
def test_associativity_check_names_the_first_failing_pair(name):
    # one block identity per left factor reports the same first pair as
    # comparing (e_i e_j) e_l with e_i (e_j e_l) triple by triple
    base = catalog()[name]
    m = base.dim
    rng = random.Random(name)
    for _ in range(12):
        c = [[list(cs) for cs in row] for row in base.structure]
        i, j, k = rng.randrange(1, m), rng.randrange(1, m), rng.randrange(m)
        c[i][j][k] += rng.choice([-1, 1, Fraction(1, 2)])
        raw = Algebra("bent", base.basis_names, c, check=False)
        e = [raw.basis_element(t).coeffs for t in range(m)]
        first = next(((a, b) for a in range(m) for b in range(m) for t in range(m)
                      if raw.mult_vec(raw.mult_vec(e[a], e[b]), e[t])
                      != raw.mult_vec(e[a], raw.mult_vec(e[b], e[t]))), None)
        if first is None:
            Algebra("bent", base.basis_names, c)
            continue
        names = [base.basis_names[t] for t in first]
        with pytest.raises(AlgebraError, match=rf"not associative at \({names[0]}, {names[1]}\)"):
            Algebra("bent", base.basis_names, c)


def test_is_isomorphism_lets_unrelated_errors_through(monkeypatch):
    kc2 = c2_group_algebra()
    kxk = product_algebra(base_field(), base_field())
    f = AlgebraHom(kc2, kxk, QMat.from_rows([[1, -1], [0, 2]]), name="split")
    # a singular matrix is "not an isomorphism" ...
    assert not AlgebraHom(kc2, kxk, QMat.from_rows([[1, 1], [0, 0]]),
                          check=False).is_isomorphism()

    def broken(mat):
        raise RuntimeError("unrelated failure")

    # ... but any other error is not swallowed
    monkeypatch.setattr("ncforms.algebra.qmat_inverse", broken)
    with pytest.raises(RuntimeError):
        f.is_isomorphism()


def test_hom_validation_names_the_first_failing_pair():
    # F L_i = L_{f(e_i)} F, checked i by i, reports the same first basis pair
    # as comparing f(e_i e_j) with f(e_i) f(e_j) pair by pair
    tp3 = truncated_polynomial_algebra(3)
    m2 = matrix_algebra(2)
    for src, tgt, rows in ((tp3, dual_numbers(), [[1, 0, 1], [0, 1, 0]]),
                           (tp3, tp3, [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
                           (m2, m2, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0],
                                     [0, 0, 0, 1]])):
        F = QMat.from_rows(rows)
        f = AlgebraHom(src, tgt, F, check=False)
        first = next((i, j) for i in range(src.dim) for j in range(src.dim)
                     if f(src.basis_element(i) * src.basis_element(j))
                     != f(src.basis_element(i)) * f(src.basis_element(j)))
        with pytest.raises(AlgebraError, match=rf"basis pair \({first[0]},{first[1]}\)"):
            f.validate()


def test_semidirect_product_and_graph_homs():
    tp3 = truncated_polynomial_algebra(3)
    mod = tp3.regular_bimodule()
    sd = semidirect_product(mod)
    assert sd.algebra.dim == 6
    # graph of a derivation is a homomorphism
    sp = derivation_space(mod)
    vec = sp.basis[0]
    dmat = derivation_matrix(mod, vec)
    hom = derivation_to_hom(sd, dmat)   # validates on construction
    assert hom_to_derivation(sd, hom) == dmat
    # graph of a non-derivation is not
    bad = QMat.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert not is_derivation(mod, bad)
    with pytest.raises(AlgebraError):
        derivation_to_hom(sd, bad)


def test_semidirect_module_squares_to_zero():
    dual = dual_numbers()
    sd = semidirect_product(dual.regular_bimodule())
    mzero = [Fraction(0)] * 2
    x = sd.embed(mzero, [1, 0])
    y = sd.embed(mzero, [0, 1])
    assert (x * y).is_zero() and (x * x).is_zero()
    a = sd.embed([0, 1], mzero)      # eps in the base copy
    assert sd.project_module(a * y) == dual.mult_vec([0, 1], [0, 1])


def test_tensor_over_A_regular_is_algebra():
    for name, alg in catalog().items():
        mod = alg.regular_bimodule()
        t = tensor_over_A(mod, mod)
        assert t.dim == alg.dim, name
        # multiplication factors through the quotient ...
        m = alg.dim
        mult = QMat.from_rows([
            [alg.structure[i][j][k] for i in range(m) for j in range(m)]
            for k in range(m)])
        fac = t.factor_map(mult)
        assert fac is not None
        # ... to an isomorphism A (x)_A A -> A
        from ncforms.linalg import qmat_inverse
        qmat_inverse(fac)


def test_tensor_over_A_detects_non_middle_linear():
    dual = dual_numbers()
    mod = dual.regular_bimodule()
    t = tensor_over_A(mod, mod)
    # f(x (x) y) = x_eps * y_1 is not balanced
    f = QMat.from_rows([[0, 0, 1, 0]])
    assert t.factor_map(f) is None


def test_tensor_over_A_pure_tensors():
    dual = dual_numbers()
    mod = dual.regular_bimodule()
    t = tensor_over_A(mod, mod)
    # eps (x) eps = eps^2 (x) 1 = 0
    assert t.pure_tensor([0, 1], [0, 1]) == [Fraction(0)] * t.dim
    lhs = t.pure_tensor([0, 1], [1, 0])
    rhs = t.pure_tensor([1, 0], [0, 1])
    assert lhs == rhs  # eps (x) 1 = 1 (x) eps


@pytest.mark.parametrize("name", sorted(catalog()) + ["matrix3", "m2frac", "t3big"])
def test_mult_vec_matches_structure_constant_loop(name):
    from test_forms import _algebras
    A = matrix_algebra(3) if name == "matrix3" else _algebras()[name]
    rng = random.Random(name)
    vecs = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range(A.dim)]
            for _ in range(4)] + [[0] * A.dim, [Fraction(2 ** 70, 3)] * A.dim]
    for u in vecs:
        for v in vecs:
            got = A.mult_vec(u, v)
            assert got == loop_mult_vec(A, u, v) and all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("name", sorted(catalog()) + ["matrix3", "m2frac", "t3big"])
def test_derivation_defect_matches_pair_loop(name):
    """The first failing pair of the Leibniz terms is the pair-by-pair
    loop's, into A and into one-forms (d: A -> Omega_1 is a derivation)."""
    from test_forms import _algebras
    A = matrix_algebra(3) if name == "matrix3" else _algebras()[name]
    m = A.dim
    rng = random.Random(name)
    regular, omega1 = A.regular_bimodule(), form_space(A, 1)
    for mod, ders in ((regular, [derivation_matrix(regular, v)
                                 for v in derivation_space(regular).basis]),
                      (omega1, [form_space(A, 0).d_matrix])):
        dM = mod.dim
        cands = list(ders)
        # a bump off the unit column can fail only at pairs (i, j) with i, j >= 1
        for D in ders[:3] + [QMat.zeros(dM, m)] if dM and m > 1 else []:
            r, j = rng.randrange(dM), rng.randrange(1, m)
            cands.append(D + QMat.from_coo((dM, m), [(r, j, rng.choice([1, -3]))],
                                           rng.choice([1, 2, 7])))
        cands.append(QMat.from_rows([[Fraction(rng.randint(-3, 3), rng.choice([1, 5]))
                                      for _ in range(m)] for _ in range(dM)]))
        for mat in cands:
            assert derivation_defect(mod, mat) == loop_derivation_defect(mod, mat)
        assert all(derivation_defect(mod, D) is None for D in ders)
