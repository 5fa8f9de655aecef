"""Differential forms: dims, differential, actions, products, functors."""

import gc
import random
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest

from ncforms.algebra import (
    Algebra, AlgebraHom, base_field, dual_numbers, matrix_algebra, product_algebra,
    truncated_polynomial_algebra,
)
from ncforms import forms
from ncforms.dsl import builtin_algebra
from ncforms.forms import (
    FormError, FormSpace, GradedForm, commutator_subspace, de_rham_homology, form_from_json,
    form_space, kernel_of_mu_n, multiplication_matrix, omega_functor, product,
)
from ncforms.linalg import QMat, RowReducer, kron_apply, qmat_hstack
from oracles import (
    coo_d_matrix, dense_commutator_subspace, emb_basis_form, emb_concat, emb_delta,
    emb_right_mult, emb_scale_add, kron_left_action_matrix, loop_de_rham_homology,
    loop_right_action_matrix, stacked_multiplication_matrix,
)
from test_algebra import c2_group_algebra, catalog, upper_triangular2


def test_dims_formula():
    for name, alg in catalog().items():
        m = alg.dim
        for k in range(4):
            assert form_space(alg, k).dim == m * (m - 1) ** k, (name, k)


def test_d_squared_zero_matrices():
    for alg in catalog().values():
        for k in range(3):
            d1 = form_space(alg, k).d_matrix
            d2 = form_space(alg, k + 1).d_matrix
            assert (d2 @ d1).is_zero()


def test_d_on_dual_numbers_basis():
    dual = dual_numbers()
    sp0 = form_space(dual, 0)
    one = sp0.form([1, 0])
    eps = sp0.form([0, 1])
    assert one.d().is_zero()
    deps = eps.d()
    assert deps.coords() == [Fraction(1), Fraction(0)]  # basis (0; 1)
    assert deps.d().is_zero()


def test_right_action_dual_example():
    # (d eps) . eps = d(eps^2) - eps d(eps) = -eps d(eps)
    dual = dual_numbers()
    sp1 = form_space(dual, 1)
    deps = sp1.form([1, 0])
    res = deps.right_mult([0, 1])
    assert res.coords() == [Fraction(0), Fraction(-1)]


def test_right_action_by_unit_is_identity():
    for alg in catalog().values():
        for k in range(4):
            sp = form_space(alg, k)
            assert kron_apply(sp.right[0], QMat.eye(sp.dim)) == QMat.eye(sp.dim)
            assert kron_apply(sp.left[0], QMat.eye(sp.dim)) == QMat.eye(sp.dim)


def test_form_spaces_are_bimodules():
    # left/right actions commute and are (anti)multiplicative in all degrees
    for alg in catalog().values():
        deg_max = 3 if alg.dim <= 3 else 2
        for k in range(1, deg_max + 1):
            form_space(alg, k).validate()


def _embedding_columns(alg, n):
    sp = form_space(alg, n)
    cols = []
    for idx in range(sp.dim):
        i, J = sp.tuple_of(idx)
        cols.append(emb_basis_form(alg, i, J))
    return sp, cols


def _embed_coords(cols, coords):
    acc = {}
    for c, col in zip(coords, cols):
        if c:
            emb_scale_add(acc, col, c)
    return acc


def _rescaled(alg, scales, name):
    """alg in the basis s_i e_i: constants s_i s_j c_ij^k / s_k."""
    m = alg.dim
    return Algebra(name, alg.basis_names, [[[
        Fraction(scales[i] * scales[j]) * c / scales[k]
        for k, c in enumerate(alg.structure[i][j])] for j in range(m)]
        for i in range(m)])


def _algebras():
    algs = catalog()
    # m2 with e2 = 2 E12 and e3 = E21/3: fractional structure constants
    algs["m2frac"] = _rescaled(algs["m2"], [1, 1, 2, Fraction(1, 3)], "m2frac")
    # truncpoly(3) with y = x/2**31: y y = x^2/2**62, so the numerators over
    # the common denominator 2**62 reach 2**62
    algs["t3big"] = _rescaled(algs["truncpoly3"], [1, Fraction(1, 2 ** 31), 1],
                              "t3big")
    return algs


# highest degree checked against the embedding model, per algebra
EMBED_DEGREES = {"dual": 3, "truncpoly3": 3, "kxk": 3, "m2": 2, "kc2": 3,
                 "upper2": 3, "m2frac": 3, "t3big": 3}


@pytest.mark.parametrize("algname", EMBED_DEGREES)
def test_embedding_model_agrees(algname):
    alg = _algebras()[algname]
    m = alg.dim
    max_deg = EMBED_DEGREES[algname]
    rng = random.Random(7)
    for n in range(max_deg + 1):
        sp, cols = _embedding_columns(alg, n)
        # independence: the m(m-1)^n embedded vectors really are a basis
        red = RowReducer(m ** (n + 1))
        for col in cols:
            red.add(dict(col))
        assert red.dim == sp.dim
        # right action by every basis element agrees with "multiply last slot"
        for b in range(m):
            rb = kron_apply(sp.right[b], QMat.eye(sp.dim))
            for idx in range(sp.dim):
                ours = _embed_coords(cols, rb.col(idx).column_fractions(0))
                theirs = emb_right_mult(alg, cols[idx], n, b)
                assert ours == theirs, (algname, n, b, idx)
        # d agrees with the embedded d: e_i dJ |-> delta(e_i) dJ, delta(1) = 0
        if n < max_deg:
            _, tcols = _embedding_columns(alg, n + 1)
            dmat = sp.d_matrix
            for idx in range(sp.dim):
                i, J = sp.tuple_of(idx)
                ours = _embed_coords(tcols, dmat.col(idx).column_fractions(0))
                if i == 0:
                    assert ours == {}
                    continue
                theirs = emb_delta(alg, i)
                deg = 1
                for j in J:
                    theirs = emb_concat(alg, theirs, deg, emb_delta(alg, j), 1)
                    deg += 1
                assert ours == theirs
        # products agree with concatenation (sampled pairs)
        for deg_b in range(max_deg - n + 1):
            spb, colsb = _embedding_columns(alg, deg_b)
            pairs = [(rng.randrange(sp.dim), rng.randrange(spb.dim))
                     for _ in range(6)] if sp.dim * spb.dim > 40 else [
                (ia, ib) for ia in range(sp.dim) for ib in range(spb.dim)]
            for ia, ib in pairs:
                w = sp.basis_form(ia)
                h = spb.basis_form(ib)
                prod = product(w, h)
                _, tcols = _embedding_columns(alg, n + deg_b)
                ours = _embed_coords(tcols, prod.coords())
                theirs = emb_concat(alg, cols[ia], n, colsb[ib], deg_b)
                assert ours == theirs, (algname, n, deg_b, ia, ib)


def test_structural_operators_are_reduced():
    for name, alg in _algebras().items():
        mats = alg.left + alg.right
        for k in range(3):
            sp = form_space(alg, k)
            mats += [kron_apply(R, QMat.eye(sp.dim)) for R in sp.right] + [sp.d_matrix]
        for M in mats:
            R = M.reduced()
            assert M.den == R.den and np.array_equal(M.num, R.num), name


def test_d_is_the_row_shift_of_the_coo_matrix():
    # d_matrix, the shift of the identity, keeps the (num, den, dtype) of the
    # COO construction, and apply_d on a block equals that matrix times it
    rng = random.Random(3)
    for name, alg in _algebras().items():
        for k in range(4):
            sp = form_space(alg, k)
            D, ref = sp.d_matrix, coo_d_matrix(sp)
            assert (D.shape, D.den, D.num.dtype) == (ref.shape, ref.den, ref.num.dtype)
            assert np.array_equal(D.num, ref.num), (name, k)
            X = QMat.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)), 2 ** 63]
                                for _ in range(sp.dim)])
            assert sp.apply_d(X) == ref @ X, (name, k)
            assert sp.apply_d(X).num.dtype == X.num.dtype


def test_big_common_denominator_gives_exact_object_actions():
    alg = _algebras()["t3big"]
    assert alg.structure_den == 2 ** 62
    assert alg.right[1].entry(2, 1) == Fraction(1, 2 ** 62)
    for k in range(3):
        sp = form_space(alg, k)
        R1 = kron_apply(sp.right[1], QMat.eye(sp.dim))
        assert R1.num.dtype == object, k
        assert R1.den == 2 ** 62, k
    # (1 dy) . y = d(y y) - (1 y) dy = 2**-62 d(x^2) - y dy
    sp1 = form_space(alg, 1)
    assert sp1.basis_form(0).right_mult([0, 1, 0]).coords() == [
        0, Fraction(1, 2 ** 62), -1, 0, 0, 0]


def test_form_space_build_makes_no_fraction_rows(monkeypatch):
    alg = matrix_algebra(2)
    calls = []
    from_rows = QMat.from_rows.__func__

    def counting(cls, rows):
        calls.append(len(rows))
        return from_rows(cls, rows)

    monkeypatch.setattr(QMat, "from_rows", classmethod(counting))
    sp = form_space(alg, 4)
    form_space(alg, 3).d_matrix
    sp.basis_form(7)
    multiplication_matrix(alg, 3)
    assert not calls


def test_form_space_dimension_builds_no_action(monkeypatch):
    # dim, indexing, d's target and info's omega_dims cost no action, not even
    # its term list; the right factor of a product needs only its tail
    alg = matrix_algebra(2)

    def refuse(*args):
        raise AssertionError("built an action")

    for name in ("right", "left"):
        monkeypatch.setattr(FormSpace, name, property(refuse))
    monkeypatch.setattr(forms, "kron_apply", refuse)
    monkeypatch.setattr(forms, "kron_matrix", refuse)
    monkeypatch.setattr(QMat, "kron", refuse)
    assert [form_space(alg, k).dim for k in range(8)] == [4 * 3 ** k for k in range(8)]
    sp = form_space(alg, 7)
    assert sp.tuple_of(sp.index_of(2, (1, 3, 2, 1, 1, 3, 2))) == (2, (1, 3, 2, 1, 1, 3, 2))
    form_space(alg, 2).d_matrix
    for read in ("right", "left", "stacked_right"):
        with pytest.raises(AssertionError):
            getattr(form_space(alg, 1), read)
    monkeypatch.undo()
    w = form_space(alg, 1).basis_form(1)
    product(w, form_space(alg, 3).basis_form(5))
    built = {k for k in range(8)
             if {"right", "left", "stacked_right"} & set(vars(form_space(alg, k)))}
    assert built == {1} and "left" not in vars(form_space(alg, 1))


def test_product_unital_and_examples():
    dual = dual_numbers()
    sp1 = form_space(dual, 1)
    deps = sp1.form([1, 0])
    one0 = form_space(dual, 0).form([1, 0])
    assert product(one0, deps) == deps
    assert product(deps, one0) == deps
    sq = product(deps, deps)
    assert sq.coords() == [Fraction(1), Fraction(0)]  # basis (0; 1, 1)
    assert not sq.is_zero()


def test_product_associative_random():
    rng = random.Random(11)
    for alg in [dual_numbers(), truncated_polynomial_algebra(3), matrix_algebra(2)]:
        for _ in range(8):
            degs = [rng.randint(0, 1) for _ in range(3)]
            forms = []
            for dg in degs:
                sp = form_space(alg, dg)
                forms.append(sp.form([rng.randint(-2, 2) for _ in range(sp.dim)]))
            a, b, c = forms
            assert product(product(a, b), c) == product(a, product(b, c))


def test_graded_leibniz_random():
    rng = random.Random(13)
    for alg in [dual_numbers(), truncated_polynomial_algebra(3),
                product_algebra(base_field(), base_field()), matrix_algebra(2)]:
        for _ in range(10):
            ka = rng.randint(0, 2)
            kb = rng.randint(0, 2 - ka)
            spa, spb = form_space(alg, ka), form_space(alg, kb)
            w = spa.form([rng.randint(-2, 2) for _ in range(spa.dim)])
            h = spb.form([rng.randint(-2, 2) for _ in range(spb.dim)])
            lhs = product(w, h).d()
            rhs = product(w.d(), h) + product(w, h.d()).scale((-1) ** ka)
            assert lhs == rhs


def test_left_right_action_associativity_random():
    rng = random.Random(17)
    for alg in [truncated_polynomial_algebra(3), matrix_algebra(2)]:
        m = alg.dim
        for k in range(3):
            sp = form_space(alg, k)
            for _ in range(6):
                w = sp.form([rng.randint(-2, 2) for _ in range(sp.dim)])
                a = [rng.randint(-2, 2) for _ in range(m)]
                b = [rng.randint(-2, 2) for _ in range(m)]
                assert w.left_mult(a).right_mult(b) == w.right_mult(b).left_mult(a)
                # product compatible with the right action
                h = form_space(alg, 1).form(
                    [rng.randint(-2, 2) for _ in range(form_space(alg, 1).dim)])
                assert product(w, h).right_mult(b) == product(w, h.right_mult(b))
                assert product(w.right_mult(b), h) == product(w, h.left_mult(b))


def test_omega_functor_identity_and_quotient():
    tp3 = truncated_polynomial_algebra(3)
    dual = dual_numbers()
    ident = AlgebraHom(tp3, tp3, QMat.eye(3), name="id")
    assert omega_functor(ident, 2) == [QMat.eye(form_space(tp3, k).dim) for k in range(3)]
    # quotient x |-> eps kills x^2
    f = AlgebraHom(tp3, dual, QMat.from_rows([[1, 0, 0], [0, 1, 0]]), name="q")
    F1 = omega_functor(f, 1)[1]
    src = form_space(tp3, 1)
    dx = src.basis_form(src.index_of(0, [1]))
    dx2 = src.basis_form(src.index_of(0, [2]))
    img_dx = F1 @ dx.vec
    img_dx2 = F1 @ dx2.vec
    assert img_dx.column_fractions(0) == [Fraction(1), Fraction(0)]
    assert img_dx2.is_zero()
    # commutes with d, and chain rule through a second quotient
    om_f = omega_functor(f, 2)
    for k in range(2):
        lhs = om_f[k + 1] @ form_space(tp3, k).d_matrix
        rhs = form_space(dual, k).d_matrix @ om_f[k]
        assert lhs == rhs
    k_alg = base_field()
    g = AlgebraHom(dual, k_alg, QMat.from_rows([[1, 0]]), name="aug")
    om_gf, om_g = omega_functor(g.compose(f), 2), omega_functor(g, 2)
    for k in range(3):
        assert om_gf[k] == om_g[k] @ om_f[k]


def test_multiplication_matrix_and_kernel():
    dual = dual_numbers()
    mu2 = multiplication_matrix(dual, 2)
    # column of (eps, eps) is eps^2 = 0
    assert mu2.col(3).is_zero()
    rep = kernel_of_mu_n(dual, 3)
    assert rep["equal"] and rep["dim_kernel"] == 6 and rep["dim_span"] == 6
    for alg in catalog().values():
        for n in (2, 3):
            rep = kernel_of_mu_n(alg, n)
            assert rep["equal"], (alg.name, n)
            assert rep["dim_kernel"] == alg.dim ** n - alg.dim
    with pytest.raises(FormError):
        kernel_of_mu_n(matrix_algebra(2), 12)


def test_stored_mu2_keeps_the_multiplication_matrices():
    # mu^2 is stacked once per algebra; mu^2 and mu^3 keep num, den and dtype
    for name, alg in _algebras().items():
        for n, ours in ((2, alg.mu2), (2, multiplication_matrix(alg, 2)),
                        (3, multiplication_matrix(alg, 3))):
            want = stacked_multiplication_matrix(alg, n)
            assert (ours.den, ours.num.dtype) == (want.den, want.num.dtype), (name, n)
            assert np.array_equal(ours.num, want.num), (name, n)


def test_commutator_subspace_degree0_commutative():
    for alg in [base_field(), dual_numbers(), truncated_polynomial_algebra(3),
                product_algebra(base_field(), base_field())]:
        assert commutator_subspace(alg, 0).dim == 0
    # and for M_2 it is sl_2, dimension 3
    assert commutator_subspace(matrix_algebra(2), 0).dim == 3


def test_de_rham_base_field():
    rep = de_rham_homology(base_field(), 3)
    assert rep["homology_dims"] == [1, 0, 0]
    assert rep["top_degree_incomplete"] is True


def test_de_rham_dual_numbers():
    # hand-computed: quotient dims [2,1,1,1], homology 1,0,0 below the top
    rep = de_rham_homology(dual_numbers(), 3)
    assert rep["quotient_dims"] == [2, 1, 1, 1]
    assert rep["homology_dims"] == [1, 0, 0]
    assert rep["top_degree_lower_bound"] == 0


def test_de_rham_kxk():
    # hand-computed: C_1 is all of Omega_1 ([p,dp] and [p,p dp] span it), the
    # class of p dp dp survives in degree 2 and is killed by d into C_3
    rep = de_rham_homology(product_algebra(base_field(), base_field()), 3)
    assert rep["quotient_dims"] == [2, 0, 1, 0]
    assert rep["homology_dims"] == [2, 0, 1]
    assert rep["top_degree_lower_bound"] == 0


@pytest.mark.parametrize("name, N", [
    *((b, 4) for b in ("k", "dual", "truncpoly3", "kxk", "m2", "kc2", "upper2")),
    ("truncpoly(4)", 4), ("matrix(3)", 1), ("m2frac", 4)])
def test_de_rham_matches_free_coordinate_loop(name, N):
    # ranks as dim(C_{r+1} + im d_r) - dim C_{r+1} give the same report as
    # the induced differentials built on the free quotient coordinates
    algs = _algebras()
    alg = algs[name] if name in algs else builtin_algebra(name)
    assert de_rham_homology(alg, N) == loop_de_rham_homology(alg, N)


def test_d_descends_to_commutator_quotient():
    for alg in [dual_numbers(), c2_group_algebra(), upper_triangular2()]:
        for r in range(3):
            cr = commutator_subspace(alg, r)
            cnext = commutator_subspace(alg, r + 1)
            dmat = form_space(alg, r).d_matrix
            for row in cr.basis:
                img = (dmat @ QMat.column(row)).column_fractions(0)
                assert cnext.contains(img)


def test_form_space_cache_identity_and_threads():
    alg = truncated_polynomial_algebra(3)
    assert form_space(alg, 2) is form_space(alg, 2)
    fresh = matrix_algebra(2)
    results = []

    def build():
        results.append(form_space(fresh, 2))

    threads = [threading.Thread(target=build) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)


def test_form_space_cache_dies_with_its_algebra():
    alg = truncated_polynomial_algebra(3)
    form_space(alg, 2)
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def test_form_serialization_roundtrip():
    dual = dual_numbers()
    sp = form_space(dual, 2)
    w = sp.form([Fraction(1, 2), -3])
    obj = w.to_json()
    assert obj == {"degree": 2, "coords": ["1/2", "-3"]}
    assert form_from_json(dual, obj) == w


def test_graded_form_operations():
    dual = dual_numbers()
    one = form_space(dual, 0).form([1, 0])
    eps = form_space(dual, 0).form([0, 1])
    gf = GradedForm(dual, 2, [eps, form_space(dual, 1).zero(),
                              form_space(dual, 2).zero()])
    gg = GradedForm(dual, 2, [one, form_space(dual, 1).form([1, 0]),
                              form_space(dual, 2).zero()])
    prod = gf * gg
    assert prod.components[0] == eps
    assert prod.components[1] == product(eps, form_space(dual, 1).form([1, 0]))
    dgf = gf.d()
    assert dgf.components[1] == eps.d()
    with pytest.raises(FormError):
        GradedForm(dual, 2, [one, one, one])


def _sig(M):
    return M.shape, M.num.dtype, M.den, M.num.tolist()


# (algebra, top degree) for the term-list oracles: every builtin, truncpoly(4)
# and the two rebased algebras with den != 1 through degree 4, matrix(3) through 2
TERM_CASES = [*((name, 4) for name in _algebras()), ("truncpoly4", 4), ("matrix3", 2)]


def _term_algebra(name):
    extra = {"truncpoly4": lambda: truncated_polynomial_algebra(4),
             "matrix3": lambda: matrix_algebra(3)}
    return extra[name]() if name in extra else _algebras()[name]


@pytest.mark.parametrize("name,top", TERM_CASES)
def test_action_and_d_terms_match_the_dense_builders(name, top):
    # kron_apply of each term list on I is the matrix the replaced builder
    # made, with its (num, dtype, den): find_projections sorts by raw (den, num)
    A = _term_algebra(name)
    rng = random.Random(5)
    for k in range(top + 1):
        sp = form_space(A, k)
        eye = QMat.eye(sp.dim)
        for b in range(A.dim):
            assert _sig(kron_apply(sp.right[b], eye)) == _sig(
                loop_right_action_matrix(sp, b)), (name, k, b)
            assert _sig(kron_apply(sp.left[b], eye)) == _sig(
                kron_left_action_matrix(sp, b)), (name, k, b)
        D = coo_d_matrix(sp)
        assert _sig(kron_apply(sp.d_terms, eye)) == _sig(D), (name, k)
        # the shifts evaluate d's terms, on a block and composed from the right
        X = QMat.from_rows([[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                             for _ in range(3)] for _ in range(sp.dim)])
        assert sp.apply_d(X) == kron_apply(sp.d_terms, X), (name, k)
        Y = QMat.from_rows([[rng.randint(-3, 3) for _ in range(D.shape[0])]
                            for _ in range(2)])
        assert sp.compose_d(Y) == Y @ D, (name, k)
        if k <= 2:
            stacked = qmat_hstack(sp.dim, [loop_right_action_matrix(sp, b).T
                                           for b in range(A.dim)]).T
            assert sp.stacked_right == stacked, (name, k)
        # C_r from the term lists against the dense differences L_i - R_i
        if k <= 3:
            assert commutator_subspace(A, k) == dense_commutator_subspace(A, k), (name, k)
