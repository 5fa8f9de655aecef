"""Normalized cochain cohomology: coboundary, hom correspondence, two routes."""

import itertools
import random
from fractions import Fraction

import pytest

from ncforms.algebra import (AlgebraError, derivation_space, derivation_matrix,
                             inner_derivation, matrix_algebra)
from ncforms.forms import form_space
from ncforms.hochschild import (
    HochschildError, NormalizedCochain, bimodule_hom_violation, coboundary,
    coboundary_terms, cochain_dim, cochain_to_hom, cocycle_space,
    cohomology_report, comparison_cochain, comparison_image, complex_dims,
    form_hom_matrices, form_hom_space, hom_to_cochain, is_bimodule_hom,
    is_coboundary, tensor_hom_from_values, tensor_module,
    unit_frame_cochain, universal_cocycle, universal_comparison_hom,
)
from ncforms.linalg import QMat, kron_apply, kron_rows
from oracles import (emb_comparison_columns, kron_tensor_actions, loop_coboundary,
                     loop_cochain_evaluate, loop_cochain_to_hom, loop_comparison_image,
                     loop_tensor_hom_from_values, sympy_hochschild_dim, tensor_hom_basis)
from test_algebra import CENTER_DIMS, DER_DIMS, catalog
from test_forms import _algebras

F = Fraction

# dim H^n(A, A) for n = 0..3.  Derived by hand before freezing: H^0 is the
# center; k[t]/(t^N) has the two-periodic pattern ker/coker of N t^(N-1)
# (dims N-1 in every positive degree); k x k, M_2 and the order-2 group
# algebra are separable, so positive degrees vanish; upper-triangular 2x2 is
# hereditary with trivial center and only inner derivations.  The sympy
# complex oracle reconfirms every entry below.
HH_DIMS = {
    "k": (1, 0, 0, 0),
    "dual": (2, 1, 1, 1),
    "truncpoly3": (3, 2, 2, 2),
    "kxk": (2, 0, 0, 0),
    "m2": (1, 0, 0, 0),
    "kc2": (2, 0, 0, 0),
    "upper2": (1, 0, 0, 0),
}


@pytest.fixture(scope="module")
def algebras():
    return catalog()


def bar_tuples(m, n):
    """All (j_1..j_n) with 1 <= j < m, in flat (big-endian) order."""
    return list(itertools.product(range(1, m), repeat=n))


def random_cochain(rng, module, n):
    m = module.algebra.dim
    rows = [[F(rng.randint(-2, 2)) for _ in range((m - 1) ** n)]
            for _ in range(module.dim)]
    return NormalizedCochain(module, n, QMat.from_rows(rows))


def basis_vector(dim, i):
    return [F(t == i) for t in range(dim)]


def derivation_cochain(A, mat):
    """A derivation matrix (columns D(e_j)) as a 1-cochain with values in A."""
    data = [[mat.entry(r, j) for j in range(1, A.dim)] for r in range(A.dim)]
    return NormalizedCochain(A.regular_bimodule(), 1, QMat.from_rows(data))


# -- cochains and the coboundary ---------------------------------------------


def test_value_matches_multilinear_evaluation(algebras):
    rng = random.Random(7)
    for name in ("dual", "kxk", "m2"):
        A = algebras[name]
        M = A.regular_bimodule()
        for n in (1, 2):
            c = random_cochain(rng, M, n)
            for J in bar_tuples(A.dim, n):
                args = [basis_vector(A.dim, j) for j in J]
                assert c.evaluate(*args) == c.value(J).column_fractions(0)


def test_evaluation_kills_unit_directions(algebras):
    rng = random.Random(11)
    A = algebras["m2"]
    c = random_cochain(rng, A.regular_bimodule(), 2)
    unit = basis_vector(A.dim, 0)
    probe = [F(1), F(2), F(-1), F(3)]
    zero = [F(0)] * A.dim
    assert c.evaluate(unit, probe) == zero
    assert c.evaluate(probe, unit) == zero


def test_vector_round_trip(algebras):
    rng = random.Random(13)
    A = algebras["truncpoly3"]
    M = A.regular_bimodule()
    c = random_cochain(rng, M, 2)
    assert NormalizedCochain.from_vector(M, 2, c.to_vector()) == c
    assert len(c.to_vector()) == cochain_dim(M, 2)


def test_shape_and_arity_errors(algebras):
    A = algebras["dual"]
    M = A.regular_bimodule()
    with pytest.raises(HochschildError):
        NormalizedCochain(M, 1, QMat.zeros(2, 2))
    c = NormalizedCochain.zeros(M, 1)
    with pytest.raises(HochschildError):
        c.value((1, 1))
    with pytest.raises(HochschildError):
        c.evaluate()
    d0 = NormalizedCochain.zeros(M, 0)
    with pytest.raises(HochschildError):
        c + d0


def test_cochains_into_different_modules_of_one_dim_do_not_mix(algebras):
    # on kxk, A and Omega_1 share dim and left actions; their right actions differ
    kxk = algebras["kxk"]
    into_A = NormalizedCochain.zeros(kxk.regular_bimodule(), 1)
    into_omega1 = NormalizedCochain.zeros(form_space(kxk, 1), 1)
    assert into_A != into_omega1
    with pytest.raises(HochschildError):
        into_A + into_omega1
    # a module rebuilt with the same actions is the same space
    assert into_A + NormalizedCochain.zeros(kxk.regular_bimodule(), 1) == into_A


def test_cochain_repr_names_a_bimodule_and_a_form_space(algebras):
    kxk = algebras["kxk"]
    into_A = NormalizedCochain.zeros(kxk.regular_bimodule(), 1)
    into_omega1 = NormalizedCochain.zeros(form_space(kxk, 1), 2)
    assert repr(into_A) == ("NormalizedCochain(arity=1, "
                            "module=Bimodule('kxk', dim=2 over kxk))")
    assert repr(into_omega1) == ("NormalizedCochain(arity=2, "
                                 "module=FormSpace(kxk, degree=1, dim=2))")


def test_degree_zero_coboundary_is_commutator_defect(algebras):
    rng = random.Random(17)
    for name in ("dual", "m2", "upper2"):
        A = algebras[name]
        M = A.regular_bimodule()
        x = [F(rng.randint(-2, 2)) for _ in range(A.dim)]
        c = NormalizedCochain(M, 0, QMat.from_rows([[v] for v in x]))
        dc = coboundary(c)
        for j in range(1, A.dim):
            ej = basis_vector(A.dim, j)
            want = [a - b for a, b in zip(A.mult_vec(ej, x), A.mult_vec(x, ej))]
            assert dc.value((j,)).column_fractions(0) == want


def test_derivations_are_degree_one_cocycles(algebras):
    for name in ("dual", "truncpoly3", "m2", "upper2"):
        A = algebras[name]
        M = A.regular_bimodule()
        for vec in derivation_space(M).basis:
            c = derivation_cochain(A, derivation_matrix(M, vec))
            assert coboundary(c).is_zero()


def test_coboundary_squares_to_zero(algebras):
    rng = random.Random(19)
    for name, A in algebras.items():
        M = A.regular_bimodule()
        for n in range(4):
            c = random_cochain(rng, M, n)
            assert coboundary(coboundary(c)).is_zero(), (name, n)


def test_sparse_rows_match_column_coboundary(algebras):
    rng = random.Random(23)
    # m2frac (e2 = 2 E12, e3 = E21/3) puts denominators into the structure
    # constants and, through the free bimodule, into the actions
    m2frac = _algebras()["m2frac"]
    modules = [algebras[name].regular_bimodule()
               for name in ("dual", "kxk", "m2", "upper2")]
    modules += [m2frac.regular_bimodule(), tensor_module(m2frac, 1)]
    for M in modules:
        for n in range(4):
            c = random_cochain(rng, M, n)
            vec = c.to_vector()
            den, rows = kron_rows(coboundary_terms(M, n))
            out = [sum((v * vec[col] for col, v in row.items()), F(0)) / den
                   for row in rows]
            assert out == coboundary(c).to_vector(), (M.name, n)


@pytest.mark.parametrize("name", sorted(catalog()) + ["matrix3", "m2frac", "t3big"])
def test_coboundary_and_evaluate_match_tuple_loops(name):
    A = matrix_algebra(3) if name == "matrix3" else _algebras()[name]
    m = A.dim
    rng = random.Random(name)

    def reduced(c):
        return c.data.num.tolist(), c.data.den

    for M in (A.regular_bimodule(), tensor_module(A, 1)):
        for n in range(3):
            c = NormalizedCochain(M, n, QMat.from_rows(
                [[F(rng.randint(-3, 3), rng.choice([1, 2, 7])) for _ in range((m - 1) ** n)]
                 for _ in range(M.dim)]))
            assert reduced(coboundary(c)) == reduced(loop_coboundary(c)), (M.name, n)
            args = [[F(rng.randint(-3, 3), rng.choice([1, 3])) for _ in range(m)]
                    for _ in range(n)]
            assert c.evaluate(*args) == loop_cochain_evaluate(c, *args), (M.name, n)
    # the comparison cochains: the coboundary on the free bimodule
    for n in (1, 2):
        u = unit_frame_cochain(A, n)
        assert reduced(comparison_cochain(A, n)) == reduced(loop_coboundary(u)), n


# -- cocycles as homomorphisms out of form spaces ----------------------------


def test_universal_cocycle_values_and_cocycle_law(algebras):
    for name, A in algebras.items():
        for n in (1, 2, 3):
            u = universal_cocycle(A, n)
            sp = form_space(A, n)
            for J in bar_tuples(A.dim, n):
                want = basis_vector(sp.dim, sp.index_of(0, J))
                assert u.value(J).column_fractions(0) == want
            assert coboundary(u).is_zero(), (name, n)


def test_cochain_hom_round_trips(algebras):
    rng = random.Random(29)
    for name in ("dual", "kxk", "m2"):
        A = algebras[name]
        M = A.regular_bimodule()
        for n in (1, 2):
            c = random_cochain(rng, M, n)
            assert hom_to_cochain(M, n, cochain_to_hom(c)) == c
        for hom in form_hom_matrices(A, 1, M):
            assert cochain_to_hom(hom_to_cochain(M, 1, hom)) == hom


def test_cocycle_extension_is_bimodule_hom(algebras):
    for name in ("dual", "truncpoly3", "kxk", "m2", "upper2"):
        A = algebras[name]
        M = A.regular_bimodule()
        src = form_space(A, 2)
        for vec in cocycle_space(M, 2).basis:
            hom = cochain_to_hom(NormalizedCochain.from_vector(M, 2, vec))
            assert is_bimodule_hom(src, M, hom)


def test_non_cocycle_extension_fails_on_right_action(algebras):
    A = algebras["dual"]
    M = A.regular_bimodule()
    # c(eps) = 1 is not a cocycle: (delta c)(eps, eps) = 2 eps
    c = NormalizedCochain(M, 1, QMat.from_rows([[F(1)], [F(0)]]))
    dc = coboundary(c)
    assert dc.value((1, 1)).column_fractions(0) == [F(0), F(2)]
    witness = bimodule_hom_violation(form_space(A, 1), M,
                                     cochain_to_hom(c))
    assert witness is not None and witness["side"] == "right"


def test_hom_space_coordinates_equal_cocycle_space(algebras):
    """Right-linearity of the extension and the cocycle law give the same
    subspace of generator values — computed from unrelated equation systems."""
    for name, A in algebras.items():
        M = A.regular_bimodule()
        for n in range(4):
            assert form_hom_space(A, n, M) == cocycle_space(M, n), (name, n)


def test_degree_one_hom_dims_match_derivations(algebras):
    for name, A in algebras.items():
        M = A.regular_bimodule()
        assert form_hom_space(A, 1, M).dim == DER_DIMS[name]
    assert form_hom_space(algebras["m2"], 1,
                          algebras["m2"].regular_bimodule()).dim == 3
    assert form_hom_space(algebras["dual"], 1,
                          algebras["dual"].regular_bimodule()).dim == 1


# -- the free bimodule and the comparison homomorphism -----------------------


def test_tensor_module_is_a_bimodule(algebras):
    for name in ("dual", "truncpoly3", "kxk", "m2", "kc2", "upper2"):
        A = algebras[name]
        for n in (1, 2, 3):
            tensor_module(A, n).validate()


def test_tensor_hom_basis_members_are_homs(algebras):
    for name, n in (("dual", 2), ("kxk", 2), ("m2", 1)):
        A = algebras[name]
        M = A.regular_bimodule()
        T = tensor_module(A, n)
        basis = tensor_hom_basis(T, M)
        assert len(basis) == (A.dim - 1) ** (n - 1) * M.dim
        for psi in basis:
            assert is_bimodule_hom(T, M, psi)


def test_unit_frame_cochain_values(algebras):
    A = algebras["m2"]
    T = tensor_module(A, 3)
    phi = unit_frame_cochain(A, 3)
    for J in bar_tuples(A.dim, 2):
        col = phi.value(J).column_fractions(0)
        assert col == basis_vector(T.dim, T.index_of(0, J, 0))


def test_comparison_cochain_matches_displayed_formula(algebras):
    """Column-by-column: J |-> first (x) rest (x) 1, the signed merges, and
    (-1)^n last term — built here with raw indices, no module actions."""
    for name in ("dual", "kxk", "truncpoly3", "m2"):
        A = algebras[name]
        m = A.dim
        for n in (1, 2, 3):
            T = tensor_module(A, n)
            cc = comparison_cochain(A, n)
            for J in bar_tuples(m, n):
                col = [F(0)] * T.dim
                col[T.index_of(J[0], J[1:], 0)] += 1
                for t in range(n - 1):
                    sign = -1 if (t + 1) % 2 else 1
                    prod = A.structure[J[t]][J[t + 1]]
                    for p in range(1, m):
                        if prod[p]:
                            moved = J[:t] + (p,) + J[t + 2:]
                            col[T.index_of(0, moved, 0)] += sign * prod[p]
                sign = -1 if n % 2 else 1
                col[T.index_of(0, J[:-1], J[-1])] += sign
                assert cc.value(J).column_fractions(0) == col, (name, n, J)


def test_comparison_hom_degree_one_display(algebras):
    for name in ("dual", "m2"):
        A = algebras[name]
        T = tensor_module(A, 1)
        comp = universal_comparison_hom(A, 1)
        sp = form_space(A, 1)
        for i in range(A.dim):
            for j in range(1, A.dim):
                # a da' |-> a a' (x) 1 - a (x) a'
                col = [F(0)] * T.dim
                prod = A.structure[i][j]
                for q in range(A.dim):
                    if prod[q]:
                        col[T.index_of(q, (), 0)] += prod[q]
                col[T.index_of(i, (), j)] -= 1
                got = comp.col(sp.index_of(i, (j,))).column_fractions(0)
                assert got == col


def test_comparison_hom_is_bimodule_hom(algebras):
    for name, A in algebras.items():
        for n in (1, 2, 3):
            src = form_space(A, n)
            T = tensor_module(A, n)
            assert is_bimodule_hom(src, T, universal_comparison_hom(A, n))


def test_comparison_matches_embedding_composite(algebras):
    """Independent route: embed forms in tensor powers, bar-project middles.
    The two constructions differ by exactly (-1)^n."""
    for name, A in algebras.items():
        for n in (1, 2, 3):
            comp = universal_comparison_hom(A, n)
            sign = -1 if n % 2 else 1
            for idx, col in enumerate(emb_comparison_columns(A, n)):
                got = comp.col(idx).scale(sign).column_fractions(0)
                assert got == col, (name, n, idx)


# -- coboundary detection by factorization -----------------------------------


def test_factorization_of_coboundaries_and_proof_witness(algebras):
    rng = random.Random(31)
    for name in ("dual", "kxk", "m2", "upper2"):
        A = algebras[name]
        M = A.regular_bimodule()
        for n in (1, 2):
            psi = random_cochain(rng, M, n - 1)
            c = coboundary(psi)
            hom = cochain_to_hom(c)
            # the classical witness: generator values psi, outer actions glued
            T = tensor_module(A, n)
            tilde = tensor_hom_from_values(T, M, psi.data)
            assert tilde @ universal_comparison_hom(A, n) == hom
            found = is_coboundary(A, n, M, hom)
            assert found is not None
            assert coboundary(found["cochain"]) == c


@pytest.mark.parametrize("name", ["dual", "m2", "upper2", "m2frac", "t3big"])
def test_tensor_hom_from_values_matches_per_column_loop(name):
    A = _algebras()[name]
    M = A.regular_bimodule()
    rng = random.Random(name)
    for n in (1, 2, 3):
        T = tensor_module(A, n)
        mid = T.dim // (A.dim * A.dim)
        values = QMat.from_rows([[F(rng.randint(-3, 3), rng.choice([1, 2, 7]))
                                  for _ in range(mid)] for _ in range(M.dim)])
        got = tensor_hom_from_values(T, M, values)
        want = loop_tensor_hom_from_values(T, M, values)
        assert (got.num.tolist(), got.den, got.num.dtype) \
            == (want.num.tolist(), want.den, want.num.dtype), n


@pytest.mark.parametrize("name", sorted(catalog()) + ["m2frac", "t3big"])
def test_cochain_to_hom_and_comparison_image_match_per_column_loops(name):
    A = _algebras()[name]
    m = A.dim
    rng = random.Random(name)

    def exact(q):
        return q.num.tolist(), q.den, q.num.dtype

    for M in (A.regular_bimodule(), tensor_module(A, 1)):
        for n in (0, 1, 2):
            c = NormalizedCochain(M, n, QMat.from_rows(
                [[F(rng.randint(-3, 3), rng.choice([1, 2, 7]))
                  for _ in range((m - 1) ** n)] for _ in range(M.dim)]))
            assert exact(cochain_to_hom(c)) == exact(loop_cochain_to_hom(c)), n
            if n == 0:
                continue
            comp = universal_comparison_hom(A, n)
            assert exact(comp) == exact(loop_cochain_to_hom(comparison_cochain(A, n)))
            got, want = comparison_image(A, n, M), loop_comparison_image(A, n, M)
            assert (got.rows, got.pivots) == (want.rows, want.pivots), n


def test_nontrivial_class_has_no_factorization(algebras):
    A = algebras["dual"]
    M = A.regular_bimodule()
    # eps |-> eps spans the derivations; inner derivations vanish here
    c = derivation_cochain(A, QMat.from_rows([[0, 0], [0, 1]]))
    assert coboundary(c).is_zero()
    assert is_coboundary(A, 1, M, cochain_to_hom(c)) is None


def test_inner_derivation_factors_with_matching_element(algebras):
    A = algebras["m2"]
    M = A.regular_bimodule()
    e12 = basis_vector(A.dim, 2)
    c = derivation_cochain(A, inner_derivation(M, e12))
    found = is_coboundary(A, 1, M, cochain_to_hom(c))
    assert found is not None
    assert coboundary(found["cochain"]) == c
    # the recovered element is -E12 up to the center (scalars)
    x = found["cochain"].value(()).column_fractions(0)
    assert x[2] == F(-1) and x[1] == F(0) and x[3] == F(0)


def test_zero_hom_factors_through_zero(algebras):
    A = algebras["kxk"]
    M = A.regular_bimodule()
    hom = QMat.zeros(M.dim, form_space(A, 2).dim)
    found = is_coboundary(A, 2, M, hom)
    assert found is not None and found["cochain"].is_zero()


def test_factorization_rejects_non_homs(algebras):
    A = algebras["dual"]
    M = A.regular_bimodule()
    c = NormalizedCochain(M, 1, QMat.from_rows([[F(1)], [F(0)]]))
    with pytest.raises(HochschildError):
        is_coboundary(A, 1, M, cochain_to_hom(c))


# -- cohomology dimensions, two routes ---------------------------------------


def test_cohomology_reports_agree_and_match_frozen_dims(algebras):
    for name, A in algebras.items():
        M = A.regular_bimodule()
        for n in range(4):
            rep = cohomology_report(A, M, n)
            assert rep["agree"], (name, n, rep)
            assert rep["dim_Hn_forms"] == HH_DIMS[name][n], (name, n, rep)
            assert rep["dim_Hn_complex"] == HH_DIMS[name][n]


def test_frozen_dims_match_sympy_complex(algebras):
    for name, A in algebras.items():
        for n in range(4):
            assert sympy_hochschild_dim(A, n) == HH_DIMS[name][n], (name, n)


def test_center_and_derivation_spot_dims(algebras):
    for name, A in algebras.items():
        M = A.regular_bimodule()
        assert cohomology_report(A, M, 0)["dim_Hn_forms"] == CENTER_DIMS[name]
        h1 = cohomology_report(A, M, 1)
        inner = derivation_space(M).dim - h1["dim_Hn_forms"]
        assert inner == A.dim - CENTER_DIMS[name]  # inner ~ A modulo center
    assert cohomology_report(algebras["m2"],
                             algebras["m2"].regular_bimodule(),
                             1)["dim_Hn_forms"] == 0
    assert cohomology_report(algebras["dual"],
                             algebras["dual"].regular_bimodule(),
                             1)["dim_Hn_forms"] == 1


def test_routes_agree_on_free_bimodule_coefficients(algebras):
    for name, A in algebras.items():
        M = tensor_module(A, 1)  # A (x) A with outer actions
        for n in range(4):
            rep = cohomology_report(A, M, n)
            assert rep["agree"], (name, n, rep)


def test_comparison_image_sits_inside_hom_space(algebras):
    for name in ("dual", "truncpoly3", "m2"):
        A = algebras[name]
        M = A.regular_bimodule()
        for n in (1, 2):
            image = comparison_image(A, n, M)
            assert image.is_subspace_of(form_hom_space(A, n, M))


def test_complex_dims_shape(algebras):
    A = algebras["k"]
    M = A.regular_bimodule()
    dims = complex_dims(M, 0)
    assert dims == {"cocycles": 1, "coboundaries": 0, "cohomology": 1}
    assert complex_dims(M, 2)["cohomology"] == 0


@pytest.mark.parametrize("name", [*_algebras(), "matrix3"])
def test_tensor_module_terms_match_the_identity_kronecker_actions(name):
    # the free bimodule's actions (L_i, mid * m) and (m * mid, R_i), applied
    # to I, are the Kronecker products with an identity they replace, with
    # the same (num, dtype, den)
    A = matrix_algebra(3) if name == "matrix3" else _algebras()[name]
    for n in ((1, 2) if name == "matrix3" else (1, 2, 3)):
        T = tensor_module(A, n)
        eye = QMat.eye(T.dim)
        lefts, rights = kron_tensor_actions(A, n)
        for terms, ref in zip(T.left + T.right, lefts + rights):
            got = kron_apply(terms, eye)
            assert (got.num.dtype, got.den, got.num.tolist()) == (
                ref.num.dtype, ref.den, ref.num.tolist()), (name, n)


def _corrupted(terms):
    """The term list with one entry of its first QMat factor raised by 1."""
    k, F = next((k, f) for k, f in enumerate(terms[0]) if isinstance(f, QMat))
    num = F.num.copy()
    num[0, 0] += F.den
    return [(*terms[0][:k], QMat(num, F.den), *terms[0][k + 1:]), *terms[1:]]


@pytest.mark.parametrize("build", [lambda A: form_space(A, 3), lambda A: tensor_module(A, 2)],
                         ids=["omega3", "free2"])
def test_validate_applies_term_lists_and_catches_one_corrupted_entry(build, monkeypatch):
    # Bimodule.validate multiplies no two actions as squares (no QMat product
    # or Kronecker product at all), and one wrong factor entry fails it
    A = matrix_algebra(2)
    M = build(A)

    def refuse(*args):
        raise AssertionError("multiplied dense matrices")

    with monkeypatch.context() as patch:
        patch.setattr(QMat, "__matmul__", refuse)
        patch.setattr(QMat, "kron", refuse)
        M.validate()
    for side in ("left", "right"):
        acts = getattr(M, side)
        for b in (1, A.dim - 1):
            with monkeypatch.context() as patch:
                patch.setitem(vars(M), side, [*acts[:b], _corrupted(acts[b]), *acts[b + 1:]])
                with pytest.raises(AlgebraError):
                    M.validate()
    M.validate()
