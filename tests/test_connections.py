"""Distributions, projections with curvature, bundles and connections."""

import math
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncforms import connections
from ncforms.algebra import (AlgebraError, AlgebraHom, dual_numbers, matrix_algebra,
                             truncated_polynomial_algebra)
from ncforms.connections import (
    Bundle, Distribution, GeometryError, GroupAction, Projection,
    action_functoriality_defect, bianchi_identities, bimodule_endomorphism_space,
    bimodule_span, bundle_tensor_dims, check_projection_calculus,
    connection_curvature, curvature, curvature_horizontality, exact_span,
    find_connections, find_projections, globally_integrable,
    ideal_component, induced_endomorphism, involutive, is_connection,
    is_distribution, is_principal, minimal_polynomial, principalize,
)
from ncforms.fieldforms import identity_one_form, zero_field_valued_form
from ncforms.forms import form_space
from ncforms.linalg import QMat, RowReducer, Subspace, is_idempotent_kernel, nullspace
from oracles import (commutant_endomorphism_space, functor_kernel,
                     kernel_projection_calculus, kron_dense, range_divisors,
                     range_rational_roots, sympy_commutant_dim)
from test_algebra import catalog, upper_triangular2
from test_forms import _algebras

F = Fraction


@pytest.fixture(scope="module")
def algebras():
    return catalog()


@pytest.fixture(scope="module")
def projections(algebras):
    return {name: find_projections(A, seed=5)
            for name, A in algebras.items()}


# -- distributions ----------------------------------------------------------


def test_trivial_distributions(algebras):
    for A in algebras.values():
        n = form_space(A, 1).dim
        assert is_distribution(A, Subspace.zero(n))
        assert is_distribution(A, Subspace.full(n))


def test_span_of_d_eps_is_not_a_distribution():
    A = dual_numbers()
    sp = form_space(A, 1)
    deps = [F(1), F(0)]          # d eps has index (0, (1,))
    assert not is_distribution(A, Subspace.from_generators(2, [deps]))
    grown = bimodule_span(A, [deps])
    assert grown.dim == 2        # eps . d eps escapes, span grows to Omega_1
    assert bimodule_span(A, [list(b) for b in grown.space.basis]) == grown


def test_globally_integrable_extremes(algebras):
    for A in algebras.values():
        n = form_space(A, 1).dim
        full = Distribution(A, Subspace.full(n), check=False)
        zero = Distribution(A, Subspace.zero(n), check=False)
        # over B = A every one-form is a combination a db a'
        assert globally_integrable(full, Subspace.full(A.dim))
        # over B = K.1 only the zero distribution arises
        scalars = Subspace.from_generators(
            A.dim, [list(A.unit().coeffs)])
        assert globally_integrable(zero, scalars)
        if n:
            assert not globally_integrable(full, scalars)


def test_globally_integrable_upper2_subalgebra():
    A = upper_triangular2()
    B = Subspace.from_generators(3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    span = exact_span(A, B)
    assert globally_integrable(span, B)
    # the candidate must match exactly, not just contain the span
    bigger = Distribution(A, Subspace.full(form_space(A, 1).dim), check=False)
    assert globally_integrable(bigger, B) == (bigger == span)


def test_trivial_involutivity(algebras):
    for name in ("dual", "kxk", "m2"):
        A = algebras[name]
        n = form_space(A, 1).dim
        assert involutive(Distribution(A, Subspace.full(n), check=False))
        assert involutive(Distribution(A, Subspace.zero(n), check=False))


def test_ideal_component_of_full_is_full(algebras):
    A = algebras["dual"]
    full = Distribution(A, Subspace.full(2), check=False)
    for r in (1, 2, 3):
        assert ideal_component(full, r).dim == form_space(A, r).dim


# -- the endomorphism space -------------------------------------------------


def _assert_canonical_endomorphisms(n, ours):
    """ours spans the identity and is the canonical (RREF) basis of its
    span, in order, each matrix reduced."""
    eye = QMat.eye(n)
    flat = [[E.entry(i, j) for i in range(n) for j in range(n)] for E in ours]
    span = Subspace.from_generators(n * n, flat)
    assert span.contains([eye.entry(i, j) for i in range(n) for j in range(n)])
    assert flat == [list(v) for v in span.basis]
    assert all(math.gcd(E.den, *map(int, E.num.flat)) == 1 for E in ours)


def test_endomorphism_space_dims_match_sympy(algebras):
    for name in ("dual", "truncpoly3", "kxk", "m2", "kc2", "upper2"):
        A = algebras[name]
        sp = form_space(A, 1)
        ours = bimodule_endomorphism_space(A)
        mats = [kron_dense(M).to_fraction_rows() for M in sp.left[1:] + sp.right[1:]]
        assert len(ours) == sympy_commutant_dim(mats, sp.dim)
        _assert_canonical_endomorphisms(sp.dim, ours)


def test_endomorphism_space_over_fractional_constants(algebras):
    # m2 in the basis e2 = 2 E12, e3 = E21/3: kernel rows whose pivot
    # entries are not 1
    ours = bimodule_endomorphism_space(_algebras()["m2frac"])
    assert len(ours) == len(bimodule_endomorphism_space(algebras["m2"]))
    _assert_canonical_endomorphisms(form_space(algebras["m2"], 1).dim, ours)


def test_endomorphisms_commute_with_actions(algebras):
    A = algebras["m2"]
    sp = form_space(A, 1)
    for E in bimodule_endomorphism_space(A):
        for M in map(kron_dense, sp.left + sp.right):
            assert E @ M == M @ E


def test_endomorphism_space_matches_the_commutant_system(algebras):
    # End(Omega_1) read from Der(A, Omega_1) is the kernel of the commutant
    # system, matrix for matrix, each with the same (num, den, dtype)
    algs = {**algebras, "m2frac": _algebras()["m2frac"],
            "truncpoly(4)": truncated_polynomial_algebra(4), "matrix(3)": matrix_algebra(3)}
    for name, A in algs.items():
        ours, ref = bimodule_endomorphism_space(A), commutant_endomorphism_space(A)
        assert [(E.num.tolist(), E.den, E.num.dtype) for E in ours] == \
            [(E.num.tolist(), E.den, E.num.dtype) for E in ref], name


def test_minimal_polynomial_examples():
    # nilpotent: x^2 ; idempotent-like diag(1,0): x^2 - x
    N = QMat.from_rows([[0, 1], [0, 0]])
    assert minimal_polynomial(N) == [F(0), F(0), F(1)]
    D = QMat.from_rows([[1, 0], [0, 0]])
    assert minimal_polynomial(D) == [F(0), F(-1), F(1)]
    assert minimal_polynomial(QMat.eye(3)) == [F(-1), F(1)]


def test_divisors_are_the_scanned_ones():
    for n in [*range(-300, 0), *range(1, 300), 2 ** 12, 3 * 7 ** 4, 9973, -9973 * 4]:
        assert sorted(connections._divisors(n)) == range_divisors(n), n


_ROOTS = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@given(st.lists(_ROOTS, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(lambda c: c[-1]),
       st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_rational_roots_match_the_scanned_candidates(roots, rest, scale):
    # rest * prod (x - r), cleared of denominators by scale: repeated roots,
    # a zero root and leading coefficients other than 1 all occur
    p = [F(c, scale) for c in rest]
    for r in roots:
        p = connections._poly_mul(p, [-r, F(1)])
    assert connections._rational_roots(p) == range_rational_roots(p)


# m2 in the basis perfbench/gen.py draws for seed 2: the minimal polynomials
# of its bimodule endomorphisms have constant terms up to 1.4 * 10^9, and
# listing their divisors by a scan of 1..|c| ran past the 60 s below
M2_SEED2 = """algebra m2s2 {
    basis 1, x1, x2, x3;
    x1*x1 = 2 + 2 x1;
    x1*x2 = 10/3 - 2/3 x1 + 2 x2 + 2/3 x3;
    x1*x3 = 2 - 3 x1 + 3 x2;
    x2*x1 = 8/3 + 5/3 x1 - 2/3 x3;
    x2*x2 = 4 + 1 x2;
    x2*x3 = 8/3 - 13/3 x1 + 4 x2 - 2/3 x3;
    x3*x1 = -3 + 4 x1 - 3 x2 + 2 x3;
    x3*x2 = -11/3 + 13/3 x1 - 3 x2 + 5/3 x3;
    x3*x3 = -1 + 1 x3;
}
"""


def test_curvature_of_m2_in_a_dense_basis_finishes(tmp_path):
    path = tmp_path / "m2s2.alg"
    path.write_text(M2_SEED2, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "ncforms.cli", "curvature", "-N", "2",
                             "--algebra", str(path)], capture_output=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_projection_counts(projections):
    assert len(projections["k"]) == 1      # Omega_1 = 0: zero = identity
    assert len(projections["dual"]) == 2   # only 0 and Id
    assert len(projections["truncpoly3"]) == 2
    assert len(projections["kxk"]) == 4    # 0, L_p, Id - L_p, Id
    assert len(projections["kc2"]) == 4    # averaging idempotents (1 +- g)/2
    assert len(projections["m2"]) >= 4     # spectral search finds extras
    for plist in projections.values():
        for p in plist:
            assert p.ext @ p.ext == p.ext


def test_projection_image_kernel_split(projections, algebras):
    for name, plist in projections.items():
        n = form_space(algebras[name], 1).dim
        for p in plist:
            im, ker = p.image(), p.kernel()
            assert ker.space == nullspace(n, p.ext.sparse_rows())
            assert im.space.dim + ker.space.dim == n
            assert im.space.intersect(ker.space).dim == 0
            # both sides really are distributions
            assert is_distribution(algebras[name], im.space)
            assert is_distribution(algebras[name], ker.space)


def test_projection_rejects_non_idempotent(algebras):
    A = algebras["dual"]
    # twice the identity is a bimodule map but not idempotent
    with pytest.raises(GeometryError):
        Projection(identity_one_form(A).scale(2))


# -- curvature, the calculus lemma, Bianchi ---------------------------------


def test_curvature_of_trivial_projections(algebras):
    for name in ("dual", "kxk", "m2"):
        A = algebras[name]
        for p in (Projection.zero(A), Projection.identity(A)):
            R, Rbar = curvature(p)
            assert R.is_zero() and Rbar.is_zero()


def test_induced_endomorphism_basics(algebras):
    A = algebras["kxk"]
    n1 = form_space(A, 1).dim
    ident = induced_endomorphism(A, QMat.eye(n1), 3)
    zero = induced_endomorphism(A, QMat.zeros(n1, n1), 3)
    for k in (1, 2, 3):
        assert ident[k] == QMat.eye(form_space(A, k).dim)
        assert zero[k].is_zero()
    assert zero[0] == QMat.eye(A.dim)
    assert induced_endomorphism(A, QMat.zeros(n1, n1), 0) == [QMat.eye(A.dim)]


def test_projection_calculus(projections):
    for name, plist in projections.items():
        N = 2 if name == "m2" else 3
        for p in plist:
            rep = check_projection_calculus(p, N=N)
            assert rep["all"], (name, p, rep)


def test_bianchi(projections):
    for name, plist in projections.items():
        for p in plist:
            rep = bianchi_identities(p)
            assert rep["all"], (name, p, rep)


def test_nontrivial_projection_curvature_decomposition(projections, algebras):
    from ncforms.fieldforms import fn_bracket
    seen_nontrivial = 0
    for name, plist in projections.items():
        A = algebras[name]
        n = form_space(A, 1).dim
        for p in plist:
            if 0 < p.image().dim < n:
                seen_nontrivial += 1
                R, Rbar = curvature(p)
                assert R + Rbar == fn_bracket(p.chi, p.chi)
    assert seen_nontrivial >= 4


# -- "ideal = functor kernel" by trace --------------------------------------


@pytest.mark.parametrize("name", [*catalog(), "m2frac", "t3big"])
def test_projection_calculus_matches_kernel_elimination(name):
    A = _algebras()[name]
    for idx, p in enumerate(find_projections(A)):
        for N in (1, 2, 3):
            assert check_projection_calculus(p, N=N) == kernel_projection_calculus(p, N), (
                name, idx, N)


def test_induced_maps_are_idempotent_with_rank_their_trace(algebras):
    # the premise of the certificate: Omega_k(P)^2 = Omega_k(P), and
    # dim Omega_k - tr Omega_k(P) is the dimension of the eliminated kernel
    for name, A in algebras.items():
        for idx, p in enumerate(find_projections(A)):
            for k, M in enumerate(induced_endomorphism(A, p.ext, 3)):
                assert M @ M == M, (name, idx, k)
                trace = Fraction(int(M.num.trace()), M.den)
                assert form_space(A, k).dim - trace == functor_kernel(A, p.ext, k).dim, (
                    name, idx, k)


def test_idempotent_kernel_certificate_rejects(algebras):
    A = algebras["m2"]
    p = next(p for p in find_projections(A) if 0 < p.image().dim < 12)
    M = induced_endomorphism(A, p.ext, 2)[2]
    ideal = ideal_component(p.kernel(), 2)
    assert is_idempotent_kernel(ideal, M)
    dropped = Subspace(ideal.ambient, ideal.rows[:-1], ideal.pivots[:-1])
    assert not is_idempotent_kernel(dropped, M)
    assert not is_idempotent_kernel(Subspace.full(ideal.ambient), M)
    assert not is_idempotent_kernel(ideal, M.scale(2))   # the same kernel
    # a Jordan block: kills e_2 and has trace 2 = 3 - dim ker, not idempotent
    jordan = QMat.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 0]])
    e2 = Subspace.from_generators(3, [[0, 0, 1]])
    assert not is_idempotent_kernel(e2, jordan)
    idem = QMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    assert is_idempotent_kernel(e2, idem)
    # the right dimension and an idempotent M, but M does not kill e_0
    assert not is_idempotent_kernel(Subspace.from_generators(3, [[1, 0, 0]]), idem)
    # 0 and 1, decided without a product
    assert is_idempotent_kernel(Subspace.full(3), QMat.zeros(3, 3))
    assert not is_idempotent_kernel(e2, QMat.zeros(3, 3))
    assert is_idempotent_kernel(Subspace.zero(3), QMat.eye(3))
    assert not is_idempotent_kernel(e2, QMat.eye(3))
    # an unreduced idempotent whose int64 diagonal sum would wrap: 4 * 2**61
    big = np.diag([2**61] * 4 + [0]).astype(np.int64)
    e4 = Subspace.from_generators(5, [[0, 0, 0, 0, 1]])
    assert is_idempotent_kernel(e4, QMat(big, 2**61))


def test_projection_calculus_reports_a_wrong_induced_map(algebras, monkeypatch):
    # Omega_k(P) replaced by the identity at one degree k <= N: its kernel
    # is 0, not the ideal, at every degree checked, not only the first
    A = algebras["m2"]
    p = next(p for p in find_projections(A) if 0 < p.image().dim < 12)
    induced = connections.induced_endomorphism
    for bad in (1, 2, 3):
        monkeypatch.setattr(connections, "induced_endomorphism", lambda A, ext, top: [
            QMat.eye(form_space(A, k).dim) if k == bad else M
            for k, M in enumerate(induced(A, ext, top))])
        rep = check_projection_calculus(p, N=3)
        assert not rep["kernel_ideal_is_functor_kernel"], bad
        assert not rep["image_ideal_is_complement_kernel"], bad
        assert not rep["all"], bad


def test_each_ideal_component_is_built_once(algebras, monkeypatch):
    A = algebras["m2"]
    projs = find_projections(A)
    built, subspace = [], RowReducer.subspace

    def counting(self):
        # only the eliminations of the ideal chain
        if sys._getframe(1).f_code is connections.ideal_component.__code__:
            built.append(self.ambient)
        return subspace(self)

    monkeypatch.setattr(RowReducer, "subspace", counting)
    for idx, p in enumerate(projs):
        built.clear()
        check_projection_calculus(p, N=3)
        # I_2 and I_3 of ker P and of im P, one elimination each; involutive
        # reads I_2 from the chain
        assert [built.count(form_space(A, k).dim) for k in (2, 3)] == [2, 2], idx


# -- group actions and bundles ----------------------------------------------


def swap_action(kxk):
    ident = AlgebraHom(kxk, kxk, QMat.eye(2), name="id")
    swap = AlgebraHom(kxk, kxk, QMat.from_rows([[1, 1], [0, -1]]), name="s")
    return GroupAction(kxk, [ident, swap])


def conj_action_m2(m2):
    ident = AlgebraHom(m2, m2, QMat.eye(4), name="id")
    # conjugation by diag(1,-1): fixes 1, E11; negates E12, E21
    conj = AlgebraHom(m2, m2, QMat.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]),
        name="conj")
    return GroupAction(m2, [ident, conj])


def sign_action_kc2(kc2):
    ident = AlgebraHom(kc2, kc2, QMat.eye(2), name="id")
    sign = AlgebraHom(kc2, kc2, QMat.from_rows([[1, 0], [0, -1]]), name="sgn")
    return GroupAction(kc2, [ident, sign])


def test_group_action_validation(algebras):
    kxk = algebras["kxk"]
    act = swap_action(kxk)
    assert act.fixed_subspace() == Subspace.from_generators(2, [[1, 0]])
    # missing identity
    with pytest.raises(AlgebraError):
        GroupAction(kxk, [AlgebraHom(kxk, kxk,
                                     QMat.from_rows([[1, 1], [0, -1]]))])
    # not closed: a 3-cycle piece alone cannot occur on kxk, so fabricate a
    # non-closed set by dropping the identity from a two-element group
    m2 = algebras["m2"]
    homs = conj_action_m2(m2).homs
    with pytest.raises(AlgebraError):
        GroupAction(m2, [homs["conj"]])


def test_action_extends_to_forms(algebras):
    assert action_functoriality_defect(swap_action(algebras["kxk"]), 3) is None
    assert action_functoriality_defect(conj_action_m2(algebras["m2"]), 2) is None
    assert action_functoriality_defect(sign_action_kc2(algebras["kc2"]), 3) is None


def test_action_functoriality_defect_names_the_first_failure(algebras):
    # 2 I is linear but moves the unit, so Omega_1(two) d != d Omega_0(two)
    kxk = algebras["kxk"]
    ident = AlgebraHom(kxk, kxk, QMat.eye(2), name="id")
    two = AlgebraHom(kxk, kxk, QMat.eye(2).scale(2), name="two", check=False)
    action = GroupAction(kxk, [ident, two], check=False)
    assert action_functoriality_defect(action, 3) == ("two", 1)


def test_bundle_validation(algebras):
    m2 = algebras["m2"]
    diag = Subspace.from_generators(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    Bundle(m2, diag, conj_action_m2(m2))
    # base must contain the unit
    with pytest.raises(GeometryError):
        Bundle(m2, Subspace.from_generators(4, [[0, 1, 0, 0]]))
    # base must be closed under products: E12, E21 generate E11, 1...
    with pytest.raises(GeometryError):
        Bundle(m2, Subspace.from_generators(
            4, [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    # base must match the fixed algebra when an action is supplied
    scalars = Subspace.from_generators(4, [[1, 0, 0, 0]])
    with pytest.raises(GeometryError):
        Bundle(m2, scalars, conj_action_m2(m2))


def test_kxk_swap_bundle_unique_zero_connection(algebras):
    kxk = algebras["kxk"]
    bundle = Bundle(kxk, Subspace.from_generators(2, [[1, 0]]),
                    swap_action(kxk))
    assert horizontal_dim(bundle, 1) == 0
    chis = find_connections(bundle)
    assert len(chis) == 1
    chi = chis[0]
    assert chi.is_zero()
    assert is_connection(bundle, chi)["connection"]
    assert is_principal(bundle, chi)
    assert connection_curvature(chi).is_zero()
    rep = curvature_horizontality(bundle, chi)
    assert rep["all"]


def horizontal_dim(bundle, k):
    from ncforms.connections import horizontal_forms
    return horizontal_forms(bundle, k).dim


def test_full_base_identity_connection(algebras):
    kc2 = algebras["kc2"]
    bundle = Bundle(kc2, Subspace.full(2),
                    GroupAction(kc2, [AlgebraHom(kc2, kc2, QMat.eye(2),
                                                 name="id")]))
    assert horizontal_dim(bundle, 1) == form_space(kc2, 1).dim
    chis = find_connections(bundle)
    assert len(chis) == 1
    chi = chis[0]
    assert chi == identity_one_form(kc2)
    assert is_principal(bundle, chi)
    assert connection_curvature(chi).is_zero()


def test_m2_diagonal_bundle(algebras):
    m2 = algebras["m2"]
    diag = Subspace.from_generators(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    bundle = Bundle(m2, diag, conj_action_m2(m2))
    # Peirce decomposition: A (x)_B A has dim 8, so hor_1 has dim 12 - 4 = 8
    dims = bundle_tensor_dims(bundle)
    assert dims["equal"], dims
    assert dims["tensor_minus_algebra"] == 8 - 4
    assert horizontal_dim(bundle, 1) == 8
    chis = find_connections(bundle)
    assert chis, "expected at least one connection on the diagonal bundle"
    for chi in chis:
        assert is_connection(bundle, chi)["connection"]
    chi = principalize(bundle, chis[0])
    assert is_principal(bundle, chi)
    rep = curvature_horizontality(bundle, chi)
    assert rep["all"], rep


def test_upper2_bundle_dims():
    A = upper_triangular2()
    B = Subspace.from_generators(3, [[1, 0, 0], [0, 1, 0]])
    bundle = Bundle(A, B)
    dims = bundle_tensor_dims(bundle)
    assert dims["equal"], dims
    # A Ten_B A: Ap (x) pA has dim 1*2, A(1-p) (x) (1-p)A has dim 2*1
    assert dims["tensor_minus_algebra"] == 4 - 3
    assert horizontal_dim(bundle, 1) == form_space(A, 1).dim - 1


def test_base_algebra_of_m2_diagonal(algebras):
    m2 = algebras["m2"]
    diag = Subspace.from_generators(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    B, incl = Bundle(m2, diag).base_algebra()
    assert B.dim == 2
    assert B.is_commutative()
    # the non-unit basis vector is idempotent (it is E11)
    e = [F(0), F(1)]
    assert B.mult_vec(e, e) == e
    # inclusion respects multiplication
    img = incl.column_fractions(1)
    assert m2.mult_vec(img, img) == img


def test_is_connection_distinguishes_failures(algebras):
    kxk = algebras["kxk"]
    bundle = Bundle(kxk, Subspace.from_generators(2, [[1, 0]]),
                    swap_action(kxk))
    # identity is idempotent but its image is Omega_1, not hor = 0
    rep = is_connection(bundle, identity_one_form(kxk))
    assert rep["idempotent"] and not rep["image_is_horizontal"]
    # scaled identity is not even idempotent
    rep2 = is_connection(bundle, identity_one_form(kxk).scale(2))
    assert not rep2["idempotent"]


def test_sign_action_bundle_on_group_algebra(algebras):
    kc2 = algebras["kc2"]
    act = sign_action_kc2(kc2)
    bundle = Bundle(kc2, Subspace.from_generators(2, [[1, 0]]), act)
    assert horizontal_dim(bundle, 1) == 0
    chis = find_connections(bundle)
    assert len(chis) == 1 and chis[0].is_zero()
    assert is_principal(bundle, chis[0])
