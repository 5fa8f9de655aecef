"""The block product kernel against the per-basis loops it replaced.

``forms.products`` multiplies a block of forms by a block of forms in one
call, and omega_functor, induced_endomorphism, ideal_component,
commutator_subspace and horizontal_forms are built on it.  Each is compared
here with the one-pair-at-a-time loop of ``oracles``, so a wrong column
order or sign fails.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncforms.algebra import AlgebraHom, matrix_algebra
from ncforms.connections import (Bundle, find_projections, horizontal_forms,
                                 ideal_component, induced_endomorphism)
from ncforms.dsl import parse_group_action
from ncforms.forms import Form, commutator_subspace, form_space, omega_functor, products
from ncforms.linalg import QMat, Subspace
from oracles import (
    loop_commutator_subspace, loop_horizontal_forms, loop_ideal_component,
    loop_induced_endomorphism, loop_omega_functor, loop_product, split_commutator_subspace,
)
from test_acceptance import SWAP_ACTION
from test_algebra import catalog
from test_forms import _algebras

TOP = 3  # highest form degree compared


@pytest.fixture(scope="module")
def algebras():
    return catalog()


def _block(rng, rows, cols):
    """A sparse random block with small entries over a small denominator."""
    den = rng.choice([1, 1, 2, 3])
    return QMat.from_rows([[Fraction(rng.choice([0, 0, 0, 1, -1, 2, -3]), den)
                            for _ in range(cols)] for _ in range(rows)])


@given(name=st.sampled_from(["m2", "upper2", "t3big"]),
       k=st.integers(0, 3), l=st.integers(0, 3),
       r=st.integers(0, 3), s=st.integers(0, 3),
       identity=st.booleans(), seed=st.integers(0, 2 ** 32))
# truncpoly(3) with y = x/2**31: right actions over den 2**62 on object arrays
@example(name="t3big", k=1, l=1, r=0, s=3, identity=True, seed=0)
@settings(max_examples=40, deadline=None)
def test_products_match_pairwise_loop(name, k, l, r, s, identity, seed):
    assume(k + l <= 3)
    A = _algebras()[name]
    spk, spl = form_space(A, k), form_space(A, l)
    if name == "t3big":
        assert spk.stacked_right.num.dtype == object
    rng = random.Random(seed)
    P = QMat.eye(spk.dim) if identity else _block(rng, spk.dim, r)
    Q = _block(rng, spl.dim, s)
    out = products(A, None if identity else P, k, Q, l)
    assert out.shape == (form_space(A, k + l).dim, P.shape[1] * s)
    for i in range(P.shape[1]):
        for j in range(s):
            want = loop_product(Form(spk, P.col(i)), Form(spl, Q.col(j)))
            assert out.col(i * s + j) == want.vec, (i, j)
    # pairs=2: column (h, i) of P times column (h, j) of Q, summed over h
    r2, s2 = P.shape[1] // 2, s // 2
    if P.shape[1] % 2 == 0 and s % 2 == 0:
        paired = products(A, P, k, Q, l, pairs=2)
        assert paired.shape == (out.shape[0], r2 * s2)
        for i in range(r2):
            for j in range(s2):
                assert paired.col(i * s2 + j) == (
                    out.col(i * s + j) + out.col((r2 + i) * s + s2 + j)), (i, j)


def _homs(algebras):
    out = [AlgebraHom(A, A, QMat.eye(A.dim), name=f"id:{name}")
           for name, A in algebras.items()]
    out.append(AlgebraHom(algebras["truncpoly3"], algebras["dual"],
                          QMat.from_rows([[1, 0, 0], [0, 1, 0]]), name="quot"))
    out.append(AlgebraHom(algebras["dual"], algebras["k"],
                          QMat.from_rows([[1, 0]]), name="aug"))
    out.append(parse_group_action(SWAP_ACTION, algebras["kxk"]).homs["s"])
    return out


def test_omega_functor_matches_loop(algebras):
    for f in _homs(algebras):
        ours = omega_functor(f, TOP)
        assert len(ours) == TOP + 1
        for k in range(TOP + 1):
            assert ours[k] == loop_omega_functor(f, k), (f.name, k)


def test_induced_endomorphism_matches_loop(algebras):
    for name, A in algebras.items():
        for p in find_projections(A)[:2]:
            for ext in (p.ext, p.complement().ext):
                ours = induced_endomorphism(A, ext, TOP)
                assert len(ours) == TOP + 1
                for k in range(TOP + 1):
                    assert ours[k] == loop_induced_endomorphism(A, ext, k), (name, k)


def test_ideal_component_matches_loop(algebras):
    for name, A in algebras.items():
        for p in find_projections(A)[:2]:
            for dist in (p.kernel(), p.image()):  # those of 1 - p too
                for r in range(1, TOP + 1):
                    assert ideal_component(dist, r) == loop_ideal_component(dist, r), (
                        name, r)


def test_commutator_subspace_matches_loop(algebras):
    for name, A in algebras.items():
        for r in range(TOP + 1):
            assert commutator_subspace(A, r) == loop_commutator_subspace(A, r), (
                name, r)


@pytest.mark.parametrize("name, top", [
    ("m2", 5), ("upper2", 5), ("kc2", 5), ("truncpoly3", 4), ("m2frac", 4), ("t3big", 4),
    ("matrix3", 2)])
def test_commutator_subspace_matches_every_basis_pair(name, top):
    # C_r from the generators e_i and d e_j against all pairs of basis forms
    A = _algebras()[name] if name != "matrix3" else matrix_algebra(3)
    for r in range(top + 1):
        assert commutator_subspace(A, r) == split_commutator_subspace(A, r), (name, r)


def _subalgebra(A, vectors):
    return Subspace.from_generators(A.dim, [A.unit().coeffs, *vectors])


def test_horizontal_forms_match_loop(algebras):
    kxk = algebras["kxk"]
    swap = parse_group_action(SWAP_ACTION, kxk)
    bundles = [("kxk/swap", Bundle(kxk, swap.fixed_subspace(), action=swap))]
    # proper subalgebras, so the horizontal forms are neither 0 nor all
    for name, gens in (("truncpoly3", [[0, 0, 1]]), ("m2", [[0, 1, 0, 0]]),
                       ("upper2", [[0, 1, 0]])):
        A = algebras[name]
        bundles.append((name, Bundle(A, _subalgebra(A, gens))))
    nontrivial = 0
    for name, bundle in bundles:
        for k in range(1, TOP + 1):
            ours = horizontal_forms(bundle, k)
            assert ours == loop_horizontal_forms(bundle, k), (name, k)
            nontrivial += 0 < ours.dim < ours.ambient
    assert nontrivial >= 5
