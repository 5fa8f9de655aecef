"""The identity suite that ``ncforms verify`` reports.

Each identity (d^2 = 0, graded Leibniz, the graded Jacobi identity of the
Frolicher-Nijenhuis bracket, curvature, both Hochschild routes, ...) is one
check ``fn(env, rng)`` in the registry ``_VERIFY_CHECKS``.  It returns None
when the identity holds, else a witness naming the first failure.  Each
check draws coefficients in {-2..2} from a generator seeded by the run's
seed and its own name."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from .algebra import (Algebra, AlgebraError, GroupAction, MathError, derivation_space,
                      derivation_vector, inner_derivation, leibniz_terms)
from .connections import (Bundle, action_functoriality_defect, bundle_tensor_dims,
                          find_projections, projection_bracket_identities)
from .dsl import DslError, load_algebra_text, print_algebra
from .fieldforms import (FieldFormError, FieldValuedForm, contraction,
                         field_from_derivation, field_space, fn_bracket,
                         lie_bracket_fields)
from .forms import Form, commutator_subspace, form_space, product
from .hochschild import (HochschildError, NormalizedCochain, coboundary, cochain_to_hom,
                         cohomology_reports, form_hom_space, hom_to_cochain,
                         routes_witness, tensor_module)
from .linalg import (QMat, Subspace, format_scalar, kron_apply, kron_matrix, kron_transpose,
                     parse_scalar, qmat_hstack, rank, subspace_from_columns)
from .schouten import MultiMap, SchoutenError, alternation, insertion, nr_bracket


def _rand_vec(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def _rand_block(rng: random.Random, rows: int, cols: int = 1) -> QMat:
    """A rows x cols integer block of draws in {-2..2}, drawn row by row."""
    draws = [rng.randint(-2, 2) for _ in range(rows * cols)]
    return QMat(np.array(draws, dtype=np.int64).reshape(rows, cols))


def _fmt_vec(vec) -> str:
    return "[" + ", ".join(format_scalar(Fraction(v)) for v in vec) + "]"


class _VerifyEnv:
    """Shared state for the checks: algebra, bounds, cached searches."""

    def __init__(self, algebra: Algebra, truncation: int, seed: int,
                 action: GroupAction):
        self.algebra = algebra
        self.N = truncation
        self.seed = seed
        self.action = action
        self._blocks: dict[int, QMat] = {}

    @cached_property
    def derivations(self) -> Subspace:
        return derivation_space(self.algebra.regular_bimodule())

    @cached_property
    def projections(self) -> list:
        return find_projections(self.algebra, seed=self.seed)

    @cached_property
    def bracket_identities(self) -> list[dict]:
        return [projection_bracket_identities(p) for p in self.projections]

    @cached_property
    def bundle(self) -> Bundle:
        return Bundle(self.algebra, self.action.fixed_subspace(), action=self.action)

    def random_field(self, degree: int, rng: random.Random) -> FieldValuedForm:
        """A random integer combination of the derivations A -> Omega_degree:
        their basis block times one column of draws."""
        A, sp = self.algebra, form_space(self.algebra, degree)
        if degree not in self._blocks:
            self._blocks[degree] = derivation_space(sp).basis_matrix()
        block = self._blocks[degree]
        delta = (block @ _rand_block(rng, block.shape[1])).unvec(sp.dim, A.dim)
        return FieldValuedForm(A, degree, delta, check=False)

    def random_form(self, degree: int, rng: random.Random) -> Form:
        sp = form_space(self.algebra, degree)
        return Form(sp, _rand_block(rng, sp.dim))

    def random_multimap(self, arity: int, rng: random.Random) -> MultiMap:
        m = self.algebra.dim
        raw = _rand_block(rng, m, m ** arity)
        return alternation(MultiMap(self.algebra, arity, raw, check=False))

    def random_fields(self, rng: random.Random) -> Iterator[FieldValuedForm]:
        """Four random fields of each degree <= min(N, 2), drawn as read."""
        return (self.random_field(g, rng) for g in range(min(self.N, 2) + 1) for _ in range(4))

    def random_cochains(self, rng: random.Random) -> Iterator[NormalizedCochain]:
        """Three random n-cochains of the algebra in itself for each n <= min(N, 3)."""
        mod, m = self.algebra.regular_bimodule(), self.algebra.dim
        # value r on tuple J is draw J*m + r, the cochain-vector order
        return (NormalizedCochain(mod, n, _rand_block(rng, (m - 1) ** n, m).T)
                for n in range(min(self.N, 3) + 1) for _ in range(3))


def _chk_scalar_roundtrip(env: _VerifyEnv, rng: random.Random):
    for _ in range(25):
        a = Fraction(rng.randint(-2, 2), rng.randint(1, 9))
        b = Fraction(rng.randint(-2, 2), rng.randint(1, 9))
        text = format_scalar(a)
        if parse_scalar(text) != a:
            return f"parse(format({a})) = {parse_scalar(text)} != {a}"
        if (a + b) - b != a:
            return f"({a} + {b}) - {b} != {a}"
    return None


def _chk_rank_transpose(env: _VerifyEnv, rng: random.Random):
    for _ in range(10):
        mat = _rand_block(rng, rng.randint(1, 4), rng.randint(1, 5))
        rr, cr = rank(mat.to_fraction_rows()), rank(mat.T.to_fraction_rows())
        if rr != cr:
            rows = [_fmt_vec(r) for r in mat.to_fraction_rows()]
            return (f"row rank {rr} != column rank {cr} "
                    f"for rows [{', '.join(rows)}]")
    return None


def _chk_subspace_lattice(env: _VerifyEnv, rng: random.Random):
    n = 4
    for _ in range(8):
        U, V, W = (Subspace.from_generators(n, [_rand_vec(rng, n)
                                                for _ in range(rng.randint(0, n))])
                   for _ in range(3))
        dims = f"dims ({U.dim}, {V.dim}, {W.dim})"
        if U.add(V) != V.add(U):
            return f"sum not commutative on subspaces of {dims}"
        if U.add(V).add(W) != U.add(V.add(W)):
            return f"sum not associative on subspaces of {dims}"
        if U.intersect(V) != V.intersect(U):
            return f"intersection not commutative on subspaces of {dims}"
        if U.intersect(V).intersect(W) != U.intersect(V.intersect(W)):
            return f"intersection not associative on subspaces of {dims}"
    return None


def _chk_algebra_table(env: _VerifyEnv, rng: random.Random):
    # the unit, then associativity with the first failing pair
    try:
        env.algebra.validate()
    except AlgebraError as exc:
        return str(exc)
    return None


def _chk_derivation_leibniz(env: _VerifyEnv, rng: random.Random):
    # the basis, then a random combination and a commutator map per draw,
    # as the columns of one block for the Leibniz terms
    A = env.algebra
    mod = A.regular_bimodule()
    der = env.derivations
    draws = [(env.random_field(0, rng).delta, _rand_vec(rng, A.dim)) for _ in range(8)]
    inners = [inner_derivation(mod, mvec).vec() for _, mvec in draws]
    block = qmat_hstack(der.ambient, [der.basis_matrix()] + [
        col for (rand, _), inner in zip(draws, inners) for col in (rand.vec(), inner)])
    bad = np.flatnonzero(kron_apply(leibniz_terms(mod), block).num.any(axis=0))
    if bad.size:
        j = int(bad[0])
        if j < der.dim:
            return f"solution-space basis vector {_fmt_vec(der.basis[j])} fails Leibniz"
        rand, mvec = draws[(j - der.dim) // 2]
        if (j - der.dim) % 2:
            return f"commutator map of {_fmt_vec(mvec)} fails Leibniz"
        return (f"random combination {_fmt_vec(derivation_vector(mod, rand))} "
                f"fails Leibniz")
    for (_, mvec), inner in zip(draws, inners):
        if not der.contains(inner.column_fractions(0)):
            return (f"commutator map of {_fmt_vec(mvec)} is not in the "
                    f"solution space")
    return None


def _chk_derivation_form_hom_dim(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    d_der = env.derivations.dim
    d_hom = form_hom_space(A, 1, A.regular_bimodule()).dim
    if d_der != d_hom:
        return (f"derivation space has dim {d_der} but bimodule homs from "
                f"one-forms have dim {d_hom}")
    return None


def _chk_dsl_roundtrip(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    try:
        B = load_algebra_text(print_algebra(A))
    except DslError as exc:
        return f"printed definition does not parse back: {exc}"
    if list(B.basis_names) != list(A.basis_names):
        return (f"basis names changed from {list(A.basis_names)} to "
                f"{list(B.basis_names)}")
    bad = np.flatnonzero((B.mu2 - A.mu2).num.any(axis=0))
    if bad.size:
        c = int(bad[0])
        i, j = divmod(c, A.dim)
        return (f"product {A.basis_names[i]}*{A.basis_names[j]} changed from "
                f"{_fmt_vec(A.mu2.column_fractions(c))} to "
                f"{_fmt_vec(B.mu2.column_fractions(c))}")
    return None


def _chk_form_dims(env: _VerifyEnv, rng: random.Random):
    A, m = env.algebra, env.algebra.dim
    for k in range(env.N + 1):
        want = m * (m - 1) ** k
        got = form_space(A, k).dim
        if got != want:
            return f"degree {k}: dim is {got}, expected {m}*{m - 1}^{k} = {want}"
    return None


def _chk_d_squared_zero(env: _VerifyEnv, rng: random.Random):
    # each degree's d is its term d_0 (x) I: d_{k+1} applied to the block d_k
    A = env.algebra
    for k in range(env.N):
        dd = kron_apply(form_space(A, k + 1).d_terms, kron_matrix(form_space(A, k).d_terms))
        nonzero = np.argwhere(dd.num)
        if len(nonzero):
            r, c = nonzero[0]
            return (f"(d o d) on degree {k} has entry "
                    f"{format_scalar(dd.entry(r, c))} at ({r}, {c})")
    return None


def _chk_graded_leibniz(env: _VerifyEnv, rng: random.Random):
    for _ in range(10):
        k = rng.randint(0, max(0, env.N - 1))
        l = rng.randint(0, max(0, env.N - 1 - k))
        a, b = env.random_form(k, rng), env.random_form(l, rng)
        sign = -1 if k % 2 else 1
        lhs = product(a, b).d()
        rhs = product(a.d(), b) + product(a, b.d()).scale(sign)
        if lhs != rhs:
            return (f"d(a.b) != da.b + (-1)^{k} a.db for degrees ({k}, {l}), "
                    f"a = {_fmt_vec(a.coords())}, b = {_fmt_vec(b.coords())}")
    return None


def _chk_bimodule_associativity(env: _VerifyEnv, rng: random.Random):
    # L_i R_j against R_j L_i = (L_i^T R_j^T)^T: the left action's terms on R_j
    A = env.algebra
    for k in range(min(env.N, 2) + 1):
        sp = form_space(A, k)
        rights = [kron_matrix(R) for R in sp.right]
        for i, L in enumerate(sp.left):
            for j, Rj in enumerate(rights):
                if kron_apply(L, Rj) != kron_apply(kron_transpose(L), Rj.T).T:
                    return (f"left and right actions do not commute on degree {k} "
                            f"at basis pair ({A.basis_names[i]}, {A.basis_names[j]})")
    for _ in range(6):
        k = rng.randint(0, max(0, env.N - 1))
        l = rng.randint(0, max(0, env.N - k))
        a, b = env.random_form(k, rng), env.random_form(l, rng)
        x = _rand_vec(rng, A.dim)
        if product(a.left_mult(x), b) != product(a, b).left_mult(x):
            return (f"(x.a).b != x.(a.b) for degrees ({k}, {l}), "
                    f"x = {_fmt_vec(x)}")
        if product(a, b.right_mult(x)) != product(a, b).right_mult(x):
            return (f"a.(b.x) != (a.b).x for degrees ({k}, {l}), "
                    f"x = {_fmt_vec(x)}")
        if product(a.right_mult(x), b) != product(a, b.left_mult(x)):
            return (f"(a.x).b != a.(x.b) for degrees ({k}, {l}), "
                    f"x = {_fmt_vec(x)}")
        j = rng.randint(0, max(0, env.N - k - l))
        c = env.random_form(j, rng)
        if product(product(a, b), c) != product(a, product(b, c)):
            return (f"(a.b).c != a.(b.c) for degrees ({k}, {l}, {j})")
    return None


def _chk_commutator_chain(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for r in range(env.N):
        cur = commutator_subspace(A, r)
        nxt = commutator_subspace(A, r + 1)
        image = form_space(A, r).apply_d(cur.basis_matrix())
        if not subspace_from_columns(image).is_subspace_of(nxt):
            j = next(j for j in range(cur.dim) if not nxt.contains(image.column_fractions(j)))
            return (f"d of the commutator vector {_fmt_vec(cur.basis[j])} in degree "
                    f"{r} leaves the degree-{r + 1} commutator subspace")
    return None


def _chk_field_form_leibniz(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    unit = A.unit().col
    for K in env.random_fields(rng):
        try:
            FieldValuedForm(A, K.degree, K.delta, check=True)
        except FieldFormError as exc:
            return f"degree {K.degree}: {exc}"
        if not (K.delta @ unit).is_zero():
            return (f"degree {K.degree}: the value on the unit is "
                    f"{_fmt_vec((K.delta @ unit).column_fractions(0))}")
    return None


def _chk_contraction_injective(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for K in env.random_fields(rng):
        if form_space(A, 0).compose_d(contraction(K).mat(1)) != K.delta:
            return (f"degree {K.degree}: insertion operator does not "
                    f"recover the generating derivation")
    return None


def _chk_operator_jacobi(env: _VerifyEnv, rng: random.Random):
    # fn_bracket is a graded Lie bracket: [K,[L,M]] = [[K,L],M] + (-1)^{kl} [L,[K,M]].
    # The degree triples are fixed, so the work is the same for every seed
    for degs in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)):
        K, L, M = (env.random_field(g, rng) for g in degs)
        lhs = fn_bracket(K, fn_bracket(L, M))
        rhs = (fn_bracket(fn_bracket(K, L), M)
               + fn_bracket(L, fn_bracket(K, M)).scale((-1) ** (degs[0] * degs[1])))
        if lhs != rhs:
            return f"graded Jacobi of the bracket fails for field degrees {degs}"
    return None


def _chk_field_space_dim(env: _VerifyEnv, rng: random.Random):
    d_fields = len(field_space(env.algebra))
    d_der = env.derivations.dim
    if d_fields != d_der:
        return (f"degree-0 field space has dim {d_fields} but the derivation "
                f"space has dim {d_der}")
    return None


def _chk_fn_antisymmetry(env: _VerifyEnv, rng: random.Random):
    for _ in range(6):
        k = rng.randint(0, min(env.N, 2))
        l = rng.randint(0, max(0, min(env.N, 3) - k))
        K = env.random_field(k, rng)
        L = env.random_field(l, rng)
        sign = -1 if (k * l) % 2 else 1
        if not (fn_bracket(K, L) + fn_bracket(L, K).scale(sign)).is_zero():
            return f"[K,L] != -(-1)^(kl) [L,K] at degrees ({k}, {l})"
    return None


def _projection_witness(env: _VerifyEnv, key: str, fails: str) -> Optional[str]:
    """The first projection whose bracket identity ``key`` fails, or None."""
    idx = next((i for i, rep in enumerate(env.bracket_identities) if not rep[key]), None)
    return None if idx is None else f"projection {idx}: {fails}"


def _chk_projection_curvature_sum(env: _VerifyEnv, rng: random.Random):
    return _projection_witness(env, "sum_is_bracket", "R + Rbar != [P,P]")


def _chk_projection_complement(env: _VerifyEnv, rng: random.Random):
    return _projection_witness(env, "cocurvature_is_complement_curvature",
                               "cocurvature differs from the complement's curvature")


def _chk_action_functoriality(env: _VerifyEnv, rng: random.Random):
    bad = action_functoriality_defect(env.action, env.N)
    if bad:
        return (f"group element {bad[0]}: induced map does not "
                f"intertwine d into degree {bad[1]}")
    return None


def _chk_bundle_tensor_dims(env: _VerifyEnv, rng: random.Random):
    dims = bundle_tensor_dims(env.bundle)
    if not dims["equal"]:
        return (f"one-forms minus horizontal is "
                f"{dims['omega1_minus_horizontal']} but the tensor-square "
                f"defect is {dims['tensor_minus_algebra']}")
    return None


def _chk_coboundary_squared(env: _VerifyEnv, rng: random.Random):
    for c in env.random_cochains(rng):
        if not coboundary(coboundary(c)).is_zero():
            return f"coboundary squared is nonzero on a random {c.arity}-cochain"
    return None


def _chk_cohomology_routes(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    modules = [("A", A.regular_bimodule()), ("AxA", tensor_module(A, 1))]
    for label, mod in modules:
        for rep in cohomology_reports(A, mod, min(env.N, 3)):
            if not rep["agree"]:
                return f"module {label}, {routes_witness(rep)}"
    return None


def _chk_cochain_hom_roundtrip(env: _VerifyEnv, rng: random.Random):
    for c in env.random_cochains(rng):
        hom = cochain_to_hom(c)
        back = hom_to_cochain(c.module, c.arity, hom)
        if back != c:
            return f"cochain -> hom -> cochain changes a random {c.arity}-cochain"
        if cochain_to_hom(back) != hom:
            return f"hom -> cochain -> hom changes a degree-{c.arity} hom"
    return None


def _chk_alternation_idempotent(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for arity in (1, 2):
        for _ in range(4):
            mm = env.random_multimap(arity, rng)
            if alternation(mm) != mm:
                return (f"alternation is not idempotent on a random "
                        f"arity-{arity} map")
            try:
                MultiMap(A, arity, mm.data, check=True)
            except SchoutenError as exc:
                return f"alternation output fails the skew check: {exc}"
    return None


def _chk_insertion_arity(env: _VerifyEnv, rng: random.Random):
    for _ in range(4):
        kappa = rng.randint(1, 2)
        p = rng.randint(1, 2)
        K = env.random_multimap(kappa, rng)
        phi = env.random_multimap(p, rng)
        got = insertion(K, phi).arity
        if got != kappa - 1 + p:
            return (f"insertion of arity {kappa} into arity {p} has arity "
                    f"{got}, expected {kappa - 1 + p}")
    return None


def _chk_schouten_jacobi(env: _VerifyEnv, rng: random.Random):
    for _ in range(3):
        ar = [rng.randint(1, 2) for _ in range(3)]
        K, L, M = (env.random_multimap(a, rng) for a in ar)
        k, l, m = (a - 1 for a in ar)
        s1 = nr_bracket(K, nr_bracket(L, M)).scale(-1 if (k * m) % 2 else 1)
        s2 = nr_bracket(L, nr_bracket(M, K)).scale(-1 if (l * k) % 2 else 1)
        s3 = nr_bracket(M, nr_bracket(K, L)).scale(-1 if (m * l) % 2 else 1)
        if not (s1 + s2 + s3).is_zero():
            return f"graded Jacobi fails for arities {tuple(ar)}"
    return None


def _chk_bracket_compatibility(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for _ in range(6):
        m1, m2 = (env.random_field(0, rng).delta for _ in range(2))
        K1, K2 = MultiMap(A, 1, m1), MultiMap(A, 1, m2)
        X1, X2 = field_from_derivation(A, m1), field_from_derivation(A, m2)
        if nr_bracket(K1, K2).data != lie_bracket_fields(X2, X1).delta:
            return ("arity-1 algebraic bracket disagrees with the "
                    "derivation commutator (argument-swapped)")
    return None


_VERIFY_CHECKS: list[tuple[str, Callable]] = [
    ("scalar-roundtrip", _chk_scalar_roundtrip),
    ("rank-transpose", _chk_rank_transpose),
    ("subspace-lattice", _chk_subspace_lattice),
    ("algebra-table", _chk_algebra_table),
    ("derivation-leibniz", _chk_derivation_leibniz),
    ("derivation-form-hom-dim", _chk_derivation_form_hom_dim),
    ("dsl-roundtrip", _chk_dsl_roundtrip),
    ("dsl-revalidate", _chk_algebra_table),     # rebuilding the canonical mu^2 re-validates
    ("form-dims", _chk_form_dims),
    ("d-squared-zero", _chk_d_squared_zero),
    ("graded-leibniz", _chk_graded_leibniz),
    ("bimodule-associativity", _chk_bimodule_associativity),
    ("commutator-chain", _chk_commutator_chain),
    ("field-form-leibniz", _chk_field_form_leibniz),
    ("contraction-injective", _chk_contraction_injective),
    ("operator-jacobi", _chk_operator_jacobi),
    ("field-space-dim", _chk_field_space_dim),
    ("fn-antisymmetry", _chk_fn_antisymmetry),
    ("projection-curvature-sum", _chk_projection_curvature_sum),
    ("projection-complement", _chk_projection_complement),
    ("action-functoriality", _chk_action_functoriality),
    ("bundle-tensor-dims", _chk_bundle_tensor_dims),
    ("coboundary-squared", _chk_coboundary_squared),
    ("cohomology-routes", _chk_cohomology_routes),
    ("cochain-hom-roundtrip", _chk_cochain_hom_roundtrip),
    ("alternation-canonical", _chk_alternation_idempotent),
    ("insertion-arity", _chk_insertion_arity),
    ("schouten-jacobi", _chk_schouten_jacobi),
    ("bracket-compatibility", _chk_bracket_compatibility),
]


def check_identities(algebra: Algebra, truncation: int, seed: int,
                     action: GroupAction) -> list[tuple[str, Optional[str]]]:
    """(name, witness) for each identity of the registry, in its order: the
    witness is None when the identity holds, and a library error raised by
    a check is that check's witness."""
    env = _VerifyEnv(algebra, truncation, seed, action)
    results = []
    for name, fn in _VERIFY_CHECKS:
        try:
            # string seeds hash via SHA-512 inside random.Random: stable across runs
            witness = fn(env, random.Random(f"{seed}:{name}"))
        except (MathError, HochschildError) as exc:
            witness = f"raised: {exc}"
        results.append((name, witness))
    return results
