"""Deterministic command-line reports over exact algebra computations.

Every subcommand loads one algebra (from a definition file or a builtin
expression), runs exact rational computations, and prints a report to
stdout either as fixed-layout text or as canonically serialized JSON
(sorted keys, two-space indent).  Reports are byte-for-byte reproducible
given the same input, seed, and package version.

Exit codes: 0 when every check passes, 1 when a mathematical check fails
(the report carries a witness), 2 for input or parse errors and for inputs
too large for the available memory (diagnostics go to stderr).

Each subcommand is one body (algebra, N, seed, cap, **args) -> (checks,
data) registered with ``_report``, the one pipeline that loads the input,
maps errors to exit codes and renders the report.
"""

from __future__ import annotations

import json
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import click
import numpy as np

from . import __version__
from .algebra import (Algebra, AlgebraError, AlgebraHom, GroupAction,
                      derivation_vector, derivation_space, inner_derivation,
                      leibniz_terms)
from .connections import (Bundle, GeometryError, action_functoriality_defect,
                          bianchi_identities, bundle_tensor_dims,
                          check_projection_calculus, curvature,
                          curvature_horizontality, find_connections,
                          find_projections, is_connection, is_principal)
from .dsl import (DslError, builtin_algebra, load_algebra_text,
                  parse_group_action, print_algebra)
from .fieldforms import (FieldFormError, FieldValuedForm, algebraic_bracket,
                         contraction, field_from_derivation, field_space,
                         field_valued_form_from_json, field_valued_form_space,
                         fn_bracket, lie_bracket_fields, zero_field_valued_form)
from .forms import (FormError, commutator_subspace, de_rham_homology,
                    form_space, kernel_of_mu_n, product)
from .hochschild import (NormalizedCochain, coboundary, cochain_dim,
                         cochain_to_hom, cohomology_report, form_hom_space,
                         hom_to_cochain, tensor_module)
from .linalg import (QMat, Subspace, format_scalar, kron_apply, parse_scalar, qmat_hstack,
                     qmat_to_json, rank, subspace_from_columns)
from .schouten import (MultiMap, SchoutenError, alternation, commutator_bivector,
                       insertion, multimap_from_json, nr_bracket,
                       poisson_bracket_hom_check, poisson_check)

DEFAULT_SIZE_CAP = 100000
SIZE_CAP_ENV = "NCFORMS_SIZE_CAP"

_MATH_ERRORS = (AlgebraError, GeometryError, FieldFormError, FormError,
                SchoutenError)


class InputError(click.ClickException):
    """Bad input file, expression, or serialized object: exit code 2."""

    exit_code = 2


# ---------------------------------------------------------------------------
# Shared option plumbing
# ---------------------------------------------------------------------------


def _algebra_options(fn: Callable) -> Callable:
    fn = click.option("--size-cap", type=int, default=None,
                      help="Bound on intermediate problem sizes "
                           f"(default from ${SIZE_CAP_ENV} or "
                           f"{DEFAULT_SIZE_CAP}).")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["text", "json"]),
                      default="text", show_default=True,
                      help="Report rendering.")(fn)
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Seed for randomized checks (recorded in the "
                           "report).")(fn)
    fn = click.option("-N", "--truncation", type=int, default=3,
                      show_default=True,
                      help="Degree bound for graded computations (>= 1).")(fn)
    fn = click.option("--builtin", "builtin_expr", default=None,
                      metavar="EXPR",
                      help="Builtin algebra expression, e.g. matrix(2).")(fn)
    fn = click.option("--algebra", "algebra_path", default=None,
                      metavar="FILE",
                      help="Algebra definition file.")(fn)
    return fn


def _resolve_cap(size_cap: Optional[int]) -> int:
    if size_cap is not None:
        cap = size_cap
    else:
        raw = os.environ.get(SIZE_CAP_ENV, "")
        try:
            cap = int(raw) if raw else DEFAULT_SIZE_CAP
        except ValueError:
            raise InputError(f"${SIZE_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise InputError("size cap must be >= 1")
    return cap


def _load_algebra(algebra_path: Optional[str],
                  builtin_expr: Optional[str],
                  truncation: int) -> tuple[Algebra, str]:
    if truncation < 1:
        raise click.UsageError("truncation must be >= 1")
    if (algebra_path is None) == (builtin_expr is None):
        raise click.UsageError(
            "provide exactly one of --algebra FILE or --builtin EXPR")
    try:
        if builtin_expr is not None:
            A, source = builtin_algebra(builtin_expr), f"builtin {builtin_expr}"
        else:
            text = Path(algebra_path).read_text(encoding="utf-8")
            A, source = load_algebra_text(text), f"file {algebra_path}"
    except DslError as exc:
        raise InputError(f"algebra definition: {exc}")
    except OSError as exc:
        raise InputError(f"cannot read {algebra_path}: {exc.strerror}")
    return A, source


def _load_object(algebra: Algebra, path: str, what: str, from_json: Callable):
    """``from_json(algebra, obj)`` for the JSON object in ``path``; a file,
    JSON or content defect exits 2 naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} {path}: invalid JSON ({exc})")
    if not isinstance(obj, dict):
        raise InputError(f"{what} {path}: expected a JSON object")
    try:  # the library's errors are ValueErrors; int() of a non-number is a TypeError
        return from_json(algebra, obj)
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        raise InputError(f"{what} {path}: {exc}")


def _load_action(algebra: Algebra, action_path: Optional[str]) -> GroupAction:
    """Action from a file, or the trivial one-element action."""
    if action_path is None:
        ident = AlgebraHom(algebra, algebra, QMat.eye(algebra.dim), name="id")
        return GroupAction(algebra, [ident])
    try:
        text = Path(action_path).read_text(encoding="utf-8")
        return parse_group_action(text, algebra)
    except DslError as exc:
        raise InputError(f"group action: {exc}")
    except OSError as exc:
        raise InputError(f"cannot read {action_path}: {exc.strerror}")


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------


def _make_report(command: str, algebra: Algebra, source: str, seed: int,
                 truncation: int, size_cap: int,
                 checks: list[dict], data: dict) -> dict:
    checks = sorted(checks, key=lambda c: c["name"])
    passed = sum(1 for c in checks if c["passed"])
    return {
        "version": __version__,
        "command": command,
        "algebra": {"name": algebra.name, "dim": algebra.dim, "source": source},
        "seed": seed,
        "truncation": truncation,
        "size_cap": size_cap,
        "checks": checks,
        "counts": {"checks": len(checks), "passed": passed,
                   "failed": len(checks) - passed},
        "data": data,
    }


def _check(name: str, passed: bool, witness: Optional[str] = None) -> dict:
    return {"name": name, "passed": bool(passed),
            "witness": None if passed else (witness or "identity fails")}


def _render_text(report: dict) -> str:
    lines = [f"ncforms {report['version']} {report['command']}"]
    alg = report["algebra"]
    lines.append(f"algebra: {alg['name']} (dim {alg['dim']}) [{alg['source']}]")
    lines.append(f"seed={report['seed']} truncation={report['truncation']} "
                 f"size-cap={report['size_cap']}")
    for c in report["checks"]:
        if c["passed"]:
            lines.append(f"PASS {c['name']}")
        else:
            lines.append(f"FAIL {c['name']}: {c['witness']}")
    cnt = report["counts"]
    lines.append(f"checks: {cnt['checks']} passed: {cnt['passed']} "
                 f"failed: {cnt['failed']}")
    if report["data"]:
        lines.append("data:")
        for key in sorted(report["data"]):
            lines.append(f"  {key} = "
                         f"{json.dumps(report['data'][key], sort_keys=True)}")
    return "\n".join(lines) + "\n"


def _finish(report: dict, fmt: str) -> None:
    if fmt == "json":
        out = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        out = _render_text(report)
    sys.stdout.write(out)
    if report["counts"]["failed"]:
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# Randomization helpers (coefficients from {-2..2}, seeded per check)
# ---------------------------------------------------------------------------


def _rand_vec(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-2, 2)) for _ in range(n)]


def _rand_matrix(rng: random.Random, rows: int, cols: int) -> QMat:
    return QMat.from_rows([[Fraction(rng.randint(-2, 2)) for _ in range(cols)]
                           for _ in range(rows)])


def _fmt_vec(vec) -> str:
    return "[" + ", ".join(format_scalar(Fraction(v)) for v in vec) + "]"


# ---------------------------------------------------------------------------
# The verification suite
# ---------------------------------------------------------------------------


class _VerifyEnv:
    """Shared state for verify checks: algebra, bounds, cached searches."""

    def __init__(self, algebra: Algebra, truncation: int, seed: int,
                 action: GroupAction):
        self.algebra = algebra
        self.N = truncation
        self.seed = seed
        self.action = action
        self._cache: dict = {}

    def rng(self, name: str) -> random.Random:
        # string seeds hash via SHA-512 inside random.Random: stable across runs
        return random.Random(f"{self.seed}:{name}")

    def derivations(self) -> Subspace:
        if "der" not in self._cache:
            self._cache["der"] = derivation_space(
                self.algebra.regular_bimodule())
        return self._cache["der"]

    def field_basis(self, degree: int) -> list[FieldValuedForm]:
        key = ("fields", degree)
        if key not in self._cache:
            self._cache[key] = field_valued_form_space(self.algebra, degree)
        return self._cache[key]

    def random_field(self, degree: int, rng: random.Random) -> FieldValuedForm:
        K = zero_field_valued_form(self.algebra, degree)
        for b in self.field_basis(degree):
            c = rng.randint(-2, 2)
            if c:
                K = K + b.scale(Fraction(c))
        return K

    def random_derivation(self, rng: random.Random) -> QMat:
        """A random integer combination of the derivation basis, as a matrix."""
        der = self.derivations()
        coeffs = QMat.from_columns(der.dim, [[rng.randint(-2, 2) for _ in range(der.dim)]])
        return (der.basis_matrix() @ coeffs).unvec(self.algebra.dim, self.algebra.dim)

    def random_multimap(self, arity: int, rng: random.Random) -> MultiMap:
        m = self.algebra.dim
        raw = _rand_matrix(rng, m, m ** arity)
        return alternation(MultiMap(self.algebra, arity, raw, check=False))

    def projections(self) -> list:
        if "projs" not in self._cache:
            self._cache["projs"] = find_projections(self.algebra,
                                                    seed=self.seed)
        return self._cache["projs"]

    def bundle(self) -> Bundle:
        if "bundle" not in self._cache:
            self._cache["bundle"] = Bundle(self.algebra,
                                           self.action.fixed_subspace(),
                                           action=self.action)
        return self._cache["bundle"]


def _random_subspace(rng: random.Random, n: int) -> Subspace:
    gens = [_rand_vec(rng, n) for _ in range(rng.randint(0, n))]
    return Subspace.from_generators(n, gens)


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
        mat = _rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        rr, cr = rank(mat.to_fraction_rows()), rank(mat.T.to_fraction_rows())
        if rr != cr:
            rows = [_fmt_vec(r) for r in mat.to_fraction_rows()]
            return (f"row rank {rr} != column rank {cr} "
                    f"for rows [{', '.join(rows)}]")
    return None


def _chk_subspace_lattice(env: _VerifyEnv, rng: random.Random):
    n = 4
    for _ in range(8):
        U = _random_subspace(rng, n)
        V = _random_subspace(rng, n)
        W = _random_subspace(rng, n)
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
    A = env.algebra
    try:
        A.validate()
    except AlgebraError as exc:
        return str(exc)
    for i in range(A.dim):
        ei = [Fraction(int(t == i)) for t in range(A.dim)]
        for j in range(A.dim):
            ej = [Fraction(int(t == j)) for t in range(A.dim)]
            prod = A.mult_vec(ei, ej)
            if tuple(prod) != tuple(A.structure[i][j]):
                return (f"{A.basis_names[i]}*{A.basis_names[j]} evaluates to "
                        f"{_fmt_vec(prod)}, table says "
                        f"{_fmt_vec(A.structure[i][j])}")
    return None


def _chk_derivation_leibniz(env: _VerifyEnv, rng: random.Random):
    # the basis, then a random combination and a commutator map per draw,
    # as the columns of one block for the Leibniz terms
    A = env.algebra
    mod = A.regular_bimodule()
    der = env.derivations()
    draws = [(env.random_derivation(rng), _rand_vec(rng, A.dim)) for _ in range(8)]
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
    d_der = env.derivations().dim
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
    for i in range(A.dim):
        for j in range(A.dim):
            if B.structure[i][j] != A.structure[i][j]:
                return (f"product {A.basis_names[i]}*{A.basis_names[j]} "
                        f"changed from {_fmt_vec(A.structure[i][j])} to "
                        f"{_fmt_vec(B.structure[i][j])}")
    return None


def _chk_dsl_revalidate(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    try:
        Algebra(A.name, A.basis_names, A.structure, check=True)
    except AlgebraError as exc:
        return str(exc)
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
    A = env.algebra
    for k in range(env.N):
        dd = form_space(A, k + 1).apply_d(form_space(A, k).d_matrix())
        nonzero = np.argwhere(dd.num)
        if len(nonzero):
            r, c = nonzero[0]
            return (f"(d o d) on degree {k} has entry "
                    f"{format_scalar(dd.entry(r, c))} at ({r}, {c})")
    return None


def _chk_graded_leibniz(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for _ in range(10):
        k = rng.randint(0, max(0, env.N - 1))
        l = rng.randint(0, max(0, env.N - 1 - k))
        sk, sl = form_space(A, k), form_space(A, l)
        a = sk.form(_rand_vec(rng, sk.dim))
        b = sl.form(_rand_vec(rng, sl.dim))
        sign = -1 if k % 2 else 1
        lhs = product(a, b).d()
        rhs = product(a.d(), b) + product(a, b.d()).scale(sign)
        if lhs != rhs:
            return (f"d(a.b) != da.b + (-1)^{k} a.db for degrees ({k}, {l}), "
                    f"a = {_fmt_vec(a.coords())}, b = {_fmt_vec(b.coords())}")
    return None


def _chk_bimodule_associativity(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    for k in range(min(env.N, 2) + 1):
        sp = form_space(A, k)
        for i in range(A.dim):
            for j in range(A.dim):
                if sp.left[i] @ sp.right[j] != sp.right[j] @ sp.left[i]:
                    return (f"left and right actions do not commute on "
                            f"degree {k} at basis pair "
                            f"({A.basis_names[i]}, {A.basis_names[j]})")
    for _ in range(6):
        k = rng.randint(0, max(0, env.N - 1))
        l = rng.randint(0, max(0, env.N - k))
        sk, sl = form_space(A, k), form_space(A, l)
        a = sk.form(_rand_vec(rng, sk.dim))
        b = sl.form(_rand_vec(rng, sl.dim))
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
        sj = form_space(A, j)
        c = sj.form(_rand_vec(rng, sj.dim))
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
    unit = QMat.column([Fraction(v) for v in A.unit().coeffs])
    for degree in range(min(env.N, 2) + 1):
        for _ in range(4):
            K = env.random_field(degree, rng)
            try:
                FieldValuedForm(A, degree, K.delta, check=True)
            except FieldFormError as exc:
                return f"degree {degree}: {exc}"
            if not (K.delta @ unit).is_zero():
                return (f"degree {degree}: the value on the unit is "
                        f"{_fmt_vec((K.delta @ unit).column_fractions(0))}")
    return None


def _chk_contraction_injective(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    d0 = form_space(A, 0).d_matrix()
    for degree in range(min(env.N, 2) + 1):
        for _ in range(4):
            K = env.random_field(degree, rng)
            block = contraction(K).mat(1)
            if block @ d0 != K.delta:
                return (f"degree {degree}: insertion operator does not "
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
    d_der = env.derivations().dim
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


def _chk_projection_curvature_sum(env: _VerifyEnv, rng: random.Random):
    for idx, p in enumerate(env.projections()):
        fn, R, Rbar = p.brackets()
        if R + Rbar != fn:
            return f"projection {idx}: R + Rbar != [P,P]"
    return None


def _chk_projection_complement(env: _VerifyEnv, rng: random.Random):
    for idx, p in enumerate(env.projections()):
        if curvature(p)[1] != curvature(p.complement())[0]:
            return (f"projection {idx}: cocurvature differs from the "
                    f"complement's curvature")
    return None


def _chk_action_functoriality(env: _VerifyEnv, rng: random.Random):
    bad = action_functoriality_defect(env.action, env.N)
    if bad:
        return (f"group element {bad[0]}: induced map does not "
                f"intertwine d into degree {bad[1]}")
    return None


def _chk_bundle_tensor_dims(env: _VerifyEnv, rng: random.Random):
    dims = bundle_tensor_dims(env.bundle())
    if not dims["equal"]:
        return (f"one-forms minus horizontal is "
                f"{dims['omega1_minus_horizontal']} but the tensor-square "
                f"defect is {dims['tensor_minus_algebra']}")
    return None


def _chk_coboundary_squared(env: _VerifyEnv, rng: random.Random):
    mod = env.algebra.regular_bimodule()
    for n in range(min(env.N, 3) + 1):
        for _ in range(3):
            c = NormalizedCochain.from_vector(
                mod, n, _rand_vec(rng, cochain_dim(mod, n)))
            dd = coboundary(coboundary(c))
            if not dd.is_zero():
                return f"coboundary squared is nonzero on a random {n}-cochain"
    return None


def _routes_witness(rep: dict) -> str:
    """The two dimensions of one ``cohomology_report`` that disagree."""
    return (f"n = {rep['n']}: forms route gives {rep['dim_Hn_forms']}, "
            f"complex route gives {rep['dim_Hn_complex']}")


def _chk_cohomology_routes(env: _VerifyEnv, rng: random.Random):
    A = env.algebra
    modules = [("A", A.regular_bimodule()), ("AxA", tensor_module(A, 1))]
    for label, mod in modules:
        for n in range(min(env.N, 3) + 1):
            rep = cohomology_report(A, mod, n)
            if not rep["agree"]:
                return f"module {label}, {_routes_witness(rep)}"
    return None


def _chk_cochain_hom_roundtrip(env: _VerifyEnv, rng: random.Random):
    mod = env.algebra.regular_bimodule()
    for n in range(min(env.N, 3) + 1):
        for _ in range(3):
            c = NormalizedCochain.from_vector(
                mod, n, _rand_vec(rng, cochain_dim(mod, n)))
            hom = cochain_to_hom(c)
            back = hom_to_cochain(mod, n, hom)
            if back != c:
                return f"cochain -> hom -> cochain changes a random {n}-cochain"
            if cochain_to_hom(back) != hom:
                return f"hom -> cochain -> hom changes a degree-{n} hom"
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
        m1, m2 = env.random_derivation(rng), env.random_derivation(rng)
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
    ("dsl-revalidate", _chk_dsl_revalidate),
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


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


@click.group()
@click.version_option(__version__, prog_name="ncforms")
def main() -> None:
    """Exact differential calculus over finite-dimensional algebras."""


def _report(name: str, *params: Callable) -> Callable:
    """Register ``body(algebra, N, seed, cap, **args) -> (checks, data)`` as
    the subcommand ``name``, its docstring as the help, with the click
    ``params`` ahead of the shared algebra options.  The pipeline loads the
    algebra, resolves the size cap, runs the body and renders the report; a
    library error or running out of memory on the way exits 2 like any bad
    input."""

    def register(body: Callable) -> Callable:
        def command(algebra_path, builtin_expr, truncation, seed, fmt,
                    size_cap, **args):
            A = None
            try:
                A, source = _load_algebra(algebra_path, builtin_expr,
                                          truncation)
                cap = _resolve_cap(size_cap)
                checks, data = body(A, truncation, seed, cap, **args)
                _finish(_make_report(name, A, source, seed, truncation, cap,
                                     checks, data), fmt)
            except _MATH_ERRORS as exc:
                raise InputError(str(exc))
            except MemoryError:
                # the input is too large for this machine: name its size
                msg = f"out of memory in {name}"
                if A is not None:
                    m, N = A.dim, truncation
                    msg += (f" on a dimension-{m} algebra at -N {N} (Omega_{N} "
                            f"has dimension {m * (m - 1) ** N}); try a smaller -N")
                raise InputError(msg) from None

        command = _algebra_options(command)
        for param in reversed(params):
            command = param(command)
        main.command(name=name, help=body.__doc__)(command)
        return body

    return register


def _verdicts(rep: dict[str, bool], prefix: str, subject: str) -> list[dict]:
    """One check per {identity: holds} entry, by key: named ``prefix`` plus
    the dashed key, blaming ``subject`` when it fails."""
    return [_check(prefix + key.replace("_", "-"), ok,
                   f"{subject} violates {key}")
            for key, ok in sorted(rep.items())]


@_report("info")
def info(A, N, seed, cap):
    """Dimensions of the algebra, its form spaces, and its derivations."""
    return [], {
        "basis": list(A.basis_names),
        "omega_dims": [form_space(A, k).dim for k in range(N + 1)],
        "derivation_dim": derivation_space(A.regular_bimodule()).dim,
        "center_dim": A.center().dim,
    }


@_report("verify", click.option(
    "--action", "action_path", default=None, metavar="FILE",
    help="Group action file for the quotient-geometry checks (defaults to "
         "the trivial action)."))
def verify(A, N, seed, cap, action_path):
    """Run the full invariant suite and report each identity."""
    env = _VerifyEnv(A, N, seed, _load_action(A, action_path))
    checks = []
    for name, fn in _VERIFY_CHECKS:
        try:
            witness = fn(env, env.rng(name))
        except _MATH_ERRORS as exc:
            witness = f"raised: {exc}"
        checks.append(_check(name, witness is None, witness))
    return checks, {}


def _bracket(name: str, what: str, from_json: Callable, bracket: Callable,
             doc: str) -> None:
    """A subcommand reporting ``bracket`` of two serialized objects."""
    files = [click.argument(arg, type=click.Path(exists=True, dir_okay=False))
             for arg in ("left_file", "right_file")]

    def body(A, N, seed, cap, left_file, right_file):
        K, L = (_load_object(A, path, what, from_json)
                for path in (left_file, right_file))
        return [], {"left": K.to_json(), "right": L.to_json(),
                    "bracket": bracket(K, L).to_json()}

    body.__doc__ = doc
    _report(name, *files)(body)


_bracket("fn-bracket", "field-valued form", field_valued_form_from_json,
         fn_bracket, "Differential-compatible bracket of two serialized "
                     "field-valued forms.")
_bracket("alg-bracket", "field-valued form", field_valued_form_from_json,
         algebraic_bracket, "Insertion-commutator bracket of two serialized "
                            "field-valued forms.")
_bracket("nr-bracket", "multilinear map", multimap_from_json, nr_bracket,
         "Graded bracket of two serialized skew multilinear maps.")


@_report("curvature")
def curvature_cmd(A, N, seed, cap):
    """Curvature and cocurvature of every projection the search finds."""
    checks, entries = [], []
    projs = find_projections(A, seed=seed)
    for idx, p in enumerate(projs):
        R, Rbar = curvature(p)
        checks += _verdicts(check_projection_calculus(p, N=N),
                            f"projection-{idx:02d}-", f"projection {idx}")
        entries.append({
            "index": idx,
            "endomorphism": qmat_to_json(p.ext),
            "curvature": R.to_json(),
            "cocurvature": Rbar.to_json(),
        })
    return checks, {"projections": entries, "count": len(projs)}


@_report("bianchi")
def bianchi(A, N, seed, cap):
    """Differential identities for the curvature of every found projection."""
    projs = find_projections(A, seed=seed)
    checks = [c for idx, p in enumerate(projs)
              for c in _verdicts(bianchi_identities(p),
                                 f"projection-{idx:02d}-", f"projection {idx}")]
    return checks, {"count": len(projs)}


@_report("connection-check", click.option(
    "--action", "action_path", default=None, metavar="FILE",
    help="Group action file cutting out the base subalgebra (defaults to "
         "the trivial action)."))
def connection_check(A, N, seed, cap, action_path):
    """Find connections on the induced bundle and check their properties."""
    action = _load_action(A, action_path)
    bundle = Bundle(A, action.fixed_subspace(), action=action)
    checks, entries = [], []
    conns = find_connections(bundle)
    for idx, chi in enumerate(conns):
        rep = is_connection(bundle, chi)
        rep.update(curvature_horizontality(bundle, chi))
        checks += _verdicts(rep, f"connection-{idx:02d}-", f"connection {idx}")
        entries.append({
            "index": idx,
            "connection": chi.to_json(),
            "principal": is_principal(bundle, chi),
        })
    return checks, {"connections": entries, "count": len(conns),
                    "base_dim": bundle.base.dim}


@_report("hochschild")
def hochschild(A, N, seed, cap):
    """Cohomology of the algebra in itself, computed along two routes."""
    mod = A.regular_bimodule()
    reports = [cohomology_report(A, mod, n) for n in range(min(N, 3) + 1)]
    checks = [_check(f"routes-agree-n{rep['n']}", rep["agree"], _routes_witness(rep))
              for rep in reports]
    return checks, {"reports": reports}


@_report("derham")
def derham(A, N, seed, cap):
    """Quotient homology dimensions of the truncated form complex."""
    return [], de_rham_homology(A, N, size_cap=cap)


@_report("poisson-check", click.argument(
    "mu_file", required=False, type=click.Path(exists=True, dir_okay=False)))
def poisson_check_cmd(A, N, seed, cap, mu_file):
    """Check a bivector for the bracket axioms (default: the commutator)."""
    if mu_file is not None:
        mu = _load_object(A, mu_file, "multilinear map", multimap_from_json)
    else:
        mu = commutator_bivector(A)
    verdict = poisson_check(mu)
    data = {"bivector": mu.to_json()}
    if verdict["poisson"]:
        data["bracket_maps"] = poisson_bracket_hom_check(mu)
    return _verdicts(verdict, "", "bivector"), data


@_report("kernel-mu-n")
def kernel_mu_n_cmd(A, N, seed, cap):
    """Compare ker(multiplication) with the span of first-slot relations."""
    reports = [kernel_of_mu_n(A, n, size_cap=cap)
               for n in range(2, max(N, 2) + 1)]
    checks = [_check(f"kernel-matches-span-n{rep['arity']}", rep["equal"],
                     f"n = {rep['arity']}: kernel dim {rep['dim_kernel']} "
                     f"vs span dim {rep['dim_span']}") for rep in reports]
    return checks, {"reports": reports}


if __name__ == "__main__":  # pragma: no cover
    main()
