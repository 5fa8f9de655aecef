"""Acceptance suite: the twelve front-door guarantees, all exact.

Every check runs in rational arithmetic with tolerance zero.  Each test
prints a single summary line (visible in the pytest pass report) naming
the guarantee it locks down.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ncforms.algebra import AlgebraHom, derivation_space
from ncforms.dsl import parse_group_action
from ncforms.fieldforms import (FieldValuedForm, algebraic_bracket,
                                check_bracket_expansion_identities,
                                check_lie_contraction_identity, contraction,
                                decompose_derivation, field_space,
                                field_valued_form_space, fn_bracket,
                                lie_operator, pushforward,
                                naturality_report, reconstruct_derivation)
from ncforms.forms import form_space, kernel_of_mu_n, product
from ncforms.hochschild import cocycle_space, cohomology_report
from ncforms.connections import (bianchi_identities, check_projection_calculus,
                                 find_projections)
from ncforms.linalg import QMat
from ncforms.schouten import (MultiMap, alternation, commutator_bivector,
                              is_polyderivation, nr_bracket, poisson_check,
                              polyderivation_space)

from test_algebra import CENTER_DIMS, catalog

F = Fraction


def announce(num: int, ok: bool, desc: str, detail=None):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status}: {desc}")
    assert ok, (num, desc, detail)


# -- shared random-object helpers -------------------------------------------

_FIELD_BASES: dict = {}


def field_basis(A, degree):
    key = (id(A), degree)
    if key not in _FIELD_BASES:
        _FIELD_BASES[key] = field_valued_form_space(A, degree)
    return _FIELD_BASES[key]


def rand_field(A, degree, rng):
    delta = QMat.zeros(form_space(A, degree).dim, A.dim)
    for b in field_basis(A, degree):
        c = rng.randint(-2, 2)
        if c:
            delta = delta + b.delta.scale(F(c))
    return FieldValuedForm(A, degree, delta, check=False)


def rand_polyderivation(A, arity, basis, rng):
    mm = MultiMap.zeros(A, arity)
    for b in basis:
        c = rng.randint(-2, 2)
        if c:
            mm = mm + b.scale(F(c))
    return mm


def agree_to(D, E, top):
    """Do D and E take every form of degree <= top to the same image?"""
    return D.degree == E.degree and all(
        D.apply(n, I) == E.apply(n, I)
        for n, I in ((n, QMat.eye(form_space(D.algebra, n).dim)) for n in range(top + 1)))


# ---------------------------------------------------------------------------


def test_criterion_01_differential_squares_to_zero_and_graded_leibniz():
    rng = random.Random(101)
    failure = None
    for name, A in catalog().items():
        for k in range(3):
            comp = form_space(A, k + 1).d_matrix @ form_space(A, k).d_matrix
            if not comp.is_zero():
                failure = (name, "d o d", k)
        for _ in range(12):
            k = rng.randint(0, 2)
            l = rng.randint(0, 2 - k)
            sk, sl = form_space(A, k), form_space(A, l)
            a = sk.form([F(rng.randint(-2, 2)) for _ in range(sk.dim)])
            b = sl.form([F(rng.randint(-2, 2)) for _ in range(sl.dim)])
            rhs = product(a.d(), b) + product(a, b.d()).scale(
                -1 if k % 2 else 1)
            if product(a, b).d() != rhs:
                failure = (name, "graded Leibniz", (k, l))
    announce(1, failure is None,
             "d squares to zero and obeys the graded Leibniz rule in all "
             "degrees <= 3 on every builtin", failure)


def test_criterion_02_form_space_dimensions():
    failure = None
    for name, A in catalog().items():
        m = A.dim
        for k in range(4):
            if form_space(A, k).dim != m * (m - 1) ** k:
                failure = (name, k, form_space(A, k).dim)
    announce(2, failure is None,
             "dim of the degree-k form space is m(m-1)^k for k <= 3 on "
             "every builtin", failure)


def test_criterion_03_three_derivation_dimension_routes_agree():
    failure = None
    values = {}
    for name, A in catalog().items():
        d1 = derivation_space(A.regular_bimodule()).dim
        d2 = len(field_space(A))
        d3 = cocycle_space(A.regular_bimodule(), 1).dim
        values[name] = (d1, d2, d3)
        if not d1 == d2 == d3:
            failure = (name, d1, d2, d3)
    if values["m2"] != (3, 3, 3):
        failure = ("m2 spot value", values["m2"])
    if values["dual"] != (1, 1, 1):
        failure = ("dual spot value", values["dual"])
    announce(3, failure is None,
             "derivation dim = field-space dim = normalized 1-cocycle dim "
             "on every builtin (matrix algebra 3, dual numbers 1)", failure)


def test_criterion_04_bracket_operator_identities_on_seeded_pairs():
    failure = None
    small_fn = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0), (1, 2),
                (2, 1), (2, 2)]
    large_fn = [(0, 0), (0, 1), (1, 0), (1, 1)]
    delta_combos = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for name, A in catalog().items():
        rng = random.Random(f"pairs:{name}")
        fn_combos = small_fn if A.dim <= 3 else large_fn
        for i in range(52):          # >= 50 seeded pairs per identity
            k, l = fn_combos[i % len(fn_combos)]
            K, L = rand_field(A, k, rng), rand_field(A, l, rng)
            lhs = lie_operator(K).commutator(lie_operator(L))
            if not agree_to(lhs, lie_operator(fn_bracket(K, L)), 2):
                failure = (name, "lie-operator identity", (k, l), i)
        for i in range(52):
            k, l = delta_combos[i % len(delta_combos)]
            K, L = rand_field(A, k, rng), rand_field(A, l, rng)
            lhs = contraction(K).commutator(contraction(L))
            if not agree_to(lhs, contraction(algebraic_bracket(K, L)), 2):
                failure = (name, "insertion-operator identity", (k, l), i)
    announce(4, failure is None,
             "insertion and Lie operators turn both brackets into operator "
             "commutators degreewise to 2, >= 50 seeded pairs per algebra",
             failure)


def test_criterion_05_decomposition_round_trip():
    failure = None
    count = 0
    for name, A in catalog().items():
        rng = random.Random(f"decompose:{name}")
        for i in range(8):
            k = i % 3
            K = rand_field(A, k, rng)
            L = rand_field(A, k + 1, rng)
            D = reconstruct_derivation(K, L, 2)
            K2, L2 = decompose_derivation(D)
            if K2 != K or L2 != L:
                failure = (name, k, i)
            count += 1
    announce(5, failure is None and count >= 50,
             f"decomposing (Lie part + insertion part) recovers the pair "
             f"exactly on {count} seeded samples", failure)


def test_criterion_06_contraction_and_expansion_identities():
    failure = None
    for name, A in catalog().items():
        rng = random.Random(f"identities:{name}")
        if A.dim <= 3:
            lc_combos = [(0, 1), (1, 1), (1, 2), (2, 2), (2, 3)]
            ex_combos = [(0, 0), (0, 1), (1, 1), (1, 2)]
        else:
            lc_combos = [(0, 1), (1, 1), (1, 2)]
            ex_combos = [(0, 0), (0, 1), (1, 1)]
        for i in range(26):          # 26 + 26 >= 50 tuples per algebra
            k, lsub = lc_combos[i % len(lc_combos)]
            K = rand_field(A, k, rng)
            L = rand_field(A, lsub, rng)
            if not check_lie_contraction_identity(K, L, trunc=2):
                failure = (name, "contraction identity", (k, lsub), i)
        for i in range(26):
            k1, k2 = ex_combos[i % len(ex_combos)]
            K1, K2 = rand_field(A, k1, rng), rand_field(A, k2, rng)
            L1 = rand_field(A, k1 + 1, rng)
            L2 = rand_field(A, k2 + 1, rng)
            rep = check_bracket_expansion_identities(K1, K2, L1, L2, trunc=2)
            if not rep["all"]:
                failure = (name, "expansion identities", (k1, k2), i, rep)
    announce(6, failure is None,
             "the mixed contraction identity and all three bracket-expansion "
             "identities hold on >= 50 seeded tuples per algebra", failure)


def test_criterion_07_projection_calculus_everywhere():
    failure = None
    total = 0
    for name, A in catalog().items():
        for p in find_projections(A, seed=5):
            total += 1
            rep = check_projection_calculus(p, N=3)
            if not rep["all"]:
                failure = (name, "projection calculus", rep)
            brep = bianchi_identities(p)
            if not brep["all"]:
                failure = (name, "differential identities", brep)
    announce(7, failure is None and total > 0,
             f"curvature formulas, kernel ideals degreewise to 3, flatness "
             f"iff involutivity, and both differential identities hold for "
             f"all {total} projections found", failure)


def test_criterion_08_cohomology_two_routes_and_spot_values():
    failure = None
    dims = {}
    for name, A in catalog().items():
        mod = A.regular_bimodule()
        reports = [cohomology_report(A, mod, n) for n in range(4)]
        for rep in reports:
            if not rep["agree"]:
                failure = (name, rep)
        dims[name] = [rep["dim_Hn_complex"] for rep in reports]
        if dims[name][0] != CENTER_DIMS[name]:
            failure = (name, "H0 is not the center dim", dims[name][0])
    if dims["m2"][1] != 0:
        failure = ("m2 first cohomology", dims["m2"][1])
    if dims["dual"][1] != 1:
        failure = ("dual first cohomology", dims["dual"][1])
    announce(8, failure is None,
             "cohomology via form homs and via the normalized complex agree "
             "for n <= 3 with the expected spot values", failure)


def test_criterion_09_multiplication_kernel_subspace_equality():
    failure = None
    for name, A in catalog().items():
        for n in (2, 3):
            rep = kernel_of_mu_n(A, n)
            if not rep["equal"]:
                failure = (name, n, rep)
    announce(9, failure is None,
             "the multiplication kernel equals the span of first-slot "
             "relation tensors for n = 2, 3 on every builtin", failure)


def test_criterion_10_polyderivation_closure_and_poisson_commutator():
    failure = None
    brackets = 0
    for name, A in catalog().items():
        rng = random.Random(f"closure:{name}")
        spaces = {a: polyderivation_space(A, a) for a in (1, 2)}
        for a1, a2 in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for _ in range(5):
                K1 = rand_polyderivation(A, a1, spaces[a1], rng)
                K2 = rand_polyderivation(A, a2, spaces[a2], rng)
                if not is_polyderivation(nr_bracket(K1, K2)):
                    failure = (name, "closure", (a1, a2))
                brackets += 1
        verdict = poisson_check(commutator_bivector(A))
        if not verdict["poisson"]:
            failure = (name, "commutator bivector", verdict)
    announce(10, failure is None,
             f"graded brackets of {brackets} seeded polyderivation pairs "
             f"stay polyderivations; the commutator bivector is Poisson on "
             f"every builtin", failure)


SWAP_ACTION = """
action swap {
    elements e, s;
    e*e = e; e*s = s; s*e = s; s*s = e;
    map e: 1 -> 1, a.1 -> a.1;
    map s: 1 -> 1, a.1 -> 1 - a.1;
}
"""


def test_criterion_11_naturality_under_quotient_and_swap():
    failure = None
    algebras = catalog()
    quot = AlgebraHom(algebras["truncpoly3"], algebras["dual"],
                      QMat.from_rows([[1, 0, 0], [0, 1, 0]]), name="quot")
    swap = parse_group_action(SWAP_ACTION, algebras["kxk"]).homs["s"]
    for label, f in (("quotient", quot), ("swap", swap)):
        rng = random.Random(f"naturality:{label}")
        related = 0
        for k1, k2 in ((0, 0), (0, 1), (1, 1), (1, 2)):
            for _ in range(8):
                K1 = rand_field(f.source, k1, rng)
                K2 = rand_field(f.source, k2, rng)
                K1p = pushforward(f, K1)
                K2p = pushforward(f, K2)
                if K1p is None or K2p is None:
                    continue
                rep = naturality_report(f, K1, K2, K1p, K2p)
                related += 1
                if not rep["all"]:
                    failure = (label, (k1, k2), rep)
        if related < 10:
            failure = (label, "too few related pairs", related)
    announce(11, failure is None,
             "pushforward-related pairs have related insertion and "
             "differential brackets along the quotient and swap maps",
             failure)


def test_criterion_12_cli_determinism_and_exit_codes(tmp_path):
    failure = None

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ncforms.cli", *args],
                              capture_output=True, timeout=300)

    spec_args = ("verify", "--builtin", "matrix(2)", "-N", "2", "--seed", "42")
    first, second = run(*spec_args), run(*spec_args)
    if not (first.returncode == second.returncode == 0):
        failure = ("verify exit", first.returncode, second.returncode,
                   first.stderr.decode())
    elif first.stdout != second.stdout or not first.stdout:
        failure = ("verify bytes differ between identical runs",)

    jargs = ("verify", "--builtin", "dual", "-N", "2", "--seed", "42",
             "--format", "json")
    j1, j2 = run(*jargs), run(*jargs)
    if j1.stdout != j2.stdout or j1.returncode != 0:
        failure = failure or ("json bytes differ between identical runs",)

    broken = tmp_path / "broken.alg"
    broken.write_text("algebra broken { basis 1, x, y; x*x = y; x*y = 1; "
                      "y*x = x; y*y = y; }")
    r2 = run("verify", "--algebra", str(broken))
    if r2.returncode != 2 or b"not associative" not in r2.stderr:
        failure = failure or ("corrupted table exit", r2.returncode)

    raw = MultiMap(catalog()["m2"], 2, QMat.from_rows(
        [[F((i * 7 + j * 3) % 5 - 2) for j in range(16)] for i in range(4)]),
        check=False)
    bad = tmp_path / "bad_mu.json"
    bad.write_text(json.dumps(alternation(raw).to_json()))
    r1 = run("poisson-check", str(bad), "--builtin", "m2")
    if r1.returncode != 1:
        failure = failure or ("failing bivector exit", r1.returncode)

    announce(12, failure is None,
             "CLI reports are byte-identical across reruns and exit codes "
             "are 0 / 1 / 2 for pass / math failure / bad input", failure)
