"""Command-line interface: reports, determinism, exit codes, schema."""

import hashlib
import importlib
import json
import os
import random
import re
import resource
import subprocess
import sys
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import click
import jsonschema
import pytest
from click.testing import CliRunner

from ncforms import cli, connections, identities
from ncforms.algebra import Algebra, MathError, inner_derivation
from ncforms.cli import main
from ncforms.dsl import builtin_algebra
from ncforms.fieldforms import (FieldValuedForm, GradedDerivation, field_from_derivation,
                                field_valued_form_from_json,
                                field_valued_form_space, fn_bracket, lie_operator)
from ncforms.forms import form_space
from ncforms.identities import _VERIFY_CHECKS
from ncforms.linalg import QMat
from ncforms.schouten import (MultiMap, alternation, commutator_bivector,
                              multimap_from_json, nr_bracket)
from oracles import table_algebra
from test_dsl import MALFORMED_ACTIONS
from test_imports import run_python

# every error class a report maps to exit code 2
_MATH_ERRORS = tuple(MathError.__subclasses__())

BUILTINS = ["k", "dual", "truncpoly3", "kxk", "m2", "kc2", "upper2"]
ROOT = Path(__file__).resolve().parent.parent

SWAP_ACTION = """
action swap {
    elements e, s;
    e*e = e; e*s = s; s*e = s; s*s = e;
    map e: 1 -> 1, a.1 -> a.1;
    map s: 1 -> 1, a.1 -> 1 - a.1;
}
"""

BROKEN_TABLE = """
algebra broken {
    basis 1, x, y;
    x*x = y;
    x*y = 1;
    y*x = x;
    y*y = y;
}
"""


def run_cli(*args, env=None):
    return CliRunner(env=env).invoke(main, list(args))


def run_json(*args, env=None):
    result = run_cli(*args, "--format", "json", env=env)
    report = json.loads(result.stdout) if result.stdout else None
    return result, report


def load_schema():
    text = (files("ncforms") / "schemas" / "report.schema.json").read_text()
    return json.loads(text)


def frac(v):
    return Fraction(v)


@pytest.fixture(scope="module")
def m2():
    return builtin_algebra("m2")


@pytest.fixture(scope="module")
def m2_fields(m2, tmp_path_factory):
    """Two serialized degree-0 fields and one degree-1 field over m2."""
    base = tmp_path_factory.mktemp("fields")
    mod = m2.regular_bimodule()
    X = field_from_derivation(
        m2, inner_derivation(mod, [frac(0), frac(1), frac(0), frac(0)]))
    Y = field_from_derivation(
        m2, inner_derivation(mod, [frac(0), frac(0), frac(1), frac(0)]))
    L = field_valued_form_space(m2, 1)[0]
    paths = {}
    for name, obj in (("X", X), ("Y", Y), ("L", L)):
        p = base / f"{name}.json"
        p.write_text(json.dumps(obj.to_json()))
        paths[name] = str(p)
    return {"X": X, "Y": Y, "L": L, "paths": paths}


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------


def test_info_reports_form_dims_for_dual():
    result, report = run_json("info", "--builtin", "dual", "-N", "3")
    assert result.exit_code == 0
    assert report["data"]["omega_dims"] == [2, 2, 2, 2]
    assert report["algebra"] == {"name": "dual", "dim": 2,
                                 "source": "builtin dual"}


def test_info_includes_center_and_derivation_dims():
    result, report = run_json("info", "--builtin", "m2")
    assert result.exit_code == 0
    assert report["data"]["derivation_dim"] == 3
    assert report["data"]["center_dim"] == 1
    assert report["data"]["basis"] == ["1", "E11", "E12", "E21"]


def test_info_text_layout():
    result = run_cli("info", "--builtin", "dual", "-N", "2", "--seed", "9")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("ncforms ")
    assert lines[0].endswith(" info")
    assert lines[1] == "algebra: dual (dim 2) [builtin dual]"
    assert lines[2] == "seed=9 truncation=2 size-cap=100000"
    assert "checks: 0 passed: 0 failed: 0" in lines


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_square_matrix_algebra_passes():
    result, report = run_json("verify", "--builtin", "matrix(2)",
                              "-N", "2", "--seed", "42")
    assert result.exit_code == 0
    assert report["counts"]["failed"] == 0
    assert report["counts"]["checks"] == len(_VERIFY_CHECKS)


@pytest.mark.parametrize("name", BUILTINS)
def test_verify_passes_on_every_builtin(name):
    result, report = run_json("verify", "--builtin", name, "-N", "2",
                              "--seed", "5")
    assert result.exit_code == 0, result.stdout
    assert report["counts"]["failed"] == 0


# sha256 of the whole JSON stdout of verify -N 2 --seed 5, taken while the
# identity suite still lived in the cli module
VERIFY_REPORT_DIGESTS = {
    "k": "03c601e63960424cf550ba6640822869e986c3e5f76cd2cdbf46f0f5a0dcf918",
    "dual": "15a40bc252f08c79645e466d9677f2a6c8eac9eaf75fff0ec194842049288561",
    "truncpoly3": "4c76886d859fecd813fcd8245f86139e7b723ef4f5b9f36c08123eee353e6663",
    "kxk": "16efbeda59cf91ff0cfbdf198f3402ab0805e4e5a032de33ff4fee38a3e68e78",
    "m2": "e869cbcca7138e65142140e079409b354536936fb755f77fbbb6e08f518101b2",
    "kc2": "cb7b4159ed9fa36ea3e8f3ca24b75a3ab3a2225a345ffc0bb9fcbc25a6ee8941",
    "upper2": "6afd2f434b7b081a83118043f0a26d6de8d21df53d6ae41d018648a0cb04de78",
}


@pytest.mark.parametrize("name", BUILTINS)
def test_verify_report_matches_its_digest(name):
    result = run_cli("verify", "--builtin", name, "-N", "2", "--seed", "5",
                     "--format", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == VERIFY_REPORT_DIGESTS[name]


# sha256 of the whole JSON stdout of each remaining report at its default
# seed and -N (derham at -N 4), taken before each report loaded only the
# modules its subcommand runs
REPORT_DIGESTS = {
    ("info", "k"):
        "2956068b9a54ccfd70d2dc78d503140d8cc470f6cd1627c0496035336717c99c",
    ("info", "dual"):
        "13cd3277c0cdc2e071835b5c5fe18d413d024d7913a85359031e58795d350264",
    ("info", "truncpoly3"):
        "522885d3b73ef35baf48f2854c2e0e96c827449eca2f439163cb0fdc88b45923",
    ("info", "kxk"):
        "8d8790170a21bbff339906e93168ac004243d1316a7a55117d5c234e2e36df42",
    ("info", "m2"):
        "a592764181ceed4351535b4b51f3f76f325aa28d8ec879e813eb20ecf2f44248",
    ("info", "kc2"):
        "d29bce1f75baa602f31ff17e6701add57393a00cc8da3ee165e26b4e745dad3c",
    ("info", "upper2"):
        "350a5846590f5431ae2c2d37c46858d2d05b2a0f2b2a153bd09ff4d52d89e07d",
    ("hochschild", "k"):
        "402a13e8817a433ee2d55ba5c3c700d64890934c4e574b2485fbc758ad3ad94e",
    ("hochschild", "dual"):
        "1c390058b9665686a01c72ff100a30b92779f5363c7e67eb8a8ceb19566d4604",
    ("hochschild", "truncpoly3"):
        "6567e1af2201e82cdecf6c5c3a75655289935d3713725d875886908413c6e0e9",
    ("hochschild", "kxk"):
        "039c1b2df3f837a99983829f0366c4a795ffc113c0ac0f8b72c4a168468cb1ed",
    ("hochschild", "m2"):
        "4b15124fa022044cc42759327cf9833b2b198862e4b74770714076d6732444fa",
    ("hochschild", "kc2"):
        "9739f7d374790e2bf3c66f965b260fa2bd361b204db6c0730e642783622b922d",
    ("hochschild", "upper2"):
        "cc1a068212f67e06078985da43463744736736e20eb5da978d133bdb6b454e54",
    ("derham", "k"):
        "9fada1fbcc6327b3580f3cf91eca1b09cec99d25460aba2714fe8d2f2277aed0",
    ("derham", "dual"):
        "8e668ae264b7f72fb455899392d3d87458d2672d2a881753ab0b017ba63a1446",
    ("derham", "truncpoly3"):
        "f3628dbbd4941724e7b1f0c0abed096a2de9ef547209042573b645e5574f035d",
    ("derham", "kxk"):
        "9add25d9edbd324e5a0d6258eca3ba374f5d04403b01ddba0e6ec2cf7fce68e0",
    ("derham", "m2"):
        "2b00dac1fbd7f0fbe93ae5321e8dc19bfdf4e1f9b49812872401b2009b4903cd",
    ("derham", "kc2"):
        "b3de587feef28d5877066a0eeabf34951b4d90761bd62f59d39e8cd23120b290",
    ("derham", "upper2"):
        "9234f9d0de2c1778e6b3f10577f18d742d97685cd32aa7840a56baecf2b6e195",
    ("kernel-mu-n", "k"):
        "916e0d34726996b72e60771718d1b0ab00003bb8bdbaf825f336c07bb6834c40",
    ("kernel-mu-n", "dual"):
        "b6b72e7ffcdfb72bdb4b50872b4da38ea1b3b1d4a1a6b19bc572691f01b4c298",
    ("kernel-mu-n", "truncpoly3"):
        "bf32816db21cdc9a9b0e94a763cee3e62861487f935fe6a9c7aead8c893b23e7",
    ("kernel-mu-n", "kxk"):
        "d15e786056159d530db9146f9569921bde2f799715203f5fa3337f53d7f69525",
    ("kernel-mu-n", "m2"):
        "00dd1d95ca8b54c9354dcb3823cd08eacc517dc84e79b94a4cb544ed72decd93",
    ("kernel-mu-n", "kc2"):
        "a19a31a76a54fa4c0e66cbf566a704416ad5078967142a750148c815e63ba24f",
    ("kernel-mu-n", "upper2"):
        "3310b7a2aaaed49fac78c9692b39deb72733c557c020f1a4a3efc2bacfdb88eb",
    ("poisson-check", "k"):
        "2b3e9677967a976423203431c4b3ebe29fc17ded8411f0fcf7559b6f84363477",
    ("poisson-check", "dual"):
        "ff99b1350a55ad2b0a61468f902367e9b6d2ae5a9d51baf00b63faac99a0f501",
    ("poisson-check", "truncpoly3"):
        "01351e35411a32dd5d782fcadfda3b36a8bd434626de15c0233c5fe9a2067842",
    ("poisson-check", "kxk"):
        "b53fbb5a5bf6bf3550d3d6d8fe8627be430b006b3c8ddd4b1f49845fdc5d0734",
    ("poisson-check", "m2"):
        "c939fd296d0b139bd7633d2a2dbed692b2e4f4dfe08081db3c802025aeb47d95",
    ("poisson-check", "kc2"):
        "acfc6e25c4c02c72955e1da84e30a7314efeb71474d768e92cbd78fbab75625f",
    ("poisson-check", "upper2"):
        "cc6f95b1e13b698640182a403c1dd9ce7bc1f1a6375ec648dbaef8e4350dc282",
    ("connection-check", "k"):
        "cc65a17196ab63964ce3142f423f9690f0f26535d2301bbe4d2765de231b00e4",
    ("connection-check", "dual"):
        "d77788402255e668716a99575b40f24124f49ba514252e3350ed76d75da6c594",
    ("connection-check", "truncpoly3"):
        "7ce75ffbdb0f0cce50c61d02df817a435c79e2fd64f1553dcbe79ee2c456d758",
    ("connection-check", "kxk"):
        "b60f635b6aaab95ed8949f1c1328ae91531d5c980b3af12b1848a242129e8b74",
    ("connection-check", "m2"):
        "0127808b5125c8a419e6d5207615bf8ecd234c8a41c93e5e5e4d692d5c47ddd9",
    ("connection-check", "kc2"):
        "94ad1921366eaaa11b7e93fccfb285513c420e17d9382df1e9b7a00b4c66786e",
    ("connection-check", "upper2"):
        "cc9bc676976a2cdec541ea833f215caa4a7c8ad20372b96a579d1e22bf50bec6",
}
REPORT_ARGS = {"derham": ("-N", "4")}


@pytest.mark.parametrize("command, name", REPORT_DIGESTS)
def test_report_matches_its_digest(command, name):
    result = run_cli(command, "--builtin", name, *REPORT_ARGS.get(command, ()),
                     "--format", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == REPORT_DIGESTS[command, name]


def test_operator_jacobi_builds_the_same_operators_for_every_seed(m2, monkeypatch):
    # the seed draws the fields, not the degrees: the operators applied and
    # the blocks they are applied to, and with them the time and memory of
    # the check, are the same for any seed
    env = identities._VerifyEnv(m2, 2, 0, cli._load_action(m2, None))
    applied = []
    apply = GradedDerivation.apply

    def applying(self, n, X):
        applied.append((self.degree, n, X.shape))
        return apply(self, n, X)

    monkeypatch.setattr(GradedDerivation, "apply", applying)
    runs = []
    for seed in range(4):
        applied.clear()
        assert identities._chk_operator_jacobi(env, random.Random(seed)) is None
        runs.append(list(applied))
    assert all(run == runs[0] for run in runs)
    # the (1,1,1) triple reaches fields of degree 3, whose deltas are in Omega_3
    assert max(n + degree for degree, n, _ in runs[0]) == 3


def test_operator_jacobi_allocates_no_top_degree_square(m2, largest_qmat, monkeypatch):
    # the brackets apply the Lie operators to the fields' deltas and never
    # build an operator's matrix: the largest block is Omega_2's stacked
    # right action (144 x 36) times 12 forms, far below an operator's
    # 324 x 324 matrix on Omega_4
    env = identities._VerifyEnv(m2, 2, 0, cli._load_action(m2, None))
    identities._chk_operator_jacobi(env, random.Random(0))     # fills the field cache

    def refuse(self, n):
        raise AssertionError(f"built the matrix of an operator on degree {n}")

    monkeypatch.setattr(GradedDerivation, "mat", refuse)
    largest_qmat.reset()
    assert identities._chk_operator_jacobi(env, random.Random(0)) is None
    assert largest_qmat.size <= 144 * 12, largest_qmat.shape


def _sign_flipped_bracket(K, L):
    sign = (-1) ** ((K.degree * L.degree) % 2)
    delta = (lie_operator(K).apply(L.degree, L.delta)
             + lie_operator(L).apply(K.degree, K.delta).scale(sign))
    return FieldValuedForm(K.algebra, K.degree + L.degree, delta, check=False)


def _one_term_bracket(K, L):
    delta = lie_operator(K).apply(L.degree, L.delta)
    return FieldValuedForm(K.algebra, K.degree + L.degree, delta, check=False)


@pytest.mark.parametrize("mutant", [_sign_flipped_bracket, _one_term_bracket])
@pytest.mark.parametrize("name", ["dual", "m2", "upper2"])
def test_operator_jacobi_fails_for_a_bracket_that_is_not_graded_lie(name, mutant,
                                                                    monkeypatch):
    A = builtin_algebra(name)
    env = identities._VerifyEnv(A, 2, 0, cli._load_action(A, None))
    assert identities._chk_operator_jacobi(env, random.Random(1)) is None
    monkeypatch.setattr(identities, "fn_bracket", mutant)
    witness = identities._chk_operator_jacobi(env, random.Random(1))
    assert witness is not None and witness.startswith("graded Jacobi of the bracket fails")


def _run_check(name, A, seed=0):
    """The witness of one registry check, seeded as check_identities seeds it."""
    env = identities._VerifyEnv(A, 1, seed, cli._load_action(A, None))
    return dict(_VERIFY_CHECKS)[name](env, random.Random(f"{seed}:{name}"))


def _not_associative():
    """x*x = y and x*y = 1, unchecked: (x x) x = y x = 0 but x (x x) = x y = 1."""
    table = [[[Fraction(int(k == i + j)) if i * j == 0 else Fraction(0) for k in range(3)]
              for j in range(3)] for i in range(3)]
    table[1][1][2] = table[1][2][0] = Fraction(1)
    return table_algebra("bad", ["1", "x", "y"], table, check=False)


def test_algebra_table_names_the_first_pair_that_is_not_associative():
    A = _not_associative()
    assert _run_check("algebra-table", A) == "bad: product not associative at (x, x)"
    assert _run_check("algebra-table", builtin_algebra("m2")) is None
    # mu^2 is stored canonical, so rebuilding the algebra is the same check
    assert dict(_VERIFY_CHECKS)["dsl-revalidate"] is identities._chk_algebra_table


def test_a_hochschild_error_is_its_checks_witness():
    # the Hochschild comparison map fails on a product that is not
    # associative; the other 28 witnesses still come back
    A = _not_associative()
    results = identities.check_identities(A, 1, 0, cli._load_action(A, None))
    assert [name for name, _ in results] == [name for name, _ in _VERIFY_CHECKS]
    witnesses = dict(results)
    assert witnesses["cohomology-routes"] == "raised: comparison image escaped the hom space"
    assert witnesses["algebra-table"] == "bad: product not associative at (x, x)"


def test_projection_checks_build_no_ideal_chain(monkeypatch):
    # both read connections.projection_bracket_identities, once per projection
    def refuse(*args):
        raise AssertionError("ideal chain built")

    monkeypatch.setattr(connections, "ideal_component", refuse)
    calls = []
    bracket_identities = connections.projection_bracket_identities
    monkeypatch.setattr(identities, "projection_bracket_identities",
                        lambda p: calls.append(p) or bracket_identities(p))
    A = builtin_algebra("m2")
    env = identities._VerifyEnv(A, 1, 0, cli._load_action(A, None))
    for name in ("projection-curvature-sum", "projection-complement"):
        assert dict(_VERIFY_CHECKS)[name](env, random.Random(0)) is None
    assert calls == env.projections and len(calls) > 2


def _one_column_off(A, row, col):
    """A's mu^2 with entry (row, col) raised by 1, unchecked."""
    m = A.dim
    return Algebra(A.name, A.basis_names,
                   A.mu2 + QMat.from_coo((m, m * m), [(row, col, 1)]), check=False)


def test_dsl_roundtrip_names_the_changed_product(monkeypatch):
    A = builtin_algebra("truncpoly3")
    assert _run_check("dsl-roundtrip", A) is None
    # the text leaves the unit's products to the unit law: 1*t = 2t comes back as t
    assert (_run_check("dsl-roundtrip", _one_column_off(A, 1, 1))
            == "product 1*t changed from [0, 2, 0] to [0, 1, 0]")
    # a loader that corrupts column t*t
    load = identities.load_algebra_text
    monkeypatch.setattr(identities, "load_algebra_text",
                        lambda text: _one_column_off(load(text), 2, 4))
    assert (_run_check("dsl-roundtrip", A)
            == "product t*t changed from [0, 0, 1] to [0, 0, 2]")


def _one_entry_off(F, row, col):
    """F with entry (row, col) raised by 1."""
    num = F.num.copy()
    num[row, col] += F.den
    return QMat(num, F.den)


def _break_d(A, patch):
    # d_0 sends e_1 to (0; 1) + (1; 1): every degree's d, the term d_0 (x) I, reads it
    d0 = form_space(A, 0).d_matrix
    patch.setitem(vars(form_space(A, 0)), "d_matrix", _one_entry_off(d0, A.dim - 1, 1))


def _break_right_action(A, patch):
    # entry (2, 0) of C01, the factor of e_1's right action on Omega_1 that
    # multiplies the leading coefficients (its last term)
    sp = form_space(A, 1)
    merge, (C01, *rest) = sp.right[1]
    patch.setitem(vars(sp), "right", [sp.right[0], [merge, (_one_entry_off(C01, 2, 0), *rest)],
                                      *sp.right[2:]])


@pytest.mark.parametrize("check,breaker", [
    ("d-squared-zero", _break_d),
    ("action-functoriality", _break_d),
    ("bimodule-associativity", _break_right_action),
    ("commutator-chain", _break_right_action)])
def test_rewritten_checks_find_a_witness_for_a_broken_operator(check, breaker, monkeypatch):
    # each check reads the operators it is about: one wrong entry of d or
    # of an action gives a witness, and the same check passes on the intact ones
    fn = dict(_VERIFY_CHECKS)[check]
    A = builtin_algebra("m2")
    env = identities._VerifyEnv(A, 2, 0, cli._load_action(A, None))
    with monkeypatch.context() as patch:
        breaker(A, patch)
        assert fn(env, random.Random(0)) is not None
    B = builtin_algebra("m2")
    assert fn(identities._VerifyEnv(B, 2, 0, cli._load_action(B, None)),
              random.Random(0)) is None


@pytest.mark.parametrize("expr,N,dims", [
    ("m2", 8, [4 * 3 ** k for k in range(9)]),
    ("matrix(3)", 3, [9, 72, 576, 4608])])
def test_info_reads_dimensions_without_building_actions(expr, N, dims):
    # dims of spaces whose dense actions alone would not fit in memory
    # (2m squares of side 26,244, or 18 of side 4,608)
    result = run_subprocess("info", "--builtin", expr, "-N", str(N),
                            "--format", "json")
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["data"]["omega_dims"] == dims


def test_verify_matrix3_runs_in_one_gigabyte():
    # the address-space limit is set in the child only
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    result = subprocess.run([sys.executable, "-m", "ncforms.cli", "verify", "--builtin",
                             "matrix(3)", "-N", "1", "--format", "json"],
                            capture_output=True, timeout=120, preexec_fn=limit)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["counts"] == {"checks": 29, "passed": 29, "failed": 0}


@pytest.mark.parametrize("args", [
    ("derham", "--builtin", "m2", "-N", "7"),
    ("derham", "--builtin", "matrix(3)", "-N", "3"),
    ("hochschild", "--builtin", "matrix(3)", "-N", "3")])
def test_frontier_reports_run_in_one_gigabyte(args):
    # the actions are term lists, never dense squares: these reports died on
    # a MemoryError while the actions of Omega_7 (2916^2 ... 8748^2) or of the
    # free bimodule of matrix(3) at n = 3 (5184^2) were built dense
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))

    result = subprocess.run([sys.executable, "-m", "ncforms.cli", *args, "--format", "json"],
                            capture_output=True, timeout=300, preexec_fn=limit)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["data"]


def test_verify_check_names_sorted_and_frozen():
    result, report = run_json("verify", "--builtin", "dual", "-N", "1")
    assert result.exit_code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)
    assert set(names) == {name for name, _ in _VERIFY_CHECKS}
    assert len(names) == 29


def test_verify_reports_byte_identical_across_runs():
    args = ("verify", "--builtin", "m2", "-N", "2", "--seed", "11")
    first = run_cli(*args, "--format", "json")
    second = run_cli(*args, "--format", "json")
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    text_a = run_cli(*args)
    text_b = run_cli(*args)
    assert text_a.stdout == text_b.stdout


def test_verify_records_the_seed():
    _, r1 = run_json("verify", "--builtin", "dual", "-N", "1", "--seed", "3")
    _, r2 = run_json("verify", "--builtin", "dual", "-N", "1", "--seed", "4")
    assert r1["seed"] == 3 and r2["seed"] == 4
    assert r1["counts"]["failed"] == r2["counts"]["failed"] == 0


def test_verify_accepts_action_file(tmp_path):
    act = tmp_path / "swap.act"
    act.write_text(SWAP_ACTION)
    result, report = run_json("verify", "--builtin", "kxk", "-N", "2",
                              "--action", str(act))
    assert result.exit_code == 0
    assert report["counts"]["failed"] == 0


def test_verify_passes_and_fail_lines_render_in_text():
    result = run_cli("verify", "--builtin", "dual", "-N", "1")
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    assert len(passes) == 29
    assert not any(ln.startswith("FAIL ") for ln in lines)


# ---------------------------------------------------------------------------
# determinism through the real entry point
# ---------------------------------------------------------------------------


def run_subprocess(*args):
    return subprocess.run([sys.executable, "-m", "ncforms.cli", *args],
                          capture_output=True, timeout=120)


def test_subprocess_reports_byte_identical():
    args = ("verify", "--builtin", "dual", "-N", "2", "--seed", "42",
            "--format", "json")
    first = run_subprocess(*args)
    second = run_subprocess(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout


@pytest.mark.skipif(sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
                    reason="reads /proc/self/task; OpenBLAS starts no pool on one CPU")
def test_cli_starts_openblas_single_threaded_unless_set():
    code = ("import ncforms.cli, os; print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_python(code) == "1 1"
    assert run_python(code, OPENBLAS_NUM_THREADS="2") == "2 2"


def test_cli_freezes_the_heap_at_exit():
    # atexit runs handlers last in, first out: this one runs after the CLI's
    code = ("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
            "import ncforms.cli")
    assert run_python(code) == "True"


def test_library_leaves_the_blas_setting_to_its_caller():
    code = ("import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count())); "
            "import ncforms.forms, ncforms.identities, os; "
            "print('OPENBLAS_NUM_THREADS' in os.environ, gc.isenabled())")
    assert run_python(code).split() == ["False", "True", "0"]


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------


def test_requires_exactly_one_algebra_source(tmp_path):
    result = run_cli("verify")
    assert result.exit_code == 2
    assert "exactly one" in result.stderr
    some = tmp_path / "a.alg"
    some.write_text("builtin dual;")
    both = run_cli("verify", "--builtin", "dual", "--algebra", str(some))
    assert both.exit_code == 2


def test_truncation_must_be_at_least_one():
    result = run_cli("info", "--builtin", "dual", "-N", "0")
    assert result.exit_code == 2
    assert "truncation" in result.stderr


def test_corrupted_table_exits_2_with_witness(tmp_path):
    bad = tmp_path / "broken.alg"
    bad.write_text(BROKEN_TABLE)
    result = run_cli("verify", "--algebra", str(bad))
    assert result.exit_code == 2
    assert "not associative at (x, x)" in result.stderr
    assert result.stdout == ""


def test_unknown_builtin_exits_2():
    result = run_cli("info", "--builtin", "nosuch(3)")
    assert result.exit_code == 2
    assert "nosuch" in result.stderr


def test_missing_input_file_exits_2(m2_fields):
    result = run_cli("fn-bracket", "/nonexistent/left.json",
                     m2_fields["paths"]["Y"], "--builtin", "m2")
    assert result.exit_code == 2


def test_malformed_json_input_exits_2(tmp_path, m2_fields):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json at all")
    result = run_cli("nr-bracket", str(garbage), m2_fields["paths"]["X"],
                     "--builtin", "m2")
    assert result.exit_code == 2
    assert "invalid JSON" in result.stderr


def test_non_derivation_field_input_exits_2(tmp_path):
    bad = tmp_path / "notfield.json"
    bad.write_text(json.dumps(
        {"degree": 0, "delta": [["1", "0"], ["0", "0"]]}))
    result = run_cli("fn-bracket", str(bad), str(bad), "--builtin", "dual")
    assert result.exit_code == 2
    assert "derivation" in result.stderr


@pytest.mark.parametrize("obj", [
    {"degree": 0, "delta": [[1, 0], [0, 0]]},
    {"degree": 0, "delta": [[["1"]]]},
    {"degree": 0, "delta": None},
    {"degree": None, "delta": [["0", "0"], ["0", "0"]]},
    {"arity": None, "coords": [["0"], ["0"]]},
    {"arity": 1, "coords": [[0, 1], [0, 0]]},
    {"degree": 0, "delta": [["0", "0"], ["0", "1_000"]]},  # int() read 1000
])
def test_malformed_matrix_input_exits_2(tmp_path, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    command = "fn-bracket" if "delta" in obj else "nr-bracket"
    result = run_cli(command, str(path), str(path), "--builtin", "dual")
    assert result.exit_code == 2, repr(result.exception)
    assert result.stderr.count("\n") == 1 and str(path) in result.stderr


def assert_input_error(result, *fragments):
    """Exit 2 with one ``Error:`` line on stderr naming every fragment."""
    assert result.exit_code == 2, repr(result.exception)
    assert result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    assert all(f in result.stderr for f in fragments), result.stderr


def test_character_no_token_starts_exits_2(tmp_path):
    path = tmp_path / "sq.alg"
    path.write_text("algebra sq { basis 1, e; e*e = \u00b2; }", encoding="utf-8")
    assert_input_error(run_cli("info", "--algebra", str(path), "-N", "1"),
                       "line 1, col 32: unexpected character '\u00b2'")


@pytest.mark.parametrize("kind", ["algebra", "action", "field"])
def test_non_utf8_input_file_exits_2(tmp_path, kind):
    path = tmp_path / f"bad.{kind}"
    if kind == "algebra":
        path.write_bytes(b"algebra x { basis 1, e; }  # \xff\n")
        args = ("info", "--algebra", str(path), "-N", "1")
    elif kind == "action":
        path.write_bytes(SWAP_ACTION.encode() + b"# \xff\n")
        args = ("verify", "--builtin", "kxk", "-N", "1", "--action", str(path))
    else:
        path.write_bytes(b'{"degree": 0, "delta": [["0", "0"], ["0", "1"]]} \xff')
        args = ("fn-bracket", str(path), str(path), "--builtin", "dual")
    assert_input_error(run_cli(*args), f"cannot read {path}: not UTF-8")


def test_alg_bracket_rejects_degree_zero_inputs(m2_fields):
    result = run_cli("alg-bracket", m2_fields["paths"]["X"],
                     m2_fields["paths"]["Y"], "--builtin", "m2")
    assert result.exit_code == 2
    assert "subscripts >= 1" in result.stderr


def test_env_size_cap_rejects_garbage():
    result = run_cli("derham", "--builtin", "dual",
                     env={"NCFORMS_SIZE_CAP": "abc"})
    assert result.exit_code == 2


def test_env_size_cap_limits_computations():
    result = run_cli("derham", "--builtin", "m2", "-N", "3",
                     env={"NCFORMS_SIZE_CAP": "10"})
    assert result.exit_code == 2
    assert "cap" in result.stderr


def test_size_cap_option_overrides_env():
    result, report = run_json("derham", "--builtin", "m2", "-N", "2",
                              "--size-cap", "100000",
                              env={"NCFORMS_SIZE_CAP": "10"})
    assert result.exit_code == 0
    assert report["size_cap"] == 100000


def _out_of_memory(*args, **kwargs):
    raise MemoryError()


def test_out_of_memory_exits_2_with_one_size_line(monkeypatch):
    monkeypatch.setattr("ncforms.forms.form_space", _out_of_memory)
    result = run_cli("info", "--builtin", "matrix(3)", "-N", "3")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr
    assert ("out of memory in info on a dimension-9 algebra at -N 3 "
            "(Omega_3 has dimension 4608)") in result.stderr


def test_out_of_memory_exits_2_from_every_subcommand(monkeypatch, tmp_path):
    # every subcommand resolves its size cap right after loading the algebra
    monkeypatch.setattr("ncforms.cli._resolve_cap", _out_of_memory)
    some = tmp_path / "input.json"
    some.write_text("{}")
    for name, cmd in sorted(main.commands.items()):
        files = [str(some) for p in cmd.params
                 if isinstance(p, click.Argument) and p.required]
        result = run_cli(name, *files, "--builtin", "m2", "-N", "2")
        assert result.exit_code == 2, (name, result.output)
        assert result.stderr == (
            f"Error: out of memory in {name} on a dimension-4 algebra at "
            f"-N 2 (Omega_2 has dimension 36); try a smaller -N\n")


def test_math_errors_are_the_five_library_errors():
    # linalg's, hochschild's and the DSL's errors stay outside the base
    assert sorted(e.__name__ for e in _MATH_ERRORS) == [
        "AlgebraError", "FieldFormError", "FormError", "GeometryError", "SchoutenError"]


def test_library_error_exits_2_from_every_subcommand(monkeypatch, tmp_path):
    # a library error raised while a report runs is bad input, not a crash
    some = tmp_path / "input.json"
    some.write_text("{}")
    commands = sorted(main.commands.items())
    for (name, cmd), error in zip(commands, _MATH_ERRORS * len(commands)):
        def fail(*args, error=error, name=name):
            raise error(f"{error.__name__} in {name}")
        monkeypatch.setattr("ncforms.cli._resolve_cap", fail)
        files = [str(some) for p in cmd.params
                 if isinstance(p, click.Argument) and p.required]
        result = run_cli(name, *files, "--builtin", "m2", "-N", "2")
        assert result.exit_code == 2, (name, result.output)
        assert result.stdout == ""
        assert result.stderr == f"Error: {error.__name__} in {name}\n"


# ---------------------------------------------------------------------------
# bracket subcommands round-trip serialized objects
# ---------------------------------------------------------------------------


def test_fn_bracket_matches_library(m2, m2_fields):
    result, report = run_json("fn-bracket", m2_fields["paths"]["X"],
                              m2_fields["paths"]["Y"], "--builtin", "m2")
    assert result.exit_code == 0
    expected = fn_bracket(m2_fields["X"], m2_fields["Y"])
    got = field_valued_form_from_json(m2, report["data"]["bracket"])
    assert got == expected


def test_alg_bracket_on_one_forms(m2, m2_fields):
    result, report = run_json("alg-bracket", m2_fields["paths"]["L"],
                              m2_fields["paths"]["L"], "--builtin", "m2")
    assert result.exit_code == 0
    got = field_valued_form_from_json(m2, report["data"]["bracket"])
    assert got.degree == 1


def test_nr_bracket_matches_library(m2, tmp_path):
    mod = m2.regular_bimodule()
    K = MultiMap(m2, 1, inner_derivation(
        mod, [frac(0), frac(1), frac(0), frac(0)]))
    mu = commutator_bivector(m2)
    kp, mp = tmp_path / "K.json", tmp_path / "mu.json"
    kp.write_text(json.dumps(K.to_json()))
    mp.write_text(json.dumps(mu.to_json()))
    result, report = run_json("nr-bracket", str(kp), str(mp),
                              "--builtin", "m2")
    assert result.exit_code == 0
    got = multimap_from_json(m2, report["data"]["bracket"])
    assert got == nr_bracket(K, mu)


# ---------------------------------------------------------------------------
# computation subcommands
# ---------------------------------------------------------------------------


def test_curvature_subcommand_all_projections_pass():
    result, report = run_json("curvature", "--builtin", "upper2", "-N", "2")
    assert result.exit_code == 0
    assert report["data"]["count"] >= 2
    assert report["counts"]["failed"] == 0
    first = report["data"]["projections"][0]
    assert {"index", "endomorphism", "curvature", "cocurvature"} <= set(first)


def test_bianchi_subcommand_passes_on_square_matrices():
    result, report = run_json("bianchi", "--builtin", "m2", "-N", "2")
    assert result.exit_code == 0
    assert report["counts"]["failed"] == 0
    assert report["data"]["count"] >= 1


# every subcommand that needs no input file besides the algebra
SWEPT_COMMANDS = ("info", "verify", "curvature", "bianchi", "connection-check",
                  "hochschild", "derham", "poisson-check", "kernel-mu-n")


@pytest.mark.parametrize("name", BUILTINS)
def test_projection_reports_run_at_degree_one(name):
    # the exit-code contract on each report subcommand at -N 1-3: exit 0, exit
    # 1 with a failed check, or exit 2 with one stderr line, never a
    # traceback.  It began with curvature and bianchi at -N 1, whose formulas
    # read the degree-2 induced maps whatever -N is.
    for command in SWEPT_COMMANDS:
        for N in ("1", "2", "3"):
            result, report = run_json(command, "--builtin", name, "-N", N)
            where = (command, N, result.stderr)
            assert result.exception is None or isinstance(result.exception, SystemExit), \
                (where, repr(result.exception))
            assert "Traceback" not in result.stderr, where
            if result.exit_code == 2:
                assert result.stdout == "" and result.stderr.count("\n") == 1, where
            else:
                failed = report["counts"]["failed"]
                assert (result.exit_code, bool(failed)) in ((0, False), (1, True)), where


@pytest.fixture(scope="module")
def bench_checks():
    """perfbench/checks.py, where the benchmark pins its curvature digests."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("checks")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


@pytest.mark.parametrize("args, digest", [
    (("--builtin", "m2", "-N", "2"), "CURVATURE_M2_N2_DATA"),
    (("--builtin", "upper2"), "CURVATURE_UPPER2_DATA"),
])
def test_curvature_data_matches_the_benchmark_digest(bench_checks, args, digest):
    # the projection order and every (num, den) written depend on the exact
    # representation, so a change to it shows here, not only in the benchmark
    result, report = run_json("curvature", *args)
    assert result.exit_code == 0
    text = json.dumps(report["data"], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == getattr(bench_checks, digest)


# sha256 of the whole JSON stdout of each projection report, taken before
# the projection calculus read its brackets from a cache and certified its
# ideals by trace
PROJECTION_REPORT_DIGESTS = {
    ("curvature", "k", 2):
        "ddfd6d2517ab0f36aba8055c4b407894bb6779e37cf526e81a0487069cee8ac1",
    ("curvature", "dual", 2):
        "fb3607db4e3b39185203578d69d5030eab05ada9fbfaef58abd707092e2a746d",
    ("curvature", "truncpoly3", 2):
        "f928be025884a76dca583a2fd3e1ceea36b298680d81a1c741e44be9a6715541",
    ("curvature", "kxk", 2):
        "d9f35ae7e1c196ae3d5d047aed6aaf44529bdaed4f2ca8c08ac4ccad906f30c3",
    ("curvature", "m2", 2):
        "a2cdfc1e4e49dae32f09b419a29422d33b0cbe43ed285dac21eec2a2b5db5042",
    ("curvature", "kc2", 2):
        "ccc4d0b312a2a9078b5a078928e719b7ea30cc146a9b0bc433450059442d0ee0",
    ("curvature", "upper2", 2):
        "041c5d44888b5c557a2192c4da4bb1118c7f66fb832b3158918078c4371b734b",
    ("curvature", "k", 3):
        "9a2d04a4c4f2031441e3df0f37ad99f168f7f888eb0bfc9620a5ddacabdf5028",
    ("curvature", "dual", 3):
        "7766befafaebdf6d5a5d2e2e0c840ddfdb5ab6cbd0a2ac984a24c2571308e662",
    ("curvature", "truncpoly3", 3):
        "86fe20cb86299347c998dd0df7ffe562dac232762d89236f2029508b87547c76",
    ("curvature", "kxk", 3):
        "42bd26d788ccf508406917c3ab41fbb05a9802f488697da93bf32cd5eb620d23",
    ("curvature", "m2", 3):
        "86dfed970014e521d1670218e32e5fc15cf2185df69804d526a2bfe6121655cf",
    ("curvature", "kc2", 3):
        "aab0e5507d1576dcb475eeff301f382fbb00bb95b1db610ba497d67fedcd5acc",
    ("curvature", "upper2", 3):
        "708c5f2d0122d676f8cc3931c34105d101ad8b5523bca7a6ef81522d1800005b",
    ("bianchi", "k", 2):
        "f34eb412511c5f58af86d9690c928b103c76d33f0631401f4d5b1bfad643a3fa",
    ("bianchi", "dual", 2):
        "fc2931c3016933293271b8170e345e32a1d48e7f12cc84bcfcbed81d72006011",
    ("bianchi", "truncpoly3", 2):
        "c7bf837e453bfede9ec57d3e5d26c882d13b51d727c0089a273332dca4d18687",
    ("bianchi", "kxk", 2):
        "78568034ad28ec00c1f6147b7ace93b5ca7299efd34be6ba71f7b8b4f29caec5",
    ("bianchi", "m2", 2):
        "3d0946451148ed0134995b754b464cece3cd106821fee51e2c7e4911a21d9817",
    ("bianchi", "kc2", 2):
        "069dec69f205f14c5e6d5ca4cf6047be9aeac1220cb7a9908f59f3753efe23fa",
    ("bianchi", "upper2", 2):
        "7b61ce34110b6beb17bbc61c9805762416c0283bf2f2d82e1a103f4be86c3c29",
    ("bianchi", "k", 3):
        "10f659d83178596f1cd4b7645f040566b3fa3012f2761f84620c36fc4e2c9157",
    ("bianchi", "dual", 3):
        "d7755deebbdf6d4bbf8cc8a6e961419ea243772c713794b08fc79ba1025eef43",
    ("bianchi", "truncpoly3", 3):
        "d18eeb2ece2e1925078d19a3d86793e90f1bf5757f22ade822e0cca4d8092e46",
    ("bianchi", "kxk", 3):
        "11982cf277a27e15a1c2f302ffecf6026f39c5c620db7d5dbd318c97deefaf82",
    ("bianchi", "m2", 3):
        "d28375c04bcb3bedeb15a8caa8dc6c1f7dcb4baf1de123f65a0b8c828d8e1f95",
    ("bianchi", "kc2", 3):
        "519437240494ed3445d8cb90cc5264066a1cc668ae380b0828348b88daab887c",
    ("bianchi", "upper2", 3):
        "eda86065c760a717f20624620158c3c0baf42435ce0f9a31884ede2e81d58437",
}


@pytest.mark.parametrize("command, name, N", PROJECTION_REPORT_DIGESTS)
def test_projection_reports_match_their_digests(command, name, N):
    result = run_cli(command, "--builtin", name, "-N", str(N), "--format", "json")
    assert result.exit_code == 0
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == PROJECTION_REPORT_DIGESTS[command, name, N]


@pytest.mark.parametrize("args", [
    ("curvature", "--builtin", "m2", "-N", "2"),
    ("bianchi", "--builtin", "m2"),
    ("verify", "--builtin", "upper2", "-N", "2"),
])
def test_each_projection_is_bracketed_once_per_report(monkeypatch, args):
    found, squared = [], []
    find, bracket = connections.find_projections, connections.fn_bracket

    def finding(*a, **kw):
        projs = find(*a, **kw)
        found.extend(projs)
        return projs

    def counting(K, L):
        if K is L:
            squared.append(K)      # kept alive, so identity stays meaningful
        return bracket(K, L)

    monkeypatch.setattr(connections, "find_projections", finding)
    monkeypatch.setattr(identities, "find_projections", finding)
    monkeypatch.setattr(identities, "fn_bracket", counting)
    monkeypatch.setattr(connections, "fn_bracket", counting)
    assert run_cli(*args).exit_code == 0
    assert found
    assert [sum(K is p.chi for K in squared) for p in found] == [1] * len(found)


def test_connection_check_with_swap_action(tmp_path):
    act = tmp_path / "swap.act"
    act.write_text(SWAP_ACTION)
    result, report = run_json("connection-check", "--builtin", "kxk",
                              "--action", str(act))
    assert result.exit_code == 0
    assert report["data"]["base_dim"] == 1
    assert report["data"]["count"] >= 1
    assert all(e["principal"] for e in report["data"]["connections"])
    assert report["counts"]["failed"] == 0


@pytest.mark.parametrize("case, algebra, text, pattern", MALFORMED_ACTIONS,
                         ids=[row[0] for row in MALFORMED_ACTIONS])
def test_malformed_action_exits_2_with_its_position(tmp_path, case, algebra,
                                                    text, pattern):
    act = tmp_path / "bad.act"
    act.write_text(text)
    result = run_cli("connection-check", "--builtin", algebra, "--action", str(act))
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert re.search(r"line \d+, col \d+: ", result.stderr)
    assert re.search(pattern, result.stderr)


def test_hochschild_subcommand_dimensions():
    result, report = run_json("hochschild", "--builtin", "dual", "-N", "3")
    assert result.exit_code == 0
    by_n = {r["n"]: r for r in report["data"]["reports"]}
    assert by_n[0]["dim_Hn_complex"] == 2
    assert by_n[1]["dim_Hn_complex"] == 1
    assert all(r["agree"] for r in report["data"]["reports"])


def test_derham_subcommand_reports_homology():
    result, report = run_json("derham", "--builtin", "truncpoly3", "-N", "3")
    assert result.exit_code == 0
    assert report["data"]["homology_dims"][0] == 1
    assert report["data"]["top_degree_incomplete"] is True


def test_poisson_check_commutator_passes_everywhere():
    for name in BUILTINS:
        result, report = run_json("poisson-check", "--builtin", name)
        assert result.exit_code == 0, name
        verdicts = {c["name"]: c["passed"] for c in report["checks"]}
        assert verdicts == {"skew": True, "biderivation": True,
                            "jacobi": True, "poisson": True}


def test_poisson_check_failure_exits_1(m2, tmp_path):
    raw = MultiMap(m2, 2, QMat.from_rows(
        [[frac((i * 7 + j * 3) % 5 - 2) for j in range(16)]
         for i in range(4)]), check=False)
    bad = alternation(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    result, report = run_json("poisson-check", str(path), "--builtin", "m2")
    assert result.exit_code == 1
    verdicts = {c["name"]: c for c in report["checks"]}
    assert not verdicts["poisson"]["passed"]
    assert verdicts["poisson"]["witness"]


def test_kernel_mu_n_subcommand():
    result, report = run_json("kernel-mu-n", "--builtin", "kxk", "-N", "3")
    assert result.exit_code == 0
    assert [r["arity"] for r in report["data"]["reports"]] == [2, 3]
    assert all(r["equal"] for r in report["data"]["reports"])


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------


def test_json_reports_validate_against_shipped_schema(tmp_path, m2_fields):
    schema = load_schema()
    act = tmp_path / "swap.act"
    act.write_text(SWAP_ACTION)
    invocations = [
        ("info", "--builtin", "dual"),
        ("verify", "--builtin", "dual", "-N", "1"),
        ("fn-bracket", m2_fields["paths"]["X"], m2_fields["paths"]["Y"],
         "--builtin", "m2"),
        ("curvature", "--builtin", "dual", "-N", "2"),
        ("bianchi", "--builtin", "dual", "-N", "2"),
        ("connection-check", "--builtin", "kxk", "--action", str(act)),
        ("hochschild", "--builtin", "dual", "-N", "2"),
        ("derham", "--builtin", "dual", "-N", "2"),
        ("poisson-check", "--builtin", "upper2"),
        ("kernel-mu-n", "--builtin", "dual", "-N", "2"),
    ]
    for args in invocations:
        result, report = run_json(*args)
        assert result.exit_code == 0, (args, result.stderr)
        jsonschema.validate(report, schema)


def test_failing_report_still_validates(m2, tmp_path):
    schema = load_schema()
    raw = MultiMap(m2, 2, QMat.from_rows(
        [[frac((i * 5 + j) % 5 - 2) for j in range(16)]
         for i in range(4)]), check=False)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(alternation(raw).to_json()))
    result, report = run_json("poisson-check", str(path), "--builtin", "m2")
    assert result.exit_code == 1
    jsonschema.validate(report, schema)
