"""Correctness checks for each benchmark report.

Every report runs with ``--format json``.  A report passes when its exit
code is 0, every check in it passed, and its data carries the stated
values.  The stated values are basis-independent (dimensions and
verdicts), so the dense-basis copies of an algebra must report exactly
what the builtin basis reports; those reference values are written out
below rather than computed by the program under test.  The builtin
curvature reports, whose data is too large to state, are compared by
digest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import gen

# hochschild --builtin m2 (-N 3): H^0 = center, nothing above
HOCHSCHILD_M2 = [
    {"agree": True, "dim_Hn_complex": 1, "dim_Hn_forms": 1, "dim_hom": 1,
     "dim_image_Istar": 0, "n": 0},
    {"agree": True, "dim_Hn_complex": 0, "dim_Hn_forms": 0, "dim_hom": 3,
     "dim_image_Istar": 3, "n": 1},
    {"agree": True, "dim_Hn_complex": 0, "dim_Hn_forms": 0, "dim_hom": 9,
     "dim_image_Istar": 9, "n": 2},
    {"agree": True, "dim_Hn_complex": 0, "dim_Hn_forms": 0, "dim_hom": 27,
     "dim_image_Istar": 27, "n": 3},
]

# hochschild --builtin "truncpoly(3)": H^0 = A (dim 3), then dim 2 each
HOCHSCHILD_T3 = [
    {"agree": True, "dim_Hn_complex": 3, "dim_Hn_forms": 3, "dim_hom": 3,
     "dim_image_Istar": 0, "n": 0},
    {"agree": True, "dim_Hn_complex": 2, "dim_Hn_forms": 2, "dim_hom": 2,
     "dim_image_Istar": 0, "n": 1},
    {"agree": True, "dim_Hn_complex": 2, "dim_Hn_forms": 2, "dim_hom": 6,
     "dim_image_Istar": 4, "n": 2},
    {"agree": True, "dim_Hn_complex": 2, "dim_Hn_forms": 2, "dim_hom": 8,
     "dim_image_Istar": 6, "n": 3},
]

# derham --builtin "truncpoly(3)" -N 4
DERHAM_T3_N4 = {"commutator_dims": [0, 4, 9, 20, 42],
                "homology_dims": [1, 0, 0, 0],
                "quotient_dims": [3, 2, 3, 4, 6],
                "top_degree_incomplete": True,
                "top_degree_lower_bound": 0,
                "truncation": 4}

# kernel-mu-n --builtin m2 -N 4
KERNEL_M2_N4 = [
    {"arity": 2, "dim_kernel": 12, "dim_span": 12, "equal": True},
    {"arity": 3, "dim_kernel": 60, "dim_span": 60, "equal": True},
    {"arity": 4, "dim_kernel": 252, "dim_span": 252, "equal": True},
]

POISSON_M2_CHECKS = ["biderivation", "jacobi", "poisson", "skew"]
POISSON_M2_MAPS = {"all": True, "derivation_valued": True,
                   "lie_homomorphism": True}

# checks per projection in each report
CURVATURE_CHECKS = 9
BIANCHI_CHECKS = 3

# sha256 of json.dumps(data, sort_keys=True) of the curvature reports (the
# endomorphism, curvature and cocurvature of each projection, 10-30 kB), as
# the initial import prints them; reports are to stay byte-identical
CURVATURE_M2_N2_DATA = ("03faf64222e134b8f13db584339bc02e"
                        "9da207ed6f4d1c2d5f82f1950c5b47a3")
CURVATURE_UPPER2_DATA = ("7d1ed0b417e87d3179888644cebbcc04"
                         "06b2649d33d99104add3d2c4c55f13cd")


class CheckFailed(Exception):
    pass


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def parse_report(exit_code: int, stdout: str, command: str) -> dict:
    """The JSON report, once exit code and every check line are good."""
    _expect("exit code", exit_code, 0)
    try:
        rep = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None
    _expect("command", rep.get("command"), command)
    failed = [c["name"] for c in rep["checks"] if not c["passed"]]
    _expect("failed checks", failed, [])
    _expect("failed count", rep["counts"]["failed"], 0)
    return rep


# ---------------------------------------------------------------------------
# Per-command checks: (report dict, per-pass context) -> None
# ---------------------------------------------------------------------------


def info(dim: int, N: int, derivations: int, center: int):
    def check(rep, ctx):
        _expect("algebra dim", rep["algebra"]["dim"], dim)
        _expect("omega_dims", rep["data"]["omega_dims"],
                [dim * (dim - 1) ** k for k in range(N + 1)])
        _expect("derivation_dim", rep["data"]["derivation_dim"], derivations)
        _expect("center_dim", rep["data"]["center_dim"], center)
    return check


def check_count(n: int):
    def check(rep, ctx):
        _expect("check count", rep["counts"]["checks"], n)
    return check


def projections(count: int, per_projection: int, data_sha256=None):
    def check(rep, ctx):
        _expect("projection count", rep["data"]["count"], count)
        _expect("check count", rep["counts"]["checks"],
                count * per_projection)
        if data_sha256 is not None:
            text = json.dumps(rep["data"], sort_keys=True)
            _expect("sha256 of data",
                    hashlib.sha256(text.encode()).hexdigest(), data_sha256)
    return check


def data_equals(key: str, want):
    def check(rep, ctx):
        got = rep["data"] if key is None else rep["data"][key]
        _expect(key or "data", got, want)
    return check


def poisson(rep, ctx):
    _expect("verdicts", [c["name"] for c in rep["checks"]], POISSON_M2_CHECKS)
    _expect("bracket_maps", rep["data"]["bracket_maps"], POISSON_M2_MAPS)


def fn_bracket(table, left: dict, right: dict, key: str, partner=None):
    """The bracket echoes its inputs, has degree k+l, is a derivation into
    forms of that degree, and [K,L] = -(-1)^(kl) [L,K] against the partner
    report of the same pass."""
    m = len(table)
    k, l = left["degree"], right["degree"]

    def fractions(obj):
        return [[Fraction(v) for v in row] for row in obj["delta"]]

    def check(rep, ctx):
        data = rep["data"]
        for side, sent in (("left", left), ("right", right)):
            _expect(f"{side} degree", data[side]["degree"], sent["degree"])
            _expect(f"{side} delta", fractions(data[side]), fractions(sent))
        out = data["bracket"]
        _expect("bracket degree", out["degree"], k + l)
        _expect("bracket rows", len(out["delta"]), m * (m - 1) ** (k + l))
        bad = gen.derivation_violation(table, gen.field_columns(m, out))
        _expect("first basis pair breaking the Leibniz rule", bad, None)
        ctx[key] = fractions(out)
        if partner is not None and partner in ctx:
            sign = -(-1) ** (k * l)
            other = [[sign * v for v in row] for row in ctx[partner]]
            _expect("graded antisymmetry", ctx[key] == other, True)
    return check
