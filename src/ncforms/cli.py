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
maps errors to exit codes and renders the report.  ``import ncforms.cli``
loads only ``algebra``, ``dsl`` and ``linalg``, which every report runs; each
body reads the other modules it calls off the package (``ncforms.forms``),
which loads them then.  ``verify`` reports the identity suite of
:mod:`ncforms.identities`, which loads them all.
The command starts OpenBLAS single-threaded unless ``OPENBLAS_NUM_THREADS``
is set, since no int64 or object product reaches BLAS; the float64 dgemm
products of ROADMAP item 3 must re-measure this default when they land.
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import sys
from pathlib import Path
from typing import Callable, Optional

# Set before numpy loads OpenBLAS: integer and object products never reach
# BLAS, so its worker threads would only slow every report's start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# A report's objects die with the process: skip the cyclic GC's exit sweep.
atexit.register(gc.freeze)

import click

import ncforms

from . import __version__
from .algebra import Algebra, AlgebraHom, GroupAction, MathError, derivation_space
from .dsl import DslError, builtin_algebra, load_algebra_text, parse_group_action
from .linalg import QMat, qmat_to_json

DEFAULT_SIZE_CAP = 100000
SIZE_CAP_ENV = "NCFORMS_SIZE_CAP"


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
            return builtin_algebra(builtin_expr), f"builtin {builtin_expr}"
        return (load_algebra_text(_read_text(algebra_path)),
                f"file {algebra_path}")
    except DslError as exc:
        raise InputError(f"algebra definition: {exc}")


def _read_text(path: str) -> str:
    """The UTF-8 text of ``path``; an unreadable or undecodable file exits 2."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 ({exc.reason} at "
                         f"byte {exc.start})")


def _load_object(algebra: Algebra, path: str, what: str, from_json: Callable):
    """``from_json(algebra, obj)`` for the JSON object in ``path``; a file,
    JSON or content defect exits 2 naming ``what`` and the path."""
    try:
        obj = json.loads(_read_text(path))
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
    text = _read_text(action_path)
    try:
        return parse_group_action(text, algebra)
    except DslError as exc:
        raise InputError(f"group action: {exc}")


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
            except MathError as exc:
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
        "omega_dims": [ncforms.forms.form_space(A, k).dim for k in range(N + 1)],
        "derivation_dim": derivation_space(A.regular_bimodule()).dim,
        "center_dim": A.center().dim,
    }


@_report("verify", click.option(
    "--action", "action_path", default=None, metavar="FILE",
    help="Group action file for the quotient-geometry checks (defaults to "
         "the trivial action)."))
def verify(A, N, seed, cap, action_path):
    """Run the full invariant suite and report each identity."""
    results = ncforms.identities.check_identities(A, N, seed, _load_action(A, action_path))
    return [_check(name, witness is None, witness) for name, witness in results], {}


def _bracket(name: str, what: str, module: str, from_json: str, bracket: str,
             doc: str) -> None:
    """A subcommand reporting ``module``'s ``bracket`` of two serialized
    objects, each read by ``module``'s ``from_json``."""
    files = [click.argument(arg, type=click.Path(exists=True, dir_okay=False))
             for arg in ("left_file", "right_file")]

    def body(A, N, seed, cap, left_file, right_file):
        lib = getattr(ncforms, module)
        K, L = (_load_object(A, path, what, getattr(lib, from_json))
                for path in (left_file, right_file))
        return [], {"left": K.to_json(), "right": L.to_json(),
                    "bracket": getattr(lib, bracket)(K, L).to_json()}

    body.__doc__ = doc
    _report(name, *files)(body)


_bracket("fn-bracket", "field-valued form", "fieldforms",
         "field_valued_form_from_json", "fn_bracket",
         "Differential-compatible bracket of two serialized field-valued forms.")
_bracket("alg-bracket", "field-valued form", "fieldforms",
         "field_valued_form_from_json", "algebraic_bracket",
         "Insertion-commutator bracket of two serialized field-valued forms.")
_bracket("nr-bracket", "multilinear map", "schouten", "multimap_from_json",
         "nr_bracket", "Graded bracket of two serialized skew multilinear maps.")


@_report("curvature")
def curvature_cmd(A, N, seed, cap):
    """Curvature and cocurvature of every projection the search finds."""
    checks, entries = [], []
    projs = ncforms.connections.find_projections(A, seed=seed)
    for idx, p in enumerate(projs):
        R, Rbar = ncforms.connections.curvature(p)
        checks += _verdicts(ncforms.connections.check_projection_calculus(p, N=N),
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
    projs = ncforms.connections.find_projections(A, seed=seed)
    checks = [c for idx, p in enumerate(projs)
              for c in _verdicts(ncforms.connections.bianchi_identities(p),
                                 f"projection-{idx:02d}-", f"projection {idx}")]
    return checks, {"count": len(projs)}


@_report("connection-check", click.option(
    "--action", "action_path", default=None, metavar="FILE",
    help="Group action file cutting out the base subalgebra (defaults to "
         "the trivial action)."))
def connection_check(A, N, seed, cap, action_path):
    """Find connections on the induced bundle and check their properties."""
    lib = ncforms.connections
    action = _load_action(A, action_path)
    bundle = lib.Bundle(A, action.fixed_subspace(), action=action)
    checks, entries = [], []
    conns = lib.find_connections(bundle)
    for idx, chi in enumerate(conns):
        rep = lib.is_connection(bundle, chi)
        rep.update(lib.curvature_horizontality(bundle, chi))
        checks += _verdicts(rep, f"connection-{idx:02d}-", f"connection {idx}")
        entries.append({
            "index": idx,
            "connection": chi.to_json(),
            "principal": lib.is_principal(bundle, chi),
        })
    return checks, {"connections": entries, "count": len(conns),
                    "base_dim": bundle.base.dim}


@_report("hochschild")
def hochschild(A, N, seed, cap):
    """Cohomology of the algebra in itself, computed along two routes."""
    lib = ncforms.hochschild
    reports = lib.cohomology_reports(A, A.regular_bimodule(), min(N, 3))
    checks = [_check(f"routes-agree-n{rep['n']}", rep["agree"], lib.routes_witness(rep))
              for rep in reports]
    return checks, {"reports": reports}


@_report("derham")
def derham(A, N, seed, cap):
    """Quotient homology dimensions of the truncated form complex."""
    return [], ncforms.forms.de_rham_homology(A, N, size_cap=cap)


@_report("poisson-check", click.argument(
    "mu_file", required=False, type=click.Path(exists=True, dir_okay=False)))
def poisson_check_cmd(A, N, seed, cap, mu_file):
    """Check a bivector for the bracket axioms (default: the commutator)."""
    lib = ncforms.schouten
    if mu_file is not None:
        mu = _load_object(A, mu_file, "multilinear map", lib.multimap_from_json)
    else:
        mu = lib.commutator_bivector(A)
    verdict = lib.poisson_check(mu)
    data = {"bivector": mu.to_json()}
    if verdict["poisson"]:
        data["bracket_maps"] = lib.poisson_bracket_hom_check(mu)
    return _verdicts(verdict, "", "bivector"), data


@_report("kernel-mu-n")
def kernel_mu_n_cmd(A, N, seed, cap):
    """Compare ker(multiplication) with the span of first-slot relations."""
    reports = [ncforms.forms.kernel_of_mu_n(A, n, size_cap=cap)
               for n in range(2, max(N, 2) + 1)]
    checks = [_check(f"kernel-matches-span-n{rep['arity']}", rep["equal"],
                     f"n = {rep['arity']}: kernel dim {rep['dim_kernel']} "
                     f"vs span dim {rep['dim_span']}") for rep in reports]
    return checks, {"reports": reports}


if __name__ == "__main__":  # pragma: no cover
    main()
