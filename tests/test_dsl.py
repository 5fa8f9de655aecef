"""Algebra definition text format: lexing, parsing, elaboration, actions."""

import ast
import re
import string
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncforms.algebra import Algebra, GroupAction
from ncforms.dsl import (
    BuiltinSpec, DslError, TableSpec, builtin_algebra, builtin_catalog,
    elaborate, load_algebra_text, parse, parse_group_action, print_algebra,
    tokenize,
)
from ncforms.linalg import QMat
import oracles
from test_algebra import catalog

F = Fraction


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def test_tokens_carry_positions():
    toks = tokenize("algebra x {\n  basis 1, e;\n}")
    assert [(t.kind, t.text) for t in toks[:3]] \
        == [("NAME", "algebra"), ("NAME", "x"), ("{", "{")]
    basis_tok = next(t for t in toks if t.text == "basis")
    assert (basis_tok.line, basis_tok.col) == (2, 3)
    one = next(t for t in toks if t.kind == "RATIONAL")
    assert one.value == 1 and (one.line, one.col) == (2, 9)


def test_comments_and_arrow_and_names():
    toks = tokenize("# heading\nmap s: t^2 -> 1 - a.1  # tail\n")
    kinds = [t.kind for t in toks]
    assert "ARROW" in kinds
    names = [t.text for t in toks if t.kind == "NAME"]
    assert names == ["map", "s", "t^2", "a.1"]


def test_rational_literals():
    toks = tokenize("2/3 5 10/4")
    vals = [t.value for t in toks if t.kind == "RATIONAL"]
    assert vals == [F(2, 3), F(5), F(5, 2)]


def test_malformed_rational_diagnostics():
    with pytest.raises(DslError) as err:
        tokenize("e*f = 1/0;")
    assert "malformed rational literal" in str(err.value)
    assert err.value.line == 1 and err.value.col == 7
    with pytest.raises(DslError, match="malformed rational"):
        tokenize("x = 3/;")


def test_unexpected_character():
    with pytest.raises(DslError) as err:
        tokenize("basis 1, e;\n  e @ e;")
    assert err.value.line == 2 and "'@'" in str(err.value)


# DSL fragments and the characters the two lexers read differently: é (a
# letter), ² (alphanumeric, no letter, a digit to str.isdigit), ٣ (a
# non-ASCII decimal digit), and the comment and whitespace characters
_LEX_PIECES = ["1", "2/3", "0", "/", "x", "a.1", "t^2", "_", "-", "->", ">",
               ";", "{", "}", "*", "=", ",", "@", "é", "²", "٣", "#", " c",
               "\t", "\r", "\n"]
_LEX_TEXT = st.one_of(st.text(st.sampled_from(string.printable + "é²٣"), max_size=30),
                      st.lists(st.sampled_from(_LEX_PIECES), max_size=20).map("".join))


@given(_LEX_TEXT)
@settings(max_examples=400, deadline=None)
def test_lexer_matches_the_scanner_it_replaced(text):
    try:
        old = oracles.tokenize(text)
    except ValueError:  # a DslError, or int() of a digit like ²
        with pytest.raises(DslError):
            tokenize(text)
        return
    if any(t.kind == "RATIONAL" and not t.text.isascii() for t in old):
        with pytest.raises(DslError):  # non-ASCII digits make no rational
            tokenize(text)
        return
    new = tokenize(text)
    assert new[:-1] == old[:-1]
    last_line = text[text.rfind("\n") + 1:]
    assert new[-1] == old[-1]._replace(col=len(last_line) + 1)
    if "#" not in last_line:  # the scanner did not count a comment's columns
        assert old[-1] == new[-1]


def test_lexer_departs_from_the_scanner_only_as_documented():
    with pytest.raises(ValueError) as err:
        oracles.tokenize("x = ²")
    assert type(err.value) is ValueError
    with pytest.raises(DslError, match="line 1, col 5: unexpected character '²'"):
        tokenize("x = ²")
    assert oracles.tokenize("٣")[0].value == 3
    with pytest.raises(DslError, match="unexpected character '٣'"):
        tokenize("٣")
    assert oracles.tokenize("a # c")[-1].col == 3
    assert tokenize("a # c")[-1].col == 6


# ---------------------------------------------------------------------------
# Parsing tables
# ---------------------------------------------------------------------------


def test_parse_two_element_table():
    spec = parse("algebra dual { basis 1, e; e*e = 0; }")
    assert isinstance(spec, TableSpec)
    assert spec.basis == ("1", "e") and spec.unit == "1"
    assert not spec.strict
    assert len(spec.relations) == 1
    rel = spec.relations[0]
    assert (rel.left, rel.right) == ("e", "e")
    assert [(t.coeff, t.name) for t in rel.expr] == [(F(0), None)]


def test_parse_builtin_statement():
    spec = parse("builtin matrix(2)")
    assert isinstance(spec, BuiltinSpec)
    assert spec.name == "matrix" and spec.args == (2,)


def test_parse_unit_statement_and_strict():
    spec = parse("algebra g strict { basis e, s; unit e; s*s = e; }")
    assert spec.strict and spec.unit == "e"


def test_linear_expression_forms():
    spec = parse("algebra x { basis 1, a, b;"
                 " a*a = 2/3 a + 1; a*b = -b; b*a = 2*a - 1/2; b*b = 0; }")
    got = {(r.left, r.right): [(t.coeff, t.name) for t in r.expr]
           for r in spec.relations}
    assert got[("a", "a")] == [(F(2, 3), "a"), (F(1), None)]
    assert got[("a", "b")] == [(F(-1), "b")]
    assert got[("b", "a")] == [(F(2), "a"), (F(-1, 2), None)]
    assert got[("b", "b")] == [(F(0), None)]


def test_parse_errors_report_position_and_expectations():
    with pytest.raises(DslError) as err:
        parse("algebra x { basis 1, e; e e; }")
    assert "expected *" in str(err.value)
    with pytest.raises(DslError) as err:
        parse("foo")
    assert "algebra | builtin" in str(err.value)
    with pytest.raises(DslError, match="end of input"):
        parse("algebra x { basis 1; ")
    with pytest.raises(DslError) as err:  # trailing input
        parse("builtin dual dual")
    assert "'dual'" in str(err.value)


def test_duplicate_and_missing_unit_declarations():
    with pytest.raises(DslError, match="duplicate basis name"):
        parse("algebra x { basis 1, e, e; }")
    with pytest.raises(DslError, match="duplicate unit"):
        parse("algebra x { basis 1, e; unit e; }")
    with pytest.raises(DslError, match="no unit declared"):
        parse("algebra x { basis e, f; }")
    with pytest.raises(DslError, match="not a basis name"):
        parse("algebra x { basis e; unit f; }")


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------


def test_elaborate_defaults_unmentioned_products_to_zero():
    A = load_algebra_text("algebra dual { basis 1, e; }")
    assert A.dim == 2
    assert A.structure[1][1] == (F(0), F(0))
    assert A.structure[0][1] == (F(0), F(1))  # unit law filled in


def test_elaborate_rebases_declared_unit_first():
    A = load_algebra_text(
        "algebra up { basis a, u, b; unit u;"
        " a*a = a; a*b = b; b*a = 0; b*b = 0; }")
    assert A.basis_names == ["u", "a", "b"]
    ref = catalog()["upper2"]
    assert A.structure == ref.structure


def test_unit_law_relations_verified():
    A = load_algebra_text("algebra x { basis 1, e; 1*e = e; e*e = 0; }")
    assert A.dim == 2
    with pytest.raises(DslError, match="conflicts with the unit law"):
        load_algebra_text("algebra x { basis 1, e; 1*e = 0; }")


def test_duplicate_relation_and_unknown_names():
    with pytest.raises(DslError, match="duplicate relation"):
        load_algebra_text("algebra x { basis 1, e; e*e = 0; e*e = e; }")
    with pytest.raises(DslError, match="unknown basis name 'f'") as err:
        load_algebra_text("algebra x { basis 1, e; e*f = 0; }")
    assert err.value.line == 1
    with pytest.raises(DslError, match="unknown basis name 'g'"):
        load_algebra_text("algebra x { basis 1, e; e*e = 2 g; }")


def test_strict_tables_must_mention_every_product():
    with pytest.raises(DslError, match="missing the product e\\*e"):
        load_algebra_text("algebra x strict { basis 1, e; }")
    A = load_algebra_text("algebra x strict { basis 1, e; e*e = 0; }")
    assert A.dim == 2


def test_associativity_failure_carries_position():
    bad = ("algebra bad { basis 1, x, y;"
           " x*x = y; x*y = 1; y*x = 0; y*y = 0; }")
    with pytest.raises(DslError, match="not associative") as err:
        load_algebra_text(bad)
    assert err.value.line == 1


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def test_builtin_families_expand_and_revalidate():
    exprs = ["matrix(2)", "matrix(3)", "truncpoly(4)", "dual", "k",
             "product(dual, dual)", "product(matrix(2), dual)",
             "opposite(upper2)",
             "group_algebra({elements e, s; e*e = e; e*s = s;"
             " s*e = s; s*s = e;})"]
    for expr in exprs:
        A = builtin_algebra(expr)
        # every builtin expands to a table that passes full validation
        Algebra(A.name, A.basis_names, A.structure, check=True)


def test_builtin_matrix_dimension():
    assert builtin_algebra("matrix(2)").dim == 4
    assert builtin_algebra("matrix(3)").dim == 9


def test_builtin_truncpoly_relations():
    A = builtin_algebra("truncpoly(3)")
    assert A.dim == 3
    assert A.structure[1][1][2] == 1          # t * t = t^2
    assert not any(A.structure[1][2])         # t * t^2 = 0


def test_builtin_product_is_componentwise():
    A = builtin_algebra("product(dual, dual)")
    assert A.dim == 4
    # the first-factor identity p is idempotent and kills the complement
    p = [F(0)] * 4
    p[1] = F(1)
    assert A.mult_vec(p, p) == p
    comp = [F(1), F(-1), F(0), F(0)]          # (0, 1) component
    assert A.mult_vec(p, comp) == [F(0)] * 4


def test_builtin_opposite_reverses_products():
    A = catalog()["upper2"]
    B = builtin_algebra("opposite(upper2)")
    m = A.dim
    for i in range(m):
        for j in range(m):
            assert B.structure[i][j] == A.structure[j][i]


def test_builtin_catalog_matches_reference_tables():
    ref = catalog()
    mine = builtin_catalog()
    assert sorted(mine) == sorted(ref)
    for name in ref:
        assert mine[name].basis_names == ref[name].basis_names
        assert mine[name].structure == ref[name].structure


def test_builtin_errors():
    with pytest.raises(DslError) as err:
        builtin_algebra("frobnicate")
    assert "unknown builtin" in str(err.value) and "matrix" in str(err.value)
    with pytest.raises(DslError, match="one integer parameter"):
        builtin_algebra("matrix(2, 3)")
    with pytest.raises(DslError, match="positive integer"):
        builtin_algebra("matrix(0)")
    with pytest.raises(DslError, match="no parameters"):
        builtin_algebra("dual(2)")
    with pytest.raises(DslError, match="algebra argument"):
        builtin_algebra("opposite(2)")
    with pytest.raises(DslError, match="not associative|not a group|inverse|identity"):
        builtin_algebra("group_algebra({elements e, s;"
                        " e*e = e; e*s = s; s*e = s; s*s = s;})")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_readme_input_parses():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```(\w*)\n(.*?)```", text, re.S)
    listed = text.split("or from builtin expressions:")[1].split("\n\n")[0]
    exprs = re.findall(r"`([^`]+)`", listed) + [
        arg.strip('"') for lang, body in blocks if lang == "sh"
        for arg in re.findall(r'--builtin ("[^"]+"|\S+)', body)]
    defs = [body for _, body in blocks
            if re.match(r"(#.*\n)*(algebra|action) ", body)]
    assert len(exprs) >= 11 and len(defs) == 2
    for expr in exprs:
        builtin_algebra(expr)
    for body in defs:
        if body.lstrip().startswith("action"):  # README runs it on kxk
            parse_group_action(body, builtin_algebra("kxk"))
        else:
            load_algebra_text(body)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def test_print_parse_round_trip_on_catalog():
    for name, A in catalog().items():
        text = print_algebra(A)
        B = load_algebra_text(text)
        assert B.basis_names == A.basis_names, name
        assert B.structure == A.structure, name


def test_print_round_trip_with_fractional_coefficients():
    A = load_algebra_text(
        "algebra q { basis 1, x; x*x = 1/2 x + 1/3; }")
    B = load_algebra_text(print_algebra(A))
    assert B.structure == A.structure
    assert "x*x = 1/3 + 1/2 x;" in print_algebra(A)


def test_print_sanitizes_algebra_names():
    A = builtin_algebra("matrix(2)")
    text = print_algebra(A)
    assert text.splitlines()[0] == "algebra matrix_2_ {"
    B = load_algebra_text(text)
    assert B.structure == A.structure


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


SWAP_ACTION = """
action swap {
    elements e, s;
    e*e = e; e*s = s; s*e = s; s*s = e;
    map e: 1 -> 1, a.1 -> a.1;
    map s: 1 -> 1, a.1 -> 1 - a.1;
}
"""


def test_swap_action_on_product_algebra():
    kxk = catalog()["kxk"]
    act = parse_group_action(SWAP_ACTION, kxk)
    assert isinstance(act, GroupAction)
    assert list(act.homs) == ["e", "s"]
    s = act.homs["s"].matrix
    assert s @ s == QMat.eye(2)
    assert act.fixed_subspace().dim == 1   # the diagonal scalars


def test_identity_only_action_accepted_everywhere():
    for name, A in catalog().items():
        names = ", ".join(f"{nm} -> {nm}" if nm != "1" else "1 -> 1"
                          for nm in A.basis_names)
        act = parse_group_action(
            "action triv { elements e; e*e = e; map e: %s; }" % names, A)
        assert act.homs["e"].matrix == QMat.eye(A.dim)
        assert act.fixed_subspace().dim == A.dim


_SIGN_HEAD = "action g { elements e, s;"
_SIGN_MAPS = "map e: 1 -> 1, eps -> eps; map s: 1 -> 1, eps -> -eps; }"

# every malformed action: (case, algebra, text, pattern of its DslError)
MALFORMED_ACTIONS = [
    ("missing-product", "dual",
     f"{_SIGN_HEAD} e*e = e; e*s = s; s*e = s; {_SIGN_MAPS}", r"missing s\*s"),
    ("no-inverse", "dual",
     f"{_SIGN_HEAD} e*e = e; e*s = s; s*e = s; s*s = s; {_SIGN_MAPS}", "no inverse"),
    ("not-associative", "dual",
     "action g { elements e, a, b; "
     "e*e = e; e*a = a; e*b = b; a*e = a; b*e = b; "
     "a*a = e; a*b = e; b*a = e; b*b = e; "
     "map e: 1 -> 1, eps -> eps; map a: 1 -> 1, eps -> -eps;"
     " map b: 1 -> 1, eps -> -eps; }", "not associative"),
    ("no-map", "dual",
     "action g { elements e, s; e*e = e; e*s = s; s*e = s; s*s = e;"
     " map e: 1 -> 1, eps -> eps; }", "no map declared for group element 's'"),
    ("no-image", "dual",
     "action g { elements e; e*e = e; map e: 1 -> 1; }",
     "does not assign an image to 'eps'"),
    ("not-invertible", "dual",
     "action g { elements e; e*e = e; map e: 1 -> 1, eps -> 0; }", "not invertible"),
    ("identity-moves", "dual",
     "action g { elements e; e*e = e; map e: 1 -> 1, eps -> -eps; }",
     "must act as the identity"),
    ("not-multiplicative", "kxk", SWAP_ACTION.replace("1 - a.1", "2 a.1"),
     "not an automorphism: .*multiplicative at basis pair"),
    ("not-homomorphic", "dual", """
    action bad {
        elements e, s;
        e*e = e; e*s = s; s*e = s; s*s = e;
        map e: 1 -> 1, eps -> eps;
        map s: 1 -> 1, eps -> 2 eps;
    }
    """, r"disagree .* \(s, s\)"),
]


def assert_rejected(*cases):
    """Each named malformed action raises its DslError at a line and column."""
    algebras = catalog()
    rows = [row for row in MALFORMED_ACTIONS if row[0] in cases]
    assert len(rows) == len(cases)
    for case, name, text, pattern in rows:
        with pytest.raises(DslError, match=pattern) as err:
            parse_group_action(text, algebras[name])
        assert err.value.line is not None and err.value.col is not None, case


def test_action_rejects_non_multiplicative_matrix():
    assert_rejected("not-multiplicative")


def test_action_rejects_non_homomorphic_assignment():
    assert_rejected("not-homomorphic")


def test_action_rejects_non_group_tables():
    assert_rejected("missing-product", "no-inverse", "not-associative")


def test_action_rejects_bad_maps():
    assert_rejected("no-map", "no-image", "not-invertible", "identity-moves")


def test_fixed_subspace_of_sign_action():
    dual = catalog()["dual"]
    act = parse_group_action(
        "action g { elements e, s; e*e = e; e*s = s; s*e = s; s*s = e;"
        " map e: 1 -> 1, eps -> eps; map s: 1 -> 1, eps -> -eps; }", dual)
    fs = act.fixed_subspace()
    assert fs.dim == 1
    assert fs.contains([F(1), F(0)])


SRC = Path(__file__).resolve().parent.parent / "src" / "ncforms"


def _element_triple_loops(tree: ast.AST) -> list[str]:
    """Functions holding three nested loops over one name, as a group
    associativity check runs over (g, h, k)."""
    def inner(loop):
        return [b for b in loop.body if isinstance(b, ast.For)]

    def triple(a):
        return (isinstance(a, ast.For) and isinstance(a.iter, ast.Name)
                and any(ast.dump(b.iter) == ast.dump(c.iter) == ast.dump(a.iter)
                        for b in inner(a) for c in inner(b)))

    return [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            and any(triple(a) for a in ast.walk(fn))]


def test_group_axioms_grammar_and_action_are_stated_once():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    loops = [f"{name}:{fn}" for name, tree in trees.items()
             for fn in _element_triple_loops(tree)]
    assert loops == ["algebra.py:group_identity"]
    dsl_names = {node.name for node in trees["dsl.py"].body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not dsl_names & {"GroupActionSpec", "fixed_subspace"}
    classes = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and node.name == "GroupAction"]
    assert classes == ["algebra.py"]
    load = next(node for node in trees["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_load_action")
    returned = [node.value for node in ast.walk(load) if isinstance(node, ast.Return)]
    assert any(isinstance(v, ast.Call) and getattr(v.func, "id", None)
               == "parse_group_action" for v in returned)
    assert "GroupAction" not in {getattr(v.func, "id", None) for v in returned[1:]}
