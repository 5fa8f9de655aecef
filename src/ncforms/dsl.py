"""Text format for defining algebras and finite group actions.

Grammar (statements end with ``;``, comments run from ``#`` to end of line)::

    algebra NAME [strict] {
        basis 1, x, y;        # the item `1` (or a `unit NAME;` line)
        unit x;               #   marks the unit -- exactly one of the two
        x*y = 1 - 2/3 y;      # right side: linear combination of basis names
    }                         # unmentioned products default to zero unless
                              #   the table is marked `strict`

    builtin matrix(2)         # families: matrix(n), truncpoly(n), dual, k,
                              #   product(x, y), opposite(x),
                              #   group_algebra({elements e, s; e*e = e; ...})
                              # plus the named catalog: k, dual, truncpoly3,
                              #   kxk, m2, kc2, upper2

    action NAME {             # finite group acting by algebra automorphisms
        elements e, s;        # a group table, as in group_algebra
        e*e = e; e*s = s; s*e = s; s*s = e;
        map e: 1 -> 1, p -> p;        # one automorphism per element
        map s: 1 -> 1, p -> 1 - p;
    }

A group table has one grammar, ``elements g, ...;`` then ``g*h = k;``
lines, and one check of the group axioms (``algebra.group_identity``), in
``group_algebra({...})`` and in an ``action`` block alike.

Diagnostics carry line/column and, for unexpected tokens, the expected set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .algebra import (
    Algebra, AlgebraError, AlgebraHom, GroupAction, base_field, dual_numbers,
    group_algebra, group_identity, matrix_algebra, product_algebra,
    truncated_polynomial_algebra,
)
from .linalg import LinAlgError, QMat, format_scalar, qmat_inverse


class DslError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 col: Optional[int] = None,
                 expected: Optional[Sequence[str]] = None):
        self.message = message
        self.line = line
        self.col = col
        self.expected = sorted(expected) if expected else None
        full = message
        if expected:
            full += " (expected " + " | ".join(self.expected) + ")"
        if line is not None:
            full = f"line {line}, col {col}: {full}"
        super().__init__(full)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = "{}(),;*=:+-"
_NAME_CONT = "_.^"


class Token(NamedTuple):
    kind: str       # NAME | RATIONAL | one of _PUNCT | ARROW | EOF
    text: str
    value: Optional[Fraction]
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == ">":
            toks.append(Token("ARROW", "->", None, line, col))
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            toks.append(Token(ch, ch, None, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            den = 1
            if j < n and text[j] == "/":
                j += 1
                k = j
                while j < n and text[j].isdigit():
                    j += 1
                den = int(text[k:j]) if j > k else 0
                if den == 0:
                    raise DslError("malformed rational literal", line, col)
            toks.append(Token("RATIONAL", text[i:j],
                              Fraction(int(text[i:j].split("/")[0]), den),
                              line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in _NAME_CONT):
                j += 1
            toks.append(Token("NAME", text[i:j], None, line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "end of input", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Term(NamedTuple):
    coeff: Fraction
    name: Optional[str]        # None = multiple of the unit
    line: int
    col: int


class Relation(NamedTuple):
    left: str
    right: str
    expr: tuple[Term, ...]
    line: int
    col: int


class TableSpec(NamedTuple):
    name: str
    strict: bool
    basis: tuple[str, ...]             # declared order
    unit: str
    relations: tuple[Relation, ...]
    line: int = 1
    col: int = 1


class GroupTable(NamedTuple):
    elements: tuple[str, ...]
    products: dict
    line: int
    col: int


class BuiltinSpec(NamedTuple):
    name: str
    args: tuple = ()
    line: int = 1
    col: int = 1


AlgebraSpec = Union[TableSpec, BuiltinSpec]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> Token:
        return self.toks[self.pos]

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            raise DslError(f"unexpected token {tok.text!r}", tok.line, tok.col,
                           expected=[text if text is not None else kind])
        return self.advance()

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.text == word

    # -- shared pieces --------------------------------------------------

    def basis_name(self) -> Token:
        """A NAME, or the literal `1` standing for the unit element."""
        tok = self.peek()
        if tok.kind == "NAME":
            return self.advance()
        if tok.kind == "RATIONAL" and tok.text == "1":
            return self.advance()
        raise DslError(f"unexpected token {tok.text!r}", tok.line, tok.col,
                       expected=["basis name"])

    def linear_expr(self) -> tuple[Term, ...]:
        terms: list[Term] = []
        sign = Fraction(1)
        tok = self.peek()
        if tok.kind == "-":
            sign = Fraction(-1)
            self.advance()
        while True:
            tok = self.peek()
            if tok.kind == "RATIONAL":
                self.advance()
                coeff = sign * tok.value
                name = None
                nxt = self.peek()
                if nxt.kind == "*":
                    self.advance()
                    name = self.basis_name().text
                elif nxt.kind == "NAME":
                    name = self.advance().text
                terms.append(Term(coeff, name, tok.line, tok.col))
            elif tok.kind == "NAME":
                self.advance()
                terms.append(Term(sign, tok.text, tok.line, tok.col))
            else:
                raise DslError(f"unexpected token {tok.text!r}",
                               tok.line, tok.col,
                               expected=["rational", "basis name"])
            tok = self.peek()
            if tok.kind == "+":
                sign = Fraction(1)
                self.advance()
            elif tok.kind == "-":
                sign = Fraction(-1)
                self.advance()
            else:
                return tuple(terms)

    # -- algebra tables ---------------------------------------------------

    def table_spec(self) -> TableSpec:
        head = self.expect("NAME", "algebra")
        name = self.expect("NAME").text
        strict = False
        if self.at_keyword("strict"):
            strict = True
            self.advance()
        self.expect("{")
        basis: list[str] = []
        unit: Optional[str] = None
        relations: list[Relation] = []
        while self.peek().kind != "}":
            tok = self.peek()
            if self.at_keyword("basis"):
                self.advance()
                while True:
                    item = self.basis_name()
                    if item.text in basis:
                        raise DslError(
                            f"duplicate basis name {item.text!r}",
                            item.line, item.col)
                    basis.append(item.text)
                    if item.text == "1":
                        if unit is not None:
                            raise DslError("duplicate unit declaration",
                                           item.line, item.col)
                        unit = "1"
                    if self.peek().kind == ",":
                        self.advance()
                    else:
                        break
                self.expect(";")
            elif self.at_keyword("unit"):
                kw = self.advance()
                item = self.basis_name()
                if unit is not None:
                    raise DslError("duplicate unit declaration",
                                   kw.line, kw.col)
                unit = item.text
                self.expect(";")
            elif tok.kind in ("NAME", "RATIONAL"):
                left = self.basis_name()
                self.expect("*")
                right = self.basis_name()
                self.expect("=")
                expr = self.linear_expr()
                self.expect(";")
                relations.append(Relation(left.text, right.text, expr,
                                          left.line, left.col))
            else:
                raise DslError(f"unexpected token {tok.text!r}",
                               tok.line, tok.col,
                               expected=["basis", "unit", "relation", "}"])
        self.expect("}")
        if unit is None:
            raise DslError("no unit declared", head.line, head.col)
        if unit not in basis:
            raise DslError(f"unit {unit!r} is not a basis name",
                           head.line, head.col)
        return TableSpec(name, strict, tuple(basis), unit, tuple(relations),
                         head.line, head.col)

    # -- builtin expressions ----------------------------------------------

    def builtin_expr(self) -> BuiltinSpec:
        head = self.expect("NAME")
        args: list = []
        if self.peek().kind == "(":
            self.advance()
            if self.peek().kind != ")":
                while True:
                    args.append(self.builtin_arg())
                    if self.peek().kind == ",":
                        self.advance()
                    else:
                        break
            self.expect(")")
        return BuiltinSpec(head.text, tuple(args), head.line, head.col)

    def builtin_arg(self):
        tok = self.peek()
        if tok.kind == "RATIONAL":
            self.advance()
            if tok.value.denominator != 1 or tok.value <= 0:
                raise DslError("expected a positive integer parameter",
                               tok.line, tok.col)
            return int(tok.value)
        if tok.kind == "{":
            return self.group_table()
        if tok.kind == "NAME":
            return self.builtin_expr()
        raise DslError(f"unexpected token {tok.text!r}", tok.line, tok.col,
                       expected=["integer", "builtin expression",
                                 "group table"])

    # -- group tables and actions ----------------------------------------

    def group_elements(self) -> tuple[str, ...]:
        """`elements g, h, ...;`"""
        self.expect("NAME", "elements")
        elements: list[str] = []
        while True:
            tok = self.expect("NAME")
            if tok.text in elements:
                raise DslError(f"duplicate group element {tok.text!r}",
                               tok.line, tok.col)
            elements.append(tok.text)
            if self.peek().kind == ",":
                self.advance()
            else:
                break
        self.expect(";")
        return tuple(elements)

    def group_product(self, elements: Sequence[str], products: dict) -> None:
        """`g*h = k;`, entered into ``products``."""
        g = self.expect("NAME")
        self.expect("*")
        h = self.expect("NAME")
        self.expect("=")
        k = self.expect("NAME")
        self.expect(";")
        for tok in (g, h, k):
            if tok.text not in elements:
                raise DslError(f"unknown group element {tok.text!r}",
                               tok.line, tok.col)
        if (g.text, h.text) in products:
            raise DslError(f"duplicate product {g.text}*{h.text}",
                           g.line, g.col)
        products[(g.text, h.text)] = k.text

    def group_table(self) -> GroupTable:
        head = self.expect("{")
        elements = self.group_elements()
        products: dict = {}
        while self.peek().kind != "}":
            self.group_product(elements, products)
        self.expect("}")
        return GroupTable(elements, products, head.line, head.col)

    def action_spec(self):
        head = self.expect("NAME", "action")
        self.expect("NAME")
        self.expect("{")
        elements = self.group_elements()
        products: dict = {}
        maps: dict = {}
        while self.peek().kind != "}":
            if self.at_keyword("map"):
                kw = self.advance()
                label = self.expect("NAME")
                if label.text not in elements:
                    raise DslError(f"unknown group element {label.text!r}",
                                   label.line, label.col)
                if label.text in maps:
                    raise DslError(f"duplicate map for {label.text!r}",
                                   kw.line, kw.col)
                self.expect(":")
                assignments: list = []
                while True:
                    src = self.basis_name()
                    self.expect("ARROW")
                    expr = self.linear_expr()
                    assignments.append((src, expr))
                    if self.peek().kind == ",":
                        self.advance()
                    else:
                        break
                self.expect(";")
                maps[label.text] = (kw, assignments)
            else:
                self.group_product(elements, products)
        self.expect("}")
        return elements, products, maps, head


def parse(text: str) -> AlgebraSpec:
    """One algebra definition: a table or a builtin expression."""
    p = _Parser(tokenize(text))
    tok = p.peek()
    if p.at_keyword("algebra"):
        spec: AlgebraSpec = p.table_spec()
    elif p.at_keyword("builtin"):
        p.advance()
        spec = p.builtin_expr()
    else:
        raise DslError(f"unexpected token {tok.text!r}", tok.line, tok.col,
                       expected=["algebra", "builtin"])
    p.expect("EOF")
    return spec


# ---------------------------------------------------------------------------
# Elaboration
# ---------------------------------------------------------------------------


def _resolve_expr(expr: Sequence[Term], index: dict, m: int) -> list[Fraction]:
    out = [Fraction(0)] * m
    for term in expr:
        if term.name is None:
            out[0] += term.coeff
        else:
            if term.name not in index:
                raise DslError(f"unknown basis name {term.name!r}",
                               term.line, term.col)
            out[index[term.name]] += term.coeff
    return out


def _elaborate_table(spec: TableSpec) -> Algebra:
    order = [spec.unit] + [nm for nm in spec.basis if nm != spec.unit]
    index = {nm: i for i, nm in enumerate(order)}
    m = len(order)
    structure = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        structure[0][i][i] = Fraction(1)
        structure[i][0][i] = Fraction(1)
    seen = set()
    for rel in spec.relations:
        for nm in (rel.left, rel.right):
            if nm not in index:
                raise DslError(f"unknown basis name {nm!r}",
                               rel.line, rel.col)
        li, ri = index[rel.left], index[rel.right]
        if (li, ri) in seen:
            raise DslError(
                f"duplicate relation for {rel.left}*{rel.right}",
                rel.line, rel.col)
        seen.add((li, ri))
        coeffs = _resolve_expr(rel.expr, index, m)
        if li == 0 or ri == 0:
            forced = [Fraction(int(t == (ri if li == 0 else li)))
                      for t in range(m)]
            if coeffs != forced:
                raise DslError(
                    f"product {rel.left}*{rel.right} conflicts with the "
                    "unit law", rel.line, rel.col)
        else:
            structure[li][ri] = coeffs
    if spec.strict:
        for i in range(1, m):
            for j in range(1, m):
                if (i, j) not in seen:
                    raise DslError(
                        f"strict table is missing the product "
                        f"{order[i]}*{order[j]}", spec.line, spec.col)
    try:
        return Algebra(spec.name, order, structure)
    except AlgebraError as exc:
        raise DslError(str(exc), spec.line, spec.col) from exc


def _catalog_builders() -> dict:
    return {
        "k": base_field,
        "dual": dual_numbers,
        "truncpoly3": lambda: truncated_polynomial_algebra(3),
        "kxk": lambda: product_algebra(base_field(), base_field(),
                                       name="kxk"),
        "m2": lambda: matrix_algebra(2),
        "kc2": lambda: group_algebra(
            ["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                         ("g", "e"): "g", ("g", "g"): "e"}, name="kc2"),
        "upper2": lambda: _elaborate_table(parse(_UPPER2_SOURCE)),
    }


_UPPER2_SOURCE = """
algebra upper2 {
    basis 1, p, n;
    p*p = p;  p*n = n;
    n*p = 0;  n*n = 0;
}
"""

BUILTIN_NAMES = ("k", "dual", "truncpoly3", "kxk", "m2", "kc2", "upper2",
                 "matrix", "truncpoly", "product", "opposite",
                 "group_algebra")


def builtin_catalog() -> dict:
    """The seven ready-made algebras, freshly constructed."""
    return {name: build() for name, build in _catalog_builders().items()}


def _elaborate_builtin(spec: BuiltinSpec) -> Algebra:
    name, args = spec.name, spec.args

    def arity(n: int, what: str):
        if len(args) != n:
            raise DslError(
                f"builtin {name!r} takes {what}", spec.line, spec.col)

    def int_arg(i: int) -> int:
        if not isinstance(args[i], int):
            raise DslError(f"builtin {name!r} needs an integer parameter",
                           spec.line, spec.col)
        return args[i]

    def alg_arg(i: int) -> Algebra:
        if not isinstance(args[i], BuiltinSpec):
            raise DslError(f"builtin {name!r} needs an algebra argument",
                           spec.line, spec.col)
        return _elaborate_builtin(args[i])

    catalog = _catalog_builders()
    try:
        if name in catalog:
            arity(0, "no parameters")
            return catalog[name]()
        if name == "matrix":
            arity(1, "one integer parameter")
            return matrix_algebra(int_arg(0))
        if name == "truncpoly":
            arity(1, "one integer parameter")
            return truncated_polynomial_algebra(int_arg(0))
        if name == "product":
            arity(2, "two algebra arguments")
            return product_algebra(alg_arg(0), alg_arg(1))
        if name == "opposite":
            arity(1, "one algebra argument")
            return alg_arg(0).opposite()
        if name == "group_algebra":
            arity(1, "a group table")
            table = args[0]
            if not isinstance(table, GroupTable):
                raise DslError("builtin 'group_algebra' needs a group table",
                               spec.line, spec.col)
            return group_algebra(table.elements, table.products)
    except AlgebraError as exc:
        raise DslError(str(exc), spec.line, spec.col) from exc
    raise DslError(f"unknown builtin {name!r}", spec.line, spec.col,
                   expected=BUILTIN_NAMES)


def elaborate(spec: AlgebraSpec) -> Algebra:
    if isinstance(spec, TableSpec):
        return _elaborate_table(spec)
    if isinstance(spec, BuiltinSpec):
        return _elaborate_builtin(spec)
    raise DslError("not an algebra specification")


def load_algebra_text(text: str) -> Algebra:
    return elaborate(parse(text))


def builtin_algebra(expr: str) -> Algebra:
    """An algebra from a builtin expression string like ``matrix(2)``."""
    p = _Parser(tokenize(expr))
    spec = p.builtin_expr()
    p.expect("EOF")
    return _elaborate_builtin(spec)


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def parse_group_action(text: str, over: Algebra) -> GroupAction:
    """The action an ``action`` block defines on ``over``; every defect
    raises DslError at its line and column."""
    p = _Parser(tokenize(text))
    elements, products, maps, head = p.action_spec()
    p.expect("EOF")
    try:
        unit = group_identity(elements, products)
    except AlgebraError as exc:
        raise DslError(str(exc), head.line, head.col) from exc
    # -- per-element automorphisms -------------------------------------------
    m = over.dim
    index = {nm: i for i, nm in enumerate(over.basis_names)}
    homs: dict = {}
    for g in elements:
        if g not in maps:
            raise DslError(f"no map declared for group element {g!r}",
                           head.line, head.col)
        kw, assignments = maps[g]
        cols: dict = {}
        for src, expr in assignments:
            if src.text not in index:
                raise DslError(f"unknown basis name {src.text!r}",
                               src.line, src.col)
            if src.text in cols:
                raise DslError(f"duplicate image for {src.text!r}",
                               src.line, src.col)
            cols[src.text] = _resolve_expr(expr, index, m)
        missing = [nm for nm in over.basis_names if nm not in cols]
        if missing:
            raise DslError(
                f"map for {g!r} does not assign an image to "
                f"{missing[0]!r}", kw.line, kw.col)
        mat = QMat.from_columns(m, [cols[nm] for nm in over.basis_names])
        try:
            qmat_inverse(mat)
        except LinAlgError:
            raise DslError(f"map for {g!r} is not invertible",
                           kw.line, kw.col) from None
        try:
            homs[g] = AlgebraHom(over, over, mat, name=g)
        except AlgebraError as exc:
            raise DslError(f"map for {g!r} is not an automorphism: {exc}",
                           kw.line, kw.col) from exc
    # -- the assignment is a group homomorphism ------------------------------
    if homs[unit].matrix != QMat.eye(m):
        raise DslError(f"identity element {unit!r} must act as the identity",
                       head.line, head.col)
    for g in elements:
        for h in elements:
            if homs[g].matrix @ homs[h].matrix != homs[products[g, h]].matrix:
                raise DslError(
                    f"matrices disagree with the composition table at "
                    f"({g}, {h})", head.line, head.col)
    return GroupAction(over, list(homs.values()), check=False)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _lexable_name(name: str) -> str:
    text = "".join(ch if ch.isalnum() or ch in _NAME_CONT else "_"
                   for ch in name) or "algebra"
    if not (text[0].isalpha() or text[0] == "_"):
        text = "a_" + text
    return text


def _format_linear(coeffs: Sequence[Fraction], names: Sequence[str]) -> str:
    pieces = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        mag = abs(c)
        if k == 0:
            body = format_scalar(mag)
        elif mag == 1:
            body = names[k]
        else:
            body = f"{format_scalar(mag)} {names[k]}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"


def print_algebra(algebra: Algebra) -> str:
    """Canonical table text; reparsing reproduces basis and products.

    Algebra names that fall outside the token grammar are transliterated.
    """
    names = algebra.basis_names
    m = algebra.dim
    lines = [f"algebra {_lexable_name(algebra.name)} {{"]
    lines.append("    basis " + ", ".join(names) + ";")
    if names[0] != "1":
        lines.append(f"    unit {names[0]};")
    for i in range(1, m):
        for j in range(1, m):
            coeffs = algebra.structure[i][j]
            if any(coeffs):
                lines.append(f"    {names[i]}*{names[j]} = "
                             f"{_format_linear(coeffs, names)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
