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

Tokens: a name starts with a letter or ``_`` and goes on with letters,
digits and ``_.^``; a rational is ASCII ``p`` or ``p/q`` (``linalg.RATIONAL``,
the literal ``parse_scalar`` reads too; a sign is the ``-`` token); then
``->`` and the punctuation ``{}(),;*=:+-``.  Any other character is an
error.

A group table has one grammar, ``elements g, ...;`` then ``g*h = k;``
lines, and one check of the group axioms (``algebra.group_identity``), in
``group_algebra({...})`` and in an ``action`` block alike.

Diagnostics carry line/column and, for unexpected tokens, the expected set.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, TypeVar, Union

from .algebra import (
    Algebra, AlgebraError, AlgebraHom, GroupAction, base_field, dual_numbers,
    group_algebra, group_identity, matrix_algebra, product_algebra,
    truncated_polynomial_algebra,
)
from .linalg import (RATIONAL, LinAlgError, QMat, format_scalar, parse_scalar,
                     qmat_inverse)

T = TypeVar("T")


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


def _error(at, message: str, expected: Sequence[str] = ()) -> DslError:
    """A DslError at the line and column of ``at``, a token or AST node."""
    return DslError(message, at.line, at.col, expected)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Token classes, tried in order.  ``[\w.^]`` is exactly ``str.isalnum()`` or
# one of ``_.^``; a NAME must also start with a letter or ``_``, which no
# regex class states exactly, so ``tokenize`` checks its first character.
_TOKEN_CLASSES = (
    ("NEWLINE", r"\n"),
    ("SKIP", r"[ \t\r]+|#[^\n]*"),
    ("ARROW", r"->"),
    ("PUNCT", r"[{}(),;*=:+\-]"),
    ("BAD_RATIONAL", r"[0-9]+/(?![0-9])"),
    ("RATIONAL", RATIONAL),
    ("NAME", r"[\w.^]+"),
    ("OTHER", r"."),
)
_LEXER = re.compile("|".join(f"(?P<{kind}>{pattern})"
                             for kind, pattern in _TOKEN_CLASSES))


class Token(NamedTuple):
    kind: str       # NAME | RATIONAL | ARROW | EOF | the punctuation itself
    text: str
    value: Optional[Fraction]
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, start = 1, 0          # start: index of the line's first character
    for m in _LEXER.finditer(text):
        kind, tok, col = m.lastgroup, m.group(), m.start() - start + 1
        if kind == "NEWLINE":
            line, start = line + 1, m.end()
        elif kind in ("RATIONAL", "BAD_RATIONAL"):
            try:
                value = parse_scalar(tok)
            except LinAlgError:
                raise DslError("malformed rational literal", line, col) from None
            toks.append(Token("RATIONAL", tok, value, line, col))
        elif kind in ("ARROW", "PUNCT") or (
                kind == "NAME" and (tok[0].isalpha() or tok[0] == "_")):
            toks.append(Token(tok if kind == "PUNCT" else kind, tok, None,
                              line, col))
        elif kind != "SKIP":
            raise DslError(f"unexpected character {tok[0]!r}", line, col)
    toks.append(Token("EOF", "end of input", None, line, len(text) - start + 1))
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

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        """The next token if it has ``kind`` (and ``text``), consumed."""
        tok = self.peek()
        if tok.kind == kind and text in (None, tok.text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.accept(kind, text)
        if tok is None:
            raise self.unexpected(text if text is not None else kind)
        return tok

    def unexpected(self, *expected: str) -> DslError:
        tok = self.peek()
        return _error(tok, f"unexpected token {tok.text!r}", expected)

    def items(self, item: Callable[[], T]) -> list[T]:
        """``item (, item)*``"""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    # -- shared pieces --------------------------------------------------

    def basis_name(self) -> Token:
        """A NAME, or the literal `1` standing for the unit element."""
        tok = self.accept("NAME") or self.accept("RATIONAL", "1")
        if tok is None:
            raise self.unexpected("basis name")
        return tok

    def linear_expr(self) -> tuple[Term, ...]:
        """``[-] term (+|- term)*``; a term is ``q``, ``q name``, ``q*name``
        or ``name``."""
        terms: list[Term] = []
        sign = -1 if self.accept("-") else 1
        while True:
            tok = self.accept("RATIONAL") or self.accept("NAME")
            if tok is None:
                raise self.unexpected("rational", "basis name")
            if tok.kind == "NAME":
                terms.append(Term(Fraction(sign), tok.text, tok.line, tok.col))
            else:
                name = self.accept("NAME") or (self.accept("*")
                                               and self.basis_name())
                terms.append(Term(sign * tok.value, name and name.text,
                                  tok.line, tok.col))
            if self.accept("+"):
                sign = 1
            elif self.accept("-"):
                sign = -1
            else:
                return tuple(terms)

    # -- algebra tables ---------------------------------------------------

    def algebra_spec(self) -> AlgebraSpec:
        """One algebra definition: a table or a builtin expression."""
        if self.peek()[:2] == ("NAME", "algebra"):
            return self.table_spec()
        if self.accept("NAME", "builtin"):
            return self.builtin_expr()
        raise self.unexpected("algebra", "builtin")

    def table_spec(self) -> TableSpec:
        head = self.expect("NAME", "algebra")
        name = self.expect("NAME").text
        strict = bool(self.accept("NAME", "strict"))
        self.expect("{")
        basis: list[str] = []
        unit: Optional[str] = None
        relations: list[Relation] = []
        while not self.accept("}"):
            kw = self.peek()
            if self.accept("NAME", "basis"):
                for item in self.items(self.basis_name):
                    if item.text in basis:
                        raise _error(item, f"duplicate basis name {item.text!r}")
                    basis.append(item.text)
                    if item.text == "1":
                        if unit is not None:
                            raise _error(item, "duplicate unit declaration")
                        unit = "1"
            elif self.accept("NAME", "unit"):
                item = self.basis_name()
                if unit is not None:
                    raise _error(kw, "duplicate unit declaration")
                unit = item.text
            elif kw.kind in ("NAME", "RATIONAL"):
                left = self.basis_name()
                self.expect("*")
                right = self.basis_name()
                self.expect("=")
                relations.append(Relation(left.text, right.text,
                                          self.linear_expr(), left.line, left.col))
            else:
                raise self.unexpected("basis", "unit", "relation", "}")
            self.expect(";")
        if unit is None:
            raise _error(head, "no unit declared")
        if unit not in basis:
            raise _error(head, f"unit {unit!r} is not a basis name")
        return TableSpec(name, strict, tuple(basis), unit, tuple(relations),
                         head.line, head.col)

    # -- builtin expressions ----------------------------------------------

    def builtin_expr(self) -> BuiltinSpec:
        head = self.expect("NAME")
        args: list = []
        if self.accept("("):
            if self.peek().kind != ")":
                args = self.items(self.builtin_arg)
            self.expect(")")
        return BuiltinSpec(head.text, tuple(args), head.line, head.col)

    def builtin_arg(self):
        tok = self.peek()
        if tok.kind == "RATIONAL":
            self.advance()
            if tok.value.denominator != 1 or tok.value <= 0:
                raise _error(tok, "expected a positive integer parameter")
            return int(tok.value)
        if tok.kind == "{":
            return self.group_table()
        if tok.kind == "NAME":
            return self.builtin_expr()
        raise self.unexpected("integer", "builtin expression", "group table")

    # -- group tables and actions ----------------------------------------

    def group_elements(self) -> tuple[str, ...]:
        """`elements g, h, ...;`"""
        self.expect("NAME", "elements")
        elements: list[str] = []
        for tok in self.items(lambda: self.expect("NAME")):
            if tok.text in elements:
                raise _error(tok, f"duplicate group element {tok.text!r}")
            elements.append(tok.text)
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
                raise _error(tok, f"unknown group element {tok.text!r}")
        if (g.text, h.text) in products:
            raise _error(g, f"duplicate product {g.text}*{h.text}")
        products[(g.text, h.text)] = k.text

    def group_table(self) -> GroupTable:
        head = self.expect("{")
        elements = self.group_elements()
        products: dict = {}
        while not self.accept("}"):
            self.group_product(elements, products)
        return GroupTable(elements, products, head.line, head.col)

    def assignment(self) -> tuple[Token, tuple[Term, ...]]:
        """`name -> linear expression`, one image of a map."""
        src = self.basis_name()
        self.expect("ARROW")
        return src, self.linear_expr()

    def action_spec(self):
        head = self.expect("NAME", "action")
        self.expect("NAME")
        self.expect("{")
        elements = self.group_elements()
        products: dict = {}
        maps: dict = {}
        while not self.accept("}"):
            kw = self.accept("NAME", "map")
            if kw is None:
                self.group_product(elements, products)
                continue
            label = self.expect("NAME")
            if label.text not in elements:
                raise _error(label, f"unknown group element {label.text!r}")
            if label.text in maps:
                raise _error(kw, f"duplicate map for {label.text!r}")
            self.expect(":")
            maps[label.text] = (kw, self.items(self.assignment))
            self.expect(";")
        return elements, products, maps, head


def _parse_all(text: str, rule: Callable[[_Parser], T]) -> T:
    """``rule`` over the tokens of ``text``, which it must use up."""
    p = _Parser(tokenize(text))
    out = rule(p)
    p.expect("EOF")
    return out


def parse(text: str) -> AlgebraSpec:
    """One algebra definition: a table or a builtin expression."""
    return _parse_all(text, _Parser.algebra_spec)


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
                raise _error(term, f"unknown basis name {term.name!r}")
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
                raise _error(rel, f"unknown basis name {nm!r}")
        li, ri = index[rel.left], index[rel.right]
        if (li, ri) in seen:
            raise _error(rel, f"duplicate relation for {rel.left}*{rel.right}")
        seen.add((li, ri))
        coeffs = _resolve_expr(rel.expr, index, m)
        if li == 0 or ri == 0:
            forced = [Fraction(int(t == (ri if li == 0 else li)))
                      for t in range(m)]
            if coeffs != forced:
                raise _error(rel, f"product {rel.left}*{rel.right} conflicts "
                                  "with the unit law")
        else:
            structure[li][ri] = coeffs
    if spec.strict:
        for i in range(1, m):
            for j in range(1, m):
                if (i, j) not in seen:
                    raise _error(spec, "strict table is missing the product "
                                       f"{order[i]}*{order[j]}")
    try:
        return Algebra(spec.name, order, structure)
    except AlgebraError as exc:
        raise _error(spec, str(exc)) from exc


_UPPER2_SOURCE = """
algebra upper2 {
    basis 1, p, n;
    p*p = p;  p*n = n;
    n*p = 0;  n*n = 0;
}
"""

# name -> (arity message, argument types, builder of the checked arguments,
# a BuiltinSpec elaborated first).  The first seven, taking no arguments,
# are the named catalog.  Builders look the constructors up when called, so
# a profiler that rebinds module names (perfbench/tracer.py) sees them.
_BUILTINS = {
    "k": ("no parameters", (), lambda: base_field()),
    "dual": ("no parameters", (), lambda: dual_numbers()),
    "truncpoly3": ("no parameters", (),
                   lambda: truncated_polynomial_algebra(3)),
    "kxk": ("no parameters", (),
            lambda: product_algebra(base_field(), base_field(), name="kxk")),
    "m2": ("no parameters", (), lambda: matrix_algebra(2)),
    "kc2": ("no parameters", (), lambda: group_algebra(
        ["e", "g"], {("e", "e"): "e", ("e", "g"): "g",
                     ("g", "e"): "g", ("g", "g"): "e"}, name="kc2")),
    "upper2": ("no parameters", (),
               lambda: _elaborate_table(parse(_UPPER2_SOURCE))),
    "matrix": ("one integer parameter", (int,), lambda n: matrix_algebra(n)),
    "truncpoly": ("one integer parameter", (int,),
                  lambda n: truncated_polynomial_algebra(n)),
    "product": ("two algebra arguments", (BuiltinSpec,) * 2,
                lambda a, b: product_algebra(a, b)),
    "opposite": ("one algebra argument", (BuiltinSpec,), lambda a: a.opposite()),
    "group_algebra": ("a group table", (GroupTable,),
                      lambda t: group_algebra(t.elements, t.products)),
}
_ARG_NAMES = {int: "an integer parameter", BuiltinSpec: "an algebra argument",
              GroupTable: "a group table"}

BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_catalog() -> dict:
    """The seven ready-made algebras, freshly constructed."""
    return {name: build() for name, (_, types, build) in _BUILTINS.items()
            if not types}


def _elaborate_builtin(spec: BuiltinSpec) -> Algebra:
    if spec.name not in _BUILTINS:
        raise _error(spec, f"unknown builtin {spec.name!r}", BUILTIN_NAMES)
    arity, types, build = _BUILTINS[spec.name]
    if len(spec.args) != len(types):
        raise _error(spec, f"builtin {spec.name!r} takes {arity}")
    args = []
    for arg, cls in zip(spec.args, types):
        if not isinstance(arg, cls):
            raise _error(spec, f"builtin {spec.name!r} needs {_ARG_NAMES[cls]}")
        args.append(_elaborate_builtin(arg) if cls is BuiltinSpec else arg)
    try:
        return build(*args)
    except AlgebraError as exc:
        raise _error(spec, str(exc)) from exc


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
    return _elaborate_builtin(_parse_all(expr, _Parser.builtin_expr))


# ---------------------------------------------------------------------------
# Group actions
# ---------------------------------------------------------------------------


def parse_group_action(text: str, over: Algebra) -> GroupAction:
    """The action an ``action`` block defines on ``over``; every defect
    raises DslError at its line and column."""
    elements, products, maps, head = _parse_all(text, _Parser.action_spec)
    try:
        unit = group_identity(elements, products)
    except AlgebraError as exc:
        raise _error(head, str(exc)) from exc
    # -- per-element automorphisms -------------------------------------------
    m = over.dim
    index = {nm: i for i, nm in enumerate(over.basis_names)}
    homs: dict = {}
    for g in elements:
        if g not in maps:
            raise _error(head, f"no map declared for group element {g!r}")
        kw, assignments = maps[g]
        cols: dict = {}
        for src, expr in assignments:
            if src.text not in index:
                raise _error(src, f"unknown basis name {src.text!r}")
            if src.text in cols:
                raise _error(src, f"duplicate image for {src.text!r}")
            cols[src.text] = _resolve_expr(expr, index, m)
        missing = [nm for nm in over.basis_names if nm not in cols]
        if missing:
            raise _error(kw, f"map for {g!r} does not assign an image to "
                             f"{missing[0]!r}")
        mat = QMat.from_columns(m, [cols[nm] for nm in over.basis_names])
        try:
            qmat_inverse(mat)
        except LinAlgError:
            raise _error(kw, f"map for {g!r} is not invertible") from None
        try:
            homs[g] = AlgebraHom(over, over, mat, name=g)
        except AlgebraError as exc:
            raise _error(kw, f"map for {g!r} is not an automorphism: "
                             f"{exc}") from exc
    # -- the assignment is a group homomorphism ------------------------------
    if homs[unit].matrix != QMat.eye(m):
        raise _error(head, f"identity element {unit!r} must act as the "
                           "identity")
    for g in elements:
        for h in elements:
            if homs[g].matrix @ homs[h].matrix != homs[products[g, h]].matrix:
                raise _error(head, "matrices disagree with the composition "
                                   f"table at ({g}, {h})")
    return GroupAction(over, list(homs.values()), check=False)


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------


def _lexable_name(name: str) -> str:
    text = re.sub(r"[^\w.^]", "_", name) or "algebra"
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
