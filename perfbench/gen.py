"""Seeded inputs for the dense-basis workload.

Everything here is exact ``Fraction`` arithmetic written from the
mathematics; nothing is imported from ``ncforms``, so the inputs for a
seed do not depend on the version of the program under test.

* An algebra is a structure tensor ``table[i][j][k]`` (coefficient of
  ``e_k`` in ``e_i e_j``) with the unit as basis vector 0.
* ``rebase`` rewrites it in a random unit-preserving basis with small
  integer entries, so the structure constants become dense rationals.
* A degree-k form is a dict ``{(i, (j_1..j_k)): coeff}`` in the model
  ``A (x) Abar^k`` that ``ncforms.forms`` documents: i in 0..m-1, every
  j_t in 1..m-1, flat index big-endian with the j's in base m-1.
* A field-valued form of degree k is a derivation ``A -> Omega_k``; the
  generator writes the inner derivation ``a -> a.w - w.a`` of a random
  sparse ``w``, which is a derivation for every ``w``.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

Table = list  # m x m x m nested lists of Fraction


# ---------------------------------------------------------------------------
# Base algebras in their builtin bases
# ---------------------------------------------------------------------------


def m2_table() -> Table:
    """2x2 matrices in the basis 1, E11, E12, E21 (E22 = 1 - E11)."""
    mats = [((1, 0), (0, 1)), ((1, 0), (0, 0)),
            ((0, 1), (0, 0)), ((0, 0), (1, 0))]

    def coords(x):
        (a, b), (c, d) = x
        return [Fraction(d), Fraction(a - d), Fraction(b), Fraction(c)]

    def mul(x, y):
        return tuple(tuple(sum(x[r][t] * y[t][c] for t in range(2))
                           for c in range(2)) for r in range(2))

    return [[coords(mul(x, y)) for y in mats] for x in mats]


def truncpoly_table(n: int) -> Table:
    """Q[t]/(t^n) in the basis 1, t, ..., t^(n-1)."""
    return [[[Fraction(int(k == i + j)) for k in range(n)]
             for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# Random unit-preserving change of basis
# ---------------------------------------------------------------------------


def _det(mat: list) -> Fraction:
    a = [list(map(Fraction, r)) for r in mat]
    n, det = len(a), Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _inverse(mat: list) -> list:
    n = len(mat)
    a = [list(map(Fraction, r)) + [Fraction(i == j) for j in range(n)]
         for i, r in enumerate(mat)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c])
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


# |determinant| of the non-unit block of every random change of basis
BASIS_DET = 3


def random_basis(rng: random.Random, m: int) -> list:
    """Rows = new basis vectors in old coordinates; row 0 is the unit.

    The non-unit rows carry a unit component and a block with entries in
    -2..2, no zero entry, and determinant +-BASIS_DET.  Fixing |det| keeps
    every seed's denominators of one kind, so seeds differ in the digits,
    not in how hard the arithmetic is.
    """
    while True:
        rows = [[Fraction(int(j == 0)) for j in range(m)]]
        for _ in range(1, m):
            rows.append([Fraction(rng.randint(-1, 1))]
                        + [Fraction(rng.choice((-2, -1, 1, 2)))
                           for _ in range(1, m)])
        if abs(_det([r[1:] for r in rows[1:]])) == BASIS_DET:
            return rows


def rebase(table: Table, basis: list) -> Table:
    """Structure constants in the basis b_i = sum_j basis[i][j] e_j."""
    m = len(table)
    inv = _inverse(basis)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            prod = [Fraction(0)] * m
            for p, q in itertools.product(range(m), repeat=2):
                c = basis[i][p] * basis[j][q]
                if c:
                    for r in range(m):
                        if table[p][q][r]:
                            prod[r] += c * table[p][q][r]
            row.append([sum(prod[r] * inv[r][k] for r in range(m))
                        for k in range(m)])
        out.append(row)
    return out


def algebra_source(name: str, table: Table) -> str:
    """The algebra in the definition language, basis 1, x1, x2, ..."""
    m = len(table)
    names = ["1"] + [f"x{i}" for i in range(1, m)]
    lines = [f"algebra {name} {{", f"    basis {', '.join(names)};"]
    for i in range(1, m):
        for j in range(1, m):
            terms = []
            for k, c in enumerate(table[i][j]):
                if c:
                    sign = "-" if c < 0 else "+"
                    mag = str(abs(c))
                    terms.append((sign, mag if k == 0 else f"{mag} {names[k]}"))
            if not terms:
                continue
            expr = ("-" if terms[0][0] == "-" else "") + terms[0][1]
            expr += "".join(f" {s} {t}" for s, t in terms[1:])
            lines.append(f"    {names[i]}*{names[j]} = {expr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Forms and field-valued forms
# ---------------------------------------------------------------------------


def form_index(m: int, i: int, J) -> int:
    idx = i
    for j in J:
        idx = idx * (m - 1) + (j - 1)
    return idx


def form_basis(m: int, k: int) -> list:
    return [(i, J) for i in range(m)
            for J in itertools.product(range(1, m), repeat=k)]


def _add(out: dict, key, c) -> None:
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def left_mult(table: Table, a: int, form: dict) -> dict:
    """e_a . (e_i dJ) = (e_a e_i) dJ."""
    out: dict = {}
    for (i, J), c in form.items():
        for k, s in enumerate(table[a][i]):
            if s:
                _add(out, (k, J), c * s)
    return out


def right_mult(table: Table, form: dict, b: int) -> dict:
    """(a0 da1..dan) . b by the Leibniz rule d(x) y = d(xy) - x dy.

    (a0 da1..dan).b = sum_t (-1)^(n-t) a0 da1..d(a_t a_t+1)..da_n+1
                      + (-1)^n (a0 a1) da2..da_n+1,  with a_n+1 = b;
    d of the unit is 0, so unit components of merged slots drop out.
    """
    m = len(table)
    out: dict = {}
    for (i0, J), c in form.items():
        n = len(J)
        if n == 0:
            for k, s in enumerate(table[i0][b]):
                if s:
                    _add(out, (k, ()), c * s)
            continue
        word = list(J) + [b]
        for t in range(1, n + 1):
            sign = (-1) ** (n - t)
            merged = table[word[t - 1]][word[t]]
            for k in range(1, m):
                if merged[k]:
                    slots = word[:t - 1] + [k] + word[t + 1:]
                    if all(s >= 1 for s in slots):
                        _add(out, (i0, tuple(slots)), c * sign * merged[k])
        tail = word[1:]
        if all(s >= 1 for s in tail):
            for k, s in enumerate(table[i0][word[0]]):
                if s:
                    _add(out, (k, tuple(tail)), c * (-1) ** n * s)
    return out


def inner_field(table: Table, w: dict) -> list:
    """Columns of a -> e_a.w - w.e_a as dicts, one per basis vector."""
    cols = []
    for a in range(len(table)):
        col = dict(left_mult(table, a, w))
        for key, c in right_mult(table, w, a).items():
            _add(col, key, -c)
        cols.append(col)
    return cols


def random_inner_field(rng: random.Random, table: Table, k: int,
                       terms: int = 4) -> list:
    m = len(table)
    basis = form_basis(m, k)
    while True:
        w = {}
        for key in rng.sample(basis, min(terms, len(basis))):
            w[key] = Fraction(rng.choice((-2, -1, 1, 2)))
        cols = inner_field(table, w)
        if any(cols):
            return cols


def field_json(table: Table, k: int, cols: list) -> dict:
    m = len(table)
    rows = [["0"] * m for _ in range(m * (m - 1) ** k)]
    for a, col in enumerate(cols):
        for (i, J), c in col.items():
            rows[form_index(m, i, J)][a] = str(c)
    return {"degree": k, "delta": rows}


def field_columns(m: int, obj: dict) -> list:
    """Inverse of field_json: one dict per basis vector."""
    k = int(obj["degree"])
    basis = form_basis(m, k)
    cols = [dict() for _ in range(m)]
    for idx, row in enumerate(obj["delta"]):
        for a, text in enumerate(row):
            c = Fraction(text)
            if c:
                cols[a][basis[idx]] = c
    return cols


def derivation_violation(table: Table, cols: list):
    """First basis pair (i, j) where delta(e_i e_j) != delta(e_i).e_j +
    e_i.delta(e_j), or None when delta is a derivation."""
    m = len(table)
    for i, j in itertools.product(range(m), repeat=2):
        lhs: dict = {}
        for k, s in enumerate(table[i][j]):
            if s:
                for key, c in cols[k].items():
                    _add(lhs, key, s * c)
        rhs = right_mult(table, cols[i], j)
        for key, c in left_mult(table, i, cols[j]).items():
            _add(rhs, key, c)
        if lhs != rhs:
            return i, j
    return None
