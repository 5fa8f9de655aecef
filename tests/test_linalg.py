"""Exact linear algebra: canonical subspaces, kernels, the QMat engine."""

import ast
import functools
import importlib
import inspect
import math
import pkgutil
import re
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import ncforms
from ncforms import (algebra, connections, fieldforms, forms, hochschild, identities, linalg,
                     schouten)
from ncforms.algebra import (AlgebraError, AlgebraHom, Element, derivation_matrix,
                             derivation_vector, dual_numbers, inner_derivation,
                             matrix_algebra, semidirect_product, tensor_over_A,
                             truncated_polynomial_algebra)
from ncforms.connections import Distribution, GeometryError
from ncforms.dsl import builtin_algebra
from ncforms.fieldforms import FieldFormError, FieldValuedForm, zero_field_valued_form
from ncforms.forms import Form, FormError, form_space
from ncforms.hochschild import HochschildError, NormalizedCochain, TensorBimodule, tensor_module
from ncforms.linalg import (
    LinAlgError, QMat, QVector, RowReducer, Subspace, checked_column, digits_at, flat_index,
    format_scalar, kron_apply, kron_rows, make_scalar, nullspace, parse_scalar, qmat_from_json,
    qmat_hstack, qmat_inverse, qmat_sum, qmat_to_json, rank, solve_linear,
    subspace_from_columns,
)
from ncforms.schouten import MultiMap, SchoutenError, commutator_bivector, derivation_matrix_of
import oracles
from oracles import (
    FractionRowReducer, bareiss_rank, fraction_intersection, fraction_nullspace,
    fraction_solve_linear, fraction_span, fraction_unvec_basis, sympy_nullspace_dim,
    sympy_rank, sympy_rref,
)
from test_algebra import catalog
from test_forms import _algebras as _forms_algebras

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=7)
small_matrix = st.lists(
    st.lists(fractions_st, min_size=4, max_size=4), min_size=1, max_size=6)
# mostly-zero entries, so rows are sparse and often dependent
sparse_st = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st)


def _sparse(rows):
    return [{c: v for c, v in enumerate(r) if v} for r in rows]


def _sympy_matrix(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        lambda i, j: sympy.Rational(rows[i][j]))


def test_scalar_roundtrip():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar(" -7 ") == Fraction(-7)
    assert format_scalar(Fraction(-6, 4)) == "-3/2"
    assert parse_scalar(format_scalar(Fraction(22, 7))) == Fraction(22, 7)


def test_scalar_zero_denominator_rejected():
    with pytest.raises(LinAlgError):
        make_scalar(1, 0)
    with pytest.raises(LinAlgError):
        parse_scalar("1/0" if False else "1/0")  # literal 1/0
    with pytest.raises(LinAlgError):
        parse_scalar("abc")


@pytest.mark.parametrize("text, old", [("1_000", 1000), ("٣", 3), ("1/ 2", Fraction(1, 2)),
                                       ("-1/-2", Fraction(1, 2))])
def test_parse_scalar_reads_only_the_rational_literal(text, old):
    # int() let these through; the literal is ASCII p or p/q, one outer sign
    assert oracles.parse_scalar(text) == old
    with pytest.raises(LinAlgError, match="malformed rational literal"):
        parse_scalar(text)


@given(small_matrix)
@settings(max_examples=60)
def test_rref_matches_sympy(rows):
    red = RowReducer(4)
    for r in rows:
        red.add_dense(r)
    theirs, piv2 = sympy_rref(rows)
    assert red.basis() == theirs
    assert tuple(red.pivots()) == piv2


@given(small_matrix)
@settings(max_examples=60)
def test_rank_three_ways(rows):
    r = rank(rows)
    assert r == sympy_rank(rows)
    assert r == bareiss_rank(rows)


@given(small_matrix)
@settings(max_examples=40)
def test_nullspace_dim_and_membership(rows):
    ns = nullspace(4, _sparse(rows))
    assert ns.dim == sympy_nullspace_dim(rows)
    for vec in ns.basis:
        for row in rows:
            assert sum(Fraction(a) * b for a, b in zip(row, vec)) == 0


@given(small_matrix)
@settings(max_examples=40)
def test_subspace_canonical_form_is_order_independent(rows):
    a = Subspace.from_generators(4, rows)
    b = Subspace.from_generators(4, list(reversed(rows)))
    assert a == b
    assert hash(a) == hash(b)
    # scaling generators changes nothing
    c = Subspace.from_generators(4, [[3 * v for v in r] for r in rows])
    assert a == c


def test_subspace_sum_intersect_dims():
    # grassmann dimension formula dim(U+V) = dim U + dim V - dim(U cap V)
    u = Subspace.from_generators(4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    v = Subspace.from_generators(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    s = u.add(v)
    i = u.intersect(v)
    assert s.dim == 3 and i.dim == 1
    assert i.basis == ((Fraction(0), Fraction(1), Fraction(0), Fraction(0)),)
    assert i.is_subspace_of(u) and i.is_subspace_of(v)
    assert u.is_subspace_of(s) and v.is_subspace_of(s)


# A dense row of the wrong length once lost its missing entries, or put an
# extra one in a column past the ambient space, without an error.


def test_add_dense_rejects_a_row_of_the_wrong_length():
    with pytest.raises(LinAlgError, match="length 3 in a space of dimension 2"):
        Subspace.from_generators(2, [[1, 2, 3]])
    with pytest.raises(LinAlgError, match="length 1 in a space of dimension 2"):
        rank([[1, 2], [3]])


def test_contains_rejects_a_row_of_the_wrong_length():
    # the centre of M_2 is the line of the unit: [1, 0] was read as [1, 0, 0, 0]
    center = matrix_algebra(2).center()
    with pytest.raises(LinAlgError, match="length 2 in a space of dimension 4"):
        center.contains([1, 0])
    with pytest.raises(LinAlgError, match="length 5 in a space of dimension 4"):
        center.contains([1, 0, 0, 0, 1])


def test_reduce_dense_rejects_a_row_of_the_wrong_length():
    red = RowReducer(3)
    red.add_dense([1, 1, 0])
    assert red.reduce_dense([1, 0, 0]) == [0, -1, 0]
    for row in ([1, 0], [1, 0, 0, 2]):
        with pytest.raises(LinAlgError, match=f"length {len(row)} in a space of dimension 3"):
            red.reduce_dense(row)


@given(small_matrix, small_matrix)
@settings(max_examples=30)
def test_grassmann_formula(rows_a, rows_b):
    u = Subspace.from_generators(4, rows_a)
    v = Subspace.from_generators(4, rows_b)
    assert (u + v).dim == u.dim + v.dim - u.intersect(v).dim


def test_quotient_dim():
    big = Subspace.full(3)
    small = Subspace.from_generators(3, [[1, 1, 1]])
    assert big.quotient_dim(small) == 2
    with pytest.raises(LinAlgError):
        small.quotient_dim(big)


def _solve(rows, rhs_cols):
    """solve_linear on Fraction rows and right-hand-side columns."""
    return solve_linear(QMat.from_rows(rows), QMat.from_columns(len(rows), rhs_cols))


def test_solve_linear():
    sol = _solve([[1, 2], [3, 4]], [[5, 6]])
    assert sol.shape == (2, 1)
    assert sol.column_fractions(0) == [Fraction(-4), Fraction(9, 2)]
    assert _solve([[1, 1], [1, 1]], [[0, 1]]) is None
    assert _solve([[1, 1], [2, 2]], [[3, 6]]) is not None
    # one inconsistent column makes the whole block unsolvable
    assert _solve([[1, 1], [1, 1]], [[1, 1], [0, 1]]) is None
    # a block of columns solves column by column; free unknowns are 0
    block = _solve([[1, 1], [2, 2]], [[3, 6], [Fraction(1, 2), 1], [0, 0]])
    assert block.shape == (2, 3)
    assert [block.column_fractions(j) for j in range(3)] == [
        [3, 0], [Fraction(1, 2), 0], [0, 0]]
    assert _solve([[1, 2]], []).shape == (2, 0)
    with pytest.raises(LinAlgError):
        solve_linear(QMat.eye(2), QMat.eye(3))


def test_row_reducer_incremental_matches_batch():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 0]]
    red = RowReducer(3)
    for r in rows:
        red.add_dense(r)
    batch, piv = sympy_rref(rows)
    assert red.basis() == batch
    assert tuple(red.pivots()) == piv


def test_row_reducer_clears_trailing_pivot_columns():
    # regression: a new row whose leading column is free but whose tail hits
    # an existing pivot column must still be fully back-reduced
    red = RowReducer(4)
    red.add_dense([0, 1, 0, 5])
    red.add_dense([0, 0, 0, 1])
    red.add_dense([1, 0, 0, 7])
    assert red.basis() == [
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(1)],
    ]
    a = Subspace.from_generators(4, [[0, 1, 0, 5], [0, 0, 0, 1], [1, 0, 0, 7]])
    b = Subspace.from_generators(4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    assert a == b


# entries small, rational, or >= 2**62 (no longer fits int64 products)
mixed_st = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st,
                     st.integers(-3, 3), st.integers(2 ** 62, 2 ** 66),
                     st.integers(2 ** 62, 2 ** 66).map(lambda v: Fraction(-v, 3)))
_READS = ("contains", "reduce_dense", "basis", "subspace")


def _assert_canonical(sub):
    """Primitive integer rows, positive pivots, divided out = the basis."""
    assert len(sub.rows) == len(sub.basis) == len(sub.pivots)
    for p, row, vec in zip(sub.pivots, sub.rows, sub.basis):
        assert min(row) == p and row[p] > 0 and math.gcd(*row.values()) == 1
        assert all(type(v) is int for v in row.values())
        assert [Fraction(row.get(c, 0), row[p]) for c in range(sub.ambient)] == list(vec)


@given(st.integers(1, 5), st.data())
@settings(max_examples=80, deadline=None)
def test_row_reducer_matches_fraction_reference(n, data):
    """Interleaved adds and reads: equal answers from the fraction-free
    reducer and the Fraction one, and the same canonical basis as sympy;
    reading in the middle does not change what later calls return."""
    ops = data.draw(st.lists(st.sampled_from(
        ("add", "add_dense", "add_columns") + _READS), max_size=12))
    red, ref, unread = RowReducer(n), FractionRowReducer(n), RowReducer(n)
    added = []
    for op in ops:
        if op == "add_columns":
            cols = data.draw(st.lists(st.lists(mixed_st, min_size=n, max_size=n),
                                      min_size=1, max_size=3))
            mat = QMat.from_columns(n, cols)
            red.add_columns(mat)
            unread.add_columns(mat)
            for col in cols:
                ref.add_dense(col)
            added += cols
            continue
        row = data.draw(st.lists(mixed_st, min_size=n, max_size=n))
        if op == "add":
            sparse = {c: v for c, v in enumerate(row) if v}
            assert red.add(sparse) == ref.add(sparse) == unread.add(sparse)
            added.append(row)
        elif op == "add_dense":
            assert red.add_dense(row) == ref.add_dense(row) == unread.add_dense(row)
            added.append(row)
        elif op == "contains":
            assert red.contains(row) == ref.contains(row)
        elif op == "reduce_dense":
            assert red.reduce_dense(row) == ref.reduce_dense(row)
        elif op == "basis":
            assert red.basis() == ref.basis()
        else:
            sub = red.subspace()
            _assert_canonical(sub)
            assert [list(v) for v in sub.basis] == ref.basis()
            assert list(sub.pivots) == ref.pivots()
        assert red.pivots() == ref.pivots() and red.dim == ref.dim
    assert unread.basis() == red.basis() == ref.basis()
    assert unread.subspace() == red.subspace()
    if added:
        want, piv = sympy_rref(added)
        assert red.basis() == want and tuple(red.pivots()) == piv


def test_row_reducer_reads_with_non_unit_pivots():
    # primitive rows whose pivot entries are not 1, read before and after
    # one more add: every read divides them out as the reference does
    red, ref = RowReducer(4), FractionRowReducer(4)
    for row in ([2, 1, 0, 0], [0, 3, 1, 0]):
        assert red.add_dense(row) and ref.add_dense(row)
    probe = [1, 1, 1, Fraction(1, 2)]
    assert red.reduce_dense(probe) == ref.reduce_dense(probe)
    assert red.basis() == ref.basis()
    assert red.add_dense([0, 0, 5, 2]) and ref.add_dense([0, 0, 5, 2])
    assert red.reduce_dense(probe) == ref.reduce_dense(probe)
    assert red.basis() == ref.basis() == sympy_rref(
        [[2, 1, 0, 0], [0, 3, 1, 0], [0, 0, 5, 2]])[0]
    assert red.contains([2, 4, 1 + 5, 2]) and not red.contains(probe[:3] + [0])


def _subspace_st(n):
    return st.lists(st.lists(mixed_st, min_size=n, max_size=n), max_size=4)


@given(st.integers(1, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_operations_match_fraction_reference(n, data):
    gens_a, gens_b = data.draw(_subspace_st(n)), data.draw(_subspace_st(n))
    a, b = Subspace.from_generators(n, gens_a), Subspace.from_generators(n, gens_b)
    basis_a, basis_b = fraction_span(n, gens_a)[0], fraction_span(n, gens_b)[0]
    for sub, gens in ((a, gens_a), (b, gens_b), (a + b, gens_a + gens_b)):
        _assert_canonical(sub)
        assert ([list(v) for v in sub.basis], list(sub.pivots)) == fraction_span(n, gens)
    inter = a.intersect(b)
    _assert_canonical(inter)
    assert ([list(v) for v in inter.basis], list(inter.pivots)) == \
        fraction_intersection(n, basis_a, basis_b)
    ref_b = FractionRowReducer(n)
    for v in basis_b:
        ref_b.add_dense(v)
    assert a.is_subspace_of(b) == all(ref_b.contains(v) for v in basis_a)
    assert inter.is_subspace_of(a) and inter.is_subspace_of(b)
    # the kernel of the generators of a as equations
    eqs = [{c: v for c, v in enumerate(g) if v} for g in gens_a]
    ker = nullspace(n, eqs)
    _assert_canonical(ker)
    assert ([list(v) for v in ker.basis], list(ker.pivots)) == fraction_nullspace(n, eqs)
    # equal subspaces hash alike, whatever the generators
    again = Subspace.from_generators(n, [[3 * v for v in g] for g in reversed(gens_a)])
    assert again == a and hash(again) == hash(a)


def test_row_reducer_builds_no_fraction_before_a_read(monkeypatch):
    rows = [[1, 2, Fraction(1, 3)], [2 ** 70, 0, 1], [Fraction(2, 7), 4, 2 ** 63]]
    column = QMat.from_rows([[1], [Fraction(1, 2)], [0]])
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", counting)
    red = RowReducer(3)
    for r in rows:
        red.add_dense(r)
    red.add({0: Fraction(5, 2), 2: 1})
    red.add_columns(column)
    assert red.contains([1, 2, Fraction(1, 3)]) and red.dim == 3
    assert red.pivots() == [0, 1, 2] and red.subspace().dim == 3
    assert not made
    assert red.basis() and made


def test_qmat_inverse():
    m = QMat.from_rows([[1, 2], [3, Fraction(1, 2)]])
    inv = qmat_inverse(m)
    assert (m @ inv).to_fraction_rows() == QMat.eye(2).to_fraction_rows()
    assert (inv @ m) == QMat.eye(2)
    with pytest.raises(LinAlgError):
        qmat_inverse(QMat.from_rows([[1, 2], [2, 4]]))


def test_nullspace_sparse_matches_dense():
    rows = [[1, 0, 2, 0], [0, 1, 0, 3]]
    dense = nullspace(4, QMat.from_rows(rows).sparse_rows())
    sparse = nullspace(4, [{0: Fraction(1), 2: Fraction(2)},
                           {1: Fraction(1), 3: Fraction(3)}])
    assert dense == sparse
    assert sparse.pivots == (0, 1)
    assert sparse.basis == ((1, 0, Fraction(-1, 2), 0),
                            (0, 1, 0, Fraction(-1, 3)))


@given(st.integers(0, 5), st.integers(0, 5), st.data())
@settings(max_examples=80)
def test_nullspace_is_the_canonical_sympy_kernel(nrows, ncols, data):
    # covers systems with no rows (kernel = everything) and no columns
    rows = [data.draw(st.lists(sparse_st, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    kernel = _sympy_matrix(rows, ncols).nullspace()
    if kernel:
        basis, piv = sympy_rref([list(v) for v in kernel])
    else:
        basis, piv = [], ()
    ours = nullspace(ncols, _sparse(rows))
    assert ours.basis == tuple(map(tuple, basis))
    assert ours.pivots == piv
    assert all(isinstance(v, Fraction) for vec in ours.basis for v in vec)
    # integer numerator rows (a QMat's sparse_rows) give the same kernel
    if nrows and ncols:
        assert nullspace(ncols, QMat.from_rows(rows).sparse_rows()) == ours


@given(st.integers(1, 5), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_solve_linear_matches_sympy(nrows, ncols, data):
    rows = [data.draw(st.lists(sparse_st, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    rhs = data.draw(st.lists(sparse_st, min_size=nrows, max_size=nrows))
    try:
        sol, params = _sympy_matrix(rows, ncols).gauss_jordan_solve(
            sympy.Matrix([sympy.Rational(v) for v in rhs]))
    except ValueError:       # sympy: the system is inconsistent
        assert _solve(rows, [rhs]) is None
        return
    # the free parameters at 0: the same particular solution
    expect = [Fraction(str(v)) for v in sol.subs({t: 0 for t in params})]
    assert _solve(rows, [rhs]).column_fractions(0) == expect


@given(st.integers(0, 5), st.integers(1, 4), st.integers(0, 3), st.data())
@settings(max_examples=80)
def test_solve_linear_matches_fraction_solves(nrows, ncols, k, data):
    # one block solve equals one Fraction solve per right-hand side, in
    # (num, den, dtype) of the canonical QMat of those solutions
    big = st.sampled_from([Fraction(2 ** 62 + 1), Fraction(-(2 ** 63), 3)])
    entries = st.one_of(sparse_st, big) if data.draw(st.booleans()) else sparse_st
    rows = [data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
            for _ in range(nrows)]
    rhs = [data.draw(st.lists(entries, min_size=nrows, max_size=nrows))
           for _ in range(k)]
    got = solve_linear(QMat.from_rows(rows) if nrows else QMat.zeros(0, ncols),
                       QMat.from_columns(nrows, rhs))
    sols = [fraction_solve_linear(rows, b) if nrows else [Fraction(0)] * ncols
            for b in rhs]
    if any(s is None for s in sols):
        assert got is None
        return
    expect = QMat.from_columns(ncols, sols)
    assert got.shape == (ncols, k)
    assert (got.num.tolist(), got.den, got.num.dtype) == (
        expect.num.tolist(), expect.den, expect.num.dtype)


@given(st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_qmat_inverse_matches_sympy(n, data):
    rows = [data.draw(st.lists(sparse_st, min_size=n, max_size=n))
            for _ in range(n)]
    M = _sympy_matrix(rows, n)
    if M.det() == 0:
        with pytest.raises(LinAlgError):
            qmat_inverse(QMat.from_rows(rows))
        return
    inv = M.inv()
    expect = [[Fraction(str(inv[i, j])) for j in range(n)] for i in range(n)]
    assert qmat_inverse(QMat.from_rows(rows)).to_fraction_rows() == expect


# -- QMat ------------------------------------------------------------------


def test_qmat_basics():
    a = QMat.from_rows([[1, Fraction(1, 2)], [0, 1]])
    b = QMat.from_rows([[2, 0], [Fraction(1, 3), 1]])
    s = (a + b).to_fraction_rows()
    assert s == [[Fraction(3), Fraction(1, 2)], [Fraction(1, 3), Fraction(2)]]
    p = (a @ b).to_fraction_rows()
    assert p == [[Fraction(13, 6), Fraction(1, 2)], [Fraction(1, 3), Fraction(1)]]
    assert (a - a).is_zero()
    assert a.scale(Fraction(2, 3)).entry(0, 1) == Fraction(1, 3)
    assert a.T.entry(1, 0) == Fraction(1, 2)
    assert qmat_hstack(2, [a, b]).to_fraction_rows() == [
        [1, Fraction(1, 2), 2, 0], [0, 1, Fraction(1, 3), 1]]


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=50)
def test_qmat_matmul_matches_fraction_arithmetic(ra, rb):
    a, b = QMat.from_rows(ra), QMat.from_rows(rb)
    prod = (a @ b).to_fraction_rows()
    expect = [[sum(Fraction(ra[i][k]) * rb[k][j] for k in range(3))
               for j in range(3)] for i in range(3)]
    assert prod == expect


def test_qmat_overflow_promotes_to_exact():
    big = 2 ** 40
    a = QMat.from_rows([[big, big], [big, big]])
    p = a @ a
    assert p.num.dtype == object
    assert p.entry(0, 0) == Fraction(2 * big * big)
    # kron and scale also promote
    k = a.kron(a)
    assert k.entry(0, 0) == Fraction(big * big)
    s = a.scale(big)
    assert s.entry(0, 0) == Fraction(big * big)
    t = a + a.scale(big)
    assert t.entry(0, 0) == Fraction(big + big * big)


def test_qmat_scale_by_scalars_near_the_int64_bound():
    # numerators from 2**63 on would make a uint64 numpy scalar, and a zero
    # operand once let int64 x uint64 promote to float64
    one = QMat.from_rows([[2 ** 53 + 1]])
    for c in (2 ** 62 - 1, 2 ** 62 + 1, 2 ** 63 + 2, 2 ** 64 + 1):
        for scalar in (c, -c, Fraction(c, 7)):
            zero = QMat.zeros(1, 2).scale(scalar)
            assert zero.num.dtype != np.float64
            assert zero.to_fraction_rows() == [[0, 0]]
            s = zero + QMat.from_rows([[2 ** 53 + 1, 3]])
            assert s.to_fraction_rows() == [[Fraction(2 ** 53 + 1), Fraction(3)]]
            assert (QMat.zeros(1, 1).scale(2 * scalar) + one) != QMat.from_rows([[2 ** 53]])
            assert one.scale(scalar).entry(0, 0) == (2 ** 53 + 1) * Fraction(scalar)
    # every array linalg builds from Python ints names its dtype
    calls = re.findall(r"np\.array\([^\n]*", inspect.getsource(linalg))
    assert calls and all("dtype=" in c for c in calls)


# scalars and entries around the int64 bounds 2**62, 2**63 and 2**64, also
# over a denominator != 1
_near_bound = st.sampled_from([2 ** 62, 2 ** 63, 2 ** 64]).flatmap(
    lambda b: st.integers(b - 2, b + 2)) | st.integers(1, 5)
bound_scalar_st = st.one_of(
    st.just(0), _near_bound, _near_bound.map(lambda v: -v),
    st.tuples(_near_bound, st.integers(2, 9)).map(lambda t: Fraction(-t[0], t[1])))


def qmat_st(rows, cols):
    """Zero, small-fraction and near-bound QMats, some scaled unreduced."""
    entries = st.one_of(st.just(Fraction(0)), fractions_st, bound_scalar_st)
    mats = st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(QMat.from_rows)
    return st.one_of(st.just(QMat.zeros(rows, cols)), mats,
                     st.tuples(mats, bound_scalar_st).map(lambda t: t[0].scale(t[1])))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 2), st.data())
@settings(max_examples=150, deadline=None)
def test_qmat_arithmetic_matches_fractions(r, c, k, data):
    a, b, e = data.draw(qmat_st(r, c)), data.draw(qmat_st(r, c)), data.draw(qmat_st(c, k))
    s = data.draw(bound_scalar_st)
    A, B, E = (M.to_fraction_rows() for M in (a, b, e))
    want = {
        "+": [[x + y for x, y in zip(u, v)] for u, v in zip(A, B)],
        "-": [[x - y for x, y in zip(u, v)] for u, v in zip(A, B)],
        "@": [[sum(A[i][t] * E[t][j] for t in range(c)) for j in range(k)]
              for i in range(r)],
        "kron": [[A[i][j] * E[p][q] for j in range(c) for q in range(k)]
                 for i in range(r) for p in range(c)],
        "scale": [[s * x for x in u] for u in A],
    }
    got = {"+": a + b, "-": a - b, "@": a @ e, "kron": a.kron(e), "scale": a.scale(s)}
    operands = {"+": (a, b), "-": (a, b), "@": (a, e), "kron": (a, e), "scale": (a,)}
    for op, M in got.items():
        assert M.to_fraction_rows() == want[op], op
        # the numerators are int64 or Python ints, never uint64 or float64,
        # object exactly where int64 cannot hold them, and read-only
        assert M.num.dtype in (np.int64, object), (op, M.num.dtype)
        if max(abs(v) * M.den for row in want[op] for v in row) >= 2 ** 63:
            assert M.num.dtype == object, op
        small = max([abs(v) for row in want[op] for v in row] + [
            abs(v) for X in operands[op] for v in X.num.ravel().tolist()] + [
            abs(s.numerator if op == "scale" else 0), abs(M.den)]) < 2 ** 20
        if small and all(X.num.dtype == np.int64 for X in operands[op]):
            assert M.num.dtype == np.int64, op
        assert not M.num.flags.writeable and M.max_abs == int(abs(M.num).max())


def test_qmat_rejects_other_numerator_dtypes():
    for arr in (np.zeros((2, 2)), np.zeros((2, 2), dtype=np.uint64),
                np.zeros((2, 2), dtype=np.int32)):
        with pytest.raises(LinAlgError):
            QMat(arr)
    m = QMat.eye(2)
    with pytest.raises(ValueError):
        m.num[0, 0] = 5
    assert m.max_abs == 1 and QMat.zeros(0, 3).max_abs == 0


def test_qmat_reduces_before_promoting():
    # over den 3 the numerators break the int64 bound of each operation;
    # reduced they do not, and every result is integral
    a = QMat(np.array([[3 * 2 ** 30, 3]], dtype=np.int64), 3)
    b = QMat(np.array([[3 * 2 ** 30], [0]], dtype=np.int64), 3)
    c = QMat(np.array([[3 * 2 ** 60]], dtype=np.int64), 3)
    for got, want in ((a @ b, [[2 ** 60]]), (a.kron(b), [[2 ** 60, 2 ** 30], [0, 0]]),
                      (c + c, [[2 ** 61]]), (a.scale(2 ** 31), [[2 ** 61, 2 ** 31]])):
        assert got.num.dtype == np.int64 and got.den == 1
        assert got.num.tolist() == want
    # what still breaks the bound once reduced is promoted
    big = QMat(np.array([[2 ** 40]], dtype=np.int64), 1)
    assert (big @ big).num.dtype == object and (big @ big).entry(0, 0) == 2 ** 80


def test_qmat_kron_matches_definition():
    a = QMat.from_rows([[1, 2], [3, 4]])
    b = QMat.from_rows([[0, 5], [6, 7]])
    k = a.kron(b)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert k.entry(2 * i + p, 2 * j + q) == Fraction(
                        a.entry(i, j) * b.entry(p, q))


def test_qmat_reduced_normalizes():
    a = QMat(np.array([[2, 4], [6, 8]], dtype=np.int64), 10)
    r = a.reduced()
    assert r.den == 5 and r.entry(0, 0) == Fraction(1, 5)
    assert r == a
    zero = QMat(np.zeros((2, 3), dtype=np.int64), 2 ** 124).reduced()
    assert (zero.num.tolist(), zero.den, zero.num.dtype) == ([[0] * 3] * 2, 1, np.int64)


def test_subspace_from_columns():
    m = QMat.from_rows([[1, 2, 3], [0, 0, 1], [1, 2, 4]])
    sp = subspace_from_columns(m)
    assert sp.dim == 2
    assert sp.contains([1, 0, 1])
    assert sp.contains([3, 1, 4])
    assert not sp.contains([0, 1, 0])


# -- tuple codec and column builder ----------------------------------------


@given(st.integers(1, 5), st.sampled_from([0, 1]), st.data())
@settings(max_examples=80)
def test_tuple_codec_round_trip(base, lo, data):
    length = data.draw(st.integers(0, 4))
    digits = tuple(data.draw(st.lists(st.integers(lo, lo + base - 1),
                                      min_size=length, max_size=length)))
    idx = flat_index(digits, base, lo)
    # big-endian: the first digit is the most significant
    assert idx == sum((d - lo) * base ** (length - 1 - t)
                      for t, d in enumerate(digits))
    assert digits_at(idx, base, length, lo) == digits
    with pytest.raises(LinAlgError):
        digits_at(base ** length, base, length, lo)
    if length:
        for bad in (lo - 1, lo + base):
            with pytest.raises(LinAlgError):
                flat_index(digits[:-1] + (bad,), base, lo)


def _hand_transposed(height, cols):
    return QMat.from_rows([[c[r] for c in cols] for r in range(height)])


def _same_qmat(a, b):
    return (a.shape == b.shape and a.den == b.den
            and a.num.dtype == b.num.dtype and np.array_equal(a.num, b.num))


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=60)
def test_from_columns_matches_hand_transposition(height, ncols, data):
    cols = [data.draw(st.lists(fractions_st, min_size=height,
                               max_size=height)) for _ in range(ncols)]
    cols[data.draw(st.integers(0, ncols - 1))] = [Fraction(0)] * height
    assert _same_qmat(QMat.from_columns(height, cols),
                      _hand_transposed(height, cols))


def test_from_columns_edge_cases():
    assert QMat.from_columns(3, []).shape == (3, 0)
    assert QMat.from_columns(0, [[], []]).shape == (0, 2)
    cols = [[1, 2 ** 62], [Fraction(1, 3), 0]]
    big = QMat.from_columns(2, cols)
    assert big.num.dtype == object
    assert big.entry(1, 0) == 2 ** 62 and big.entry(0, 1) == Fraction(1, 3)
    assert _same_qmat(big, _hand_transposed(2, cols))
    with pytest.raises(LinAlgError):
        QMat.from_columns(2, [[1, 2], [3]])


def test_empty_column_is_one_column():
    # a combination of no basis vectors, e.g. of an empty derivation basis
    assert QMat.column([]).shape == (0, 1)
    out = QMat.zeros(4, 0) @ QMat.column([])
    assert out.shape == (4, 1) and out.is_zero()
    assert out.unvec(2, 2).shape == (2, 2)
    assert _same_qmat(QMat.column([1, Fraction(1, 2)]), QMat.from_rows([[1], [Fraction(1, 2)]]))


def _dense_of(shape, entries, den):
    rows = [[Fraction(0)] * shape[1] for _ in range(shape[0])]
    for r, c, v in entries:
        rows[r][c] += Fraction(v, den)
    return QMat.from_rows(rows) if shape[0] else QMat.zeros(*shape)


@given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 12), st.data())
@settings(max_examples=60)
def test_from_coo_matches_from_rows(nrows, ncols, den, data):
    cells = st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1),
                      st.integers(-20, 20))
    entries = data.draw(st.lists(cells, max_size=10)) if nrows and ncols else []
    assert _same_qmat(QMat.from_coo((nrows, ncols), entries, den),
                      _dense_of((nrows, ncols), entries, den))


def test_from_coo_edge_cases():
    empty = QMat.from_coo((3, 2), [], 5)
    assert empty.shape == (3, 2) and empty.den == 1 and empty.is_zero()
    assert empty.num.dtype == np.int64
    assert QMat.from_coo((0, 4), []).shape == (0, 4)
    # repeated cells add up, cancellations included, then reduce
    summed = QMat.from_coo((2, 2), [(0, 1, 3), (0, 1, 3), (1, 0, 4), (1, 0, -4),
                                    (1, 1, 2)], 4)
    assert summed.den == 2 and summed.num.tolist() == [[0, 3], [0, 1]]
    # the int64 -> object rule applies to the reduced values
    big = QMat.from_coo((1, 2), [(0, 0, 2 ** 62), (0, 1, 1)], 2 ** 62)
    assert big.num.dtype == object and big.den == 2 ** 62
    assert big.entry(0, 0) == 1 and big.entry(0, 1) == Fraction(1, 2 ** 62)
    assert _same_qmat(big, _dense_of((1, 2), [(0, 0, 2 ** 62), (0, 1, 1)], 2 ** 62))
    assert QMat.from_coo((1, 1), [(0, 0, 2 ** 62)], 2).num.dtype == np.int64
    assert QMat.from_coo((1, 1), [(0, 0, 2 ** 62), (0, 0, 2 ** 62)]).num.dtype == object


def test_qmat_hstack_matches_from_columns():
    blocks = [QMat.from_rows([[1, 2], [Fraction(1, 3), 0]]),
              QMat.zeros(2, 0), QMat(np.array([[6], [4]]), 4),
              QMat(np.array([[2 ** 61], [1]]), 3)]
    cols = [b.column_fractions(j) for b in blocks for j in range(b.shape[1])]
    assert _same_qmat(qmat_hstack(2, blocks), QMat.from_columns(2, cols))
    assert qmat_hstack(3, []).shape == (3, 0)


def _kron_factor_st(nrows, ncols):
    """A QMat of the shape (mixed denominators, often zero, some entries
    >= 2**62 so the array is object) or, when square, an int for I_n."""
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st,
                      st.integers(2 ** 62, 2 ** 70).map(Fraction))
    mats = st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(QMat.from_rows)
    return mats | st.just(nrows) if nrows == ncols else mats


def _as_qmat(factor):
    return factor if isinstance(factor, QMat) else QMat.eye(factor)


@given(st.data())
@settings(max_examples=60)
def test_kron_rows_matches_dense_kronecker_sum(data):
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                min_size=1, max_size=3))
    terms = data.draw(st.lists(st.tuples(*(_kron_factor_st(*sh) for sh in shapes)),
                               min_size=1, max_size=3))
    den, rows = kron_rows(terms)
    assert den == math.lcm(*(math.prod(_as_qmat(f).den for f in t) for t in terms))
    dense = qmat_sum([functools.reduce(QMat.kron, map(_as_qmat, t)) for t in terms])
    want = [{c: Fraction(int(v), dense.den) * den for c, v in row.items()}
            for row in dense.sparse_rows()]
    got = list(rows)
    assert all(type(v) is int for row in got for v in row.values())
    assert got == want


def test_kron_rows_edge_cases():
    den, rows = kron_rows([])
    assert den == 1 and list(rows) == []
    # the same 2x2 shape from two factorizations; a zero row stays in place
    a = QMat.from_rows([[1], [0]])
    b = QMat.from_rows([[Fraction(1, 2), 3]])
    c = QMat.from_rows([[0, Fraction(1, 3)], [0, 0]])
    den, rows = kron_rows([(a, b), (c,)])
    assert den == 6 and list(rows) == [{0: 3, 1: 20}, {}]
    with pytest.raises(LinAlgError):
        kron_rows([(a, b), (2, 2)])


def _apply_factor_st(nrows, ncols):
    """A kron_apply factor of the shape, zero sizes included: a QMat as in
    :func:`_kron_factor_st`, an int for I_n when square, and a unit column
    (the expanding factor of the coboundary) when ncols is 1."""
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), fractions_st,
                      st.integers(2 ** 62, 2 ** 70).map(Fraction))
    out = st.lists(st.lists(entry, min_size=nrows, max_size=nrows), min_size=ncols,
                   max_size=ncols).map(lambda cols: QMat.from_columns(nrows, cols))
    if nrows == ncols:
        out |= st.just(nrows)
    if nrows and ncols == 1:
        out |= st.integers(0, nrows - 1).map(
            lambda a: QMat.from_coo((nrows, 1), [(a, 0, 1)]))
    return out


@given(st.data())
@settings(max_examples=80)
def test_kron_apply_matches_dense_kronecker_sum(data):
    shapes = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                                min_size=1, max_size=3))
    terms = data.draw(st.lists(st.tuples(*(_apply_factor_st(*sh) for sh in shapes)),
                               max_size=3))
    height = math.prod(r for r, _ in shapes)
    width = math.prod(c for _, c in shapes)
    entry = st.one_of(fractions_st, st.integers(2 ** 62, 2 ** 70).map(Fraction))
    X = QMat.from_columns(width, data.draw(st.lists(
        st.lists(entry, min_size=width, max_size=width), max_size=3)))
    dense = qmat_sum([QMat.zeros(height, X.shape[1])]
                     + [functools.reduce(QMat.kron, map(_as_qmat, t)) @ X for t in terms])
    # the terms fix the height; only the empty list needs it given
    out = kron_apply(terms, X) if terms else kron_apply(terms, X, height)
    assert _same_qmat(out, dense.canonical())


def test_vec_stacks_columns():
    M = QMat.from_rows([[1, 2, 3], [4, 5, Fraction(1, 2)]])
    v = M.vec()
    assert v.shape == (6, 1) and v.num[:, 0].tolist() == [2, 8, 4, 10, 6, 1]
    assert _same_qmat(v.unvec(2, 3), M)
    for shape in ((0, 3), (3, 0)):
        assert QMat.zeros(*shape).vec().unvec(*shape).shape == shape


def test_kron_apply_edge_cases():
    X = QMat.from_rows([[1, 2], [3, Fraction(1, 2)]])
    assert _same_qmat(kron_apply([], X, 5), QMat.zeros(5, 2))
    # the empty algebra of bar tuples: zero-size factors, zero-size output
    empty = QMat.zeros(0, 0)
    assert kron_apply([(empty, 2)], QMat.zeros(0, 1), 0).shape == (0, 1)
    # a term of the wrong shape is refused, as by kron_rows
    with pytest.raises(LinAlgError):
        kron_apply([(2, 2)], X)
    with pytest.raises(LinAlgError):
        kron_apply([(2,), (QMat.eye(3),)], X)
    with pytest.raises(LinAlgError):
        kron_apply([(2,)], X, 3)
    with pytest.raises(LinAlgError):
        kron_apply([], X)
    assert _same_qmat(kron_apply([(2,)], X, 2), X)
    # entries of 2**61 summed over two terms leave int64
    big = QMat(np.array([[2 ** 61]]), 1)
    out = kron_apply([(big,), (big,)], QMat.eye(1), 1)
    assert out.num.dtype == object and out.num[0, 0] == 2 ** 62


def test_structural_indices_reject_out_of_range_digits():
    A = matrix_algebra(2)
    m = A.dim
    sp = form_space(A, 1)
    tensor = TensorBimodule(A, 2)
    cochain = NormalizedCochain.zeros(A.regular_bimodule(), 1)
    mm = MultiMap.zeros(A, 2)
    for call in (lambda: sp.index_of(0, (0,)),       # unit in a d-slot
                 lambda: sp.index_of(0, (m,)),
                 lambda: tensor.index_of(0, (0,), 0),
                 lambda: tensor.index_of(0, (m,), 0),
                 lambda: cochain.value((0,)),
                 lambda: cochain.value((m,)),
                 lambda: mm.value((0, m)),
                 lambda: mm.value((-1, 0))):
        with pytest.raises(ValueError):
            call()


def test_no_private_codec_or_column_copies():
    banned = {"_cols_to_qmat", "_bar_flat", "_bar_tuple", "_flat",
              "_tuple_at", "_mat_rank", "rref", "nullspace_sparse",
              "_matrix_kernel", "d_index", "form_from_qmat", "project_base"}
    found = []
    for info in pkgutil.iter_modules(ncforms.__path__):
        mod = importlib.import_module(f"ncforms.{info.name}")
        owners = [mod] + [cls for _, cls in inspect.getmembers(mod, inspect.isclass)
                          if cls.__module__ == mod.__name__]
        for owner in owners:
            found += [f"{mod.__name__}.{name}"
                      for name, _ in inspect.getmembers(owner)
                      if name in banned]
    assert not found


def _square_builders(tree):
    """Line numbers of a Kronecker product with an identity operand
    (QMat.eye(...) or a name with eye) and of d_matrix read on anything but
    form_space(..., 0)."""
    def identity(node):
        return ((isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr == "eye")
                or (isinstance(node, ast.Name) and "eye" in node.id))

    def omega0(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "form_space" and len(node.args) == 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value == 0)

    return [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "kron"
                and any(map(identity, [node.func.value, *node.args])))
            or (isinstance(node, ast.Attribute) and node.attr == "d_matrix"
                and not omega0(node.value))]


def test_structural_operators_are_term_lists_not_squares():
    # no Kronecker product with an identity operand is left in the package
    # (L (x) I is the term (L, n)), the per-entry right-action loop is gone,
    # and d is read as a matrix only on Omega_0 (its factor d_0)
    found = {}
    for info in pkgutil.iter_modules(ncforms.__path__):
        src = inspect.getsource(importlib.import_module(f"ncforms.{info.name}"))
        lines = _square_builders(ast.parse(src))
        if lines or "_right_action_matrix" in src:
            found[info.name] = lines
    assert not found
    # the guard sees the spellings it bans, and passes d_0
    for text in ("L.kron(QMat.eye(3))", "QMat.eye(n).kron(R)", "mu.kron(eye)",
                 "form_space(A, k).d_matrix", "sp.d_matrix"):
        assert _square_builders(ast.parse(text)) == [1], text
    assert not _square_builders(ast.parse("form_space(A, 0).d_matrix @ F.kron(F)"))


def test_linear_condition_builders_go_through_kron_rows():
    builders = [algebra.derivation_space, algebra.TensorQuotient.__init__,
                schouten.polyderivation_space, hochschild.form_hom_space,
                hochschild.cocycle_space, forms.kernel_of_mu_n,
                forms.commutator_subspace]
    # the term lists the builders eliminate, each the one place its operator
    # is stated
    term_lists = [hochschild.coboundary_terms, algebra.leibniz_terms,
                  schouten._slot_leibniz_terms]
    banned = (".entry(", "to_fraction_rows(", "Fraction(0)", "bump")
    for fn in builders + term_lists:
        src = inspect.getsource(fn)
        assert not [b for b in banned if b in src], fn.__qualname__
    for fn in builders:
        assert "kron_rows(" in inspect.getsource(fn), fn.__qualname__
    # End(Omega_1) builds no system: it is read from Der(A, Omega_1)
    src = inspect.getsource(connections.bimodule_endomorphism_space)
    assert "field_valued_form_space(" in src
    assert not [b for b in ("kron_rows(", "nullspace(") if b in src]


def _attribute_reads(tree: ast.AST, attr: str) -> list[str]:
    """The dotted name of the def or class around each read of ``.attr``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr == attr
                    and isinstance(child.ctx, ast.Load)):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_library_reads_no_fraction_basis():
    # Subspace.basis builds Fraction rows; inside the library a basis is read
    # as integer rows or as basis_matrix() columns.  The readers left:
    # RowReducer.basis (the Fraction reader itself), verify's witness
    # strings, and find_projections's centre scan, whose candidates keep
    # their order.  dsl's TableSpec.basis is a tuple of names.
    allowed = {"linalg.RowReducer.basis", "identities._chk_derivation_leibniz",
               "identities._chk_commutator_chain", "connections.find_projections",
               "dsl._elaborate_table"}
    found = set()
    for info in pkgutil.iter_modules(ncforms.__path__):
        mod = importlib.import_module(f"ncforms.{info.name}")
        found |= {f"{info.name}.{where}"
                  for where in _attribute_reads(ast.parse(inspect.getsource(mod)), "basis")}
    assert found == allowed


def test_bases_sliced_from_blocks_match_the_fraction_route(monkeypatch):
    # field-valued forms, polyderivations and form homs read their kernel's
    # basis_matrix() columns; reading each vector as Fractions instead
    # gives every matrix with the same (num, den, dtype)
    def sigs(mats):
        return [(M.num.tolist(), M.den, M.num.dtype) for M in mats]

    algs = {**catalog(), **{k: v for k, v in _forms_algebras().items()
                            if k in ("m2frac", "t3big")},
            "truncpoly(4)": builtin_algebra("truncpoly(4)"), "matrix(3)": matrix_algebra(3)}

    def bases():
        out = {}
        for name, A in algs.items():
            top = 1 if A.dim > 4 else 2
            for k in range(top + 1):
                out[name, "fields", k] = sigs(
                    K.delta for K in fieldforms.field_valued_form_space(A, k))
                out[name, "homs", k] = sigs(
                    hochschild.form_hom_matrices(A, k, A.regular_bimodule()))
            for arity in range(1, top + 2):
                out[name, "polys", arity] = sigs(
                    K.data for K in schouten.polyderivation_space(A, arity))
        return out

    blocks = bases()
    monkeypatch.setattr(Subspace, "unvec_basis", fraction_unvec_basis)
    assert bases() == blocks


def test_products_of_forms_go_through_the_block_kernel():
    kernel_users = [forms.multiplicative_extension, forms.commutator_subspace,
                    connections.ideal_component, connections.horizontal_forms,
                    fieldforms.is_graded_derivation, fieldforms.contraction,
                    fieldforms.FieldValuedForm.extension]
    extended = [forms.omega_functor, connections.induced_endomorphism]
    banned = ("product(", "basis_form(")
    for fn in kernel_users + extended:
        src = inspect.getsource(fn)
        call = "products(" if fn in kernel_users else "multiplicative_extension("
        assert call in src, fn.__qualname__
        assert not [b for b in banned if b in src], fn.__qualname__


def test_graded_operators_have_one_encoding():
    # the zero map into a negative degree is a matrix with 0 rows, never
    # None; j_K is applied by the slot recurrence on the block, with no
    # Kronecker product, and L_K is the commutator [j_K, d]
    for fn in (fieldforms.GradedDerivation, fieldforms.contraction,
               fieldforms.lie_operator, fieldforms.is_graded_derivation,
               identities._chk_contraction_injective):
        assert "is None" not in inspect.getsource(fn), fn.__qualname__
    src = inspect.getsource(fieldforms.contraction)
    assert "qmat_sum(" not in src and "kron(" not in src
    assert "commutator(" in inspect.getsource(fieldforms.lie_operator)


def test_projection_calculus_eliminates_no_kernel():
    # "ideal = functor kernel" is certified by trace (is_idempotent_kernel),
    # and involutivity reads the ideal chain kept on the distribution
    for fn in (connections.check_projection_calculus, connections.involutive,
               connections.ideal_component, connections.Projection.kernel):
        assert "nullspace(" not in inspect.getsource(fn), fn.__qualname__
    src = inspect.getsource(connections.check_projection_calculus)
    assert "is_idempotent_kernel(" in src
    assert "fn_bracket(" not in src and "brackets()" in src
    assert "fn_bracket(" in inspect.getsource(connections.Projection.brackets)


def test_multimap_calculus_stays_on_integer_numerators():
    # Fractions are built only where values are read (MultiMap.value) and in JSON
    contractions = [schouten.wedge, schouten.insertion, schouten.MultiMap.evaluate,
                    schouten.MultiMap.value_with_first, schouten.derivation_matrix_of,
                    schouten.commutator_bivector]
    banned = ("Fraction(", "column_fractions", "digits_at")
    for fn in contractions:
        src = inspect.getsource(fn)
        assert not [b for b in banned if b in src], fn.__qualname__
    # the free-bimodule action L_i R_l is stacked in one place
    for fn in (hochschild.tensor_hom_from_values, hochschild._factored_cochains):
        src = inspect.getsource(fn)
        assert "_stacked_actions(" in src, fn.__qualname__
        assert not [b for b in (".col(", "range(tensor.dim)", "module.left", "kron_apply(")
                    if b in src]


def test_elimination_stays_on_integer_rows():
    readers = {"basis", "subspace", "reduce_dense"}
    helpers = [linalg._integer_row, linalg._eliminate, linalg._primitive]
    members = [(name, getattr(m, "fget", m)) for name, m in vars(RowReducer).items()
               if inspect.isfunction(getattr(m, "fget", m)) and name not in readers]
    for name, fn in members + [(f.__name__, f) for f in helpers]:
        assert "Fraction(" not in inspect.getsource(fn), name
    assert ".kron(" not in inspect.getsource(forms.products)
    for fn in (connections.ideal_component, forms.kernel_of_mu_n,
               connections.bimodule_endomorphism_space):
        src = inspect.getsource(fn)
        assert not re.search(r"from_(columns|rows)\([^\n]*\.basis", src), fn.__qualname__


def test_library_vectors_stay_integer_blocks():
    # the rewritten solves, spans and checks take QMat columns and Subspace
    # rows; none unpacks a matrix into Fraction lists and packs it back
    rewritten = [
        linalg.solve_linear, linalg.qmat_inverse,
        connections.minimal_polynomial, connections.Bundle.base_algebra,
        connections.Bundle.validate, connections.find_connections,
        connections.is_distribution, connections.bimodule_span,
        connections.exact_span, connections.involutive,
        connections.curvature_horizontality, connections.Projection.__hash__,
        fieldforms.pushforward, hochschild.is_coboundary, forms.de_rham_homology,
        algebra.AlgebraHom.validate, algebra.TensorQuotient.factor_map,
        algebra.derivation_vector, algebra.derivation_to_hom,
        algebra.hom_to_derivation,
    ]
    banned = ("to_fraction_rows(", ".entry(", "add_dense(", "QMat.column(")
    for fn in rewritten:
        src = inspect.getsource(fn)
        assert not [b for b in banned if b in src], fn.__qualname__
    # qmat_inverse is a block solve: no elimination of its own
    assert "solve_linear(" in inspect.getsource(linalg.qmat_inverse)
    assert "RowReducer(" not in inspect.getsource(linalg.qmat_inverse)


def test_linear_operators_are_applied_from_their_term_lists():
    # each operator is stated once, as a term list that is both eliminated
    # (kron_rows) and applied (kron_apply); no per-basis loop evaluates it
    appliers = [hochschild.coboundary, algebra.derivation_defect,
                schouten.first_slot_leibniz, hochschild._factored_cochains,
                hochschild.NormalizedCochain.evaluate, schouten._first_slot,
                algebra.Algebra.mult_vec]
    banned = (".value(", ".col(", ".scale(", "qmat_sum", "Fraction(", "digits_at",
              "tensor_hom_basis")
    for fn in appliers:
        src = inspect.getsource(fn)
        assert not [b for b in banned if b in src], fn.__qualname__
    for fn in (hochschild.coboundary, hochschild.cocycle_space):
        assert "coboundary_terms(" in inspect.getsource(fn), fn.__qualname__
    assert "leibniz_terms(" in inspect.getsource(algebra.derivation_defect)
    for fn in (schouten.first_slot_leibniz, schouten.polyderivation_space):
        src = inspect.getsource(fn)
        assert "_is_slot_derivation(" in src or "_slot_leibniz_terms(" in src, fn.__qualname__
    assert not hasattr(hochschild, "coboundary_rows")
    assert not hasattr(hochschild, "tensor_hom_basis")


EXACT_OBJECTS = (Element, Form, FieldValuedForm, MultiMap, NormalizedCochain)


def test_exact_objects_take_their_linear_structure_from_qvector():
    own = {"__add__", "__sub__", "__neg__", "scale", "__eq__", "__hash__", "is_zero",
           "_same", "_check_compatible"}
    for cls in EXACT_OBJECTS:
        assert issubclass(cls, QVector), cls.__name__
        assert not own & set(vars(cls)), cls.__name__
        assert "different spaces" not in inspect.getsource(cls), cls.__name__


def _scalar_matrices(tree: ast.AST) -> list[ast.ListComp]:
    """The list-of-lists comprehensions of format_scalar / parse_scalar calls."""
    def scalar_call(node):
        return (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) in ("format_scalar", "parse_scalar"))
    return [n for n in ast.walk(tree) if isinstance(n, ast.ListComp)
            and isinstance(n.elt, ast.ListComp) and scalar_call(n.elt.elt)]


def test_json_matrices_go_through_one_codec():
    codec = {id(n) for fn in (qmat_to_json, qmat_from_json)
             for n in _scalar_matrices(ast.parse(inspect.getsource(fn)))}
    assert len(codec) == 2
    found = []
    for info in pkgutil.iter_modules(ncforms.__path__):
        mod = importlib.import_module(f"ncforms.{info.name}")
        tree = ast.parse(inspect.getsource(mod))
        codec_defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                      and n.name in ("qmat_to_json", "qmat_from_json")]
        inside = {id(n) for fn in codec_defs for n in _scalar_matrices(fn)}
        found += [f"{info.name}:{n.lineno}" for n in _scalar_matrices(tree)
                  if id(n) not in inside]
    assert found == []


def test_json_matrix_codec_round_trips_and_rejects_malformed_input():
    q = QMat(np.array([[2 ** 70, -3], [0, 5]], dtype=object), 6)
    rows = qmat_to_json(q)
    assert rows == [[format_scalar(Fraction(2 ** 70, 6)), "-1/2"], ["0", "5/6"]]
    back = qmat_from_json(rows)
    assert back == q and back.num.dtype == object
    assert qmat_from_json([["1", "1/2"]]).num.dtype == np.int64
    for bad in ("ab", "12", ["12"], [[1]], [[["1"]]], [["1/0"]], [["x"]]):
        with pytest.raises(LinAlgError):
            qmat_from_json(bad)


def _exact_object_makers():
    """For each exact-object type, (make: QMat -> element, shape of its QMat)."""
    A = matrix_algebra(2)
    sp = form_space(A, 1)
    mod = A.regular_bimodule()
    return [
        (lambda q: Element(A, q), (A.dim, 1)),
        (lambda q: Form(sp, q), (sp.dim, 1)),
        (lambda q: FieldValuedForm(A, 1, q, check=False), (sp.dim, A.dim)),
        (lambda q: MultiMap(A, 2, q, check=False), (A.dim, A.dim ** 2)),
        (lambda q: NormalizedCochain(mod, 1, q), (mod.dim, A.dim - 1)),
    ]


def test_exact_objects_combine_as_their_qmats():
    # every operation returns the (num, den, dtype) of the QMat operation,
    # also where int64 sums reach 2**62 and where entries are past it
    rng = np.random.default_rng(7)
    for make, shape in _exact_object_makers():
        small = rng.integers(-9, 10, size=shape)
        small[0, 0] = 2 ** 61
        big = rng.integers(-9, 10, size=shape).astype(object)
        big[-1, -1] = 2 ** 70
        qs = [QMat(small, 6), QMat(big, 4), QMat(small * 2, 3)]
        for x in qs:
            X = make(x)
            field = type(X)._field
            assert _same_qmat(getattr(-X, field), -x)
            assert _same_qmat(getattr(X.scale(Fraction(-3, 5)), field), x.scale(Fraction(-3, 5)))
            assert (X - X).is_zero() and not X.is_zero()
            for y in qs:
                Y = make(y)
                assert _same_qmat(getattr(X + Y, field), x + y)
                assert _same_qmat(getattr(X - Y, field), x - y)
                assert (X + Y == make(x + y)) and (X == Y) == (x == y)
            with pytest.raises(TypeError):
                hash(X)


def test_exact_objects_of_two_spaces_raise_their_module_error():
    A, B = matrix_algebra(2), builtin_algebra("m2")
    pairs = [
        (A.unit(), B.unit(), AlgebraError),
        (form_space(A, 1).zero(), form_space(A, 2).zero(), FormError),
        (form_space(A, 1).zero(), form_space(B, 1).zero(), FormError),
        (zero_field_valued_form(A, 0), zero_field_valued_form(A, 1), FieldFormError),
        (MultiMap.zeros(A, 1), MultiMap.zeros(A, 1, scalar=True), SchoutenError),
        (NormalizedCochain.zeros(A.regular_bimodule(), 1),
         NormalizedCochain.zeros(tensor_module(A, 1), 1), HochschildError),
        (form_space(A, 0).zero(), zero_field_valued_form(A, 0), FormError),
    ]
    for x, y, error in pairs:
        for op in (lambda: x + y, lambda: x - y):
            with pytest.raises(error, match="different spaces"):
                op()
        assert x != y and not x == y


def _boundary_cases():
    """(call, error) named by the entry: each public entry taking a
    coefficient vector given one of the wrong length, and each taking an
    element or a form given another algebra's, with its module's error."""
    m2, dual, t4 = matrix_algebra(2), dual_numbers(), truncated_polynomial_algebra(4)
    reg = m2.regular_bimodule()
    sd = semidirect_product(dual.regular_bimodule())
    mu = commutator_bivector(m2)
    cochain = NormalizedCochain.zeros(reg, 1)
    short, e0 = [1, 0, 0], [1, 0, 0, 0]
    cases = [
        ("Element.__add__", lambda: m2.unit() + dual.unit(), AlgebraError),
        ("Element.__mul__", lambda: m2.unit() * t4.unit(), AlgebraError),
        ("Algebra.element", lambda: m2.element(short), AlgebraError),
        ("Algebra.mult_vec", lambda: m2.mult_vec(e0, short), AlgebraError),
        ("Bimodule.left_action", lambda: reg.left_action(short), AlgebraError),
        ("Bimodule.right_action", lambda: reg.right_action(e0 + [0]), AlgebraError),
        ("derivation_matrix", lambda: derivation_matrix(reg, [0] * 15), AlgebraError),
        ("derivation_vector", lambda: derivation_vector(reg, QMat.zeros(3, 3)), AlgebraError),
        ("inner_derivation", lambda: inner_derivation(reg, short), AlgebraError),
        ("AlgebraHom.__call__", lambda: AlgebraHom(m2, m2, QMat.eye(4))(dual.unit()),
         AlgebraError),
        ("SemidirectProduct.embed", lambda: sd.embed([1, 2, 3], [4]), AlgebraError),
        ("SemidirectProduct.project_module", lambda: sd.project_module(t4.unit()),
         AlgebraError),
        ("TensorQuotient.pure_tensor",
         lambda: tensor_over_A(reg, reg).pure_tensor(e0, short), AlgebraError),
        ("FormSpace.form", lambda: form_space(m2, 1).form(short), FormError),
        ("MultiMap.evaluate", lambda: mu.evaluate(e0, short), SchoutenError),
        ("MultiMap.value_with_first", lambda: mu.value_with_first(short, [0]), SchoutenError),
        ("derivation_matrix_of", lambda: derivation_matrix_of(mu, e0 + [0]), SchoutenError),
        ("NormalizedCochain.from_vector",
         lambda: NormalizedCochain.from_vector(reg, 1, [0] * 11), HochschildError),
        ("NormalizedCochain.evaluate", lambda: cochain.evaluate(short), HochschildError),
        ("Distribution.contains", lambda: Distribution(
            m2, Subspace.full(12), check=False).contains(form_space(t4, 1).zero()),
         GeometryError),
    ]
    return [pytest.param(call, error, id=entry) for entry, call, error in cases]


@pytest.mark.parametrize("call, error", _boundary_cases())
def test_each_boundary_entry_checks_its_vector_or_its_algebra(call, error):
    with pytest.raises(error):
        call()


def test_checked_column_names_both_lengths():
    assert checked_column([1, Fraction(1, 2)], 2) == QMat.from_rows([[1], [Fraction(1, 2)]])
    assert checked_column([], 0).shape == (0, 1)
    with pytest.raises(FormError, match="length 3 for Omega1 of dimension 12"):
        checked_column([1, 2, 3], 12, FormError, "Omega1")
    with pytest.raises(LinAlgError, match="length 1 for an algebra of dimension 2"):
        checked_column([1], 2)
