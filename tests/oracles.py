"""Independent reference implementations used only by the test suite.

Each oracle recomputes a quantity by a different algorithm (or a different
library) than the package under test, so agreement is meaningful.
"""

import math
import weakref
from fractions import Fraction

import sympy
from sympy.combinatorics import Permutation


def sympy_rref(rows):
    """RREF via sympy: returns (rows-as-Fraction, pivot tuple)."""
    M = sympy.Matrix([[sympy.Rational(v) for v in r] for r in rows])
    R, piv = M.rref()
    out = [[Fraction(int(x.p), int(x.q)) for x in R.row(i)] for i in range(R.rows)]
    out = [r for r in out if any(r)]
    return out, tuple(piv)


def sympy_nullspace_dim(rows):
    M = sympy.Matrix([[sympy.Rational(v) for v in r] for r in rows])
    return len(M.nullspace())


def sympy_rank(rows):
    M = sympy.Matrix([[sympy.Rational(v) for v in r] for r in rows])
    return M.rank()


# ---------------------------------------------------------------------------
# Structure tables: the product as nested Fractions c[i][j][k], the
# coefficient of e_k in e_i e_j.  Algebras once stored this table and built
# mu^2 from it; the table route is the reference for every mu^2 built
# directly, and the table is what the loop oracles below read.
# ---------------------------------------------------------------------------


def table_mu2(table):
    """The m x m^2 mu^2 of a structure table, by ``QMat.from_coo`` over the
    common denominator (column i*m + j is e_i e_j)."""
    from ncforms.linalg import QMat
    m = len(table)
    fr = [[[Fraction(c) for c in cs] for cs in row] for row in table]
    den = math.lcm(*(c.denominator for row in fr for cs in row for c in cs))
    return QMat.from_coo((m, m * m), (
        (k, i * m + j, c.numerator * (den // c.denominator))
        for i, row in enumerate(fr) for j, cs in enumerate(row)
        for k, c in enumerate(cs) if c), den)


def table_algebra(name, basis_names, table, check=True):
    """The algebra of a structure table, through :func:`table_mu2`."""
    from ncforms.algebra import Algebra
    return Algebra(name, basis_names, table_mu2(table), check=check)


_TABLES = weakref.WeakKeyDictionary()


def structure_table(alg):
    """c[i][j] as a tuple of Fractions for every basis pair, read off mu^2
    (built once per algebra)."""
    if alg not in _TABLES:
        m = alg.dim
        _TABLES[alg] = [[tuple(alg.mu2.column_fractions(i * m + j)) for j in range(m)]
                        for i in range(m)]
    return _TABLES[alg]


def table_rebase_unit_first(name, basis_names, table, unit_coeffs):
    """``rebase_unit_first`` on a table: the products of the new basis
    solved through a throwaway table algebra and read back as a table."""
    import numpy as np
    from ncforms.linalg import QMat, RowReducer, qmat_hstack, solve_linear
    m = len(basis_names)
    red = RowReducer(m)
    red.add_dense(unit_coeffs)
    keep = [t for t in range(m) if red.add({t: 1})]
    P = qmat_hstack(m, [QMat.from_columns(m, [unit_coeffs]),
                        QMat(np.eye(m, dtype=np.int64)[:, keep])])
    raw = table_algebra(name, basis_names, table, check=False)
    prods = solve_linear(P, raw.mu2 @ P.kron(P))
    return table_algebra(name, ["1"] + [basis_names[t] for t in keep],
                         [[prods.column_fractions(i * m + j) for j in range(m)]
                          for i in range(m)])


def table_matrix_algebra(n):
    """M_n from E_ij E_jl = E_il in the full basis, rebased on the identity."""
    import itertools
    m = n * n
    table = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, j, l in itertools.product(range(n), repeat=3):
        table[i * n + j][j * n + l][i * n + l] = Fraction(1)
    unit = [Fraction(int(i == j)) for i in range(n) for j in range(n)]
    names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    return table_rebase_unit_first(f"matrix({n})", names, table, unit)


def table_truncated_polynomial_algebra(n, var="t"):
    names = ["1"] + [var if p == 1 else f"{var}^{p}" for p in range(1, n)]
    return table_algebra(f"truncpoly({n})", names, [
        [[Fraction(int(k == i + j)) for k in range(n)] for j in range(n)] for i in range(n)])


def table_group_algebra(elements, products, name="group_algebra"):
    """QG from {(g, h): gh}, the identity first (found by scanning)."""
    ident = next(e for e in elements
                 if all(products[e, g] == g == products[g, e] for g in elements))
    order = [ident] + [g for g in elements if g != ident]
    n = len(order)
    return table_algebra(name, order, [
        [[Fraction(int(order.index(products[g, h]) == k)) for k in range(n)]
         for h in order] for g in order])


def table_product_algebra(a, b, name=None):
    """A x B on the two tables side by side, rebased on the unit (1, 1)."""
    m = a.dim + b.dim
    table = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(a.dim):
        for j in range(a.dim):
            table[i][j][:a.dim] = structure_table(a)[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            table[a.dim + i][a.dim + j][a.dim:] = structure_table(b)[i][j]
    names = [f"a.{s}" for s in a.basis_names] + [f"b.{s}" for s in b.basis_names]
    unit = [Fraction(int(i == 0 or i == a.dim)) for i in range(m)]
    return table_rebase_unit_first(name or f"product({a.name},{b.name})", names, table, unit)


def table_semidirect_algebra(mod):
    """A (+) M: A's table, then a.m and m.a column by column of the actions."""
    from ncforms.linalg import kron_matrix
    A, dM, m = mod.algebra, mod.dim, mod.algebra.dim
    n = m + dM
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(m):
            table[i][j][:m] = structure_table(A)[i][j]
        li, ri = kron_matrix(mod.left[i]), kron_matrix(mod.right[i])
        for p in range(dM):
            table[i][m + p][m:] = li.column_fractions(p)
            table[m + p][i][m:] = ri.column_fractions(p)
    names = list(A.basis_names) + [f"{mod.name}.{p}" for p in range(dM)]
    return table_algebra(f"semidirect({A.name},{mod.name})", names, table)


def table_opposite(A):
    m = A.dim
    return table_algebra(f"op({A.name})", A.basis_names, [
        [structure_table(A)[j][i] for j in range(m)] for i in range(m)], check=False)


def table_base_algebra(bundle):
    """``Bundle.base_algebra``'s algebra with its products read back as a table."""
    from ncforms.linalg import solve_linear
    A = bundle.algebra
    _, incl = bundle.base_algebra()
    nb = incl.shape[1]
    prods = solve_linear(incl, A.mu2 @ incl.kron(incl))
    return table_algebra(f"{A.name}|base", ["1"] + [f"b{i}" for i in range(1, nb)], [
        [prods.column_fractions(x * nb + y) for y in range(nb)] for x in range(nb)])


# ---------------------------------------------------------------------------
# Independent model of differential forms inside tensor powers of A.
#
# Degree-n forms embed into A^(x (n+1)) via
#     a0 da1 ... dan  |->  a0 (.) delta(a1) (.) ... (.) delta(an)
# where delta(a) = 1 (x) a - a (x) 1 and (.) is the concatenation product
# that multiplies adjacent slots.  In this model the right action is just
# "multiply the last slot", d is "prepend a delta", and the product is
# concatenation -- all trivially correct, so agreement with the package's
# basis-level formulas is a real check.
# ---------------------------------------------------------------------------


def _digits(flat, base, width):
    out = []
    for _ in range(width):
        flat, r = divmod(flat, base)
        out.append(r)
    return list(reversed(out))


def _flat(digits, base):
    out = 0
    for d in digits:
        out = out * base + d
    return out


def emb_delta(alg, j):
    """delta(e_j) = 1 (x) e_j - e_j (x) 1 as {flat index: coeff} in A (x) A."""
    m = alg.dim
    return {_flat([0, j], m): Fraction(1), _flat([j, 0], m): Fraction(-1)}


def emb_concat(alg, x, p, y, q):
    """Concatenation product A^(p+1) x A^(q+1) -> A^(p+q+1) (merge middle)."""
    m = alg.dim
    out = {}
    for ix, vx in x.items():
        dx = _digits(ix, m, p + 1)
        for iy, vy in y.items():
            dy = _digits(iy, m, q + 1)
            merged = structure_table(alg)[dx[-1]][dy[0]]
            for k in range(m):
                if merged[k]:
                    idx = _flat(dx[:-1] + [k] + dy[1:], m)
                    val = out.get(idx, Fraction(0)) + vx * vy * merged[k]
                    if val:
                        out[idx] = val
                    else:
                        out.pop(idx, None)
    return out


def emb_basis_form(alg, i, J):
    """Embedded image of the basis form e_i dJ."""
    vec = {i: Fraction(1)}
    deg = 0
    for j in J:
        vec = emb_concat(alg, vec, deg, emb_delta(alg, j), 1)
        deg += 1
    return vec


def emb_right_mult(alg, x, n, b):
    """(x0 (x) ... (x) xn) . e_b: multiply the last slot."""
    m = alg.dim
    out = {}
    for ix, vx in x.items():
        dx = _digits(ix, m, n + 1)
        prods = structure_table(alg)[dx[-1]][b]
        for k in range(m):
            if prods[k]:
                idx = _flat(dx[:-1] + [k], m)
                val = out.get(idx, Fraction(0)) + vx * prods[k]
                if val:
                    out[idx] = val
                else:
                    out.pop(idx, None)
    return out


def emb_scale_add(acc, vec, c):
    for idx, v in vec.items():
        val = acc.get(idx, Fraction(0)) + c * v
        if val:
            acc[idx] = val
        else:
            acc.pop(idx, None)
    return acc


def bareiss_rank(rows):
    """Fraction-free Gaussian elimination (Bareiss) rank over the integers.

    Input rows may be Fractions; they are cleared to integers first.
    """
    rows = [list(map(Fraction, r)) for r in rows]
    if not rows:
        return 0
    den = 1
    for r in rows:
        for v in r:
            q = v.denominator
            den = den * q // __import__("math").gcd(den, q)
    m = [[int(v * den) for v in r] for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def sympy_commutant_dim(mats, n):
    """Dim of {E : E M = M E for all M}, solved entirely inside sympy."""
    import sympy

    rows = []
    for M in mats:
        S = sympy.Matrix([[sympy.Rational(v) for v in row] for row in M])
        for r in range(n):
            for c in range(n):
                row = [sympy.Integer(0)] * (n * n)
                for k in range(n):
                    row[k * n + c] += S[r, k]
                    row[r * n + k] -= S[k, c]
                if any(row):
                    rows.append(row)
    if not rows:
        return n * n
    return n * n - sympy.Matrix(rows).rank()


def emb_bar_projection(alg, vec, n):
    """Project A^(x)(n+1) onto A (x) Abar^(n-1) (x) A.

    Terms with a unit in a middle slot are dropped; middle digits reindex to
    base m-1 while the outer slots keep base m (big-endian throughout).
    """
    m = alg.dim
    out = {}
    for idx, v in vec.items():
        d = _digits(idx, m, n + 1)
        if any(t == 0 for t in d[1:-1]):
            continue
        flat = d[0]
        for t in d[1:-1]:
            flat = flat * (m - 1) + (t - 1)
        out[flat * m + d[-1]] = v
    return out


def emb_comparison_columns(alg, n):
    """Independent route to the comparison map forms -> A(x)Abar^(n-1)(x)A.

    Each basis form is embedded into A^(x)(n+1) (da = 1(x)a - a(x)1, with
    junction multiplication) and the middle slots are bar-projected.  The
    result differs from the displayed coboundary construction by the sign
    (-1)^n: each embedded da carries the opposite sign convention, and the
    surviving all-left/all-right selections flip n - 2p times.
    """
    from ncforms.forms import form_space

    m = alg.dim
    sp = form_space(alg, n)
    height = m * m * (m - 1) ** (n - 1)
    cols = []
    for idx in range(sp.dim):
        i, J = sp.tuple_of(idx)
        proj = emb_bar_projection(alg, emb_basis_form(alg, i, J), n)
        col = [Fraction(0)] * height
        for f, v in proj.items():
            col[f] = v
        cols.append(col)
    return cols


def sympy_hochschild_dim(alg, n):
    """dim H^n(A, A) from the normalized complex, entirely inside sympy."""
    m = alg.dim
    struct = structure_table(alg)

    def bar_tuples(k):
        if k == 0:
            return [()]
        return [t + (j,) for t in bar_tuples(k - 1) for j in range(1, m)]

    def delta_rank_and_kernel(k):
        """(rank, kernel dim) of the degree-k coboundary on A-valued cochains."""
        src = bar_tuples(k)
        src_pos = {t: i for i, t in enumerate(src)}
        rows = []
        for K in bar_tuples(k + 1):
            for r in range(m):
                row = [sympy.Integer(0)] * (len(src) * m)
                for s in range(m):
                    # e_{k1} . c(K[1:]) has e_r-component struct[k1][s][r]
                    row[src_pos[K[1:]] * m + s] += sympy.Rational(struct[K[0]][s][r])
                    row[src_pos[K[:-1]] * m + s] += (
                        sympy.Integer(-1) ** (k + 1)
                        * sympy.Rational(struct[s][K[-1]][r]))
                for t in range(k):
                    prod = struct[K[t]][K[t + 1]]
                    for p in range(1, m):
                        if prod[p]:
                            merged = K[:t] + (p,) + K[t + 2:]
                            row[src_pos[merged] * m + r] += (
                                sympy.Integer(-1) ** (t + 1)
                                * sympy.Rational(prod[p]))
                rows.append(row)
        if not rows or not rows[0]:
            return 0, len(src) * m
        mat = sympy.Matrix(rows)
        rk = mat.rank()
        return rk, len(src) * m - rk

    _, z = delta_rank_and_kernel(n)
    if n == 0:
        return z
    b, _ = delta_rank_and_kernel(n - 1)
    return z - b


def sympy_polyderivation_dim(alg, arity: int) -> int:
    """Dimension of the skew first-slot-Leibniz maps A^arity -> A, computed
    from the structure constants entirely in sympy."""
    import itertools

    import sympy

    m = alg.dim
    struct = [[[sympy.Rational(structure_table(alg)[i][j][r]) for r in range(m)]
               for j in range(m)] for i in range(m)]
    tuples = list(itertools.product(range(m), repeat=arity))
    pos = {T: i for i, T in enumerate(tuples)}
    nunk = len(tuples) * m  # unknown K(T)[r] at pos[T]*m + r
    rows = []
    for T in tuples:
        for t in range(arity - 1):
            S = T[:t] + (T[t + 1], T[t]) + T[t + 2:]
            if pos[S] < pos[T]:
                continue
            for r in range(m):
                row = [sympy.Integer(0)] * nunk
                row[pos[T] * m + r] += 1
                row[pos[S] * m + r] += 1
                rows.append(row)
    for rest in itertools.product(range(m), repeat=arity - 1):
        for i in range(m):
            for j in range(m):
                for r in range(m):
                    row = [sympy.Integer(0)] * nunk
                    for q in range(m):
                        if struct[i][j][q]:
                            row[pos[(q,) + rest] * m + r] += struct[i][j][q]
                    for s in range(m):
                        # e_i . K(e_j, rest) and K(e_i, rest) . e_j
                        row[pos[(j,) + rest] * m + s] -= struct[i][s][r]
                        row[pos[(i,) + rest] * m + s] -= struct[s][j][r]
                    rows.append(row)
    if not rows:
        return nunk
    return nunk - sympy.Matrix(rows).rank()


# ---------------------------------------------------------------------------
# Per-basis loops over the product of forms.
#
# The package multiplies whole blocks of forms in one call
# (``forms.products``).  These are the earlier loops that multiply one pair
# of forms at a time and assemble results column by column; the parity tests
# hold the block kernel and its callers to them, entry for entry.
# ---------------------------------------------------------------------------


def loop_product(a, b):
    """a.b for two Forms: sum_p (R_p a) (x) (leading-index-p block of b)."""
    from ncforms.forms import Form, form_space
    from ncforms.linalg import QMat
    A = a.space.algebra
    target = form_space(A, a.degree + b.degree)
    w = b.space.dim // A.dim
    acc = QMat.zeros(target.dim, 1)
    for p in range(A.dim):
        col = dense_right_action(a.space, p) @ a.vec
        seg = QMat(b.vec.num[p * w:(p + 1) * w].reshape(1, w), b.vec.den)
        block = col.kron(seg)  # (dim_a, w): row-major flatten = target index
        acc = acc + QMat(block.num.reshape(target.dim, 1), block.den)
    return Form(target, acc)


def _loop_extension(algebra, lead, dimage, degree):
    """Columns lead(e_i) . dimage(j1) ... dimage(jk), basis form by basis form."""
    from ncforms.forms import form_space
    from ncforms.linalg import qmat_hstack
    tgt = form_space(algebra, degree)
    src_dim = lead.shape[1] * (len(dimage) - 1) ** degree
    cols = []
    for idx in range(src_dim):
        i, rest = divmod(idx, (len(dimage) - 1) ** degree)
        acc = form_space(algebra, 0).form(lead.column_fractions(i))
        for j in _digits(rest, len(dimage) - 1, degree):
            acc = loop_product(acc, dimage[j + 1])
        cols.append(acc.vec)
    return qmat_hstack(tgt.dim, cols)


def loop_omega_functor(f, degree):
    """Omega_k(f): e_i dJ |-> f(e_i) d(f(e_{j1})) ... d(f(e_{jk}))."""
    from ncforms.forms import Form, form_space
    B = f.target
    d0 = form_space(B, 0).d_matrix
    dfs = [Form(form_space(B, 1), d0 @ f.matrix.col(j))
           for j in range(f.source.dim)]
    return _loop_extension(B, f.matrix, dfs, degree)


def loop_induced_endomorphism(algebra, ext, k):
    """e_i dJ |-> e_i . ext(d e_{j1}) ... ext(d e_{jk})."""
    from ncforms.forms import Form, form_space
    from ncforms.linalg import QMat
    sp1 = form_space(algebra, 1)
    d0 = form_space(algebra, 0).d_matrix
    images = [Form(sp1, ext @ d0.col(j)) for j in range(algebra.dim)]
    return _loop_extension(algebra, QMat.eye(algebra.dim), images, k)


def loop_ideal_component(dist, r):
    """Degree-r piece of the ideal of dist: b.w and w.b for every basis
    one-form b and every basis vector w of the previous piece."""
    from ncforms.forms import form_space
    from ncforms.linalg import RowReducer
    if r == 1:
        return dist.space
    A = dist.algebra
    prev = loop_ideal_component(dist, r - 1)
    sp1, spp = form_space(A, 1), form_space(A, r - 1)
    red = RowReducer(form_space(A, r).dim)
    for vec in prev.basis:
        w = spp.form(vec)
        for i in range(sp1.dim):
            b = sp1.basis_form(i)
            red.add_dense(loop_product(b, w).coords())
            red.add_dense(loop_product(w, b).coords())
    return red.subspace()


def loop_commutator_subspace(algebra, r):
    """Span of w.h - (-1)^{ab} h.w over all basis pairs with a + b = r."""
    from ncforms.forms import form_space
    from ncforms.linalg import RowReducer
    red = RowReducer(form_space(algebra, r).dim)
    for a in range(r + 1):
        sa, sb = form_space(algebra, a), form_space(algebra, r - a)
        sign = (-1) ** (a * (r - a))
        for ia in range(sa.dim):
            for ib in range(sb.dim):
                w, h = sa.basis_form(ia), sb.basis_form(ib)
                comm = loop_product(w, h) - loop_product(h, w).scale(sign)
                red.add_dense(comm.coords())
    return red.subspace()


def split_commutator_subspace(algebra, r):
    """Span of w.h - (-1)^{ab} h.w over every basis form w of degree a <= r/2,
    one block of products with all basis forms h of degree b = r - a per w
    ([w,h] and [h,w] span the same lines)."""
    from ncforms.forms import form_space, products
    from ncforms.linalg import QMat, RowReducer
    red = RowReducer(form_space(algebra, r).dim)
    for a in range((r + 2) // 2):
        b = r - a
        sign = (-1) ** (a * b)
        eye_a, eye_b = (QMat.eye(form_space(algebra, t).dim) for t in (a, b))
        for ia in range(eye_a.shape[0]):
            w = eye_a.col(ia)
            red.add_columns(products(algebra, w, a, eye_b, b)
                            - products(algebra, None, b, w, a).scale(sign))
    return red.subspace()


def loop_horizontal_forms(bundle, k):
    """Degree-k span of w.h, w in the previous piece, h horizontal."""
    from ncforms.connections import exact_span
    from ncforms.forms import form_space
    from ncforms.linalg import RowReducer
    A = bundle.algebra
    hor1 = exact_span(A, bundle.base).space
    if k == 1:
        return hor1
    prev = loop_horizontal_forms(bundle, k - 1)
    spp, sp1 = form_space(A, k - 1), form_space(A, 1)
    red = RowReducer(form_space(A, k).dim)
    for v in prev.basis:
        for h in hor1.basis:
            red.add_dense(loop_product(spp.form(v), sp1.form(h)).coords())
    return red.subspace()


# ---------------------------------------------------------------------------
# Graded operators with the zero map into a negative degree stored as None.
#
# ``fieldforms.GradedDerivation`` stores that map as a matrix with 0 rows,
# builds j_K by a slot recurrence and L_K through ``compose``.  These are the
# operators it replaced: j_K as one Kronecker product per slot and degree,
# L_K assembled by hand, and an operator algebra with a None branch in every
# method.
# ---------------------------------------------------------------------------


class NoneGradedDerivation:
    """Degree-k operator: mats[j] is Omega_j -> Omega_{j+k}, None when
    j + k < 0."""

    def __init__(self, algebra, degree, mats):
        self.algebra = algebra
        self.degree = degree
        self.mats = dict(mats)

    def _zeros(self, j):
        from ncforms.forms import form_space
        from ncforms.linalg import QMat
        return QMat.zeros(form_space(self.algebra, j + self.degree).dim,
                          form_space(self.algebra, j).dim)

    def __add__(self, other):
        out = {}
        for j in set(self.mats) & set(other.mats):
            a, b = self.mats[j], other.mats[j]
            if a is None and b is None:
                out[j] = None
            else:
                a = a if a is not None else self._zeros(j)
                b = b if b is not None else other._zeros(j)
                out[j] = a + b
        return NoneGradedDerivation(self.algebra, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return NoneGradedDerivation(self.algebra, self.degree, {
            j: (m.scale(c) if m is not None else None) for j, m in self.mats.items()})

    def compose(self, other):
        from ncforms.forms import form_space
        from ncforms.linalg import QMat
        out = {}
        for j, fm in other.mats.items():
            jj = j + other.degree
            if fm is None:
                if jj + self.degree < 0:
                    out[j] = None
                else:
                    out[j] = QMat.zeros(form_space(self.algebra, jj + self.degree).dim,
                                        form_space(self.algebra, j).dim)
                continue
            if jj not in self.mats:
                continue
            em = self.mats[jj]
            out[j] = None if em is None else em @ fm
        return NoneGradedDerivation(self.algebra, self.degree + other.degree, out)

    def commutator(self, other):
        sign = (-1) ** ((self.degree * other.degree) % 2)
        return self.compose(other) - other.compose(self).scale(sign)


def slotwise_contraction(K, max_input):
    """j_K on Omega_n as the sum over slots s of
    (-1)^{(s-1)(k-1)} products(I, s-1, delta[:, 1:], k) (x) I_{(m-1)^(n-s)}."""
    from ncforms.forms import d_slots, form_space, products
    from ncforms.linalg import QMat, qmat_sum
    A = K.algebra
    m, kappa = A.dim, K.degree
    opdeg = kappa - 1
    slots = []
    for s in range(1, max_input + 1):
        slot = products(A, None, s - 1, d_slots(K.delta), kappa)
        slots.append(-slot if ((s - 1) * opdeg) % 2 else slot)
    mats = {0: None if opdeg < 0 else QMat.zeros(form_space(A, opdeg).dim,
                                                 form_space(A, 0).dim)}
    for n in range(1, max_input + 1):
        mats[n] = qmat_sum(slots[s - 1].kron(QMat.eye((m - 1) ** (n - s)))
                           for s in range(1, n + 1))
    return NoneGradedDerivation(A, opdeg, mats)


def handmade_lie_operator(K, max_input):
    """L_K = j_K o d - (-1)^(k-1) d o j_K, one matrix product at a time."""
    from ncforms.forms import form_space
    A = K.algebra
    jk = slotwise_contraction(K, max_input + 1)
    sign = (-1) ** ((K.degree - 1) % 2)
    mats = {}
    for j in range(max_input + 1):
        first = jk.mats[j + 1] @ form_space(A, j).d_matrix
        second = jk.mats[j]
        if second is None:
            mats[j] = first
        else:
            dmat = form_space(A, j + K.degree - 1).d_matrix
            mats[j] = first - (dmat @ second).scale(sign)
    return NoneGradedDerivation(A, K.degree, mats)


# ---------------------------------------------------------------------------
# Graded operators as one matrix per stored input degree.
#
# ``fieldforms.GradedDerivation`` applies d (a row shift), j_K (the slot
# recurrence on the block) and L_K = [j_K, d] to blocks of forms, and builds a
# matrix only when one is read.  This is the route it replaced: every operator
# built as matrices up to an input degree, j_K by one Kronecker product with
# I_{m-1} per degree, L_K and commutators by composing matrices, and the
# brackets read off those matrices.
# ---------------------------------------------------------------------------


def _mdim(algebra, degree):
    from ncforms.forms import form_space
    return form_space(algebra, degree).dim if degree >= 0 else 0


class MatrixGradedDerivation:
    """Degree-k operator: mats[j] is Omega_j -> Omega_{j+k}, with 0 rows
    below degree 0; combined on common stored degrees only."""

    def __init__(self, algebra, degree, mats):
        self.algebra = algebra
        self.degree = degree
        self.mats = dict(mats)

    def __add__(self, other):
        assert self.degree == other.degree
        return MatrixGradedDerivation(self.algebra, self.degree, {
            j: self.mats[j] + other.mats[j] for j in set(self.mats) & set(other.mats)})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return MatrixGradedDerivation(self.algebra, self.degree,
                                      {j: m.scale(c) for j, m in self.mats.items()})

    def compose(self, other):
        """self o other where both are stored; zero where other maps below 0."""
        from ncforms.linalg import QMat
        out = {}
        for j, fm in other.mats.items():
            jj = j + other.degree
            if jj < 0:
                out[j] = QMat.zeros(_mdim(self.algebra, jj + self.degree), fm.shape[1])
            elif jj in self.mats:
                out[j] = self.mats[jj] @ fm
        return MatrixGradedDerivation(self.algebra, self.degree + other.degree, out)

    def commutator(self, other):
        sign = (-1) ** ((self.degree * other.degree) % 2)
        return self.compose(other) - other.compose(self).scale(sign)

    def truncated(self, top):
        return MatrixGradedDerivation(self.algebra, self.degree,
                                      {j: m for j, m in self.mats.items() if j <= top})

    def agrees_with(self, other):
        common = set(self.mats) & set(other.mats)
        assert common and self.degree == other.degree
        return all(self.mats[j] == other.mats[j] for j in common)

    def is_zero(self):
        return all(m.is_zero() for m in self.mats.values())


def coo_d_matrix(space):
    """d: Omega_k -> Omega_{k+1} from its entries (idx - (m-1)^k, idx, 1) for
    the basis forms e_i dJ with i > 0, as QMat.from_coo builds them."""
    from ncforms.forms import form_space
    from ncforms.linalg import QMat
    target = form_space(space.algebra, space.degree + 1)
    return QMat.from_coo((target.dim, space.dim), (
        (idx - space._tail, idx, 1) for idx in range(space._tail, space.dim)))


def matrix_d_operator(algebra, max_input):
    from ncforms.forms import form_space
    return MatrixGradedDerivation(algebra, 1, {
        j: form_space(algebra, j).d_matrix for j in range(max_input + 1)})


def kron_contraction(K, max_input):
    """j_K|Omega_n = j_K|Omega_{n-1} (x) I_{m-1} + (-1)^{(n-1)(k-1)} S_n with
    S_n = products(I, n-1, delta[:, 1:], k)."""
    from ncforms.forms import d_slots, products
    from ncforms.linalg import QMat
    A = K.algebra
    m, k = A.dim, K.degree
    mats = {0: QMat.zeros(_mdim(A, k - 1), m)}
    for n in range(1, max_input + 1):
        S = products(A, None, n - 1, d_slots(K.delta), k)
        S = -S if ((n - 1) * (k - 1)) % 2 else S
        mats[n] = S if n == 1 else mats[n - 1].kron(QMat.eye(m - 1)) + S
    return MatrixGradedDerivation(A, k - 1, mats)


def compose_lie_operator(K, max_input):
    """L_K = j_K o d - (-1)^(k-1) d o j_K, with j_K cut at max_input on the
    d o j_K side."""
    jk = kron_contraction(K, max_input + 1)
    d = matrix_d_operator(K.algebra, max_input + max(K.degree - 1, 0))
    sign = (-1) ** ((K.degree - 1) % 2)
    return jk.compose(d) - d.compose(jk.truncated(max_input)).scale(sign)


def matrix_algebraic_bracket(K, L):
    sign = (-1) ** (((K.degree - 1) * (L.degree - 1)) % 2)
    return (kron_contraction(K, L.degree).mats[L.degree] @ L.delta
            - (kron_contraction(L, K.degree).mats[K.degree] @ K.delta).scale(sign))


def matrix_fn_bracket(K, L):
    sign = (-1) ** ((K.degree * L.degree) % 2)
    return (compose_lie_operator(K, L.degree).mats[L.degree] @ L.delta
            - (compose_lie_operator(L, K.degree).mats[K.degree] @ K.delta).scale(sign))


def matrix_insertion_compose(K, L):
    return kron_contraction(K, L.degree).mats[L.degree] @ L.delta


# ---------------------------------------------------------------------------
# Reference elimination over Fraction: the RowReducer that keeps a fully
# reduced basis of Fraction dicts and divides at every pivot, with the
# subspace operations and the kernel built on it.  ncforms.linalg eliminates
# fraction-free on integer rows; these must agree with it exactly.
# ---------------------------------------------------------------------------


class FractionRowReducer:
    """Incremental sparse RREF over Fraction: rows {column: value}."""

    def __init__(self, ambient):
        self.ambient = ambient
        self.rows = {}

    def _reduce(self, row):
        row = {c: Fraction(v) for c, v in row.items() if v != 0}
        while True:
            hit = min((c for c in row if c in self.rows), default=None)
            if hit is None:
                return row
            f = row[hit]
            for cc, vv in self.rows[hit].items():
                nv = row.get(cc, Fraction(0)) - f * vv
                if nv:
                    row[cc] = nv
                else:
                    row.pop(cc, None)

    def add(self, row):
        row = self._reduce(row)
        if not row:
            return False
        c = min(row)
        inv = 1 / row[c]
        row = {cc: vv * inv for cc, vv in row.items()}
        for prow in self.rows.values():
            f = prow.get(c)
            if f:
                for cc, vv in row.items():
                    nv = prow.get(cc, Fraction(0)) - f * vv
                    if nv:
                        prow[cc] = nv
                    else:
                        prow.pop(cc, None)
        self.rows[c] = row
        return True

    def add_dense(self, row):
        return self.add(dict(enumerate(row)))

    def contains(self, row):
        return not self._reduce(dict(enumerate(row)))

    def reduce_dense(self, row):
        out = [Fraction(0)] * self.ambient
        for c, v in self._reduce(dict(enumerate(row))).items():
            out[c] = v
        return out

    @property
    def dim(self):
        return len(self.rows)

    def pivots(self):
        return sorted(self.rows)

    def basis(self):
        out = []
        for c in sorted(self.rows):
            dense = [Fraction(0)] * self.ambient
            for cc, vv in self.rows[c].items():
                dense[cc] = vv
            out.append(dense)
        return out


def fraction_span(ambient, rows):
    """(basis, pivots) of the span of dense rows."""
    red = FractionRowReducer(ambient)
    for r in rows:
        red.add_dense(r)
    return red.basis(), red.pivots()


def fraction_nullspace(ncols, rows):
    """(basis, pivots) of the canonical kernel of sparse rows {col: value}."""
    last = ncols - 1
    red = FractionRowReducer(ncols)
    for row in rows:
        red.add({last - c: v for c, v in row.items()})
    kernel = {f: [Fraction(0)] * ncols for f in range(ncols)
              if last - f not in red.rows}
    for f, vec in kernel.items():
        vec[f] = Fraction(1)
    for q, prow in red.rows.items():
        for c, v in prow.items():
            if c != q:
                kernel[last - c][last - q] = -v
    return list(kernel.values()), list(kernel)


def fraction_intersection(ambient, basis_a, basis_b):
    """(basis, pivots) of the intersection of two row spaces: the x with
    alpha^T A = x = beta^T B, from the kernel of [A^T | -B^T]."""
    if not basis_a or not basis_b:
        return [], []
    k1 = len(basis_a)
    eqs = [{**{i: a[c] for i, a in enumerate(basis_a) if a[c]},
            **{k1 + j: -b[c] for j, b in enumerate(basis_b) if b[c]}}
           for c in range(ambient)]
    sols, _ = fraction_nullspace(k1 + len(basis_b), eqs)
    return fraction_span(ambient, [
        [sum((sol[i] * basis_a[i][c] for i in range(k1)), Fraction(0))
         for c in range(ambient)] for sol in sols])


# ---------------------------------------------------------------------------
# Per-basis-tuple loops of the multimap calculus and the free-bimodule homs.
#
# ``schouten`` computes wedge, insertion and evaluation as integer
# contractions followed by signed column permutations, and
# ``hochschild.tensor_hom_from_values`` with one matmul per pair of outer
# indices, ``cochain_to_hom`` with one per algebra basis element and
# ``comparison_image`` on the generator columns of the comparison map only.
# These are the earlier loops that build every output column from
# ``Fraction`` values, one basis tuple and one shuffle at a time.
# ---------------------------------------------------------------------------


def _shuffle_sign(S):
    return -1 if (sum(S) - sum(range(len(S)))) % 2 else 1


def loop_evaluate(mm, *args):
    """mm(args) as the sum over basis tuples of the coefficient products."""
    m = mm.algebra.dim
    acc = [Fraction(0)] * mm.target_dim
    for flat in range(mm.data.shape[1]):
        I = _digits(flat, m, mm.arity)
        coeff = Fraction(1)
        for t, i in enumerate(I):
            coeff *= Fraction(args[t][i])
        col = mm.data.column_fractions(flat)
        for r in range(mm.target_dim):
            acc[r] += coeff * col[r]
    return acc


def loop_value_with_first(mm, w, rest):
    """mm(w, e_rest) as sum_q w_q mm(e_q, e_rest)."""
    acc = [Fraction(0)] * mm.target_dim
    for q, wq in enumerate(w):
        col = mm.value((q,) + tuple(rest))
        for r in range(mm.target_dim):
            acc[r] += wq * col[r]
    return acc


def loop_wedge(phi, psi):
    """Shuffle wedge, one basis tuple and one shuffle at a time."""
    import itertools

    from ncforms.linalg import QMat
    from ncforms.schouten import MultiMap
    A = phi.algebra
    m, k, l = A.dim, phi.arity, psi.arity
    scalar_out = phi.scalar and psi.scalar
    dim_out = 1 if scalar_out else m
    cols = []
    for flat in range(m ** (k + l)):
        I = _digits(flat, m, k + l)
        acc = [Fraction(0)] * dim_out
        for S in itertools.combinations(range(k + l), k):
            rest = [t for t in range(k + l) if t not in S]
            a = phi.value(tuple(I[t] for t in S))
            b = psi.value(tuple(I[t] for t in rest))
            if scalar_out:
                term = [a[0] * b[0]]
            elif phi.scalar:
                term = [a[0] * v for v in b]
            elif psi.scalar:
                term = [v * b[0] for v in a]
            else:
                term = A.mult_vec(a, b)
            for r in range(dim_out):
                acc[r] += _shuffle_sign(S) * term[r]
        cols.append(acc)
    return MultiMap(A, k + l, QMat.from_columns(dim_out, cols),
                    scalar=scalar_out, check=False)


def loop_insertion(K, phi):
    """Insertion into the first slot, shuffled over the remaining slots."""
    import itertools

    from ncforms.linalg import QMat
    from ncforms.schouten import MultiMap
    A = K.algebra
    m, kappa, p = A.dim, K.arity, phi.arity
    if p == 0:
        return MultiMap.zeros(A, kappa - 1, scalar=phi.scalar)
    n = kappa - 1 + p
    cols = []
    for flat in range(m ** n):
        I = _digits(flat, m, n)
        acc = [Fraction(0)] * phi.target_dim
        for S in itertools.combinations(range(n), kappa):
            rest = tuple(I[t] for t in range(n) if t not in S)
            w = K.value(tuple(I[t] for t in S))
            term = loop_value_with_first(phi, w, rest)
            for r in range(phi.target_dim):
                acc[r] += _shuffle_sign(S) * term[r]
        cols.append(acc)
    return MultiMap(A, n, QMat.from_columns(phi.target_dim, cols),
                    scalar=phi.scalar, check=False)


def loop_alternation(mm):
    """(1/k!) sum_p sign(p) mm(e_{I[p[0]]}, ..), one basis tuple and one
    permutation at a time, the sign from sympy."""
    import itertools
    import math

    from ncforms.linalg import QMat
    from ncforms.schouten import MultiMap
    m, k = mm.algebra.dim, mm.arity
    cols = []
    for flat in range(m ** k):
        I = _digits(flat, m, k)
        acc = [Fraction(0)] * mm.target_dim
        for perm in itertools.permutations(range(k)):
            sign = Permutation(list(perm)).signature()
            val = mm.value(tuple(I[t] for t in perm))
            for r in range(mm.target_dim):
                acc[r] += sign * val[r]
        cols.append([v / math.factorial(k) for v in acc])
    return MultiMap(mm.algebra, k, QMat.from_columns(mm.target_dim, cols),
                    scalar=mm.scalar, check=False)


def loop_tensor_hom_from_values(tensor, module, values):
    """(i, J, l) |-> e_i . values(J) . e_l, one matmul per basis element."""
    from ncforms.linalg import qmat_hstack
    m = tensor.algebra.dim
    mid = values.shape[1]
    cols = []
    for idx in range(tensor.dim):
        rest, l = divmod(idx, m)
        i, J = divmod(rest, mid)
        cols.append(kron_dense(module.left[i]) @ kron_dense(module.right[l]) @ values.col(J))
    return qmat_hstack(module.dim, cols)


def loop_cochain_to_hom(c):
    """Column (i, J) is e_i . c(J), one matmul per basis form."""
    from ncforms.forms import form_space
    from ncforms.linalg import qmat_hstack
    sp = form_space(c.module.algebra, c.arity)
    cols = []
    for idx in range(sp.dim):
        i, J = sp.tuple_of(idx)
        cols.append(kron_dense(c.module.left[i]) @ c.value(J))
    return qmat_hstack(c.module.dim, cols)


def tensor_hom_basis(tensor, module):
    """Basis of all bimodule homomorphisms out of the free bimodule: the
    unit value at (r, J) on the generator (0; J; 0), J-major."""
    from ncforms.hochschild import tensor_hom_from_values
    from ncforms.linalg import QMat
    mid = tensor.dim // (tensor.algebra.dim ** 2)
    return [tensor_hom_from_values(tensor, module, QMat.from_coo(
        (module.dim, mid), [(r, flat, 1)]))
        for flat in range(mid) for r in range(module.dim)]


def loop_comparison_image(algebra, n, module):
    """Each basis hom of the free bimodule times the whole comparison map,
    read back as a cochain vector of ``Fraction`` entries."""
    from ncforms.hochschild import (cochain_dim, comparison_cochain, hom_to_cochain,
                                    tensor_module)
    from ncforms.linalg import Subspace
    comp = loop_cochain_to_hom(comparison_cochain(algebra, n))
    gens = [hom_to_cochain(module, n, psi @ comp).to_vector()
            for psi in tensor_hom_basis(tensor_module(algebra, n), module)]
    return Subspace.from_generators(cochain_dim(module, n), gens)


# ---------------------------------------------------------------------------
# Per-basis loops of the coboundary and the Leibniz conditions.
#
# ``hochschild.coboundary``, ``algebra.derivation_defect`` and
# ``schouten.first_slot_leibniz`` apply the Kronecker term lists that their
# kernels are eliminated from (``linalg.kron_apply``), and
# ``NormalizedCochain.evaluate`` is one product with the Kronecker product
# of the arguments.  These are the earlier loops over basis tuples and
# pairs, with ``Fraction``-scaled columns.
# ---------------------------------------------------------------------------


def loop_coboundary(c):
    """(dc)(K) column by column: the head action, the merged products of
    adjacent entries (unit components dropped) and the tail action."""
    from ncforms.hochschild import NormalizedCochain
    from ncforms.linalg import digits_at, qmat_hstack
    module = c.module
    A = module.algebra
    m, n = A.dim, c.arity
    cols = []
    for flat in range((m - 1) ** (n + 1)):
        K = digits_at(flat, m - 1, n + 1, 1)
        acc = kron_dense(module.left[K[0]]) @ c.value(K[1:])
        for t in range(n):
            sign = -1 if (t + 1) % 2 else 1
            prod = structure_table(A)[K[t]][K[t + 1]]
            for p in range(1, m):
                if prod[p]:
                    merged = K[:t] + (p,) + K[t + 2:]
                    acc = acc + c.value(merged).scale(sign * prod[p])
        sign = -1 if (n + 1) % 2 else 1
        cols.append(acc + (kron_dense(module.right[K[-1]]) @ c.value(K[:-1])).scale(sign))
    return NormalizedCochain(module, n + 1, qmat_hstack(module.dim, cols))


def loop_mult_vec(algebra, u, v):
    """The product of two coefficient vectors, term by term over the
    structure constants."""
    from fractions import Fraction
    m = algebra.dim
    out = [Fraction(0)] * m
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            for k, c in enumerate(structure_table(algebra)[i][j]):
                out[k] += Fraction(ui) * vj * c
    return out


def loop_derivation_defect(mod, mat):
    """The first pair (i, j), i-major, where D(e_i e_j) differs from
    e_i.D(e_j) + D(e_i).e_j, or None."""
    from ncforms.linalg import qmat_sum
    A = mod.algebra
    for i in range(A.dim):
        di = mat.col(i)
        for j in range(A.dim):
            dj = mat.col(j)
            dij = qmat_sum([mat.col(k).scale(structure_table(A)[i][j][k])
                            for k in range(A.dim)])
            if dij != kron_dense(mod.left[i]) @ dj + kron_dense(mod.right[j]) @ di:
                return i, j
    return None


def loop_first_slot_leibniz(K):
    """a |-> K(a, rest) is a derivation, one rest-tuple at a time."""
    from ncforms.linalg import QMat
    M = K.algebra.regular_bimodule()
    stride = K.algebra.dim ** (K.arity - 1)
    return all(loop_derivation_defect(M, QMat(K.data.num[:, flat::stride], K.data.den))
               is None for flat in range(stride))


def loop_cochain_evaluate(c, *args):
    """The sum over bar tuples J of c(J) times the product of the
    arguments' J-coordinates."""
    from ncforms.linalg import QMat, digits_at
    m = c.module.algebra.dim
    acc = QMat.zeros(c.module.dim, 1)
    for flat in range(c.data.shape[1]):
        J = digits_at(flat, m - 1, c.arity, 1)
        coeff = Fraction(1)
        for t, j in enumerate(J):
            coeff *= Fraction(args[t][j])
        if coeff:
            acc = acc + c.data.col(flat).scale(coeff)
    return acc.column_fractions(0)


# ---------------------------------------------------------------------------
# Solves and homology over Fraction rows.
#
# ``linalg.solve_linear`` solves A X = B for a whole block of right-hand
# sides in one integer elimination, and ``forms.de_rham_homology`` reads the
# induced ranks from sums of subspaces.  These are the earlier versions: one
# Fraction solve per right-hand side, and the induced differentials built
# coordinate by coordinate on the free coordinates of each quotient.
# ---------------------------------------------------------------------------


def fraction_solve_linear(rows, rhs):
    """One solution of A x = b (free unknowns 0), or None if inconsistent."""
    ncols = len(rows[0])
    red = FractionRowReducer(ncols + 1)
    for r, v in zip(rows, rhs):
        red.add_dense([*r, v])
    if ncols in red.pivots():
        return None
    sol = [Fraction(0)] * ncols
    for p in red.pivots():
        sol[p] = red.rows[p].get(ncols, Fraction(0))
    return sol


def loop_de_rham_homology(algebra, truncation):
    """The commutator quotient homology, with each induced differential
    reduced modulo the next commutator space column by column."""
    from ncforms.forms import commutator_subspace, form_space
    N = truncation
    comm = [commutator_subspace(algebra, r) for r in range(N + 1)]
    quot_dims = [form_space(algebra, r).dim - comm[r].dim for r in range(N + 1)]
    reducers, frees = [], []
    for r in range(N + 1):
        red = FractionRowReducer(form_space(algebra, r).dim)
        for row in comm[r].basis:
            red.add_dense(row)
        reducers.append(red)
        frees.append([t for t in range(form_space(algebra, r).dim)
                      if t not in red.rows])
    ranks, kernels = [], []
    for r in range(N):
        dmat = form_space(algebra, r).d_matrix
        red_im = FractionRowReducer(form_space(algebra, r + 1).dim)
        for t in frees[r]:
            rep = reducers[r + 1].reduce_dense(dmat.column_fractions(t))
            red_im.add_dense([rep[u] for u in frees[r + 1]])
        ranks.append(red_im.dim)
        kernels.append(quot_dims[r] - red_im.dim)
    dims = [kernels[p] - (ranks[p - 1] if p >= 1 else 0) for p in range(N)]
    dN = form_space(algebra, N).d_matrix
    red_top = FractionRowReducer(form_space(algebra, N + 1).dim)
    rank_top = sum(red_top.add_dense(dN.column_fractions(t)) for t in frees[N])
    lower_N = max(0, len(frees[N]) - rank_top - ranks[N - 1])
    return {
        "truncation": N,
        "homology_dims": dims,
        "top_degree_lower_bound": lower_N,
        "top_degree_incomplete": True,
        "quotient_dims": quot_dims,
        "commutator_dims": [c.dim for c in comm],
    }


def stacked_multiplication_matrix(algebra, n):
    """mu^n with mu^2 stacked from the left actions on every call, then
    mu^(l+1) = mu^2 (mu^l (x) id), each step reduced."""
    from ncforms.linalg import QMat, qmat_hstack
    m = algebra.dim
    mu2 = qmat_hstack(m, algebra.left)
    mu = QMat.eye(m)
    for _ in range(n - 1):
        mu = (mu2 @ mu.kron(QMat.eye(m))).reduced()
    return mu


# ---------------------------------------------------------------------------
# The projection calculus by kernel elimination.
#
# check_projection_calculus reads [P,P] from the projection, builds each
# ideal component once from the one below and certifies "ideal = functor
# kernel" by trace.  This is the route it replaced: every call brackets
# afresh, rebuilds the ideal from I_1 with every basis one-form, compares it
# with an eliminated kernel of Omega_k(P) and decides involutivity on a
# rebuilt I_2.
# ---------------------------------------------------------------------------


def recursive_ideal_component(dist, r):
    """I_r = Omega_1 I_{r-1} + I_{r-1} Omega_1, one products call per basis
    one-form and per column of I_{r-1}, rebuilt down to I_1 on every call."""
    from ncforms.forms import form_space, products
    from ncforms.linalg import QMat, RowReducer
    if r == 1:
        return dist.space
    A = dist.algebra
    P = recursive_ideal_component(dist, r - 1).row_matrix().T
    one = QMat.eye(form_space(A, 1).dim)
    red = RowReducer(form_space(A, r).dim)
    for i in range(one.shape[1]):
        red.add_columns(products(A, one.col(i), 1, P, r - 1))
    for c in range(P.shape[1]):
        red.add_columns(products(A, P.col(c), r - 1, one, 1))
    return red.subspace()


def functor_kernel(algebra, ext, k):
    """ker Omega_k(P) for the endomorphism ext of Omega_1, by elimination."""
    from ncforms.connections import induced_endomorphism
    from ncforms.forms import form_space
    from ncforms.linalg import nullspace
    omega = induced_endomorphism(algebra, ext, k)[k]
    return nullspace(form_space(algebra, k).dim, omega.sparse_rows())


def rebuilt_involutive(dist):
    """d(dist) inside a freshly rebuilt I_2."""
    from ncforms.forms import form_space
    from ncforms.linalg import subspace_from_columns
    d1 = form_space(dist.algebra, 1).d_matrix
    return subspace_from_columns(d1 @ dist.space.row_matrix().T).is_subspace_of(
        recursive_ideal_component(dist, 2))


def kernel_projection_calculus(p, N):
    """The report of check_projection_calculus, every part recomputed."""
    from ncforms.connections import Distribution, Projection, induced_endomorphism
    from ncforms.fieldforms import FieldValuedForm, fn_bracket, identity_one_form
    from ncforms.forms import form_space
    from ncforms.linalg import QMat
    A = p.algebra
    d0, d1 = form_space(A, 0).d_matrix, form_space(A, 1).d_matrix

    def curvature(chi):
        ext = fn_bracket(chi, chi).extension()
        return (FieldValuedForm(A, 2, ext @ chi.delta, check=False),
                FieldValuedForm(A, 2, ext @ (d0 - chi.delta), check=False))

    R, Rbar = curvature(p.chi)
    fn = fn_bracket(p.chi, p.chi)
    ext = p.ext
    ext_bar = QMat.eye(ext.shape[0]) - ext
    omega_p = induced_endomorphism(A, ext, max(N, 2))
    omega_pb = induced_endomorphism(A, ext_bar, max(N, 2))
    report = {}
    report["curvature_formula"] = (
        R.extension() == (omega_pb[2] @ d1 @ ext).scale(-2))
    report["cocurvature_formula"] = (
        Rbar.extension() == (omega_p[2] @ d1 @ ext_bar).scale(-2))
    report["sum_is_bracket"] = (R + Rbar == fn)
    pbar = Projection(identity_one_form(A) - p.chi)
    report["cocurvature_is_complement_curvature"] = (curvature(pbar.chi)[0] == Rbar)
    kerP = Distribution(A, functor_kernel(A, ext, 1), check=False)
    imP = p.image()
    report["kernel_ideal_is_functor_kernel"] = all(
        recursive_ideal_component(kerP, k) == functor_kernel(A, ext, k)
        for k in range(1, N + 1))
    report["image_ideal_is_complement_kernel"] = all(
        recursive_ideal_component(imP, k) == functor_kernel(A, ext_bar, k)
        for k in range(1, N + 1))
    report["curvature_zero_iff_image_involutive"] = (
        R.is_zero() == rebuilt_involutive(imP))
    report["cocurvature_zero_iff_kernel_involutive"] = (
        Rbar.is_zero() == rebuilt_involutive(kerP))
    report["all"] = all(report.values())
    return report


# ---------------------------------------------------------------------------
# Bases read as Fraction lists, and End(Omega_1) as a commutant.
#
# ``field_valued_form_space``, ``polyderivation_space`` and
# ``form_hom_matrices`` read their kernel through ``Subspace.unvec_basis``,
# columns sliced from ``basis_matrix()``; ``bimodule_endomorphism_space`` is
# the span of the extensions of the degree-1 fields.  These are the routes
# they replaced: each basis vector read from ``Subspace.basis`` as Fractions
# and packed into a QMat by ``QMat.column``, and End(Omega_1) solved as the
# matrices commuting with both actions.
# ---------------------------------------------------------------------------


def fraction_unvec_basis(space, nrows, ncols):
    """``Subspace.unvec_basis`` through the Fraction basis."""
    from ncforms.linalg import QMat

    return [QMat.column(vec).unvec(nrows, ncols) for vec in space.basis]


def commutant_endomorphism_space(algebra):
    """Basis of End^A_A(Omega_1) as the kernel of the commutant system:
    M E - E M = 0 on E[i, j] at index i*n + j, rows M (x) I - I (x) M^T for
    every action but the unit's; each matrix over its pivot entry."""
    import itertools

    from ncforms.forms import form_space
    from ncforms.linalg import QMat, kron_rows, nullspace

    sp = form_space(algebra, 1)
    n = sp.dim
    rows = itertools.chain.from_iterable(
        kron_rows([(M, n), (n, -M.T)])[1]
        for M in map(kron_dense, (*sp.left[1:], *sp.right[1:])))
    ker = nullspace(n * n, rows)
    return [QMat.from_coo((n, n), ((c // n, c % n, v) for c, v in row.items()), row[p])
            for p, row in zip(ker.pivots, ker.rows)]


# ---------------------------------------------------------------------------
# Structural operators built as dense squares.
#
# A form space's actions and d, the free bimodule's actions and the
# commutator spaces C_r are Kronecker term lists, applied by
# ``linalg.kron_apply`` and eliminated by ``linalg.kron_rows``.  These are
# the builders they replaced: the right action as a per-entry loop over the
# merge formula, the left action and the free bimodule's actions as
# Kronecker products with an identity, d's matrix, and C_r from the dense
# differences L_i - R_i.
# ---------------------------------------------------------------------------


def kron_dense(terms):
    """The matrix of a term list as the sum of its Kronecker products (an
    int factor n is I_n), each formed with ``QMat.kron``."""
    import functools

    from ncforms.linalg import QMat, qmat_sum
    return qmat_sum(functools.reduce(QMat.kron, (
        f if isinstance(f, QMat) else QMat.eye(f) for f in t)) for t in terms)


_RIGHT_ACTIONS = weakref.WeakKeyDictionary()


def dense_right_action(space, b):
    """:func:`loop_right_action_matrix`, built once per space (the space
    still dies with its algebra)."""
    mats = _RIGHT_ACTIONS.setdefault(space, {})
    if b not in mats:
        mats[b] = loop_right_action_matrix(space, b)
    return mats[b]


def loop_right_action_matrix(space, b):
    """omega . e_b by merging b into the word and contracting once.

    (a0 da1...dan).b = sum_{t=1..n} (-1)^{n-t} a0 da1...d(a_t a_{t+1})...da_{n+1}
                       + (-1)^n (a0 a1) da2...da_{n+1},   a_{n+1} = b,
    where each merged slot d(e_p e_q) expands through the structure
    constants and unit components vanish under d.  Each term carries one
    structure constant: integers over the algebra's common denominator.
    """
    from ncforms.linalg import QMat
    A = space.algebra
    n = space.degree
    if n == 0:
        return A.right[b]
    den = A.mu2.den
    C = [[[(k, int(c * den)) for k, c in enumerate(cs) if c] for cs in row]
         for row in structure_table(A)]
    entries = []
    for idx in range(space.dim):
        i0, J = space.tuple_of(idx)
        word = J + (b,)  # a_1 .. a_{n+1}
        for t in range(1, n + 1):
            sign = (-1) ** (n - t)
            pre, post = word[:t - 1], word[t + 1:]
            if 0 in post:
                continue
            for k, v in C[word[t - 1]][word[t]]:
                if k:  # the unit component dies under d
                    entries.append((space.index_of(i0, pre + (k,) + post),
                                    idx, sign * v))
        # last term: leading coefficients multiply
        if b:
            sign = (-1) ** n
            for k, v in C[i0][word[0]]:
                entries.append((space.index_of(k, word[1:]), idx, sign * v))
    return QMat.from_coo((space.dim, space.dim), entries, den)


def kron_left_action_matrix(space, i):
    """L_i (x) I on degree-k forms, the identity factor built."""
    from ncforms.linalg import QMat
    L = space.algebra.left[i]
    return L if space.degree == 0 else L.kron(QMat.eye(space.dim // space.algebra.dim))


def kron_tensor_actions(algebra, n):
    """The free bimodule's left and right actions L_i (x) I and I (x) R_i."""
    from ncforms.linalg import QMat
    m = algebra.dim
    mid = (m - 1) ** (n - 1)
    return ([L.kron(QMat.eye(mid * m)) for L in algebra.left],
            [QMat.eye(m * mid).kron(R) for R in algebra.right])


def dense_commutator_subspace(algebra, r):
    """C_r from two block products for the [d e_j, h] and the dense
    differences L_i - R_i for the [e_i, h]."""
    from ncforms.forms import d_slots, form_space, products
    from ncforms.linalg import QMat, RowReducer
    sp = form_space(algebra, r)
    red = RowReducer(sp.dim)
    if r:
        n, m = form_space(algebra, r - 1).dim, algebra.dim
        de = d_slots(form_space(algebra, 0).d_matrix)
        hde = products(algebra, None, r - 1, de, 1)  # column h*(m-1) + j
        hde = QMat(hde.num.reshape(sp.dim, n, m - 1).transpose(0, 2, 1)
                   .reshape(sp.dim, n * (m - 1)), hde.den)
        red.add_columns(products(algebra, de, 1, QMat.eye(n), r - 1)
                        - hde.scale((-1) ** (r - 1)))
    for b in range(algebra.dim):
        red.add_columns(kron_left_action_matrix(sp, b) - loop_right_action_matrix(sp, b))
    return red.subspace()


# ---------------------------------------------------------------------------
# Wedge and insertion as numpy contractions of the numerators.
#
# ``schouten`` now takes each value block from one ``linalg`` product
# (``kron_apply``) and permutes columns with one signed sum.  These are the
# earlier bodies: ``np.kron`` (and ``np.dot`` by mu^2) or ``np.tensordot``
# on the numerators, int64 or object chosen by a hand-made bound, then
# one signed column permutation per shuffle.
# ---------------------------------------------------------------------------


def _numpy_shuffle_sum(T, m, n, k, lead):
    """sum_S sign(S) T[:, idx_S] over the k-subsets S of range(n), where
    column I of T[:, idx_S] is T's column at the tuple (I_S, I_rest) if
    lead, else at (I_rest, I_S)."""
    import itertools

    import numpy as np

    from ncforms.schouten import _permuted_columns
    out = np.zeros_like(T)
    for S in itertools.combinations(range(n), k):
        rest = tuple(t for t in range(n) if t not in S)
        perm = S + rest if lead else rest + S
        out += _shuffle_sign(S) * T[:, _permuted_columns(m, n, perm)]
    return out


def numpy_wedge(phi, psi):
    """Shuffle wedge from np.kron of the numerators, multiplied out by mu^2
    for two algebra values."""
    import math

    import numpy as np

    from ncforms.linalg import QMat, _exact_pair
    from ncforms.schouten import MultiMap
    A = phi.algebra
    k, l = phi.arity, psi.arity
    multiply = not (phi.scalar or psi.scalar)
    mult = A.mu2 if multiply else QMat.eye(1)
    count = math.comb(k + l, k) * mult.shape[1] * mult.max_abs
    x, y = _exact_pair(phi.data, psi.data,
                       lambda x, y: count * x.max_abs * y.max_abs)
    T = np.kron(x.num, y.num)
    if multiply:
        T = np.dot(mult.num.astype(T.dtype), T)
    data = QMat(_numpy_shuffle_sum(T, A.dim, k + l, k, lead=True),
                x.den * y.den * mult.den)
    return MultiMap(A, k + l, data.canonical(), scalar=phi.scalar and psi.scalar,
                    check=False)


def numpy_insertion(K, phi):
    """Insertion from np.tensordot of phi's first slot with K's values."""
    import math

    import numpy as np

    from ncforms.linalg import QMat, _exact_pair
    from ncforms.schouten import MultiMap
    A = K.algebra
    m, kappa, p = A.dim, K.arity, phi.arity
    if p == 0:
        return MultiMap.zeros(A, kappa - 1, scalar=phi.scalar)
    n = kappa - 1 + p
    count = math.comb(n, kappa) * m
    x, y = _exact_pair(phi.data, K.data,
                       lambda x, y: count * x.max_abs * y.max_abs)
    # T has column (rest, S) = phi(K(e_S), e_rest)
    T = np.tensordot(x.num.reshape(phi.target_dim, m, -1), y.num, axes=(1, 0))
    data = QMat(_numpy_shuffle_sum(T.reshape(phi.target_dim, -1), m, n, kappa,
                                   lead=False), x.den * y.den)
    return MultiMap(A, n, data.canonical(), scalar=phi.scalar, check=False)


# ---------------------------------------------------------------------------
# Text front end before the regex lexer: a character scanner and int()-based
# rational parsing.  The lexer and parse_scalar must agree with them apart
# from the documented tightenings (ASCII-only rationals, a DslError for any
# character no token starts, the true EOF column after a comment).
# ---------------------------------------------------------------------------


def tokenize(text):
    from ncforms.dsl import DslError, Token

    punct, name_cont = "{}(),;*=:+-", "_.^"
    toks = []
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
        if ch in punct:
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
            while j < n and (text[j].isalnum() or text[j] in name_cont):
                j += 1
            toks.append(Token("NAME", text[i:j], None, line, col))
            col += j - i
            i = j
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("EOF", "end of input", None, line, col))
    return toks


def parse_scalar(text):
    from ncforms.linalg import LinAlgError, make_scalar

    if not isinstance(text, str):
        raise LinAlgError(f"rational literal {text!r} is not a string")
    s = text.strip()
    if "/" in s:
        p_str, _, q_str = s.partition("/")
        try:
            p, q = int(p_str), int(q_str)
        except ValueError:
            raise LinAlgError(f"malformed rational literal {text!r}") from None
        return make_scalar(p, q)
    try:
        return Fraction(int(s))
    except ValueError:
        raise LinAlgError(f"malformed rational literal {text!r}") from None


# ---------------------------------------------------------------------------
# Algebra elements as Fraction tuples, the arithmetic ``algebra.Element``
# had before it held a QMat column; products by the structure-constant loop.
# ---------------------------------------------------------------------------


class TupleElement:
    """An algebra element as its coefficient tuple, every operation
    entry by entry."""

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(Fraction(v) for v in coeffs)

    def __add__(self, other):
        return TupleElement(self.algebra, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return TupleElement(self.algebra, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return TupleElement(self.algebra, (-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, TupleElement):
            return TupleElement(self.algebra,
                                loop_mult_vec(self.algebra, self.coeffs, other.coeffs))
        return TupleElement(self.algebra, (a * Fraction(other) for a in self.coeffs))

    def __rmul__(self, other):
        return TupleElement(self.algebra, (Fraction(other) * a for a in self.coeffs))

    def __pow__(self, n):
        out = TupleElement(self.algebra, [int(k == 0) for k in range(self.algebra.dim)])
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (isinstance(other, TupleElement) and self.algebra is other.algebra
                and self.coeffs == other.coeffs)


# ---------------------------------------------------------------------------
# Rational roots from divisors listed by scanning 1..|n|, the candidate
# loop ``connections._rational_roots`` had before it factored.
# ---------------------------------------------------------------------------


def range_divisors(n):
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def range_rational_roots(p):
    """(root, multiplicity) of each rational root of p (ascending
    coefficients), candidates +-a/b over the scanned divisors."""
    import math
    from ncforms.connections import _poly_divmod
    p = list(p)
    den = math.lcm(*[c.denominator for c in p]) if p else 1
    ints = [int(c * den) for c in p]
    lead = ints[-1]
    const = next((c for c in ints if c), 0)
    cands = {Fraction(0)}
    if const and lead:
        for a in range_divisors(const):
            for b in range_divisors(lead):
                cands.add(Fraction(a, b))
                cands.add(Fraction(-a, b))
    out = []
    for c in sorted(cands):
        mult = 0
        q = list(p)
        while True:
            qq, r = _poly_divmod(q, [-c, Fraction(1)])
            if r:
                break
            mult += 1
            q = qq
        if mult:
            out.append((c, mult))
    return out
