"""Hochschild cohomology of a unital algebra, computed two independent ways.

Normalized n-cochains are multilinear maps on Abar^n (Abar = the algebra
modulo its unit line) with values in a bimodule M.  A cochain is stored as a
matrix whose column at the flat index of (j_1..j_n) is the value on the basis
tuple (e_{j_1},..,e_{j_n}), with j_t in 1..m-1; normalization is structural,
mirroring the d-slot indexing of form bases.

Degree-n cocycles correspond to bimodule homomorphisms out of the degree-n
form space: the universal cocycle sends a basis tuple J to the basis form
(0; J), every bimodule homomorphism Phi yields the cocycle Phi composed with
it, and conversely a cocycle c extends left-linearly to the homomorphism
(i, J) |-> e_i . c(J).  Coboundaries are exactly the homomorphisms that
factor through the comparison homomorphism into the free bimodule
A (x) Abar^(n-1) (x) A.  Cohomology is computed both from this picture (hom
space modulo the image of composition with the comparison map) and directly
from the normalized complex; the two dimensions must agree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .algebra import Algebra, Bimodule
from .forms import form_space
from .linalg import (QMat, QVector, Subspace, checked_column, flat_index, kron_apply,
                     kron_matrix, kron_rows, kron_transpose, multilinear, nullspace,
                     qmat_hstack, solve_linear, subspace_from_columns)


class HochschildError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bar tuples (j_1..j_n), j in 1..m-1: the tuple codec with base m-1, lo 1
# ---------------------------------------------------------------------------


def _bar_dim(m: int, n: int) -> int:
    return (m - 1) ** n


# ---------------------------------------------------------------------------
# Normalized cochains
# ---------------------------------------------------------------------------


class NormalizedCochain(QVector):
    """Multilinear map Abar^n -> M, as the matrix of values on basis tuples."""

    _field, _error = "data", HochschildError

    def __init__(self, module: Bimodule, arity: int, data: QMat):
        if arity < 0:
            raise HochschildError("cochain arity must be >= 0")
        m = module.algebra.dim
        if data.shape != (module.dim, _bar_dim(m, arity)):
            raise HochschildError(
                f"cochain data must be {module.dim} x {_bar_dim(m, arity)}, "
                f"got {data.shape}")
        self.module = module
        self.arity = arity
        self.data = data

    @classmethod
    def zeros(cls, module: Bimodule, arity: int) -> "NormalizedCochain":
        m = module.algebra.dim
        return cls(module, arity, QMat.zeros(module.dim, _bar_dim(m, arity)))

    @classmethod
    def from_vector(cls, module: Bimodule, arity: int,
                    vec: Sequence[Fraction]) -> "NormalizedCochain":
        nJ, dM = _bar_dim(module.algebra.dim, arity), module.dim
        col = checked_column(vec, nJ * dM, HochschildError, "the cochains")
        return cls(module, arity, col.unvec(dM, nJ))

    def to_vector(self) -> list[Fraction]:
        """The values one tuple after another: entry (r, J) at J*dim M + r."""
        return self.data.vec().column_fractions(0)

    def value(self, J: Sequence[int]) -> QMat:
        """Value on the basis tuple J, as a column over the module basis."""
        if len(J) != self.arity:
            raise HochschildError("tuple length does not match arity")
        return self.data.col(flat_index(J, self.module.algebra.dim - 1, 1))

    def evaluate(self, *args: Sequence[Fraction]) -> list[Fraction]:
        """Multilinear extension: the data on the tensor product of the bar parts."""
        if len(args) != self.arity:
            raise HochschildError("argument count does not match arity")
        cols = (checked_column(a, self.module.algebra.dim, HochschildError) for a in args)
        bars = (QMat(c.num[1:], c.den) for c in cols)
        return multilinear(self.data, *bars).column_fractions(0)

    def _space(self) -> tuple:
        # the module's actions, not its dim: tuple equality passes at once
        # for the same action matrices
        mod = self.module
        return (mod.algebra, tuple(mod.left), tuple(mod.right), self.arity)

    def _with(self, data: QMat) -> "NormalizedCochain":
        return NormalizedCochain(self.module, self.arity, data)

    def __repr__(self) -> str:
        return f"NormalizedCochain(arity={self.arity}, module={self.module!r})"


def cochain_dim(module: Bimodule, n: int) -> int:
    return _bar_dim(module.algebra.dim, n) * module.dim


# ---------------------------------------------------------------------------
# The coboundary operator
# ---------------------------------------------------------------------------


def coboundary(c: NormalizedCochain) -> NormalizedCochain:
    """(dc)(a_1..a_{n+1}) = a_1 c(a_2..) + sum (-1)^t c(.., a_t a_{t+1}, ..)
    + (-1)^{n+1} c(a_1..a_n) a_{n+1}: the terms of :func:`coboundary_terms`
    applied to the cochain vector."""
    module, n = c.module, c.arity
    nK, dM = _bar_dim(module.algebra.dim, n + 1), module.dim
    # the height is given for the field, whose degree-0 term list is empty
    out = kron_apply(coboundary_terms(module, n), c.data.vec(), nK * dM)
    return NormalizedCochain(module, n + 1, out.unvec(dM, nK))


def coboundary_terms(module: Bimodule, n: int) -> list[tuple]:
    """The Kronecker terms of the degree-n coboundary on cochain vectors (entry
    (r, J) at J * dim M + r): row (flat K) * dim M + r is coordinate r at K.

    With u_a the unit column of a in Abar and Cbar the (m-1)^2 x (m-1)
    structure constants of Abar x Abar -> Abar, the terms are the head
    u_a (x) I (x) L_a, the merges (-1)^(t+1) I (x) Cbar (x) I at slots
    t, t+1, and the tail (-1)^(n+1) I (x) u_a (x) R_a (the module's terms
    spliced in); unit components of the merged products drop out because
    the cochain is normalized.
    """
    A = module.algebra
    m, dM, nJ = A.dim, module.dim, _bar_dim(A.dim, n)
    units = [QMat.from_coo((m - 1, 1), [(a - 1, 0, 1)]) for a in range(1, m)]
    mu = A.mu2.num.reshape(m, m, m)            # [k, a, b]: e_a e_b at e_k
    cbar = QMat(mu[1:, 1:, 1:].reshape(m - 1, (m - 1) ** 2).T.copy(), A.mu2.den)
    terms = [(u, nJ, *t) for u, L in zip(units, module.left[1:]) for t in L]
    terms += [((m - 1) ** t, -cbar if t % 2 == 0 else cbar, (m - 1) ** (n - 1 - t), dM)
              for t in range(n)]
    terms += [(nJ, u.scale((-1) ** (n + 1)), *t) for u, R in zip(units, module.right[1:])
              for t in R]
    return terms


def cocycle_space(module: Bimodule, n: int) -> Subspace:
    """Kernel of the degree-n coboundary, in cochain-vector coordinates."""
    _, rows = kron_rows(coboundary_terms(module, n))
    return nullspace(cochain_dim(module, n), rows)


def complex_dims(module: Bimodule, n: int,
                 cocycles: Optional[dict[int, int]] = None) -> dict:
    """Cocycle, coboundary and cohomology dimensions from the complex itself.
    ``cocycles`` (degree k -> dim Z^k) is read and filled, so one dict passed
    for n = 0, 1, ... eliminates each cocycle space once."""
    z = {} if cocycles is None else cocycles
    for k in {max(n - 1, 0), n} - z.keys():
        z[k] = cocycle_space(module, k).dim
    b = cochain_dim(module, n - 1) - z[n - 1] if n else 0
    return {"cocycles": z[n], "coboundaries": b, "cohomology": z[n] - b}


# ---------------------------------------------------------------------------
# Cocycles <-> bimodule homomorphisms out of the form spaces
# ---------------------------------------------------------------------------


def universal_cocycle(algebra: Algebra, n: int) -> NormalizedCochain:
    """The cocycle J |-> basis form (0; J) with values in degree-n forms."""
    if n < 1:
        raise HochschildError("the universal cocycle needs arity >= 1")
    sp = form_space(algebra, n)
    nJ = _bar_dim(algebra.dim, n)
    # index_of(0, J) == flat J, big-endian
    return NormalizedCochain(sp, n, QMat.from_coo(
        (sp.dim, nJ), ((flat, flat, 1) for flat in range(nJ))))


def cochain_to_hom(c: NormalizedCochain) -> QMat:
    """Left-linear extension: column (i, J) is e_i . c(J), so the column
    block of index i is L_i applied to the cochain matrix.

    The result commutes with the left actions by construction; it commutes
    with the right actions exactly when c is a cocycle.
    """
    return qmat_hstack(c.module.dim, [kron_apply(L, c.data) for L in c.module.left])


def hom_to_cochain(module: Bimodule, n: int, hom: QMat) -> NormalizedCochain:
    """Compose a map out of degree-n forms with the universal cocycle."""
    sp = form_space(module.algebra, n)
    if hom.shape != (module.dim, sp.dim):
        raise HochschildError("hom matrix shape mismatch")
    nJ = _bar_dim(module.algebra.dim, n)
    # the (0; J) block is the leading block of columns, in bar-tuple order
    data = QMat(hom.num[:, :nJ].copy(), hom.den).reduced()
    return NormalizedCochain(module, n, data)


def bimodule_hom_violation(src: Bimodule, tgt: Bimodule,
                           hom: QMat) -> Optional[dict]:
    """First basis witness where hom fails to commute with an action."""
    if hom.shape != (tgt.dim, src.dim):
        raise HochschildError("hom matrix shape mismatch")
    for side, src_acts, tgt_acts in (("left", src.left, tgt.left),
                                     ("right", src.right, tgt.right)):
        for i in range(src.algebra.dim):
            bad = (kron_apply(kron_transpose(src_acts[i]), hom.T).T
                   - kron_apply(tgt_acts[i], hom)).num.any(axis=0)
            if bad.any():
                return {"side": side, "algebra_index": i, "source_index": int(bad.argmax())}
    return None


def is_bimodule_hom(src: Bimodule, tgt: Bimodule, hom: QMat) -> bool:
    return bimodule_hom_violation(src, tgt, hom) is None


def form_hom_space(algebra: Algebra, n: int, module: Bimodule) -> Subspace:
    """Bimodule homomorphisms degree-n forms -> M, in generator coordinates.

    A left-module map is free on the generators (0; J); the right-module
    condition need only be imposed on those generators.  The coordinates of
    the result are exactly cochain vectors (the generator values), so this
    space can be compared verbatim with the cocycle space.

    For each p >= 1 the condition Phi((0; J) . e_p) = Phi(0; J) . e_p has
    rows I (x) R_p - sum_i W_{p,i}^T (x) L_i (the module's terms spliced in),
    where W_{p,i} is row block i of R_p on Omega_n applied to the generators.
    """
    m = algebra.dim
    sp = form_space(algebra, n)
    nJ = _bar_dim(m, n)
    gens = QMat.from_coo((sp.dim, nJ), ((J, J, 1) for J in range(nJ)))

    def rows(p: int) -> Iterator[dict[int, int]]:
        R = kron_apply(sp.right[p], gens)
        W = [QMat(-R.num[i * nJ:(i + 1) * nJ].T, R.den) for i in range(m)]
        return kron_rows([*((w, *t) for w, L in zip(W, module.left) for t in L),
                          *((nJ, *t) for t in module.right[p])])[1]

    return nullspace(nJ * module.dim,
                     itertools.chain.from_iterable(map(rows, range(1, m))))


def form_hom_matrices(algebra: Algebra, n: int, module: Bimodule) -> list[QMat]:
    """The homs of the canonical basis of :func:`form_hom_space`."""
    nJ = _bar_dim(algebra.dim, n)
    return [cochain_to_hom(NormalizedCochain(module, n, data))
            for data in form_hom_space(algebra, n, module).unvec_basis(module.dim, nJ)]


# ---------------------------------------------------------------------------
# The free bimodule A (x) Abar^(n-1) (x) A and the comparison homomorphism
# ---------------------------------------------------------------------------


class TensorBimodule(Bimodule):
    """A (x) Abar^(x)(n-1) (x) A with the outer-factor actions.

    Basis (i, J, l): i, l over the algebra basis, J a bar-tuple of length
    n-1; flat index big-endian in that order.
    """

    def __init__(self, algebra: Algebra, n: int):
        if n < 1:
            raise HochschildError("tensor bimodule needs n >= 1")
        m = algebra.dim
        self.n = n
        self.middles = n - 1
        mid = _bar_dim(m, n - 1)
        super().__init__(algebra, m * mid * m, [[(L, mid * m)] for L in algebra.left],
                         [[(m * mid, R)] for R in algebra.right],
                         name=f"free{n}({algebra.name})", check=False)

    def index_of(self, i: int, J: Sequence[int], l: int) -> int:
        m = self.algebra.dim
        if not (0 <= i < m and 0 <= l < m):
            raise HochschildError("outer index out of range")
        if len(J) != self.middles:
            raise HochschildError("middle tuple length mismatch")
        return (i * _bar_dim(m, self.middles) + flat_index(J, m - 1, 1)) * m + l


def tensor_module(algebra: Algebra, n: int) -> TensorBimodule:
    return TensorBimodule(algebra, n)


def tensor_hom_from_values(tensor: TensorBimodule, module: Bimodule,
                           values: QMat) -> QMat:
    """The bimodule homomorphism with the given values on (0; J; 0).

    The tensor bimodule is free on those generators: (i, J, l) maps to
    e_i . values(J) . e_l.  ``values`` has one column per middle tuple.
    """
    m, dM = tensor.algebra.dim, module.dim
    mid = _bar_dim(m, tensor.middles)
    if values.shape != (dM, mid):
        raise HochschildError("generator value matrix shape mismatch")
    out = _stacked_actions(module) @ values
    num = out.num.reshape(m, m, dM, mid).transpose(2, 0, 3, 1)
    return QMat(num.reshape(dM, tensor.dim), out.den).reduced()


def _stacked_actions(module: Bimodule) -> QMat:
    """The m^2 products L_i R_l, the action of e_i (x) e_l on the free
    bimodule's generators, stacked: row (i * m + l) * dim M + s of them."""
    m, dM = module.algebra.dim, module.dim
    rights = qmat_hstack(dM, [kron_matrix(R) for R in module.right])
    LR = qmat_hstack(m * dM, [kron_apply(L, rights).T for L in module.left]).T
    num = LR.num.reshape(m, dM, m, dM).transpose(0, 2, 1, 3)
    return QMat(num.reshape(m * m * dM, dM), LR.den)


def unit_frame_cochain(algebra: Algebra, n: int) -> NormalizedCochain:
    """The (n-1)-cochain J |-> 1 (x) Jbar (x) 1 in the free bimodule."""
    tensor = tensor_module(algebra, n)
    m, mid = algebra.dim, _bar_dim(algebra.dim, n - 1)
    # (0, J, 0) is at flat index J * m
    return NormalizedCochain(tensor, n - 1, QMat.from_coo(
        (tensor.dim, mid), ((flat * m, flat, 1) for flat in range(mid))))


def comparison_cochain(algebra: Algebra, n: int) -> NormalizedCochain:
    """Coboundary of the unit-frame cochain: the cocycle represented by the
    comparison homomorphism."""
    return coboundary(unit_frame_cochain(algebra, n))


def universal_comparison_hom(algebra: Algebra, n: int) -> QMat:
    """The bimodule homomorphism degree-n forms -> A (x) Abar^(n-1) (x) A
    that represents the coboundary of the unit-frame cochain."""
    return cochain_to_hom(comparison_cochain(algebra, n))


def _factored_cochains(algebra: Algebra, n: int, module: Bimodule) -> QMat:
    """Column (J', r): the cochain vector of Psi after the comparison map, Psi
    the hom out of the free bimodule sending (i, J', l) to e_i e_r e_l.  A
    cochain reads only the generator columns, which for the comparison map
    are the comparison cochain (e_0 = 1 acts as the identity); so the matrix
    is sum_{i,l} lead_il^T (x) L_i R_l, lead_il the rows (i, ., l) of it."""
    m, dM = algebra.dim, module.dim
    lead = comparison_cochain(algebra, n).data
    mid, nJ = _bar_dim(m, n - 1), lead.shape[1]
    blocks = lead.num.reshape(m, mid, m, nJ).transpose(1, 3, 0, 2).reshape(mid * nJ, m * m)
    LR = _stacked_actions(module)
    out = QMat(blocks, lead.den) @ QMat(LR.num.reshape(m * m, dM * dM), LR.den)
    # rows (J', J), columns (s, r) -> rows (J, s), columns (J', r)
    num = out.num.reshape(mid, nJ, dM, dM).transpose(1, 2, 0, 3)
    return QMat(num.reshape(nJ * dM, mid * dM), out.den)


def comparison_image(algebra: Algebra, n: int, module: Bimodule) -> Subspace:
    """Homs out of degree-n forms that factor through the comparison map,
    in the same generator coordinates as form_hom_space."""
    return subspace_from_columns(_factored_cochains(algebra, n, module))


def is_coboundary(algebra: Algebra, n: int, module: Bimodule,
                  hom: QMat) -> Optional[dict]:
    """Factor a bimodule homomorphism through the comparison map, if possible.

    Returns {"hom": Psi, "cochain": psi} with Psi composed with the
    comparison map equal to ``hom`` and psi the (n-1)-cochain of generator
    values, or None when no factorization exists (a nontrivial class).
    """
    if n < 1:
        raise HochschildError("factorization needs arity >= 1")
    witness = bimodule_hom_violation(form_space(algebra, n), module, hom)
    if witness is not None:
        raise HochschildError(f"not a bimodule homomorphism: {witness}")
    # the cochain vector of hom: its generator columns, one after another
    sol = solve_linear(_factored_cochains(algebra, n, module),
                       hom_to_cochain(module, n, hom).data.vec())
    if sol is None:
        return None
    # unknowns are ordered middle-tuple major, module coordinate minor
    values = sol.unvec(module.dim, _bar_dim(algebra.dim, n - 1))
    psi_hom = tensor_hom_from_values(tensor_module(algebra, n), module, values)
    if psi_hom @ universal_comparison_hom(algebra, n) != hom:
        raise HochschildError("factorization check failed")  # pragma: no cover
    return {"hom": psi_hom,
            "cochain": NormalizedCochain(module, n - 1, values)}


# ---------------------------------------------------------------------------
# Cohomology, two routes
# ---------------------------------------------------------------------------


def cohomology_report(algebra: Algebra, module: Bimodule, n: int,
                      cocycles: Optional[dict[int, int]] = None) -> dict:
    """Both computations of dim H^n(A, M) side by side.

    Route one: bimodule homomorphisms out of degree-n forms modulo those
    factoring through the comparison map.  Route two: the normalized
    complex (``cocycles`` as in :func:`complex_dims`).  ``agree`` is the
    whole point.
    """
    if n < 0:
        raise HochschildError("cohomology degree must be >= 0")
    homs = form_hom_space(algebra, n, module)
    if n == 0:
        dim_istar = 0
    else:
        image = comparison_image(algebra, n, module)
        if not image.is_subspace_of(homs):
            raise HochschildError(
                "comparison image escaped the hom space")  # pragma: no cover
        dim_istar = image.dim
    direct = complex_dims(module, n, cocycles)
    forms_dim = homs.dim - dim_istar
    return {
        "n": n,
        "dim_hom": homs.dim,
        "dim_image_Istar": dim_istar,
        "dim_Hn_forms": forms_dim,
        "dim_Hn_complex": direct["cohomology"],
        "agree": forms_dim == direct["cohomology"],
    }


def cohomology_reports(algebra: Algebra, module: Bimodule, top: int) -> list[dict]:
    """:func:`cohomology_report` for n = 0..top, each cocycle space
    eliminated once."""
    cocycles: dict[int, int] = {}
    return [cohomology_report(algebra, module, n, cocycles) for n in range(top + 1)]


def routes_witness(rep: dict) -> str:
    """The two dimensions of one ``cohomology_report`` that disagree."""
    return (f"n = {rep['n']}: forms route gives {rep['dim_Hn_forms']}, "
            f"complex route gives {rep['dim_Hn_complex']}")
