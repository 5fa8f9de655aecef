"""Distributions in one-forms, projections with curvature, and bundles.

A distribution is a sub-bimodule of Omega_1.  Projections (idempotent
bimodule endomorphisms of Omega_1) split Omega_1 into image and kernel;
their curvature/cocurvature measure failure of involutivity of those two
distributions.  A bundle is a subalgebra B of A; horizontal forms are the
bimodule span of d(B), and a connection is a projection onto them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import Algebra, Bimodule, GroupAction, MathError, tensor_over_A
from .fieldforms import (
    FieldValuedForm, field_valued_form_space, fn_bracket, identity_one_form,
    insertion_compose, zero_field_valued_form,
)
from .forms import (Form, d_slots, form_space, multiplicative_extension, omega_functor,
                    products)
from .linalg import (
    QMat, RowReducer, Subspace, checked_column, is_idempotent_kernel, kron_apply, multilinear,
    nullspace, qmat_hstack, qmat_inverse, qmat_sum, solve_linear, subspace_from_columns,
)


class GeometryError(MathError):
    pass


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


class Distribution:
    """A sub-bimodule of Omega_1(A)."""

    def __init__(self, algebra: Algebra, space: Subspace, check: bool = True):
        self.algebra = algebra
        self.space = space
        self._ideal = [space]      # I_1, I_2, ...: see ideal_component
        if space.ambient != form_space(algebra, 1).dim:
            raise GeometryError("subspace does not live in Omega_1")
        if check and not is_distribution(algebra, space):
            raise GeometryError("subspace is not stable under the actions")

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, w: Form) -> bool:
        return self.space.contains(_omega1_column(self.algebra, w).column_fractions(0))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Distribution)
                and self.algebra is other.algebra
                and self.space == other.space)

    def __hash__(self):
        return hash((id(self.algebra), self.space))

    def __repr__(self) -> str:
        return f"Distribution(dim={self.dim} in Omega_1({self.algebra.name}))"


def _action_closure(algebra: Algebra, space: Subspace) -> Subspace:
    """The smallest subspace of Omega_1 containing space and stable under
    both actions: the whole block moved by every action at once, until
    the span stops growing."""
    sp = form_space(algebra, 1)
    while True:
        block = space.row_matrix().T
        grown = space + subspace_from_columns(qmat_hstack(sp.dim, [
            kron_apply(M, block) for M in sp.left[1:] + sp.right[1:]]))
        if grown.dim == space.dim:
            return space
        space = grown


def is_distribution(algebra: Algebra, space: Subspace) -> bool:
    if space.ambient != form_space(algebra, 1).dim:
        raise GeometryError("subspace does not live in Omega_1")
    return _action_closure(algebra, space).dim == space.dim


def _omega1_column(algebra: Algebra, g) -> QMat:
    """A generator of a distribution, a one-form of algebra or its
    coefficient vector, as a column."""
    sp = form_space(algebra, 1)
    if not isinstance(g, Form):
        return checked_column(g, sp.dim, GeometryError, f"Omega_1({algebra.name})")
    if g.space is not sp:
        raise GeometryError(f"a degree-{g.degree} form over {g.space.algebra.name} "
                            f"is not in Omega_1({algebra.name})")
    return g.vec


def bimodule_span(algebra: Algebra, generators) -> Distribution:
    """Smallest distribution containing the generators (vectors or forms)."""
    gens = subspace_from_columns(qmat_hstack(form_space(algebra, 1).dim, [
        _omega1_column(algebra, g) for g in generators]))
    return Distribution(algebra, _action_closure(algebra, gens), check=False)


def exact_span(algebra: Algebra, sub: Subspace) -> Distribution:
    """Bimodule span of d(sub) for a subspace of A."""
    gens = subspace_from_columns(form_space(algebra, 0).apply_d(sub.row_matrix().T))
    return Distribution(algebra, _action_closure(algebra, gens), check=False)


def globally_integrable(dist: Distribution, sub: Subspace) -> bool:
    """Is dist exactly the bimodule span of d(sub)?"""
    return dist == exact_span(dist.algebra, sub)


def ideal_component(dist: Distribution, r: int) -> Subspace:
    """Degree-r piece I_r of the two-sided graded ideal generated by dist.

    I_1 = dist and I_r = dA I_{r-1} + I_{r-1} dA: as I_{r-1} is a
    sub-bimodule, a db w = d(ab) w - da (b w) and w a db = (w a) db, so the
    m - 1 one-forms d e_j stand for all of Omega_1.  Each degree is two block
    products into one elimination, and the chain I_1, I_2, ... is kept on
    dist, so each component is built once per distribution."""
    A, chain = dist.algebra, dist._ideal
    if r < 1:
        raise GeometryError("the ideal lives in degrees >= 1")
    dA = d_slots(form_space(A, 0).d_matrix)
    while len(chain) < r:
        k, B = len(chain), chain[-1].row_matrix().T
        red = RowReducer(form_space(A, k + 1).dim)
        red.add_columns(products(A, dA, 1, B, k))
        red.add_columns(products(A, B, k, dA, 1))
        chain.append(red.subspace())
    return chain[r - 1]


def involutive(dist: Distribution) -> bool:
    """d(dist) contained in I_2, read from the ideal chain of dist."""
    image = form_space(dist.algebra, 1).apply_d(dist.space.row_matrix().T)
    return subspace_from_columns(image).is_subspace_of(ideal_component(dist, 2))


# ---------------------------------------------------------------------------
# Projections, curvature, cocurvature
# ---------------------------------------------------------------------------


class Projection:
    """Idempotent bimodule endomorphism of Omega_1."""

    def __init__(self, chi: FieldValuedForm):
        if chi.degree != 1:
            raise GeometryError("a projection must be a one-form endomorphism")
        self.chi = chi
        self.algebra = chi.algebra
        self.ext = chi.extension()
        if self.ext @ self.ext != self.ext:
            raise GeometryError("endomorphism is not idempotent")
        self._brackets: Optional[tuple[FieldValuedForm, ...]] = None

    @classmethod
    def from_endomorphism(cls, algebra: Algebra, ext: QMat) -> "Projection":
        return cls(FieldValuedForm(algebra, 1, form_space(algebra, 0).compose_d(ext),
                                   check=False))

    @classmethod
    def zero(cls, algebra: Algebra) -> "Projection":
        return cls(zero_field_valued_form(algebra, 1))

    @classmethod
    def identity(cls, algebra: Algebra) -> "Projection":
        return cls(identity_one_form(algebra))

    def complement(self) -> "Projection":
        return Projection(identity_one_form(self.algebra) - self.chi)

    def image(self) -> Distribution:
        return Distribution(self.algebra, subspace_from_columns(self.ext),
                            check=False)

    def kernel(self) -> Distribution:
        """ker P = im(1 - P), P being idempotent: a span, not a kernel."""
        space = subspace_from_columns(QMat.eye(self.ext.shape[0]) - self.ext)
        return Distribution(self.algebra, space, check=False)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Projection)
                and self.algebra is other.algebra and self.ext == other.ext)

    def __hash__(self):
        ext = self.ext.reduced()   # equal matrices have equal reduced forms
        return hash((id(self.algebra), ext.den, tuple(ext.num.flatten().tolist())))

    def __repr__(self) -> str:
        return f"Projection(rank={self.image().dim} on {self.algebra.name})"

    def brackets(self) -> tuple[FieldValuedForm, ...]:
        """([P,P], R, Rbar) with R = [P,P] o P and Rbar = [P,P] o Pbar,
        built on the first read: one bracket per projection."""
        if self._brackets is None:
            A, delta = self.algebra, self.chi.delta
            fn = fn_bracket(self.chi, self.chi)
            ext, d0 = fn.extension(), form_space(A, 0).d_matrix
            self._brackets = (fn, FieldValuedForm(A, 2, ext @ delta, check=False),
                              FieldValuedForm(A, 2, ext @ (d0 - delta), check=False))
        return self._brackets


def curvature(p: Projection) -> tuple[FieldValuedForm, FieldValuedForm]:
    """(R, Rbar) = ([P,P] o P, [P,P] o Pbar), from :meth:`Projection.brackets`."""
    return p.brackets()[1:]


def induced_endomorphism(algebra: Algebra, ext: QMat, k: int) -> list[QMat]:
    """The algebra endomorphisms of Omega_0..Omega_k applying ext to every
    d-slot."""
    return multiplicative_extension(algebra, None, form_space(algebra, 0).compose_d(ext), k)


def projection_bracket_identities(p: Projection) -> dict:
    """R + Rbar = [P,P], and Rbar is the curvature of the complement Pbar."""
    fn, R, Rbar = p.brackets()
    return {"sum_is_bracket": R + Rbar == fn,
            "cocurvature_is_complement_curvature": curvature(p.complement())[0] == Rbar}


def check_projection_calculus(p: Projection, N: int = 3) -> dict:
    """Curvature formulas, ideal = functor kernel, involutivity criteria.

    [P,P], R and Rbar come from :meth:`Projection.brackets`, and the ideal
    chains of ker P and im P are built once (:func:`ideal_component`; so
    :func:`involutive` reads its I_2), as are Omega_k(P) and Omega_k(Pbar)
    for all k, one :func:`induced_endomorphism` pass each.  Omega_k(P) is
    idempotent, Omega being a functor, so its rank is its trace:
    :func:`is_idempotent_kernel` certifies I_k = ker Omega_k(P) with no
    kernel elimination."""
    A = p.algebra
    _, R, Rbar = p.brackets()
    d1 = form_space(A, 1).apply_d
    ext = p.ext
    ext_bar = QMat.eye(ext.shape[0]) - ext
    top = max(N, 2)                        # the curvature formulas read degree 2
    omega_p = induced_endomorphism(A, ext, top)
    omega_pb = induced_endomorphism(A, ext_bar, top)
    curv, cocurv = omega_pb[2] @ d1(ext), omega_p[2] @ d1(ext_bar)
    kerP, imP = p.kernel(), p.image()

    report = projection_bracket_identities(p)
    report["curvature_formula"] = R.extension() == curv.scale(-2)
    report["cocurvature_formula"] = Rbar.extension() == cocurv.scale(-2)
    report["kernel_ideal_is_functor_kernel"] = all(
        is_idempotent_kernel(ideal_component(kerP, k), omega_p[k])
        for k in range(1, N + 1))
    report["image_ideal_is_complement_kernel"] = all(
        is_idempotent_kernel(ideal_component(imP, k), omega_pb[k])
        for k in range(1, N + 1))
    report["curvature_zero_iff_image_involutive"] = R.is_zero() == involutive(imP)
    report["cocurvature_zero_iff_kernel_involutive"] = (
        Rbar.is_zero() == involutive(kerP))
    report["all"] = all(report.values())
    return report


def bianchi_identities(p: Projection) -> dict:
    """[P, R+Rbar] = 0 and 2[R,P] = j_R Rbar + j_Rbar R, exactly."""
    R, Rbar = curvature(p)
    first = fn_bracket(p.chi, R + Rbar)
    lhs = fn_bracket(R, p.chi).scale(2)
    rhs = insertion_compose(R, Rbar) + insertion_compose(Rbar, R)
    report = {
        "bracket_with_total_curvature_vanishes": first.is_zero(),
        "second_identity": lhs == rhs,
    }
    report["all"] = all(v for v in report.values())
    return report


# ---------------------------------------------------------------------------
# Finding projections: the endomorphism space and idempotents in it
# ---------------------------------------------------------------------------


def bimodule_endomorphism_space(algebra: Algebra) -> list[QMat]:
    """Basis of End^A_A(Omega_1), E[i, j] at i*n + j: the canonical basis of
    the span of the degree-1 fields' extensions (a bimodule map E out of
    Omega_1 extends the derivation E o d), each over its pivot entry."""
    n = form_space(algebra, 1).dim
    span = subspace_from_columns(qmat_hstack(n * n, [
        _entries(K.extension()) for K in field_valued_form_space(algebra, 1)]))
    return [QMat.from_coo((n, n), ((c // n, c % n, v) for c, v in row.items()), row[p])
            for p, row in zip(span.pivots, span.rows)]


# polynomial helpers over Fraction, ascending coefficient lists


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _poly_trim(list(a)):
        if not a[-1]:
            a.pop()
            continue
        shift = len(a) - len(b)
        coeff = a[-1] / b[-1]
        q[shift] = coeff
        for i in range(len(b)):
            a[shift + i] -= coeff * b[i]
        a.pop()
    return _poly_trim(q), _poly_trim(a)


def _poly_xgcd(a, b):
    """(g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while _poly_trim(list(r1)):
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_trim([x - y for x, y in
                                 itertools.zip_longest(s0, _poly_mul(q, s1),
                                                       fillvalue=Fraction(0))])
        t0, t1 = t1, _poly_trim([x - y for x, y in
                                 itertools.zip_longest(t0, _poly_mul(q, t1),
                                                       fillvalue=Fraction(0))])
    lead = r0[-1]
    return ([c / lead for c in r0], [c / lead for c in s0],
            [c / lead for c in t0])


def _entries(*mats: QMat) -> QMat:
    """The entries of the mats, each row by row, as one column."""
    return qmat_hstack(1, [QMat(M.num.reshape(1, -1), M.den) for M in mats]).T


def _poly_eval_matrix(p: Sequence[Fraction], E: QMat) -> QMat:
    n = E.shape[0]
    acc = QMat.zeros(n, n)
    power = QMat.eye(n)
    for c in p:
        if c:
            acc = acc + power.scale(c)
        power = power @ E
    return acc


def minimal_polynomial(E: QMat) -> list[Fraction]:
    """Monic minimal polynomial of a square rational matrix (ascending)."""
    n = E.shape[0]
    if n == 0:
        return [Fraction(0), Fraction(1)]   # x, conventionally
    red = RowReducer(n * n)
    powers = [QMat.eye(n)]
    while red.add(_entries(powers[-1]).T.sparse_rows()[0]):
        powers.append(powers[-1] @ E)
    # the last power depends on the lower ones
    sol = solve_linear(qmat_hstack(n * n, [_entries(P) for P in powers[:-1]]),
                       _entries(powers[-1]))
    return _poly_trim([-c for c in sol.column_fractions(0)] + [Fraction(1)])


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, from its factorization by trial
    division up to the square root of what is left to factor."""
    n, divs, p = abs(n), [1], 2
    while p * p <= n:
        k = 0
        while n % p == 0:
            n, k = n // p, k + 1
        if k:
            divs = [d * p ** e for d in divs for e in range(k + 1)]
        p += 1 if p == 2 else 2
    return divs + [d * n for d in divs] if n > 1 else divs


def _rational_roots(p: Sequence[Fraction]) -> list[tuple[Fraction, int]]:
    """Rational roots with multiplicities: the candidates +-a/b, a dividing
    the lowest nonzero coefficient and b the leading one."""
    p = list(p)
    den = math.lcm(*[c.denominator for c in p]) if p else 1
    ints = [int(c * den) for c in p]
    lead = ints[-1]
    const = next((c for c in ints if c), 0)
    cands = {Fraction(0)}
    if const and lead:
        cands |= {Fraction(s * a, b) for a in _divisors(const)
                  for b in _divisors(lead) for s in (1, -1)}
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


def _spectral_idempotents(E: QMat) -> list[QMat]:
    """Idempotents in Q[E] from rational-root factors of the min poly."""
    mp = minimal_polynomial(E)
    out = []
    for c, mult in _rational_roots(mp):
        factor = [Fraction(1)]
        for _ in range(mult):
            factor = _poly_mul(factor, [-c, Fraction(1)])
        cofactor, rem = _poly_divmod(mp, factor)
        if rem or len(cofactor) <= 1:
            continue
        g, u, v = _poly_xgcd(factor, cofactor)
        if len(g) != 1:
            continue
        # u*factor + v*cofactor = 1; e = (v*cofactor)(E) projects onto the
        # generalized eigenspace of c
        e = _poly_eval_matrix(_poly_mul(v, cofactor), E)
        if e @ e == e:
            out.append(e)
    return out


def find_projections(algebra: Algebra, seed: int = 0) -> list[Projection]:
    """Idempotent bimodule endomorphisms of Omega_1, deterministically.

    Always includes 0 and Id; adds left multiplications by central
    idempotents, then a scan of the coefficient lattice {-1, ..., 1} in
    halves when the endomorphism space has dimension at most 3, else the
    spectral idempotents of 40 seeded random endomorphisms.  The scan and
    the draws stop at 12 projections.
    """
    sp = form_space(algebra, 1)
    n = sp.dim
    found: list[QMat] = []

    def push(ext: QMat) -> None:
        if ext @ ext != ext:
            return
        if any(ext == e for e in found):
            return
        found.append(ext)

    push(QMat.zeros(n, n))
    push(QMat.eye(n))

    # left multiplication by central idempotents
    center = algebra.center()
    half = [Fraction(v, 2) for v in range(-2, 3)]
    if 0 < center.dim <= 3:
        for combo in itertools.product(half, repeat=center.dim):
            vec = [sum(c * b[i] for c, b in zip(combo, center.basis))
                   for i in range(algebra.dim)]
            sq = algebra.mult_vec(vec, vec)
            if sq == list(vec):
                push(sp.left_action(vec))

    endos = bimodule_endomorphism_space(algebra)
    if len(endos) <= 3:
        for combo in itertools.product(half, repeat=len(endos)):
            cand = qmat_sum([E.scale(c) for E, c in zip(endos, combo)]) \
                if endos else QMat.zeros(n, n)
            push(cand)
            if len(found) >= 12:
                break
    else:
        rng = random.Random(seed)
        for _ in range(40):
            if len(found) >= 12:
                break
            E = qmat_sum([B.scale(rng.randint(-2, 2)) for B in endos])
            for e in _spectral_idempotents(E):
                push(e)
                co = QMat.eye(n) - e
                push(co)

    found.sort(key=lambda e: (e.den,
                              tuple(int(x) for x in e.num.flatten().tolist())))
    return [Projection.from_endomorphism(algebra, e) for e in found]


# ---------------------------------------------------------------------------
# Bundles, horizontal forms, connections
# ---------------------------------------------------------------------------


class Bundle:
    """Algebra A with a unital subalgebra B, optionally cut out by an action."""

    def __init__(self, algebra: Algebra, base: Subspace,
                 action: Optional[GroupAction] = None, check: bool = True):
        self.algebra = algebra
        self.base = base
        self.action = action
        if check:
            self.validate()

    def validate(self) -> None:
        A = self.algebra
        if self.base.ambient != A.dim:
            raise GeometryError("base subspace does not live in A")
        if not self.base.contains(list(A.unit().coeffs)):
            raise GeometryError("base subalgebra must contain 1")
        B = self.base.row_matrix().T
        if not subspace_from_columns(multilinear(A.mu2, B, B)).is_subspace_of(self.base):
            raise GeometryError("base is not closed under products")
        if self.action is not None:
            if self.action.fixed_subspace() != self.base:
                raise GeometryError("base is not the fixed subalgebra")

    def base_algebra(self) -> tuple[Algebra, QMat]:
        """B as an algebra of its own plus the inclusion matrix into A."""
        A = self.algebra
        # basis of B with the unit first, completed by canonical generators
        red = RowReducer(A.dim)
        red.add({0: 1})
        basis = self.base.basis_matrix()
        keep = [i for i, row in enumerate(self.base.rows) if red.add(row)]
        incl = qmat_hstack(A.dim, [QMat.eye(A.dim).col(0),
                                   QMat(basis.num[:, keep], basis.den)])
        nb = incl.shape[1]
        # column x*nb + y: the coordinates of b_x b_y against the basis of B
        prods = solve_linear(incl, multilinear(A.mu2, incl, incl))
        names = ["1"] + [f"b{i}" for i in range(1, nb)]
        return Algebra(f"{A.name}|base", names, prods), incl


def horizontal_forms(bundle: Bundle, k: int) -> Subspace:
    """Degree-k span of products of horizontal one-forms (d of the base):
    H_n = span products(H_{n-1}, n-1, H_1, 1), one block per degree."""
    A = bundle.algebra
    if k == 0:
        return Subspace.full(A.dim)
    hor = exact_span(A, bundle.base).space
    H1 = hor.row_matrix().T
    for n in range(2, k + 1):
        hor = subspace_from_columns(products(A, hor.row_matrix().T, n - 1, H1, 1))
    return hor


def is_connection(bundle: Bundle, chi: FieldValuedForm) -> dict:
    """Idempotent with image exactly the horizontal one-forms?"""
    if chi.degree != 1:
        raise GeometryError("a connection must be a one-form endomorphism")
    ext = chi.extension()
    hor = horizontal_forms(bundle, 1)
    idem = (ext @ ext == ext)
    image = subspace_from_columns(ext)
    report = {"idempotent": idem, "image_is_horizontal": image == hor}
    report["connection"] = idem and report["image_is_horizontal"]
    return report


def find_connections(bundle: Bundle) -> list[FieldValuedForm]:
    """Solve for projections onto the horizontal one-forms.

    Connections form an affine space inside End^A_A(Omega_1): fix the
    horizontal basis pointwise and land inside it.  Returns one particular
    solution plus representatives shifted by a basis of the homogeneous
    part (deduplicated); empty when no connection exists.
    """
    A = bundle.algebra
    sp = form_space(A, 1)
    n = sp.dim
    endos = bimodule_endomorphism_space(A)
    if not endos:
        if n == 0:
            return [zero_field_valued_form(A, 1)]
        return []
    hor = horizontal_forms(bundle, 1)
    H = hor.row_matrix().T
    ann = nullspace(n, hor.rows).row_matrix()
    # E = sum_k c_k E_k with E H = H and ann E = 0, one row per entry
    system = qmat_hstack(n * hor.dim + ann.shape[0] * n,
                         [_entries(E @ H, ann @ E) for E in endos])
    sol = solve_linear(system, _entries(H, QMat.zeros(ann.shape[0], n)))
    if sol is None:
        return []
    shifts = nullspace(len(endos), system.sparse_rows()).basis_matrix()
    coeffs = qmat_hstack(len(endos), [sol] + [sol + shifts.col(i)
                                             for i in range(shifts.shape[1])])
    exts = qmat_hstack(n * n, [_entries(E) for E in endos]) @ coeffs
    d0 = form_space(A, 0).d_matrix
    out, seen = [], []
    for j in range(exts.shape[1]):
        e = QMat(exts.num[:, j].reshape(n, n), exts.den)
        if any(e == s for s in seen):
            continue
        seen.append(e)
        out.append(FieldValuedForm(A, 1, e @ d0, check=False))
    return out


def connection_curvature(chi: FieldValuedForm) -> FieldValuedForm:
    """[chi, chi]: the obstruction two-form of a connection."""
    return fn_bracket(chi, chi)


def principalize(bundle: Bundle, chi: FieldValuedForm) -> FieldValuedForm:
    """Group-average a connection into an equivariant one.

    Each conjugate Omega(g) o chi o Omega(g)^-1 is again a connection (the
    action preserves the base, hence the horizontal forms), so the average
    over the finite group is an equivariant connection.
    """
    if bundle.action is None:
        raise GeometryError("bundle has no structure group")
    if not is_connection(bundle, chi)["connection"]:
        raise GeometryError("input is not a connection")
    A = bundle.algebra
    ext = chi.extension()
    n = ext.shape[0]
    acc = QMat.zeros(n, n)
    for h in bundle.action.homs.values():
        om = omega_functor(h, 1)[1]
        acc = acc + om @ ext @ qmat_inverse(om)
    avg = acc.scale(Fraction(1, len(bundle.action.homs)))
    out = FieldValuedForm(A, 1, form_space(A, 0).compose_d(avg), check=False)
    if not is_connection(bundle, out)["connection"]:
        raise GeometryError("averaging did not produce a connection")
    return out


def is_principal(bundle: Bundle, chi: FieldValuedForm) -> bool:
    """Connection commuting with the induced action on one-forms."""
    if bundle.action is None:
        raise GeometryError("bundle has no structure group")
    if not is_connection(bundle, chi)["connection"]:
        return False
    ext = chi.extension()
    for h in bundle.action.homs.values():
        om1 = omega_functor(h, 1)[1]
        if ext @ om1 != om1 @ ext:
            return False
    return True


def curvature_horizontality(bundle: Bundle, chi: FieldValuedForm) -> dict:
    """R = [chi,chi] kills horizontal one-forms and lands in horizontal twos;
    equivariant when the connection is principal."""
    ext = connection_curvature(chi).extension()
    kills = (ext @ horizontal_forms(bundle, 1).row_matrix().T).is_zero()
    lands = subspace_from_columns(ext).is_subspace_of(horizontal_forms(bundle, 2))
    report = {"kills_horizontal": kills, "lands_horizontal": lands}
    if bundle.action is not None and is_principal(bundle, chi):
        eq = True
        for h in bundle.action.homs.values():
            om = omega_functor(h, 2)
            if ext @ om[1] != om[2] @ ext:
                eq = False
        report["equivariant"] = eq
    report["all"] = all(v for v in report.values())
    return report


def action_functoriality_defect(action: GroupAction, N: int
                                ) -> Optional[tuple[str, int]]:
    """First (group element, degree k <= N) where Omega_k(g) does not
    intertwine d into degree k, or None when the action extends to forms:
    Omega_k(g) d against d Omega_{k-1}(g), a column and a row shift."""
    A = action.algebra
    for name, h in action.homs.items():
        om = omega_functor(h, N)
        for k in range(1, N + 1):
            sp = form_space(A, k - 1)
            if sp.compose_d(om[k]) != sp.apply_d(om[k - 1]):
                return name, k
    return None


def bundle_tensor_dims(bundle: Bundle) -> dict:
    """dim Omega_1(A) - dim hor_1 = dim(A tensor_B A) - dim A."""
    A = bundle.algebra
    B, incl = bundle.base_algebra()
    # A as a B-bimodule via the inclusion: b.a = mu^2 (b (x) I) a, a.b likewise
    left = [multilinear(A.mu2, incl.col(j), A.dim) for j in range(B.dim)]
    right = [multilinear(A.mu2, A.dim, incl.col(j)) for j in range(B.dim)]
    mod = Bimodule(B, A.dim, left, right, name="A|B")
    tq = tensor_over_A(mod, mod)
    hor1 = horizontal_forms(bundle, 1)
    lhs = form_space(A, 1).dim - hor1.dim
    rhs = tq.dim - A.dim
    return {"omega1_minus_horizontal": lhs, "tensor_minus_algebra": rhs,
            "equal": lhs == rhs}
