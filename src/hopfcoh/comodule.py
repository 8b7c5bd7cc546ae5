"""Right/left coactions and bicomodules on finite-dimensional spaces.

Constructors re-verify the defining identities exactly and refuse
otherwise; subspaces are always carried as RREF bases and quotients use
the pivot-complement section, so every derived object is canonical.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hopf import HopfStarAlgebra
from .linalg import (
    Matrix,
    dense,
    image_rank,
    kron,
    rref,
    unit_vec,
)
from .monoids import FiniteGroup


@dataclass(frozen=True)
class RightCoaction:
    space_dim: int
    hopf: HopfStarAlgebra
    beta: Matrix  # X -> X (x) S

    def __post_init__(self):
        x, s = self.space_dim, self.hopf.dim
        if (self.beta.rows, self.beta.cols) != (x * s, x):
            raise ValueError("beta must be (x*s) x x")
        if not right_coaction_identity_holds(self.hopf, self.beta):
            raise ValueError("right coaction identity fails")


@dataclass(frozen=True)
class LeftCoaction:
    space_dim: int
    hopf: HopfStarAlgebra
    gamma: Matrix  # X -> S (x) X

    def __post_init__(self):
        x, s = self.space_dim, self.hopf.dim
        if (self.gamma.rows, self.gamma.cols) != (s * x, x):
            raise ValueError("gamma must be (s*x) x x")
        if not left_coaction_identity_holds(self.hopf, self.gamma):
            raise ValueError("left coaction identity fails")


@dataclass(frozen=True)
class Bicomodule:
    beta: RightCoaction
    gamma: LeftCoaction

    def __post_init__(self):
        if self.beta.hopf is not self.gamma.hopf and self.beta.hopf != self.gamma.hopf:
            raise ValueError("coactions live over different algebras")
        if self.beta.space_dim != self.gamma.space_dim:
            raise ValueError("coactions live on different spaces")
        if not bicomodule_compatible(self.beta, self.gamma):
            raise ValueError("bicomodule compatibility fails")

    @property
    def hopf(self) -> HopfStarAlgebra:
        return self.beta.hopf

    @property
    def space_dim(self) -> int:
        return self.beta.space_dim


def right_coaction_identity_holds(h: HopfStarAlgebra, beta: Matrix) -> bool:
    x, s = beta.cols, h.dim
    ix, i_s = Matrix.identity(x), Matrix.identity(s)
    return kron(beta, i_s) @ beta == kron(ix, h.comult) @ beta


def left_coaction_identity_holds(h: HopfStarAlgebra, gamma: Matrix) -> bool:
    x, s = gamma.cols, h.dim
    ix, i_s = Matrix.identity(x), Matrix.identity(s)
    return kron(i_s, gamma) @ gamma == kron(h.comult, ix) @ gamma


def bicomodule_compatible(beta: RightCoaction, gamma: LeftCoaction) -> bool:
    h = beta.hopf
    i_s = Matrix.identity(h.dim)
    return kron(i_s, beta.beta) @ gamma.gamma == kron(gamma.gamma, i_s) @ beta.beta


# ---------------------------------------------------------------------------
# constructors


def regular_right_coaction(h: HopfStarAlgebra) -> RightCoaction:
    return RightCoaction(h.dim, h, h.comult)


def regular_left_coaction(h: HopfStarAlgebra) -> LeftCoaction:
    return LeftCoaction(h.dim, h, h.comult)


def zero_left_coaction(h: HopfStarAlgebra, x_dim: int) -> LeftCoaction:
    """gamma = 0: the one-sided case; both coaction laws hold trivially."""
    return LeftCoaction(x_dim, h, Matrix.zero(h.dim * x_dim, x_dim))


def trivial_left_coaction(h: HopfStarAlgebra, x_dim: int) -> LeftCoaction:
    """gamma(x) = 1 (x) x."""
    if not any(h.unit):
        raise ValueError("trivial left coaction needs a unital algebra")
    return LeftCoaction(x_dim, h, kron(h.unit_col, Matrix.identity(x_dim)))


def one_sided(beta: RightCoaction) -> Bicomodule:
    return Bicomodule(beta, zero_left_coaction(beta.hopf, beta.space_dim))


def with_trivial_gamma(beta: RightCoaction) -> Bicomodule:
    return Bicomodule(beta, trivial_left_coaction(beta.hopf, beta.space_dim))


# ---------------------------------------------------------------------------
# structure checks


def _translates_span(h: HopfStarAlgebra, coaction: Matrix, x: int, s_leg_first: bool):
    """(left, right): do the coaction's columns, with left resp. right
    multiplication by each basis element t applied on the S leg, span the
    whole of the (x*s)-dimensional target?"""
    s = h.dim
    ix, i_s = Matrix.identity(x), Matrix.identity(s)
    out = []
    for left in (True, False):
        translates = Matrix.zero(x * s, 0)
        for t in range(s):
            et = Matrix.column(unit_vec(s, t))
            mult_t = h.mult @ (kron(et, i_s) if left else kron(i_s, et))  # u -> t*u or u*t
            on_leg = kron(mult_t, ix) if s_leg_first else kron(ix, mult_t)
            translates = translates.augment(on_leg @ coaction)
        out.append(image_rank(translates) == x * s)
    return tuple(out)


def check_nondegenerate(c: RightCoaction):
    """(left, right) span-equality non-degeneracy of a right coaction.

    right: span{ (id (x) R_s) beta(x) } = X (x) S with R_s right multiplication;
    left:  the same with left multiplication on the S leg.
    """
    return _translates_span(c.hopf, c.beta, c.space_dim, s_leg_first=False)


def check_nondegenerate_left(c: LeftCoaction):
    """Mirror of check_nondegenerate for left coactions (multiply the S leg)."""
    return _translates_span(c.hopf, c.gamma, c.space_dim, s_leg_first=True)


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientData:
    coaction: RightCoaction
    projection: Matrix  # q: X -> X/Y
    section: Matrix  # s: X/Y -> X with q s = id


def quotient_comodule(c: RightCoaction, subspace: list) -> QuotientData:
    """Quotient coaction on X/Y when (q (x) id) beta kills Y.

    The complement is the pivot-column complement of the RREF of Y, so the
    projection and section are canonical.
    """
    x, s = c.space_dim, c.hopf.dim
    for y in subspace:
        if len(y) != x:
            raise ValueError("subspace vector length mismatch")
    pivots, rows = rref(Matrix.from_rows(subspace) if subspace else Matrix.zero(0, x))
    pivot_set = set(pivots)
    free = [j for j in range(x) if j not in pivot_set]
    q_entries = {}
    for i, f in enumerate(free):
        q_entries[(i, f)] = 1
        for p, row in zip(pivots, rows):
            v = row.get(f)
            if v:
                q_entries[(i, p)] = -v
    q = Matrix(len(free), x, q_entries)
    section = Matrix(x, len(free), {(f, i): 1 for i, f in enumerate(free)})
    qs = kron(q, Matrix.identity(s))
    for k, y in enumerate(subspace):
        image = qs.apply(c.beta.apply(tuple(y)))
        if any(image):
            raise ValueError(f"subspace vector {k} is not killed by (q (x) id) o beta")
    beta_hat = qs @ c.beta @ section
    if not (beta_hat @ q == qs @ c.beta):
        raise ValueError("induced coaction does not factor through the projection")
    return QuotientData(RightCoaction(len(free), c.hopf, beta_hat), q, section)


def unit_quotient_bicomodule(h: HopfStarAlgebra) -> QuotientData:
    """The canonical S / C*1 right comodule induced by the coproduct."""
    reg = regular_right_coaction(h)
    return quotient_comodule(reg, [list(h.unit)])


# ---------------------------------------------------------------------------
# gradings over group algebras


def grade_decomposition(c: RightCoaction):
    """Components X_r = {x : beta(x) = x (x) u_r} of a group-algebra coaction.

    Returns {r: RREF basis of X_r}, computed as the image of (id (x) phi_r) o beta
    and re-verified against the defining equation.
    """
    h = c.hopf
    if not isinstance(h.monoid, FiniteGroup) or h.kind != "group":
        raise ValueError("grading needs a group algebra")
    x, s = c.space_dim, h.dim
    ix = Matrix.identity(x)
    out = {}
    for r in range(s):
        phi_r = Matrix(1, s, {(0, r): 1})
        proj = kron(ix, phi_r) @ c.beta  # X -> X
        _, rows = rref(proj.transpose())
        basis = [dense(row, x) for row in rows]
        b = Matrix.from_cols(basis, rows=x)
        # beta(v) = v (x) u_r for every column v of b; phi_r^T is u_r as a column
        if c.beta @ b != kron(b, phi_r.transpose()):
            raise ValueError(f"grading component {r} fails beta(x) = x (x) u_{r}")
        out[r] = basis
    return out


def graded_right_coaction(h: HopfStarAlgebra, grades: list) -> RightCoaction:
    """X with basis e_i, beta(e_i) = e_i (x) u_{grades[i]}."""
    x, s = len(grades), h.dim
    beta = Matrix(x * s, x, {(i * s + grades[i], i): 1 for i in range(x)})
    return RightCoaction(x, h, beta)


def pair_graded_bicomodule(h: HopfStarAlgebra) -> Bicomodule:
    """One basis vector per (s, t) in G x G with beta = . (x) u_s, gamma = u_t (x) . ."""
    if h.kind != "group":
        raise ValueError("pair grading needs a group algebra")
    n = h.dim
    x = n * n
    b_entries = {}
    g_entries = {}
    for s in range(n):
        for t in range(n):
            i = s * n + t
            b_entries[(i * n + s, i)] = 1
            g_entries[(t * x + i, i)] = 1
    beta = Matrix(x * n, x, b_entries)
    gamma = Matrix(n * x, x, g_entries)
    return Bicomodule(RightCoaction(x, h, beta), LeftCoaction(x, h, gamma))


# ---------------------------------------------------------------------------
# duals and the module correspondence


def dual_coaction(c: RightCoaction) -> LeftCoaction:
    """Left coaction on X^* induced by a right coaction: an index-reshuffled transpose."""
    x, s = c.space_dim, c.hopf.dim
    # beta[(m, a), j] -> gamma[(a, j), m]
    return LeftCoaction(x, c.hopf, c.beta.reindex(s * x, x, lambda r, j: (r % s * x + j, r // s)))


def dual_coaction_left(c: LeftCoaction) -> RightCoaction:
    """Right coaction on X^* induced by a left coaction."""
    x, s = c.space_dim, c.hopf.dim
    # gamma[(a, m), j] -> beta[(j, a), m]
    return RightCoaction(x, c.hopf, c.gamma.reindex(x * s, x, lambda r, j: (j * s + r // x, r % x)))


def dual_bicomodule(b: Bicomodule) -> Bicomodule:
    """(X^*, gamma-dual as right coaction, beta-dual as left coaction)."""
    return Bicomodule(dual_coaction_left(b.gamma), dual_coaction(b.beta))


def module_from_coaction(c: RightCoaction) -> Matrix:
    """Left module action of the dual algebra on X: S^* (x) X -> X.

    action[i, (b, j)] = beta[(i, b), j]; column (b, j) is phi_b . e_j.
    """
    x, s = c.space_dim, c.hopf.dim
    return c.beta.reindex(x, s * x, lambda r, j: (r // s, r % s * x + j))


def coaction_from_module(h: HopfStarAlgebra, action: Matrix) -> RightCoaction:
    """Inverse of module_from_coaction (the reshuffle is a bijection)."""
    x = action.rows
    s = h.dim
    if action.cols != s * x:
        raise ValueError("action must be x x (s*x)")
    return RightCoaction(x, h, action.reindex(x * s, x, lambda i, col: (i * s + col // x, col % x)))


def module_from_left_coaction(c: LeftCoaction) -> Matrix:
    """Right module action X (x) S^* -> X: action[i, (j, b)] = gamma[(b, i), j]."""
    x, s = c.space_dim, c.hopf.dim
    return c.gamma.reindex(x, x * s, lambda r, j: (r % x, j * s + r // x))


# ---------------------------------------------------------------------------
# catalog of bicomodules


# the names catalog_bicomodules may use; a job's own comodules must differ
CATALOG_NAMES = ("regular", "regular-trivial-left", "unit-quotient", "pair-graded")


@dataclass(frozen=True)
class CatalogBicomodule:
    name: str
    bicomodule: Bicomodule
    beta_nondegenerate: tuple  # (left, right)
    gamma_nondegenerate: tuple
    quotient: Optional[QuotientData] = None  # the unit-quotient entry's projection and section

    @property
    def has_nondegenerate_side(self) -> bool:
        return any(self.beta_nondegenerate) or any(self.gamma_nondegenerate)


def catalog_bicomodules(h: HopfStarAlgebra):
    """The built-in test bicomodules over a catalog algebra."""
    entries = []

    def add(name, bic, quotient=None):
        entries.append(
            CatalogBicomodule(
                name,
                bic,
                check_nondegenerate(bic.beta),
                check_nondegenerate_left(bic.gamma),
                quotient,
            )
        )

    reg = regular_right_coaction(h)
    add("regular", Bicomodule(reg, regular_left_coaction(h)))
    add("regular-trivial-left", with_trivial_gamma(reg))
    quot = unit_quotient_bicomodule(h)
    if quot.coaction.space_dim:
        add("unit-quotient", with_trivial_gamma(quot.coaction), quot)
    if h.kind == "group":
        add("pair-graded", pair_graded_bicomodule(h))
    return entries


def catalog_right_comodules(h: HopfStarAlgebra):
    """Built-in one-sided right comodules (as name -> RightCoaction)."""
    out = [("regular", regular_right_coaction(h))]
    quot = unit_quotient_bicomodule(h)
    if quot.coaction.space_dim:
        out.append(("unit-quotient", quot.coaction))
    if h.kind == "group":
        out.append(("graded", graded_right_coaction(h, list(range(h.dim)))))
    return out
