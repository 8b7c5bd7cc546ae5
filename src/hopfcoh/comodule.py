"""Right/left coactions and bicomodules on finite-dimensional spaces.

Constructors re-verify the defining identities exactly and refuse
otherwise; subspaces are always carried as RREF bases and quotients use
the pivot-complement section, so every derived object is canonical.
"""
from __future__ import annotations

from functools import cached_property
from typing import Optional

from .hopf import HopfStarAlgebra, translates_span
from .linalg import Matrix, combination, failing_column, kron, rref
from .records import Memo, record


@record
class RightCoaction:
    space_dim: int
    hopf: HopfStarAlgebra
    beta: Matrix  # X -> X (x) S

    def __post_init__(self):
        x, s = self.space_dim, self.hopf.dim
        if (self.beta.rows, self.beta.cols) != (x * s, x):
            raise ValueError("beta must be (x*s) x x")
        if (w := right_coaction_failure(self.hopf, self.beta)) is not None:
            raise ValueError(f"right coaction identity fails at column {w}")


@record
class LeftCoaction:
    space_dim: int
    hopf: HopfStarAlgebra
    gamma: Matrix  # X -> S (x) X

    def __post_init__(self):
        x, s = self.space_dim, self.hopf.dim
        if (self.gamma.rows, self.gamma.cols) != (s * x, x):
            raise ValueError("gamma must be (s*x) x x")
        if (w := left_coaction_failure(self.hopf, self.gamma)) is not None:
            raise ValueError(f"left coaction identity fails at column {w}")


@record
class Bicomodule(Memo):
    """once holds what derives from the bicomodule alone: its dual, its boundaries and the builders' moves."""

    beta: RightCoaction
    gamma: LeftCoaction

    def __post_init__(self):
        if self.beta.hopf is not self.gamma.hopf and self.beta.hopf != self.gamma.hopf:
            raise ValueError("coactions live over different algebras")
        if self.beta.space_dim != self.gamma.space_dim:
            raise ValueError("coactions live on different spaces")
        if (w := compatibility_failure(self.beta, self.gamma)) is not None:
            raise ValueError(f"bicomodule compatibility fails at column {w}")

    @property
    def hopf(self) -> HopfStarAlgebra:
        return self.beta.hopf

    @property
    def space_dim(self) -> int:
        return self.beta.space_dim


# each identity check returns the least column where its two sides differ, or None; on
# comult itself each is (up to sign) the coassociativity law, whose witness h holds, on
# h's memoized trivial gamma = 1 (x) id the left identity is kron(comult(1) - 1 (x) 1, I_x),
# and a quotient coaction h holds passed quotient_comodule's factorization check
def right_coaction_failure(h: HopfStarAlgebra, beta: Matrix) -> Optional[int]:
    if beta is h.comult:
        return h.coassociativity_witness
    if h.holds(beta, "quotient"):
        return None
    ix, i_s = Matrix.identity(beta.cols), Matrix.identity(h.dim)
    return failing_column([(1, kron(beta, i_s), beta), (-1, kron(ix, h.comult), beta)])


def left_coaction_failure(h: HopfStarAlgebra, gamma: Matrix) -> Optional[int]:
    if gamma is h.comult:
        return h.coassociativity_witness
    if h.is_trivial_gamma(gamma):
        return 0 if h.unitality_witness is not None and gamma.cols else None
    ix, i_s = Matrix.identity(gamma.cols), Matrix.identity(h.dim)
    return failing_column([(1, kron(i_s, gamma), gamma), (-1, kron(h.comult, ix), gamma)])


def compatibility_failure(beta: RightCoaction, gamma: LeftCoaction) -> Optional[int]:
    h = beta.hopf
    if beta.beta is h.comult and gamma.gamma is h.comult:
        return h.coassociativity_witness
    if gamma.hopf.is_trivial_gamma(gamma.gamma):  # both sides are 1 (x) beta
        return None
    i_s = Matrix.identity(h.dim)
    return failing_column([(1, kron(i_s, beta.beta), gamma.gamma), (-1, kron(gamma.gamma, i_s), beta.beta)])


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
    return LeftCoaction(x_dim, h, h.trivial_gamma(x_dim))


def one_sided(beta: RightCoaction) -> Bicomodule:
    return Bicomodule(beta, zero_left_coaction(beta.hopf, beta.space_dim))


def with_trivial_gamma(beta: RightCoaction) -> Bicomodule:
    return Bicomodule(beta, trivial_left_coaction(beta.hopf, beta.space_dim))


# ---------------------------------------------------------------------------
# structure checks


def check_nondegenerate(c: RightCoaction):
    """(left, right) span-equality non-degeneracy of a right coaction.

    right: span{ (id (x) R_s) beta(x) } = X (x) S with R_s right multiplication;
    left:  the same with left multiplication on the S leg.
    """
    return tuple(translates_span(c.hopf, c.beta, False, right) for right in (False, True))


def check_nondegenerate_left(c: LeftCoaction):
    """Mirror of check_nondegenerate for left coactions (multiply the S leg)."""
    return tuple(translates_span(c.hopf, c.gamma, True, right) for right in (False, True))


# ---------------------------------------------------------------------------
# quotients


@record
class QuotientData:
    coaction: RightCoaction
    projection: Matrix  # q: X -> X/Y
    section: Matrix  # s: X/Y -> X with q s = id


def quotient_comodule(c: RightCoaction, subspace: list) -> QuotientData:
    """Quotient coaction on X/Y when (q (x) id) beta kills Y.

    The complement is the pivot-column complement of the RREF of Y, so the
    projection and section are canonical.  The factorization check
    (q (x) id) beta = beta_hat q certifies beta_hat as a coaction: beta's own
    identity gives (beta_hat (x) id) beta_hat q = (q (x) id (x) id)(beta (x) id) beta
    = (q (x) id (x) id)(id (x) comult) beta = (id (x) comult) beta_hat q, and q s = id
    cancels q.  So the algebra's memo holds beta_hat as a quotient, and
    right_coaction_failure passes it with no check of its own.
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
    # (q (x) id) beta - beta_hat q = (q (x) id) beta (id - section q), and id - section q
    # maps onto span Y, so the identity holds exactly when (q (x) id) beta kills Y
    beta_hat = qs @ c.beta @ section
    if not combination([(1, beta_hat, q), (-1, qs, c.beta)]).is_zero():
        raise ValueError("induced coaction does not factor through the projection")
    c.hopf.once_for(beta_hat, "quotient", lambda: q)
    return QuotientData(RightCoaction(len(free), c.hopf, beta_hat), q, section)


def unit_quotient_bicomodule(h: HopfStarAlgebra) -> QuotientData:
    """The canonical S / C*1 right comodule induced by the coproduct."""
    reg = regular_right_coaction(h)
    return quotient_comodule(reg, [list(h.unit)])


# ---------------------------------------------------------------------------
# gradings over group algebras


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
    """(X^*, gamma-dual as right coaction, beta-dual as left coaction), built once per b."""
    return b.once("dual bicomodule", lambda: Bicomodule(dual_coaction_left(b.gamma), dual_coaction(b.beta)))


def module_from_coaction(c: RightCoaction) -> Matrix:
    """Left module action of the dual algebra on X: S^* (x) X -> X.

    action[i, (b, j)] = beta[(i, b), j]; column (b, j) is phi_b . e_j.
    """
    x, s = c.space_dim, c.hopf.dim
    return c.beta.reindex(x, s * x, lambda r, j: (r // s, r % s * x + j))


def module_from_left_coaction(c: LeftCoaction) -> Matrix:
    """Right module action X (x) S^* -> X: action[i, (j, b)] = gamma[(b, i), j]."""
    x, s = c.space_dim, c.hopf.dim
    return c.gamma.reindex(x, x * s, lambda r, j: (r % x, j * s + r // x))


# ---------------------------------------------------------------------------
# catalog of bicomodules


# the names catalog_bicomodules may use; a job's own comodules must differ
CATALOG_NAMES = ("regular", "regular-trivial-left", "unit-quotient", "pair-graded")


@record
class CatalogBicomodule:
    """A catalog entry; its non-degenerate side is found by span tests run on first read,
    each memoized on the algebra (translates_span)."""

    name: str
    bicomodule: Bicomodule
    quotient: Optional[QuotientData] = None  # the unit-quotient entry's projection and section

    @cached_property
    def nondegenerate_side(self) -> Optional[str]:
        """The first non-degenerate side, "beta" or "gamma", or None: beta's left flag, then
        its right flag, then gamma's, tested in that order up to the first that holds."""
        b = self.bicomodule
        for side, matrix, s_leg_first in (("beta", b.beta.beta, False), ("gamma", b.gamma.gamma, True)):
            if any(translates_span(b.hopf, matrix, s_leg_first, right) for right in (False, True)):
                return side
        return None

    @property
    def has_nondegenerate_side(self) -> bool:
        return self.nondegenerate_side is not None


def catalog_bicomodules(h: HopfStarAlgebra):
    """The built-in test bicomodules over a catalog algebra."""
    reg = regular_right_coaction(h)
    entries = [
        CatalogBicomodule("regular", Bicomodule(reg, regular_left_coaction(h))),
        CatalogBicomodule("regular-trivial-left", with_trivial_gamma(reg)),
    ]
    quot = unit_quotient_bicomodule(h)
    if quot.coaction.space_dim:
        entries.append(CatalogBicomodule("unit-quotient", with_trivial_gamma(quot.coaction), quot))
    if h.kind == "group":
        entries.append(CatalogBicomodule("pair-graded", pair_graded_bicomodule(h)))
    return entries


def widest_catalog_space(h: HopfStarAlgebra) -> int:
    """The largest space_dim in catalog_bicomodules(h): s^2 (pair-graded) over a group, else s."""
    return h.dim**2 if h.kind == "group" else h.dim


def catalog_right_comodules(h: HopfStarAlgebra):
    """Built-in one-sided right comodules (as name -> RightCoaction)."""
    out = [("regular", regular_right_coaction(h))]
    quot = unit_quotient_bicomodule(h)
    if quot.coaction.space_dim:
        out.append(("unit-quotient", quot.coaction))
    if h.kind == "group":
        out.append(("graded", graded_right_coaction(h, list(range(h.dim)))))
    return out
