"""Coboundary matrices, cohomology, and the contracting homotopies.

Four cochain complexes are built as explicit matrices:

  natural     C^n = X (x) S^n
  dual        C^n = Hom(X, S^n)
  bar         the transpose-dual of the Hochschild-style boundary on
              B^n (x) X for the dual algebra B = S^*
  restricted  the dual complex of a right comodule with gamma = 1 (x) id

Hom(X, W) is flattened with the W index most significant (so the X index
varies fastest), which is exactly the flattening that makes the dual
complex and the transpose of the bar boundary agree entrywise.
"""
from __future__ import annotations

from functools import cached_property

from .comodule import (
    Bicomodule,
    catalog_bicomodules,
    dual_bicomodule,
    module_from_coaction,
    module_from_left_coaction,
    with_trivial_gamma,
)
from .hopf import dual_algebra_mult
from .linalg import (
    Matrix,
    Vec,
    certify,
    face_sum,
    failing_column,
    kernel_basis,
    kernel_basis_without,
    leg_map,
    product_is_zero,
)
from .records import Memo, record

DEFAULT_DEGREE_CAP = 3  # cochain spaces C^0 .. C^cap are built when a job names no cap


# ---------------------------------------------------------------------------
# coboundary matrices


def _natural_faces(b: Bicomodule, n: int) -> list:
    """The face_sum faces of the natural coboundary X (x) S^n -> X (x) S^{n+1}; none moves a column."""
    if n < 0:
        raise ValueError("negative degree")
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    faces = [(1, 1, b.beta.beta, s**n, None, None)]
    faces += [((-1) ** k, x * s ** (k - 1), h.comult, s ** (n - k), None, None) for k in range(1, n + 1)]
    # the gamma leg of kron(gamma, id) moves from first to last
    faces.append(((-1) ** (n + 1), 1, b.gamma.gamma, s**n, leg_map([s, x * s**n], [1, 0]), None))
    return faces


def natural_coboundary(b: Bicomodule, n: int) -> Matrix:
    """Coboundary X (x) S^n -> X (x) S^{n+1} of the natural complex."""
    return face_sum(_natural_faces(b, n))


def dual_coboundary(b: Bicomodule, n: int) -> Matrix:
    """Coboundary Hom(X, S^n) -> Hom(X, S^{n+1}) of the dual complex.

    With T a basis map e_y -> (S^n basis v), the three families of terms
    are tensors, one of them with its row legs moved:

      (T (x) id) o beta :            kron(id, B), B[(a,j), y] = beta[(y,a), j]
      (id^{n-k} (x) d (x) id^{k-1}) o T : kron(id^{n-k}, d, id^{k-1} (x) id_X)
      (id (x) T) o gamma :           kron(id, G), G[(a,j), y] = gamma[(a,y), j],
                                     row (v, a, j) moved to (a, v, j)

    and each lands in column (v, y).
    """
    if n < 0:
        raise ValueError("negative degree")
    h, x, s, sn = b.hopf, b.space_dim, b.hopf.dim, b.hopf.dim**n
    beta, gamma = b.once("dual", lambda: (
        b.beta.beta.reindex(s * x, x, lambda r, j: (r % s * x + j, r // s)),
        b.gamma.gamma.reindex(s * x, x, lambda r, j: (r // x * x + j, r % x)),
    ))
    faces = [(1, sn, beta, 1, None, None), ((-1) ** (n + 1), sn, gamma, 1, leg_map([sn, s, x], [1, 0, 2]), None)]
    faces += [((-1) ** k, s ** (n - k), h.comult, s ** (k - 1) * x, None, None) for k in range(1, n + 1)]
    return face_sum(faces)


def bar_boundary(b: Bicomodule, n: int) -> Matrix:
    """Hochschild-style boundary B^n (x) X -> B^{n-1} (x) X for B = S^*.

    X is a B-bimodule through the coactions: w.x pairs the beta leg, x.w
    pairs the gamma leg.  The degree-n cochain space of the associated
    operator-style complex is (B^n (x) X)^*, with coboundary the transpose
    of this boundary at degree n+1.
    """
    if n < 1:
        raise ValueError("bar boundary needs n >= 1")
    x, s = b.space_dim, b.hopf.dim
    # B's product and the actions B (x) X -> X and X (x) B -> X
    mult_b, act_l, act_r = b.once(
        "bar", lambda: (dual_algebra_mult(b.hopf), module_from_coaction(b.beta), module_from_left_coaction(b.gamma))
    )
    faces = [(1, s ** (n - 1), act_l, 1, None, None)]
    faces += [((-1) ** (n - i), s ** (i - 1), mult_b, s ** (n - i - 1) * x, None, None) for i in range(1, n)]
    # precompose the rotation B^n (x) X -> B^{n-1} (x) X (x) B: a column of
    # kron(id, act_r) indexed (w, b) becomes the column (b, w)
    faces.append(((-1) ** n, s ** (n - 1), act_r, 1, None, leg_map([s ** (n - 1) * x, s], [1, 0])))
    return face_sum(faces)


def bar_dual_coboundary(b: Bicomodule, n: int) -> Matrix:
    """(B^n (x) X)^* -> (B^{n+1} (x) X)^*: the transpose of bar_boundary(n+1)."""
    return bar_boundary(b, n + 1).transpose()


# ---------------------------------------------------------------------------
# complexes


_BUILDERS = {
    "natural": natural_coboundary,
    "dual": dual_coboundary,
    "bar": bar_dual_coboundary,
    "restricted": dual_coboundary,
}


@record
class CochainComplex(Memo):
    kind: str
    degrees: tuple  # dims of C^0 .. C^cap
    boundaries: tuple  # D_n: C^n -> C^{n+1}, n = 0 .. cap-1

    def __post_init__(self):
        for n, d in enumerate(self.boundaries):
            if d.cols != self.degrees[n] or d.rows != self.degrees[n + 1]:
                raise ValueError(f"boundary {n} has wrong shape")
        for n in range(len(self.boundaries) - 1):
            if not product_is_zero(self.boundaries[n + 1], self.boundaries[n]):
                raise ValueError(f"chain property fails at degree {n}")

    def boundary(self, n: int) -> Matrix:
        if not 0 <= n < len(self.boundaries):
            raise ValueError(f"boundary D_{n} is not built below the degree cap")
        return self.boundaries[n]

    def reduction(self, n: int) -> tuple:
        """(Q_{n+1}, dim ker A_n), eliminated once per complex: A_n is D_n without
        the columns Q_n (Q_0 is empty), read off D_n's cells with no copy built,
        its certificate D_n Z = 0 for Z its kernel vectors padded with zeros on
        Q_n, and Q_{n+1} holds the rows of D_n its elimination took as pivots."""

        def reduce():
            q_n = self.reduction(n - 1)[0] if n else ()
            d = self.boundary(n)
            basis = kernel_basis_without(d, q_n) if q_n else kernel_basis(d)
            return tuple(basis.pivot_rows), len(basis)

        return self.once(("reduction", n), reduce)


def boundary_of(b: Bicomodule, kind: str, n: int) -> Matrix:
    """D_n of b's complex of this kind, built once per bicomodule: b's complexes and check-C15 read it."""
    return b.once(("D", kind, n), lambda: _BUILDERS[kind](b, n))


def build_complex(b: Bicomodule, kind: str, degree_cap: int = DEFAULT_DEGREE_CAP) -> CochainComplex:
    """Assemble D_n = boundary_of(b, kind, n), n < cap; the chain property is re-verified."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown complex kind {kind!r}")
    if kind == "restricted" and not _gamma_is_trivial(b):
        raise ValueError("restricted complex needs gamma = 1 (x) id")
    degrees = tuple(b.space_dim * b.hopf.dim**n for n in range(degree_cap + 1))
    return CochainComplex(kind, degrees, tuple(boundary_of(b, kind, n) for n in range(degree_cap)))


def _gamma_is_trivial(b: Bicomodule) -> bool:
    return b.gamma.gamma == b.hopf.trivial_gamma(b.space_dim)


# ---------------------------------------------------------------------------
# cohomology


@record
class CohomologyResult:
    dim_kernel: int  # dim ker D_n
    dim_image_prev: int  # rank D_{n-1}

    @property
    def dim(self) -> int:
        return self.dim_kernel - self.dim_image_prev


def cohomology(cx: CochainComplex, n: int) -> CohomologyResult:
    """Exact H^n by reduction (cx.reduction): dim H^n = dim ker A_n.

    The rows Q_n of D_{n-1}'s pivots meet the columns A_{n-1} kept in a
    nonsingular minor, so Im D_{n-1} projects onto the coordinates Q_n and,
    with D_n D_{n-1} = 0, ker D_n = Im D_{n-1} (+) ker A_n: rank D_{n-1} =
    |Q_n| and dim ker D_n = |Q_n| + dim ker A_n, ker A_n certified by D_n Z = 0,
    Z its vectors padded with zeros on Q_n.  Any |Q_n| <= rank D_{n-1} gives dim
    ker A_n >= dim ker D_n - |Q_n| >= dim H^n, so a wrong Q_n can only over-report;
    a nonzero answer is checked against kernel_basis of D_n unless Q_n is empty.
    """
    if n < 0 or n >= len(cx.boundaries):
        raise ValueError("degree out of built range")

    def reduce():  # held by cx, so each degree is reduced once per complex
        rank_prev = len(cx.reduction(n - 1)[0]) if n else 0
        dim = cx.reduction(n)[1]
        if rank_prev and dim:
            full = len(kernel_basis(cx.boundary(n)))
            certify(rank_prev + dim == full, f"reduced H^{n} disagrees with dim ker D_{n} in degree {n}")
        return CohomologyResult(rank_prev + dim, rank_prev)

    return cx.once(("H", n), reduce)


# ---------------------------------------------------------------------------
# the per-job workspace


class Workspace(Memo):
    """What one job computes once and shares between its tasks.

    One owner per cached object, the object it derives from: a bicomodule holds its
    boundaries (boundary_of) and its dual, a complex its reductions, H^n and check-C10's
    squares.  The workspace holds what depends on the job: the catalog, each restriction
    and one complex per (bicomodule, kind) by `once_for`, the counit, codiagonal and mean by `once`.
    """

    def __init__(self, h, degree_cap: int = DEFAULT_DEGREE_CAP, explicit=()):
        self.hopf = h
        self.degree_cap = degree_cap
        self.explicit = tuple(explicit)  # (name, Bicomodule) pairs from the job file

    @cached_property
    def catalog(self):
        return catalog_bicomodules(self.hopf)

    def bicomodules(self):
        """(name, Bicomodule): the catalog, then the job's own comodules."""
        return [(e.name, e.bicomodule) for e in self.catalog] + list(self.explicit)

    def _restriction(self, b: Bicomodule) -> Bicomodule:
        """A bicomodule with b's right coaction and gamma = 1 (x) id, whose dual
        complex is b's restricted one: b itself, else one of the job's, else a new one."""

        def find():
            if _gamma_is_trivial(b):
                return b
            same = (c for _, c in self.bicomodules() if c.beta == b.beta and _gamma_is_trivial(c))
            return next(same, None) or with_trivial_gamma(b.beta)

        return self.once_for(b, "restricted", find)

    def complex_of(self, b: Bicomodule, kind: str) -> CochainComplex:
        if kind == "restricted":
            return self.complex_of(self._restriction(b), "dual")
        return self.once_for(b, ("complex", kind), lambda: build_complex(b, kind, self.degree_cap))

    def cohomology_of(self, b: Bicomodule, kind: str, n: int) -> CohomologyResult:
        return cohomology(self.complex_of(b, kind), n)


# ---------------------------------------------------------------------------
# the two identifications


@record
class IdentificationReport:
    holds: bool
    detail: str


def _flattened_natural(b: Bicomodule, n: int) -> Matrix:
    """(-1)^{n+1} R d_n^{natural} R^{-1} for b on X^*, R the flattening (m, w) -> (w, m) of
    X^* (x) S^k onto Hom(X, S^k), as one face_sum: each natural face with R composed into
    its row move, R as its column move and the sign in its k."""
    x, s = b.space_dim, b.hopf.dim
    to_hom, cols = leg_map([x, s ** (n + 1)], [1, 0]), leg_map([x, s**n], [1, 0])
    faces = [
        ((-1) ** (n + 1) * k, p, m, q, [to_hom[r] for r in move] if move else to_hom, cols)
        for k, p, m, q, move, _ in _natural_faces(b, n)
    ]
    return face_sum(faces)


def identify_dual_with_natural(ws: Workspace, b: Bicomodule, n: int) -> IdentificationReport:
    """Dual complex of X vs natural complex of the dual bicomodule on X^*.

    Checks  R d_n^{natural-dual} = (-1)^{n+1} d_n^{dual} R  entrywise, R the
    flattening reshuffle (a bijection of basis indices).  With the squares of degrees
    n-1 and n, R carries ker D_n and Im D_{n-1}, so H^n agrees with no
    elimination.  Each square is checked once per job and held by ws's dual
    complex, as the natural faces of the dual bicomodule moved onto its D_m (so
    n < ws.degree_cap) and compared with it by ==.
    """
    cx = ws.complex_of(b, "dual")

    def square(m):
        return cx.once(("C10", m), lambda: _flattened_natural(dual_bicomodule(b), m) == cx.boundary(m))

    if not square(n):
        return IdentificationReport(False, "sign identity fails entrywise")
    if n and not square(n - 1):
        return IdentificationReport(True, f"sign identity holds; H-dims not transported: degree {n - 1} fails")
    return IdentificationReport(True, "sign identity and H-dims agree")


def identify_dual_with_bar(ws: Workspace, b: Bicomodule, n: int) -> IdentificationReport:
    """Dual coboundary vs transpose of the bar boundary: must be bit-identical.

    The dual side is the workspace's complex (so n < ws.degree_cap), the bar side b's
    boundary_of, which b's bar complex reads too.  Equal to the chain-checked dual
    boundary, the bar side needs no complex or chain check of its own."""
    if ws.complex_of(b, "dual").boundary(n) != boundary_of(b, "bar", n):
        return IdentificationReport(False, "matrices differ")
    return IdentificationReport(True, "matrices bit-identical")


# ---------------------------------------------------------------------------
# contracting homotopies


def _hom_to_vec(m: Matrix) -> Vec:
    """The Hom(X, W) flattening of m: entry (w, j) at w * cols + j."""
    return m.reindex(m.rows * m.cols, 1, lambda w, j: (w * m.cols + j, 0)).col(0)


def _certify_contraction(cx: CochainComplex, n: int, what: str, contraction, k_n=None) -> Matrix:
    """Certify D_{n-1} K_n + K_{n+1} D_n = id on C^n for the contraction m -> K_m: C^m -> C^{m-1},
    so every n-cocycle z is D_{n-1}(K_n z).

    A given k_n is used as K_n; returns K_{n+1}, the next degree's k_n.  A
    failure's witness is the degree and the least failing column.
    """
    k_n = contraction(n) if k_n is None else k_n
    k_next = contraction(n + 1)
    d_prev, d_n = cx.boundary(n - 1), cx.boundary(n)
    w = failing_column([(1, d_prev, k_n), (1, k_next, d_n), (-1, Matrix.identity(cx.degrees[n]))])
    certify(w is None, f"{what} homotopy fails D K + K D = id in degree {n}", n, w)
    return k_next


def _require(cx: CochainComplex, n: int, kinds=("dual", "restricted")) -> None:
    if cx.kind not in kinds:
        raise ValueError("complex kind mismatch")
    if n < 1:
        raise ValueError("needs degree >= 1")


def homotopy_from_counit_natural(b: Bicomodule, n: int, *, cx: CochainComplex) -> Matrix:
    """The counit contraction (-1)^{m-1} (id (x) eps) on the last leg of the natural complex,
    certified in degree n; returns K_{n+1}."""
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n, ("natural",))
    return _certify_contraction(
        cx, n, "counit", lambda m: face_sum([((-1) ** (m - 1), x * s ** (m - 1), h.counit_row, 1, None, None)])
    )


def _post_compose(functional: Matrix, x: int, s: int, n: int, sign: int) -> Matrix:
    """T -> sign (functional (x) id^{n-1}) o T on Hom(X, S^n), as a matrix."""
    return face_sum([(sign, 1, functional, s ** (n - 1) * x, None, None)])


def homotopy_from_counit_dual(b: Bicomodule, n: int, *, cx: CochainComplex) -> Matrix:
    """The counit contraction, post-composing (-1)^{m-1} eps (x) id^{m-1} on the dual complex,
    certified in degree n; returns K_{n+1}."""
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n)
    return _certify_contraction(cx, n, "counit", lambda m: _post_compose(h.counit_row, x, s, m, (-1) ** (m - 1)))


def homotopy_from_haar(b: Bicomodule, n: int, phi: Vec, *, cx: CochainComplex) -> Matrix:
    """The contraction of a left-invariant state phi (gamma trivial), post-composing
    (-1)^m phi (x) id^{m-1}, certified in degree n; returns K_{n+1}."""
    if not _gamma_is_trivial(b):
        raise ValueError("the invariant-state homotopy needs gamma = 1 (x) id")
    _require(cx, n)
    functional, x, s = Matrix.row(phi), b.space_dim, b.hopf.dim
    return _certify_contraction(cx, n, "invariant-state", lambda m: _post_compose(functional, x, s, m, (-1) ** m))


def homotopy_from_codiagonal(
    b: Bicomodule, n: int, f_functional: Vec, side: str = "beta", *, cx: CochainComplex, k_n=None
) -> Matrix:
    """The codiagonal contraction K (see codiagonal_contraction), certified in degree n;
    returns K_{n+1}.  A given k_n (such as check-B18's pick) is used as K_n, so
    every n-cocycle z is D_{n-1}(k_n z); None builds K_n.
    """
    if side not in ("beta", "gamma"):
        raise ValueError("side must be 'beta' or 'gamma'")
    _require(cx, n)
    return _certify_contraction(cx, n, "codiagonal", lambda m: codiagonal_contraction(b, m, f_functional, side), k_n)


def codiagonal_contraction(b: Bicomodule, n: int, f_functional: Vec, side: str) -> Matrix:
    """The codiagonal homotopy K_n: T -> R on Hom(X, S^n), as a matrix.

    side="beta":  R = (id^{n-1} (x) F) o (T (x) id) o beta  (beta non-degenerate)
    side="gamma": R = (-1)^n (F (x) id^{n-1}) o (id (x) T) o gamma (gamma non-degenerate)

    For a codiagonal F both sides satisfy D_{n-1} K_n + K_{n+1} D_n = id; the
    gamma side needs its sign (-1)^n for that.

    With F[c, a] = F(e_c (x) e_a), the S leg c of T that F pairs with the
    coaction's leg a, and the coaction moved to C[a, (y, j)] = beta[(y, a), j],
    F C holds sum_a F[c, a] beta[(y, a), j] at (c, (y, j)).  R's entry at
    row (u, j), column ((u, c), y) is that number, so K_n = kron(id^{n-1}, L)
    for the block L[j, (c, y)] = (F C)[c, (y, j)].  The gamma side takes
    C[a, (y, j)] = gamma[(a, y), j] and (-1)^n F^T for F, and moves column
    (u, c, y) of kron(id^{n-1}, L) to ((c, u), y).  L, with no sign, is built once per
    (bicomodule, functional object, side).
    """
    x, s, sp = b.space_dim, b.hopf.dim, b.hopf.dim ** (n - 1)

    def block():
        f = Matrix.row(f_functional).reindex(s, s, lambda _, k: divmod(k, s))
        if side == "beta":
            coaction = b.beta.beta.reindex(s, x * x, lambda r, j: (r % s, r // s * x + j))
        else:
            coaction, f = b.gamma.gamma.reindex(s, x * x, lambda r, j: (r // x, r % x * x + j)), f.transpose()
        return (f @ coaction).reindex(x, s * x, lambda c, k: (k % x, c * x + k // x))

    sign, move = (1, None) if side == "beta" else ((-1) ** n, leg_map([sp, s, x], [1, 0, 2]))
    return face_sum([(sign, sp, b.once_for(f_functional, ("codiagonal", side), block), 1, None, move)])
