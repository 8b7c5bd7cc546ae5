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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

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
    kernel_basis,
    kron,
    kron_all,
    leg_map,
)


def _ipow(d: int, n: int) -> int:
    return d**n


# ---------------------------------------------------------------------------
# coboundary matrices


def natural_coboundary(b: Bicomodule, n: int, degree_cap: int = 3) -> Matrix:
    """Coboundary X (x) S^n -> X (x) S^{n+1} of the natural complex."""
    if n < 0:
        raise ValueError("negative degree")
    if n + 1 > degree_cap:
        raise ValueError(f"degree {n}+1 exceeds cap {degree_cap}")
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    i_sn = Matrix.identity(_ipow(s, n))
    total = kron(b.beta.beta, i_sn)
    for k in range(1, n + 1):
        left = Matrix.identity(x * _ipow(s, k - 1))
        right = Matrix.identity(_ipow(s, n - k))
        term = kron_all(left, h.comult, right)
        total = total + term.scale((-1) ** k)
    # rotation_sigma(n + 1, 1): the gamma leg moves from first to last
    last = kron(b.gamma.gamma, i_sn)
    move = leg_map([s, last.cols], [1, 0])
    return total + last.reindex(last.rows, last.cols, lambda r, c: (move[r], c)).scale((-1) ** (n + 1))


def dual_coboundary(b: Bicomodule, n: int, degree_cap: int = 3) -> Matrix:
    """Coboundary Hom(X, S^n) -> Hom(X, S^{n+1}) of the dual complex.

    With T a basis map e_y -> (S^n basis v), the three families of terms
    are reindexed tensors:

      (T (x) id) o beta :            row ((v,a), j) <- kron(id, beta)[(v,(y,a)), (v,j)]
      (id^{n-k} (x) d (x) id^{k-1}) o T : kron(insertion, id_X)
      (id (x) T) o gamma :           row ((a,v), j) <- kron(id, gamma)[(v,(a,y)), (v,j)]

    and each lands in column (v, y).
    """
    if n < 0:
        raise ValueError("negative degree")
    if n + 1 > degree_cap:
        raise ValueError(f"degree {n}+1 exceeds cap {degree_cap}")
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    sn = _ipow(s, n)
    rows, cols, i_sn = sn * s * x, sn * x, Matrix.identity(sn)

    def on_beta(r, c):  # the beta leg is the last output leg, sign +1
        v, y, a = r // (x * s), r // s % x, r % s
        return (v * s + a) * x + c % x, v * x + y

    def on_gamma(r, c):  # the gamma leg is the first output leg, sign (-1)^{n+1}
        v, a, y = r // (s * x), r // x % s, r % x
        return (a * sn + v) * x + c % x, v * x + y

    mat = kron(i_sn, b.beta.beta).reindex(rows, cols, on_beta)
    mat = mat + kron(i_sn, b.gamma.gamma).reindex(rows, cols, on_gamma).scale((-1) ** (n + 1))
    # coproduct insertions
    for k in range(1, n + 1):
        ins = kron_all(
            Matrix.identity(_ipow(s, n - k)),
            h.comult,
            Matrix.identity(_ipow(s, k - 1)),
        )
        mat = mat + kron(ins, Matrix.identity(x)).scale((-1) ** k)
    return mat


def bar_boundary(b: Bicomodule, n: int, degree_cap: int = 4) -> Matrix:
    """Hochschild-style boundary B^n (x) X -> B^{n-1} (x) X for B = S^*.

    X is a B-bimodule through the coactions: w.x pairs the beta leg, x.w
    pairs the gamma leg.  The degree-n cochain space of the associated
    operator-style complex is (B^n (x) X)^*, with coboundary the transpose
    of this boundary at degree n+1.
    """
    if n < 1:
        raise ValueError("bar boundary needs n >= 1")
    if n > degree_cap:
        raise ValueError(f"degree {n} exceeds cap {degree_cap}")
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    mult_b = dual_algebra_mult(h)
    act_l = module_from_coaction(b.beta)  # B (x) X -> X
    act_r = module_from_left_coaction(b.gamma)  # X (x) B -> X
    total = kron(Matrix.identity(_ipow(s, n - 1)), act_l)
    for i in range(1, n):
        term = kron_all(
            Matrix.identity(_ipow(s, i - 1)),
            mult_b,
            Matrix.identity(_ipow(s, n - i - 1) * x),
        )
        total = total + term.scale((-1) ** (n - i))
    # precompose the rotation B^n (x) X -> B^{n-1} (x) X (x) B: a column of
    # kron(id, act_r) indexed (w, b) becomes the column (b, w)
    last = kron(Matrix.identity(_ipow(s, n - 1)), act_r)
    back = leg_map([last.cols // s, s], [1, 0])
    return total + last.reindex(last.rows, last.cols, lambda r, c: (r, back[c])).scale((-1) ** n)


def bar_dual_coboundary(b: Bicomodule, n: int, degree_cap: int = 3) -> Matrix:
    """(B^n (x) X)^* -> (B^{n+1} (x) X)^*: the transpose of bar_boundary(n+1)."""
    if n + 1 > degree_cap:
        raise ValueError(f"degree {n}+1 exceeds cap {degree_cap}")
    return bar_boundary(b, n + 1, degree_cap=degree_cap + 1).transpose()


# ---------------------------------------------------------------------------
# complexes


_BUILDERS = {
    "natural": natural_coboundary,
    "dual": dual_coboundary,
    "bar": bar_dual_coboundary,
    "restricted": dual_coboundary,
}


@dataclass(frozen=True)
class CochainComplex:
    kind: str
    degrees: tuple  # dims of C^0 .. C^cap
    boundaries: tuple  # D_n: C^n -> C^{n+1}, n = 0 .. cap-1
    _kernels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for n, d in enumerate(self.boundaries):
            if d.cols != self.degrees[n] or d.rows != self.degrees[n + 1]:
                raise ValueError(f"boundary {n} has wrong shape")
        for n in range(len(self.boundaries) - 1):
            if not (self.boundaries[n + 1] @ self.boundaries[n]).is_zero():
                raise ValueError(f"chain property fails at degree {n}")

    def boundary(self, n: int) -> Matrix:
        if not 0 <= n < len(self.boundaries):
            raise ValueError(f"boundary D_{n} is not built below the degree cap")
        return self.boundaries[n]

    def kernel(self, n: int) -> tuple:
        """The canonical basis of ker D_n, eliminated once per complex."""
        if n not in self._kernels:
            self._kernels[n] = tuple(kernel_basis(self.boundary(n)))
        return self._kernels[n]


def build_complex(b: Bicomodule, kind: str, degree_cap: int = 3) -> CochainComplex:
    """Assemble coboundaries D_0..D_{cap-1}; the chain property is re-verified."""
    if kind not in _BUILDERS:
        raise ValueError(f"unknown complex kind {kind!r}")
    if kind == "restricted" and not _gamma_is_trivial(b):
        raise ValueError("restricted complex needs gamma = 1 (x) id")
    builder = _BUILDERS[kind]
    x, s = b.space_dim, b.hopf.dim
    if kind == "natural":
        degrees = tuple(x * _ipow(s, n) for n in range(degree_cap + 1))
    else:
        degrees = tuple(_ipow(s, n) * x for n in range(degree_cap + 1))
    bounds = tuple(builder(b, n, degree_cap=degree_cap) for n in range(degree_cap))
    return CochainComplex(kind, degrees, bounds)


def _gamma_is_trivial(b: Bicomodule) -> bool:
    h = b.hopf
    return b.gamma.gamma == kron(h.unit_col, Matrix.identity(b.space_dim))


# ---------------------------------------------------------------------------
# cohomology


@dataclass(frozen=True)
class CohomologyResult:
    degree: int
    kernel: tuple  # the canonical basis of ker D_n (kernel_basis)
    dim_image_prev: int  # rank D_{n-1}

    @property
    def dim(self) -> int:
        return len(self.kernel) - self.dim_image_prev


def cohomology(cx: CochainComplex, n: int) -> CohomologyResult:
    """Exact H^n from two certified kernels and no further elimination.

    kernel_basis certifies rank D = cols - dim ker D for each boundary, so
    dim H^n = dim ker D_n - (cols_{n-1} - dim ker D_{n-1}).
    """
    if n < 0 or n >= len(cx.boundaries):
        raise ValueError("degree out of built range")
    rank_prev = cx.degrees[n - 1] - len(cx.kernel(n - 1)) if n else 0
    return CohomologyResult(n, cx.kernel(n), rank_prev)


# ---------------------------------------------------------------------------
# the per-job workspace


class Workspace:
    """What one job computes once and shares between its tasks.

    Holds the bicomodule catalog, one complex per (bicomodule, kind), one H^n
    per (bicomodule, kind, degree) and what tasks share through `once` (the
    invariant mean).  Entries are keyed by the bicomodule object and keep it
    alive, so a key never passes to another bicomodule.
    """

    def __init__(self, h, degree_cap: int = 3, explicit=()):
        self.hopf = h
        self.degree_cap = degree_cap
        self.explicit = tuple(explicit)  # (name, Bicomodule) pairs from the job file
        self._memo: dict = {}

    @staticmethod
    def ensure(workspace, h, degree_cap: int) -> "Workspace":
        """The given workspace, or a fresh one when None; one of another job is refused."""
        ws = workspace or Workspace(h, degree_cap)
        if ws.hopf is not h or ws.degree_cap != degree_cap:
            raise ValueError("workspace belongs to another algebra or degree cap")
        return ws

    def once(self, key, make):
        """make() the first time key is asked for, the same object after that."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def _cached(self, what: str, b: Bicomodule, arg, make):
        return self.once((what, id(b), arg), lambda: (b, make()))[1]

    @cached_property
    def catalog(self):
        return catalog_bicomodules(self.hopf)

    def bicomodules(self):
        """(name, Bicomodule): the catalog, then the job's own comodules."""
        return [(e.name, e.bicomodule) for e in self.catalog] + list(self.explicit)

    def dual(self, b: Bicomodule) -> Bicomodule:
        return self._cached("dual", b, None, lambda: dual_bicomodule(b))

    def _restriction(self, b: Bicomodule) -> Bicomodule:
        """A bicomodule with b's right coaction and gamma = 1 (x) id, whose dual
        complex is b's restricted one: b itself, else one of the job's, else a new one."""

        def find():
            if _gamma_is_trivial(b):
                return b
            same = (c for _, c in self.bicomodules() if c.beta == b.beta and _gamma_is_trivial(c))
            return next(same, None) or with_trivial_gamma(b.beta)

        return self._cached("restricted", b, None, find)

    def complex_of(self, b: Bicomodule, kind: str) -> CochainComplex:
        if kind == "restricted":
            return self.complex_of(self._restriction(b), "dual")
        return self._cached("complex", b, kind, lambda: build_complex(b, kind, self.degree_cap))

    def cohomology_of(self, b: Bicomodule, kind: str, n: int) -> CohomologyResult:
        if kind == "restricted":
            return self.cohomology_of(self._restriction(b), "dual", n)
        return self._cached("H", b, (kind, n), lambda: cohomology(self.complex_of(b, kind), n))


# ---------------------------------------------------------------------------
# the two identifications


@dataclass(frozen=True)
class IdentificationReport:
    holds: bool
    degree: int
    detail: str
    dims: Optional[tuple] = None  # (lhs H-dim, rhs H-dim) when computed

    def __bool__(self):
        return self.holds


def sign_identity_sides(nat: Matrix, dua: Matrix, x: int, s: int, n: int) -> tuple:
    """(R d_n^{natural-dual}, (-1)^{n+1} d_n^{dual} R) with R the flattening
    X^* (x) S^n -> Hom(X, S^n), (m, w) -> (w, m), applied by reindexing."""
    to_hom = leg_map([x, _ipow(s, n + 1)], [1, 0])
    from_hom = leg_map([_ipow(s, n), x], [1, 0])
    lhs = nat.reindex(nat.rows, nat.cols, lambda r, c: (to_hom[r], c))
    rhs = dua.reindex(dua.rows, dua.cols, lambda r, c: (r, from_hom[c]))
    return lhs, rhs.scale((-1) ** (n + 1))


def identify_dual_with_natural(
    b: Bicomodule, n: int, degree_cap: int = 3, workspace: Optional[Workspace] = None
) -> IdentificationReport:
    """Dual complex of X vs natural complex of the dual bicomodule on X^*.

    Checks the chain-level sign identity  R d_n^{natural-dual} = (-1)^{n+1}
    d_n^{dual} R  entrywise (R the flattening reshuffle), then that the two
    H^n dimensions agree.
    """
    ws = Workspace.ensure(workspace, b.hopf, degree_cap)
    dual_b = ws.dual(b)
    nat = ws.complex_of(dual_b, "natural").boundary(n)
    dua = ws.complex_of(b, "dual").boundary(n)
    lhs, rhs = sign_identity_sides(nat, dua, b.space_dim, b.hopf.dim, n)
    if lhs != rhs:
        return IdentificationReport(False, n, "sign identity fails entrywise")
    d_nat = ws.cohomology_of(dual_b, "natural", n).dim
    d_dual = ws.cohomology_of(b, "dual", n).dim
    if d_nat != d_dual:
        return IdentificationReport(False, n, "H dimensions differ", (d_dual, d_nat))
    return IdentificationReport(True, n, "sign identity and H-dims agree", (d_dual, d_nat))


def identify_dual_with_bar(
    b: Bicomodule, n: int, degree_cap: int = 3, workspace: Optional[Workspace] = None
) -> IdentificationReport:
    """Dual coboundary vs transpose of the bar boundary: must be bit-identical."""
    ws = Workspace.ensure(workspace, b.hopf, degree_cap)
    if ws.complex_of(b, "dual").boundary(n) != ws.complex_of(b, "bar").boundary(n):
        return IdentificationReport(False, n, "matrices differ")
    return IdentificationReport(True, n, "matrices bit-identical")


# ---------------------------------------------------------------------------
# contracting homotopies


def _hom_to_vec(m: Matrix) -> Vec:
    """The Hom(X, W) flattening of m: entry (w, j) at w * cols + j."""
    return m.reindex(m.rows * m.cols, 1, lambda w, j: (w * m.cols + j, 0)).col(0)


def _certify_homotopy(cx: CochainComplex, n: int, cocycles, contraction: Matrix) -> Matrix:
    """The primitives P = K_n Z of the cocycle columns Z, from a contraction K_n: C^n -> C^{n-1}.

    D_n Z = 0 is required (ValueError otherwise) and D_{n-1} P = Z is
    certified exactly, for all columns at once.
    """
    z = Matrix.from_cols(cocycles, rows=cx.degrees[n])
    if not (cx.boundary(n) @ z).is_zero():
        raise ValueError("input is not a cocycle")
    prims = contraction @ z
    certify(cx.boundary(n - 1) @ prims == z, f"homotopy primitives fail D_{n - 1} P = Z in degree {n}")
    return prims


def _require(cx: CochainComplex, n: int, kinds=("dual", "restricted")) -> None:
    if cx.kind not in kinds:
        raise ValueError("complex kind mismatch")
    if n < 1:
        raise ValueError("needs degree >= 1")


def homotopy_from_counit_natural(b: Bicomodule, n: int, cocycles, *, cx: CochainComplex) -> Matrix:
    """Primitives of natural n-cocycles from the counit: (-1)^{n-1} (id (x) eps) on the last leg."""
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n, ("natural",))
    k_n = kron(Matrix.identity(x * _ipow(s, n - 1)), h.counit_row).scale((-1) ** (n - 1))
    return _certify_homotopy(cx, n, cocycles, k_n)


def _post_compose(functional: Matrix, x: int, s: int, n: int, sign: int) -> Matrix:
    """T -> sign (functional (x) id^{n-1}) o T on Hom(X, S^n), as a matrix."""
    return kron(kron(functional, Matrix.identity(_ipow(s, n - 1))), Matrix.identity(x)).scale(sign)


def homotopy_from_counit_dual(b: Bicomodule, n: int, cocycles, *, cx: CochainComplex) -> Matrix:
    """Primitives of dual n-cocycles from the counit: post-compose (-1)^{n-1} eps (x) id^{n-1}."""
    h = b.hopf
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n)
    k_n = _post_compose(h.counit_row, b.space_dim, h.dim, n, (-1) ** (n - 1))
    return _certify_homotopy(cx, n, cocycles, k_n)


def homotopy_from_haar(b: Bicomodule, n: int, cocycles, phi: Vec, *, cx: CochainComplex) -> Matrix:
    """Primitives of dual n-cocycles from a left-invariant state phi (gamma trivial).

    Post-composes (-1)^n phi (x) id^{n-1}.
    """
    if not _gamma_is_trivial(b):
        raise ValueError("the invariant-state homotopy needs gamma = 1 (x) id")
    _require(cx, n)
    k_n = _post_compose(Matrix.row(phi), b.space_dim, b.hopf.dim, n, (-1) ** n)
    return _certify_homotopy(cx, n, cocycles, k_n)


def homotopy_from_codiagonal(
    b: Bicomodule, n: int, f_functional: Vec, side: str = "beta", *, cx: CochainComplex
) -> None:
    """Certify D_{n-1} K_n + K_{n+1} D_n = id on C^n for the codiagonal contraction K
    (see codiagonal_contraction), so every n-cocycle z is D_{n-1}(K_n z)."""
    if side not in ("beta", "gamma"):
        raise ValueError("side must be 'beta' or 'gamma'")
    _require(cx, n)
    k_n, k_next = (codiagonal_contraction(b, m, f_functional, side) for m in (n, n + 1))
    certify(
        cx.boundary(n - 1) @ k_n + k_next @ cx.boundary(n) == Matrix.identity(cx.degrees[n]),
        f"codiagonal homotopy fails D K + K D = id in degree {n}",
    )


def codiagonal_contraction(b: Bicomodule, n: int, f_functional: Vec, side: str) -> Matrix:
    """The codiagonal homotopy K_n: T -> R on Hom(X, S^n), as a matrix.

    side="beta":  R = (id^{n-1} (x) F) o (T (x) id) o beta  (beta non-degenerate)
    side="gamma": R = (-1)^n (F (x) id^{n-1}) o (id (x) T) o gamma (gamma non-degenerate)

    For a codiagonal F both sides satisfy D_{n-1} K_n + K_{n+1} D_n = id; the
    gamma side needs its sign (-1)^n for that.

    With F[c, a] = F(e_c (x) e_a), the S leg c of T that F pairs with the
    coaction's leg a, Q = kron(id_X, F) beta has Q[(y,c), j] = sum_a F[c,a]
    beta[(y,a), j], and R's entry at row (u, j), column ((u, c), y) is
    Q[(y,c), j]: a reindex of kron(id^{n-1}, Q^T).  The gamma side mirrors
    it with Q = (-1)^n kron(F^T, id_X) gamma and column ((c, u), y).
    """
    x, s, sp = b.space_dim, b.hopf.dim, _ipow(b.hopf.dim, n - 1)
    f = Matrix.row(f_functional).reindex(s, s, lambda _, k: divmod(k, s))
    if side == "beta":
        q = kron(Matrix.identity(x), f) @ b.beta.beta
        move = leg_map([sp, x, s], [0, 2, 1])
    else:
        q = (kron(f.transpose(), Matrix.identity(x)) @ b.gamma.gamma).scale((-1) ** n)
        move = leg_map([sp, s, x], [1, 0, 2])
    return kron(Matrix.identity(sp), q.transpose()).reindex(sp * x, sp * s * x, lambda r, c: (r, move[c]))
