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
    dense,
    kernel_basis,
    kron,
    kron_all,
    rotation_sigma,
    tensor_permutation,
)
from .scalars import ONE, Scalar


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
    beta, gamma = b.beta.beta, b.gamma.gamma
    if n == 0:
        return beta - rotation_sigma(1, 1, x, s) @ gamma
    i_sn = Matrix.identity(_ipow(s, n))
    total = kron(beta, i_sn)
    for k in range(1, n + 1):
        left = Matrix.identity(x * _ipow(s, k - 1))
        right = Matrix.identity(_ipow(s, n - k))
        term = kron_all(left, h.comult, right)
        total = total + term.scale((-1) ** k)
    last = rotation_sigma(n + 1, 1, x, s) @ kron(gamma, i_sn)
    return total + last.scale((-1) ** (n + 1))


def dual_coboundary(b: Bicomodule, n: int, degree_cap: int = 3) -> Matrix:
    """Coboundary Hom(X, S^n) -> Hom(X, S^{n+1}) of the dual complex.

    Built entry-by-entry: with T a basis map e_y -> (S^n basis v), the three
    families of terms land at

      (T (x) id) o beta :            row ((v,a), j) <- beta[(y,a), j]
      (id^{n-k} (x) d (x) id^{k-1}) o T : kron(insertion, id_X)
      (id (x) T) o gamma :           row ((a,v), j) <- gamma[(a,y), j]
    """
    if n < 0:
        raise ValueError("negative degree")
    if n + 1 > degree_cap:
        raise ValueError(f"degree {n}+1 exceeds cap {degree_cap}")
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    sn, sn1 = _ipow(s, n), _ipow(s, n + 1)
    rows, cols = sn1 * x, sn * x
    entries: dict = {}

    def bump(r, c, val):
        key = (r, c)
        cur = entries.get(key)
        entries[key] = val if cur is None else cur + val

    # (T (x) id) o beta, sign +1: the beta leg is the last output leg
    for (r, j), val in b.beta.beta.entries.items():
        y, a = divmod(r, s)
        for v in range(sn):
            bump((v * s + a) * x + j, v * x + y, val)
    # (id (x) T) o gamma, sign (-1)^{n+1}: the gamma leg is the first output leg
    sign_g = ONE if (n + 1) % 2 == 0 else -ONE
    for (r, j), val in b.gamma.gamma.entries.items():
        a, y = divmod(r, x)
        sv = sign_g * val
        for v in range(sn):
            bump((a * sn + v) * x + j, v * x + y, sv)
    mat = Matrix(rows, cols, entries)
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
    rotate = tensor_permutation([s] * n + [x], list(range(1, n + 1)) + [0])
    last = kron(Matrix.identity(_ipow(s, n - 1)), act_r) @ rotate
    return total + last.scale((-1) ** n)


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


def _hom_reshuffle(x: int, sn: int) -> Matrix:
    """X^* (x) S^n -> Hom(X, S^n) flattening: (m, w) -> (w, m)."""
    return tensor_permutation([x, sn], [1, 0])


def identify_dual_with_natural(
    b: Bicomodule, n: int, degree_cap: int = 3, workspace: Optional[Workspace] = None
) -> IdentificationReport:
    """Dual complex of X vs natural complex of the dual bicomodule on X^*.

    Checks the chain-level sign identity  R d_n^{natural-dual} = (-1)^{n+1}
    d_n^{dual} R  entrywise (R the flattening reshuffle), then that the two
    H^n dimensions agree.
    """
    ws = Workspace.ensure(workspace, b.hopf, degree_cap)
    x, s = b.space_dim, b.hopf.dim
    dual_b = ws.dual(b)
    nat = ws.complex_of(dual_b, "natural").boundary(n)
    dua = ws.complex_of(b, "dual").boundary(n)
    r_n = _hom_reshuffle(x, _ipow(s, n))
    r_n1 = _hom_reshuffle(x, _ipow(s, n + 1))
    lhs = r_n1 @ nat
    rhs = (dua @ r_n).scale((-1) ** (n + 1))
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


@dataclass(frozen=True)
class HomotopyCertificate:
    primitive: Vec
    sign: int  # D_{n-1}(primitive) = sign * cocycle, certified exactly


def _hom_to_vec(m: Matrix) -> Vec:
    out = [Scalar(0)] * (m.rows * m.cols)
    for (w, j), v in m.entries.items():
        out[w * m.cols + j] = v
    return tuple(out)


def _certify_homotopy(cx: CochainComplex, n: int, cocycles, contraction) -> tuple:
    """One certificate per cocycle from a contraction K_n: C^n -> C^{n-1}.

    The cocycles become the columns of Z; D_n Z = 0 is required (ValueError
    otherwise), P = K_n Z holds the primitives, and D_{n-1} P = +-Z is
    certified column by column, each cocycle with its own sign.
    """
    if not cocycles:
        return ()
    z = Matrix.from_cols(cocycles, rows=cx.degrees[n])
    if not (cx.boundary(n) @ z).is_zero():
        raise ValueError("input is not a cocycle")
    prims = contraction() @ z
    image = cx.boundary(n - 1) @ prims

    def by_col(m: Matrix):
        cols = [{} for _ in range(m.cols)]
        for (r, c), v in m.entries.items():
            cols[c][r] = v
        return cols

    certs = []
    for p, im, zc in zip(by_col(prims), by_col(image), by_col(z)):
        sign = 1
        if im != zc:
            certify(im == {r: -v for r, v in zc.items()}, "homotopy primitive failed exact certification")
            sign = -1
        certs.append(HomotopyCertificate(dense(p, prims.rows), sign))
    return tuple(certs)


def _require(cx: CochainComplex, n: int, kinds=("dual", "restricted")) -> None:
    if cx.kind not in kinds:
        raise ValueError("complex kind mismatch")
    if n < 1:
        raise ValueError("needs degree >= 1")


def homotopy_from_counit_natural(b: Bicomodule, n: int, cocycles, *, cx: CochainComplex) -> tuple:
    """Primitives of natural n-cocycles from the counit: (-1)^{n-1} (id (x) eps) on the last leg."""
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n, ("natural",))
    return _certify_homotopy(
        cx, n, cocycles,
        lambda: kron(Matrix.identity(x * _ipow(s, n - 1)), h.counit_row).scale((-1) ** (n - 1)),
    )


def _post_compose(functional: Matrix, x: int, s: int, n: int, sign: int) -> Matrix:
    """T -> sign (functional (x) id^{n-1}) o T on Hom(X, S^n), as a matrix."""
    return kron(kron(functional, Matrix.identity(_ipow(s, n - 1))), Matrix.identity(x)).scale(sign)


def homotopy_from_counit_dual(b: Bicomodule, n: int, cocycles, *, cx: CochainComplex) -> tuple:
    """Primitives of dual n-cocycles from the counit: post-compose (-1)^{n-1} eps (x) id^{n-1}."""
    h = b.hopf
    if h.counit is None:
        raise ValueError("needs a counit")
    _require(cx, n)
    return _certify_homotopy(
        cx, n, cocycles, lambda: _post_compose(h.counit_row, b.space_dim, h.dim, n, (-1) ** (n - 1))
    )


def homotopy_from_haar(b: Bicomodule, n: int, cocycles, phi: Vec, *, cx: CochainComplex) -> tuple:
    """Primitives of dual n-cocycles from a left-invariant state phi (gamma trivial).

    Post-composes (-1)^n phi (x) id^{n-1}.
    """
    if not _gamma_is_trivial(b):
        raise ValueError("the invariant-state homotopy needs gamma = 1 (x) id")
    _require(cx, n)
    return _certify_homotopy(
        cx, n, cocycles, lambda: _post_compose(Matrix.row(phi), b.space_dim, b.hopf.dim, n, (-1) ** n)
    )


def homotopy_from_codiagonal(
    b: Bicomodule, n: int, cocycles, f_functional: Vec, side: str = "beta", *, cx: CochainComplex
) -> tuple:
    """Primitives of dual n-cocycles from a codiagonal (see codiagonal_contraction)."""
    if side not in ("beta", "gamma"):
        raise ValueError("side must be 'beta' or 'gamma'")
    _require(cx, n)
    return _certify_homotopy(cx, n, cocycles, lambda: codiagonal_contraction(b, n, f_functional, side))


def codiagonal_contraction(b: Bicomodule, n: int, f_functional: Vec, side: str) -> Matrix:
    """The codiagonal homotopy T -> R on Hom(X, S^n), as a matrix.

    side="beta":  R = (id^{n-1} (x) F) o (T (x) id) o beta  (beta non-degenerate)
    side="gamma": R = (F (x) id^{n-1}) o (id (x) T) o gamma (gamma non-degenerate)

    With B_a[y, j] = beta[(y,a), j] and F_a = F (id (x) e_a), R = sum_a
    (id^{n-1} (x) F_a) T B_a, and vec(A T B) = kron(A, B^T) vec(T) makes it
    one matrix, built here entry by entry; the gamma side mirrors it with
    B'_a[y, j] = gamma[(a,y), j] and F'_a = F (e_a (x) id).
    """
    x, s, sp = b.space_dim, b.hopf.dim, _ipow(b.hopf.dim, n - 1)
    beta = side == "beta"
    entries: dict = {}
    for (r, j), cv in (b.beta.beta if beta else b.gamma.gamma).entries.items():
        y, a = divmod(r, s) if beta else divmod(r, x)[::-1]
        for c in range(s):  # the S leg of T that F pairs with the coaction's leg a
            fv = f_functional[c * s + a if beta else a * s + c]
            for u in range(sp) if fv else ():
                w = u * s + c if beta else c * sp + u
                key = (u * x + j, w * x + y)
                entries[key] = entries.get(key, Scalar(0)) + fv * cv
    return Matrix(sp * x, sp * s * x, entries)
