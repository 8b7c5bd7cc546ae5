"""References that the tests hold the production paths to.

The `ref_*` functions are `Matrix` arithmetic on plain {(r, c): Scalar}
dicts of the nonzero entries, one Scalar operation at a time.

`reference_kernel` is the exact two-RREF kernel: `rref` of the matrix, then
`rref` of its free-column null vectors; `reference_null_space` is the same
two passes on sparse rows, over Q(i) or Z/p.  Production code eliminates
once.  `reference_bookkeeping` is the greedy choice of H^n representatives,
with a coboundary preimage for every other kernel vector; production code
computes H^n from kernels alone.

The `ref_*` builders of coboundaries, contractions and coactions move
tensor legs the long way: entry by entry with `Scalar` sums, or by
multiplying with `tensor_permutation` and `rotation_sigma` matrices.
Production code moves them with `Matrix.reindex`.

`ref_translates_span` and `ref_check_saturated` build each span test the
long way: one product and one `augment` per basis element t, and the
product on S (x) S applied to delta(s) (x) (1 (x) t).  Production code takes
every translate from one product.

`ref_certify_homotopy` is the signed column-by-column homotopy certificate:
each cocycle z gets its own primitive p and a sign with D p = +-z.
Production code certifies D P = Z for all columns at once, and the
codiagonal homotopy by the operator identity D K + K D = id.

`TensorSpace` is the row-major flat index of an ordered tensor product,
written out digit by digit.
"""
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

from hopfcoh.comodule import module_from_coaction, module_from_left_coaction
from hopfcoh.hopf import dual_algebra_mult
from hopfcoh.linalg import (
    LinearSolver,
    Matrix,
    SpanTracker,
    _rref_rows,
    certify,
    dense,
    image_rank,
    kron,
    kron_all,
    rotation_sigma,
    rref,
    tensor_permutation,
    unit_vec,
)
from hopfcoh.scalars import ONE, Scalar


def reference_kernel(m: Matrix) -> list:
    """The RREF basis of the null space of m, by exact elimination, as dense tuples."""
    pivots, rows = rref(m)
    raw = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [Scalar(0)] * m.cols
        v[f] = ONE
        for p, row in zip(pivots, rows):
            if row.get(f):
                v[p] = -row[f]
        raw.append(v)
    if not raw:
        return []
    _, null_rows = rref(Matrix.from_rows(raw))
    return [tuple(row.get(c, Scalar(0)) for c in range(m.cols)) for row in null_rows]


def reference_null_space(cells: dict, cols: int, p: int = 0):
    """(rank, RREF basis of the null space as sparse rows) of the {(r, c): x}
    cells: eliminate the rows, then eliminate the free-column null vectors
    again, over Q(i), or Z/p when p."""
    rows: dict = {}
    for (r, c), x in cells.items():
        rows.setdefault(r, {})[c] = x
    pivots, red, _ = _rref_rows(list(rows.values()), p=p)
    raw = {f: {f: 1 if p else ONE} for f in range(cols)}
    for piv in pivots:
        del raw[piv]
    for piv, row in zip(pivots, red):
        for c, v in row.items():
            if c != piv:
                raw[c][piv] = p - v if p else -v
    _, basis, _ = _rref_rows(list(raw.values()), p=p)
    return len(pivots), basis


def reference_bookkeeping(cx, n: int):
    """(representatives, ((kernel vector, preimage), ...)) for H^n of cx.

    A SpanTracker takes Im D_{n-1} first; every reference-kernel vector that
    then enlarges the span is a representative.  Each other kernel vector v
    is solved for in [D_{n-1} | representatives] by one LinearSolver, so
    v - D_{n-1}(preimage) is a combination of the representatives.
    """
    kernel = reference_kernel(cx.boundary(n))
    if n == 0:
        return tuple(kernel), ()
    prev = cx.boundary(n - 1)
    span = SpanTracker(cx.degrees[n])
    for j in range(prev.cols):
        span.add(prev.col(j))
    reps = tuple(v for v in kernel if span.add(v))
    solver = LinearSolver(prev.augment(Matrix.from_cols(reps, rows=prev.rows)))
    preimages = tuple((v, solver.solve(v).solution[: prev.cols]) for v in kernel if v not in reps)
    return reps, preimages


# -- Matrix arithmetic on {(r, c): Scalar} dicts ------------------------------


def _nonzero(entries: dict) -> dict:
    return {k: v for k, v in entries.items() if v}


def ref_product(a: dict, b: dict) -> dict:
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), Scalar(0)) + x * y
    return _nonzero(out)


def ref_kron(a: dict, b: dict, b_rows: int, b_cols: int) -> dict:
    return {
        (ia * b_rows + ib, ja * b_cols + jb): x * y for (ia, ja), x in a.items() for (ib, jb), y in b.items()
    }


def ref_sum(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, y in b.items():
        out[k] = out.get(k, Scalar(0)) + sign * y
    return _nonzero(out)


def ref_scale(a: dict, c: Scalar) -> dict:
    return _nonzero({k: c * x for k, x in a.items()})


def ref_transpose(a: dict) -> dict:
    return {(c, r): x for (r, c), x in a.items()}


def ref_conj_transpose(a: dict) -> dict:
    return {(c, r): x.conjugate() for (r, c), x in a.items()}


def ref_augment(a: dict, b: dict, a_cols: int) -> dict:
    return {**a, **{(r, c + a_cols): x for (r, c), x in b.items()}}


def ref_reindex(a: dict, key) -> dict:
    return {key(r, c): x for (r, c), x in a.items()}


# -- tensor reshuffles, entry by entry or by permutation products -------------


def ref_natural_coboundary(b, n: int) -> Matrix:
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    beta, gamma = b.beta.beta, b.gamma.gamma
    if n == 0:
        return beta - rotation_sigma(1, 1, x, s) @ gamma
    i_sn = Matrix.identity(s**n)
    total = kron(beta, i_sn)
    for k in range(1, n + 1):
        term = kron_all(Matrix.identity(x * s ** (k - 1)), h.comult, Matrix.identity(s ** (n - k)))
        total = total + term.scale((-1) ** k)
    last = rotation_sigma(n + 1, 1, x, s) @ kron(gamma, i_sn)
    return total + last.scale((-1) ** (n + 1))


def ref_dual_coboundary(b, n: int) -> Matrix:
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    sn = s**n
    entries: dict = {}

    def bump(r, c, val):
        entries[(r, c)] = entries.get((r, c), Scalar(0)) + val

    for (r, j), val in b.beta.beta.entries.items():
        y, a = divmod(r, s)
        for v in range(sn):
            bump((v * s + a) * x + j, v * x + y, val)
    sign_g = ONE if (n + 1) % 2 == 0 else -ONE
    for (r, j), val in b.gamma.gamma.entries.items():
        a, y = divmod(r, x)
        for v in range(sn):
            bump((a * sn + v) * x + j, v * x + y, sign_g * val)
    mat = Matrix(sn * s * x, sn * x, entries)
    for k in range(1, n + 1):
        ins = kron_all(Matrix.identity(s ** (n - k)), h.comult, Matrix.identity(s ** (k - 1)))
        mat = mat + kron(ins, Matrix.identity(x)).scale((-1) ** k)
    return mat


def ref_bar_boundary(b, n: int) -> Matrix:
    x, s = b.space_dim, b.hopf.dim
    mult_b = dual_algebra_mult(b.hopf)
    act_l, act_r = module_from_coaction(b.beta), module_from_left_coaction(b.gamma)
    total = kron(Matrix.identity(s ** (n - 1)), act_l)
    for i in range(1, n):
        term = kron_all(Matrix.identity(s ** (i - 1)), mult_b, Matrix.identity(s ** (n - i - 1) * x))
        total = total + term.scale((-1) ** (n - i))
    rotate = tensor_permutation([s] * n + [x], list(range(1, n + 1)) + [0])
    last = kron(Matrix.identity(s ** (n - 1)), act_r) @ rotate
    return total + last.scale((-1) ** n)


def ref_sign_identity_sides(nat: Matrix, dua: Matrix, x: int, s: int, n: int) -> tuple:
    def reshuffle(sn):  # X^* (x) S^n -> Hom(X, S^n): (m, w) -> (w, m)
        return tensor_permutation([x, sn], [1, 0])

    return reshuffle(s ** (n + 1)) @ nat, (dua @ reshuffle(s**n)).scale((-1) ** (n + 1))


def ref_codiagonal_contraction(b, n: int, f, side: str) -> Matrix:
    x, s, sp = b.space_dim, b.hopf.dim, b.hopf.dim ** (n - 1)
    beta = side == "beta"
    sign = 1 if beta else (-1) ** n
    entries: dict = {}
    for (r, j), cv in (b.beta.beta if beta else b.gamma.gamma).entries.items():
        y, a = divmod(r, s) if beta else divmod(r, x)[::-1]
        for c in range(s):
            fv = sign * f[c * s + a if beta else a * s + c]
            for u in range(sp) if fv else ():
                w = u * s + c if beta else c * sp + u
                key = (u * x + j, w * x + y)
                entries[key] = entries.get(key, Scalar(0)) + fv * cv
    return Matrix(sp * x, sp * s * x, entries)


def ref_dual_coaction(beta: Matrix, x: int, s: int) -> Matrix:
    entries = {}
    for (r, j), v in beta.entries.items():
        m, a = divmod(r, s)
        entries[(a * x + j, m)] = v
    return Matrix(s * x, x, entries)


def ref_dual_coaction_left(gamma: Matrix, x: int, s: int) -> Matrix:
    entries = {}
    for (r, j), v in gamma.entries.items():
        a, m = divmod(r, x)
        entries[(j * s + a, m)] = v
    return Matrix(x * s, x, entries)


def ref_module_from_coaction(beta: Matrix, x: int, s: int) -> Matrix:
    entries = {}
    for (r, j), v in beta.entries.items():
        i, b = divmod(r, s)
        entries[(i, b * x + j)] = v
    return Matrix(x, s * x, entries)


def ref_coaction_from_module(action: Matrix, x: int, s: int) -> Matrix:
    entries = {}
    for (i, col), v in action.entries.items():
        b, j = divmod(col, x)
        entries[(i * s + b, j)] = v
    return Matrix(x * s, x, entries)


def ref_module_from_left_coaction(gamma: Matrix, x: int, s: int) -> Matrix:
    entries = {}
    for (r, j), v in gamma.entries.items():
        b, i = divmod(r, x)
        entries[(i, j * s + b)] = v
    return Matrix(x, x * s, entries)


# -- span tests, one basis element at a time ---------------------------------


def ref_translates_span(h, coaction: Matrix, x: int, s_leg_first: bool):
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


def ref_check_saturated(h):
    """(left, right): span{delta(s)(1 (x) t)} and span{delta(s)(t (x) 1)} = S (x) S,
    through the componentwise product on S (x) S."""
    d = h.dim
    i_s = Matrix.identity(d)
    mult2 = kron(h.mult, h.mult) @ tensor_permutation([d] * 4, [0, 2, 1, 3])
    sides = (kron(Matrix.column(h.unit), i_s), kron(i_s, Matrix.column(h.unit)))
    return tuple(image_rank(mult2 @ kron(h.comult, side)) == d * d for side in sides)


def bench_workloads():
    """bench/workloads.py, loaded by path: its monoid tables and invariant-mean criterion."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("hopfcoh_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


# -- the row-major tensor index, digit by digit -------------------------------


@dataclass(frozen=True)
class TensorSpace:
    """An ordered tensor product of coordinate spaces."""

    factors: tuple

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(int(d) for d in factors))
        if any(d < 0 for d in self.factors):
            raise ValueError("negative factor dimension")

    @property
    def total_dim(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def flat(self, indices) -> int:
        indices = tuple(indices)
        if len(indices) != len(self.factors):
            raise ValueError("index arity mismatch")
        i = 0
        for k, d in zip(indices, self.factors):
            if not 0 <= k < d:
                raise ValueError("tensor index out of range")
            i = i * d + k
        return i

    def unflat(self, i: int):
        if not 0 <= i < self.total_dim:
            raise ValueError("flat index out of range")
        out = []
        for d in reversed(self.factors):
            out.append(i % d)
            i //= d
        return tuple(reversed(out))


def ref_certify_homotopy(cx, n: int, cocycles, contraction: Matrix) -> tuple:
    """(primitive, sign) per cocycle z from K_n: the primitive K_n z as a dense
    tuple, with D_{n-1}(primitive) = sign * z certified column by column."""
    if not cocycles:
        return ()
    z = Matrix.from_cols(cocycles, rows=cx.degrees[n])
    if not (cx.boundary(n) @ z).is_zero():
        raise ValueError("input is not a cocycle")
    prims = contraction @ z
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
        certs.append((dense(p, prims.rows), sign))
    return tuple(certs)
