"""References that the tests hold the production paths to.

The `ref_*` functions are `Matrix` arithmetic on plain {(r, c): Scalar}
dicts of the nonzero entries, one Scalar operation at a time.

`reference_kernel` is the exact two-RREF kernel: `rref` of the matrix, then
`rref` of its free-column null vectors.  `reference_bookkeeping` is the
greedy choice of H^n representatives, with a coboundary preimage for every
other kernel vector; production code computes H^n from kernels alone.

The `ref_*` builders of coboundaries, contractions and coactions move
tensor legs the long way: entry by entry with `Scalar` sums, or by
multiplying with `tensor_permutation` and `rotation_sigma` matrices.
Production code moves them with `Matrix.reindex`.
"""
from hopfcoh.comodule import module_from_coaction, module_from_left_coaction
from hopfcoh.hopf import dual_algebra_mult
from hopfcoh.linalg import (
    LinearSolver,
    Matrix,
    SpanTracker,
    kron,
    kron_all,
    rotation_sigma,
    rref,
    tensor_permutation,
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
    entries: dict = {}
    for (r, j), cv in (b.beta.beta if beta else b.gamma.gamma).entries.items():
        y, a = divmod(r, s) if beta else divmod(r, x)[::-1]
        for c in range(s):
            fv = f[c * s + a if beta else a * s + c]
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
