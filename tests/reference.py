"""References that the tests hold the production paths to.

The `ref_*` functions are `Matrix` arithmetic on plain {(r, c): Scalar}
dicts of the nonzero entries, one Scalar operation at a time.

`reference_kernel` is the exact two-RREF kernel: `rref` of the matrix, then
`rref` of its free-column null vectors.  `reference_bookkeeping` is the
greedy choice of H^n representatives, with a coboundary preimage for every
other kernel vector; production code computes H^n from kernels alone.
"""
from hopfcoh.linalg import LinearSolver, Matrix, SpanTracker, rref
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
