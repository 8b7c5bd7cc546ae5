"""Reference eliminations that the tests hold the production paths to.

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
