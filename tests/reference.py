"""References that the tests hold the production paths to.

The `ref_*` functions are `Matrix` arithmetic on plain {(r, c): Scalar}
dicts of the nonzero entries, one Scalar operation at a time;
`ref_product_numerators` is the product on a Matrix's integer numerators,
every entry of the left factor against every entry of the right, for the key
order that `linalg._product`'s row buckets must keep.

`reference_rref_rows` is the column sweep over a field: at each column the
shortest row holding it becomes the monic pivot row and the column is
removed from every other row.  `linalg.LinearSolver` keeps that pivot rule,
fraction-free; `linalg._rref_rows` takes integer rows one at a time,
fraction-free, so every reference below that eliminates (`reference_rref`,
`reference_rank`, the kernels and the span tests) runs this sweep rather
than the code under test.  `reference_solve` reads a
solution or a left-kernel certificate off the sweep's tracks of the unit
rows; `LinearSolver` sweeps [m | rhs] and keeps no tracks.

`reference_kernel` is the exact two-RREF kernel: RREF of the matrix, then
RREF of its free-column null vectors; `reference_null_space` is the same
two passes on sparse rows over Q(i).  Production code eliminates once.  `reference_bookkeeping` is the greedy choice of H^n representatives,
with a coboundary preimage for every other kernel vector; production code
computes H^n from kernels alone.

The `ref_*` builders of coboundaries, contractions and coactions move
tensor legs the long way: entry by entry with `Scalar` sums, or by
multiplying with `tensor_permutation` and `rotation_sigma` matrices.
Production code moves them with `Matrix.reindex`.

`combination_natural_coboundary`, `combination_dual_coboundary` and
`combination_bar_boundary` build every face as its own `Matrix` (`kron`,
`kron_all`, a full-size `reindex`) and sum the faces with `combination`.
Production code describes the faces to `linalg.face_sum`, which builds none
of them; the two must agree in entries, denominator and key order.

`ref_drop_cols` builds D without some columns, the kept ones renumbered
through a dict.  Production code builds no such copy: `kernel_basis_without`
skips the dropped columns while it groups D's cells into rows.

`ref_translates_span` and `ref_check_saturated` build each span test the
long way: one product and one `augment` per basis element t, and the
product on S (x) S applied to delta(s) (x) (1 (x) t).  Production code takes
every translate from one product.

`ref_multiplicativity` is the law Delta(ab) = Delta(a)Delta(b) through
kron(m, m), the product on S (x) S, applied to kron(delta, delta).
Production code builds neither: it accumulates delta m less
Delta(e_a)Delta(e_b) over the basis pairs (a, b) in one pass, multiplying
each pair's legs by m's columns.

`ref_associativity_witness` is the least failing column of the law
(ab)c = a(bc) through kron(m, I_s) and kron(I_s, m).  Production code builds
neither: it accumulates (e_a e_b) e_c - e_a (e_b e_c) over the basis triples
in one pass, multiplying by m's columns.

`ref_kac_paljutkin` derives kp8's tensors from its relations on `Fraction`
coefficients, one word product at a time.  Production code derives them
from one table of the word products on integer numerators over 2.

`ref_codiagonal_system` is the codiagonal system the long way: a triple
loop over (p, q, c) with the coproduct's entries sorted into index tables
by leg.  Production code reindexes kron(I, delta) and kron(delta, I).

`ref_certify_homotopy` is the signed column-by-column homotopy certificate:
each cocycle z gets its own primitive p and a sign with D p = +-z.
Production code certifies every contraction by the operator identity
D K + K D = id on all of C^n, with no cocycle in it.  `ref_contraction`
builds the counit and invariant-state contractions with `kron`; production
code describes them to `face_sum`.

`ref_solve_equality_feasibility` is the phase-1 simplex with Bland's rule
on a tableau of Fractions, every pivot row made monic.  Production code
keeps integer rows, each a positive multiple of the exact one.

`ref_psd_check` is the LDL* PSD test on an (i, j)-keyed copy of the
matrix, every active row rescanned at each pivot.  Production code updates
m's own rows, only those holding the pivot column; both return the same
verdict, pivots and witness.

`TensorSpace` is the row-major flat index of an ordered tensor product,
written out digit by digit.  `order3_monoid_tables` lists the inputs of the
random-monoid tests, and `Z4_CHARACTER_JOB` is a job whose comodule is
non-real, so its eliminations run on Gaussian integers.
"""
import importlib.util
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path

from hopfcoh.comodule import module_from_coaction, module_from_left_coaction
from hopfcoh.hopf import dual_algebra_mult
from hopfcoh.linalg import (
    LinearSolver,
    Matrix,
    PsdResult,
    SolveResult,
    SpanTracker,
    Vec,
    _certify_ldl,
    certify,
    combination,
    dense,
    kron,
    kron_all,
    leg_map,
    tensor_permutation,
    unit_vec,
)
from hopfcoh.lp import Feasibility, _verify_point
from hopfcoh.scalars import ONE, Scalar, as_scalar


def reference_rref_rows(row_dicts, track=None):
    """Full RREF of a list of sparse rows by a column sweep.

    It is exact over whatever field the entries lie in, and keeps their
    type: Fraction rows stay Fraction, Scalar rows (Q(i)) stay Scalar,
    since the only constant it brings in is 1 / pivot.  Mutates nothing
    passed in.  Returns (pivots, rows, tracks) with monic pivots, zero above
    and below each pivot, rows sorted by pivot column.  If `track` is a
    parallel list of sparse rows, the same row operations are applied to it
    (used for inconsistency certificates) and tracks is (the tracks of the
    rows that reduced to zero, the tracks of the pivot rows); else None.
    """

    def scaled(row, k):
        return {c: k * v for c, v in row.items()}

    def axpy(trow, prow, factor, ri=None):
        """trow -= factor * prow in place; with ri, `present` follows row ri's support."""
        for c, v in prow.items():
            nv = trow[c] - factor * v if c in trow else -(factor * v)
            if nv:
                if ri is not None and c not in trow:
                    present[c].add(ri)
                trow[c] = nv
            elif c in trow:
                del trow[c]
                if ri is not None:
                    present[c].discard(ri)

    work = [dict(r) for r in row_dicts]
    tr = [dict(t) for t in track] if track is not None else None
    pivots = []
    pivot_rows = []  # indices into work, aligned with pivots
    present: dict = {}  # column -> the rows with a nonzero there
    for ri, row in enumerate(work):
        for c in row:
            present.setdefault(c, set()).add(ri)
    used = set()
    for col in sorted(present):
        cand = [ri for ri in present[col] if ri not in used]
        if not cand:
            continue
        ri = min(cand, key=lambda r: (len(work[r]), r))
        inv = 1 / work[ri][col]
        if inv != 1:
            work[ri] = scaled(work[ri], inv)
            if tr is not None:
                tr[ri] = scaled(tr[ri], inv)
        for other in [r for r in present[col] if r != ri]:
            factor = work[other][col]
            axpy(work[other], work[ri], factor, other)
            if tr is not None:
                axpy(tr[other], tr[ri], factor)
        used.add(ri)
        pivots.append(col)
        pivot_rows.append(ri)

    out_rows = [work[r] for r in pivot_rows]
    if tr is None:
        return pivots, out_rows, None
    zero_tracks = [tr[r] for r in range(len(work)) if r not in used]
    return pivots, out_rows, (zero_tracks, [tr[r] for r in pivot_rows])


def reference_solve(row_dicts, cols: int, rhs):
    """(pivots, SolveResult) of the rows against rhs from the column sweep's unit tracks.

    The first track of a row that reduced to zero with t . rhs != 0, in row
    order, is the certificate; else x at each pivot column is its pivot
    row's track . rhs.  Entries are Scalars.
    """
    units = [{r: 1} for r in range(len(row_dicts))]
    pivots, _, (zero_tracks, pivot_tracks) = reference_rref_rows(row_dicts, units)

    def pair(track):
        return sum((as_scalar(rhs[r]) * x for r, x in track.items()), Scalar(0))

    for t in zero_tracks:
        if pair(t):
            return pivots, SolveResult(None, dense({r: as_scalar(x) for r, x in t.items()}, len(row_dicts)))
    return pivots, SolveResult(dense({p: pair(t) for p, t in zip(pivots, pivot_tracks)}, cols), None)


def reference_rref(m: Matrix):
    """(pivot columns, RREF rows as sparse dicts) of m, by reference_rref_rows."""
    rows: dict = {}
    for (r, c), x in sorted(m.entries.items()):
        rows.setdefault(r, {})[c] = x
    pivots, red, _ = reference_rref_rows(list(rows.values()))
    return pivots, red


def reference_rank(m: Matrix) -> int:
    return len(reference_rref(m)[0])


def reference_kernel(m: Matrix) -> list:
    """The RREF basis of the null space of m, by exact elimination, as dense tuples."""
    pivots, rows = reference_rref(m)
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
    _, null_rows = reference_rref(Matrix.from_rows(raw))
    return [tuple(row.get(c, Scalar(0)) for c in range(m.cols)) for row in null_rows]


def reference_null_space(cells: dict, cols: int):
    """(rank, RREF basis of the null space as sparse rows) of the {(r, c): x}
    cells over Q(i): eliminate the rows, then eliminate the free-column null
    vectors again."""
    rows: dict = {}
    for (r, c), x in cells.items():
        rows.setdefault(r, {})[c] = x
    pivots, red, _ = reference_rref_rows(list(rows.values()))
    raw = {f: {f: ONE} for f in range(cols)}
    for piv in pivots:
        del raw[piv]
    for piv, row in zip(pivots, red):
        for c, v in row.items():
            if c != piv:
                raw[c][piv] = -v
    _, basis, _ = reference_rref_rows(list(raw.values()))
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


def ref_product_numerators(a: Matrix, b: Matrix) -> Matrix:
    """a @ b from its numerators over a.den * b.den without buckets: each part pair of
    (A + Bi)(C + Di) in turn, every entry of a against every entry of b, keys in
    first-touch order and zero sums dropped at the end."""
    re, im = {}, {}
    for acc, x, y, f in ((re, a.re, b.re, 1), (re, a.im, b.im, -1), (im, a.re, b.im, 1), (im, a.im, b.re, 1)):
        for (i, k), u in x.items():
            for (k2, j), v in y.items():
                if k == k2:
                    acc[(i, j)] = acc.get((i, j), 0) + f * u * v
    re, im = ({key: v for key, v in part.items() if v} for part in (re, im))
    return Matrix._of(a.rows, b.cols, re, im, a.den * b.den)


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


def ref_drop_cols(m: Matrix, drop) -> Matrix:
    """m without the columns in drop, the others renumbered in order, through a dict
    from each kept column to its new number."""
    new = dict(zip(sorted(set(range(m.cols)).difference(drop)), range(m.cols)))
    re, im = ({(r, new[c]): v for (r, c), v in d.items() if c in new} for d in (m.re, m.im))
    return Matrix._of(m.rows, len(new), re, im, m.den)


# -- tensor reshuffles, entry by entry or by permutation products -------------


def rotation_sigma(n: int, k: int, x_dim: int, s_dim: int) -> Matrix:
    """The leg rotation from S^k (x) X (x) S^{n-k} onto X (x) S^n.

    The k leading S legs are the final k of the n output legs: the source
    pure tensor s_{n-k+1} (x) ... (x) s_n (x) x (x) s_1 (x) ... (x) s_{n-k}
    maps to x (x) s_1 (x) ... (x) s_n.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    src_dims = [s_dim] * k + [x_dim] + [s_dim] * (n - k)
    # target slot 0 is X (source slot k); output S slot j is s_j
    tgt_to_src = [k]
    for j in range(1, n + 1):
        if j <= n - k:
            tgt_to_src.append(k + j)  # trailing source legs s_1..s_{n-k}
        else:
            tgt_to_src.append(j - (n - k) - 1)  # leading source legs s_{n-k+1}..s_n
    return tensor_permutation(src_dims, tgt_to_src)


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


# -- the coboundaries face by face: one Matrix per face, then combination ----


def combination_natural_coboundary(b, n: int) -> Matrix:
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    i_sn = Matrix.identity(s**n)
    faces = [(1, kron(b.beta.beta, i_sn))]
    for k in range(1, n + 1):
        left = Matrix.identity(x * s ** (k - 1))
        right = Matrix.identity(s ** (n - k))
        faces.append(((-1) ** k, kron_all(left, h.comult, right)))
    last = kron(b.gamma.gamma, i_sn)
    move = leg_map([s, last.cols], [1, 0])
    faces.append(((-1) ** (n + 1), last.reindex(last.rows, last.cols, lambda r, c: (move[r], c))))
    return combination(faces)


def combination_dual_coboundary(b, n: int) -> Matrix:
    h, x, s = b.hopf, b.space_dim, b.hopf.dim
    sn = s**n
    rows, cols, i_sn = sn * s * x, sn * x, Matrix.identity(sn)

    def on_gamma(r, c):
        v, a, y = r // (s * x), r // x % s, r % x
        return (a * sn + v) * x + c % x, v * x + y

    beta = b.beta.beta.reindex(s * x, x, lambda r, j: (r % s * x + j, r // s))
    faces = [(1, kron(i_sn, beta)), ((-1) ** (n + 1), kron(i_sn, b.gamma.gamma).reindex(rows, cols, on_gamma))]
    for k in range(1, n + 1):
        ins = kron_all(Matrix.identity(s ** (n - k)), h.comult, Matrix.identity(s ** (k - 1) * x))
        faces.append(((-1) ** k, ins))
    return combination(faces)


def combination_bar_boundary(b, n: int) -> Matrix:
    x, s = b.space_dim, b.hopf.dim
    mult_b = dual_algebra_mult(b.hopf)
    act_l, act_r = module_from_coaction(b.beta), module_from_left_coaction(b.gamma)
    faces = [(1, kron(Matrix.identity(s ** (n - 1)), act_l))]
    for i in range(1, n):
        term = kron_all(Matrix.identity(s ** (i - 1)), mult_b, Matrix.identity(s ** (n - i - 1) * x))
        faces.append(((-1) ** (n - i), term))
    last = kron(Matrix.identity(s ** (n - 1)), act_r)
    back = leg_map([last.cols // s, s], [1, 0])
    faces.append(((-1) ** n, last.reindex(last.rows, last.cols, lambda r, c: (r, back[c]))))
    return combination(faces)


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
        out.append(reference_rank(translates) == x * s)
    return tuple(out)


def ref_check_saturated(h):
    """(left, right): span{delta(s)(1 (x) t)} and span{delta(s)(t (x) 1)} = S (x) S,
    through the componentwise product on S (x) S."""
    d = h.dim
    i_s = Matrix.identity(d)
    mult2 = kron(h.mult, h.mult) @ tensor_permutation([d] * 4, [0, 2, 1, 3])
    sides = (kron(Matrix.column(h.unit), i_s), kron(i_s, Matrix.column(h.unit)))
    return tuple(reference_rank(mult2 @ kron(h.comult, side)) == d * d for side in sides)


def ref_multiplicativity(m: Matrix, delta: Matrix, d: int) -> Matrix:
    """delta(ab) - delta(a) delta(b) as delta m - kron(m, m) swap kron(delta, delta),
    the product on S (x) S built whole."""
    mult2 = kron(m, m) @ tensor_permutation([d] * 4, [0, 2, 1, 3])
    return delta @ m - mult2 @ kron(delta, delta)


def ref_associativity_witness(m: Matrix, d: int):
    """The least nonzero column of m kron(m, I_s) - m kron(I_s, m), None if there is none."""
    i_s = Matrix.identity(d)
    return min((c for _, c in (m @ kron(m, i_s) - m @ kron(i_s, m)).support), default=None)


def ref_kac_paljutkin() -> tuple:
    """(mult, comult, star) of kp8 (hopfcoh.kacpaljutkin's presentation) on Fractions."""
    order = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    one, x, y, z = (order.index(w) for w in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    half = Fraction(1, 2)
    u = {one: half, x: half, y: half, order.index((1, 1, 0)): -half}  # z^2

    def word_mul(i, j):
        (a, b, c), (d, e, f) = order[i], order[j]
        if c:  # z x^d y^e = x^e y^d z
            d, e = e, d
        a2, b2 = (a + d) % 2, (b + e) % 2
        if c + f < 2:
            return {order.index((a2, b2, c + f)): Fraction(1)}
        return {order.index(((a2 + p) % 2, (b2 + q) % 2, 0)): v for k, v in u.items() for p, q, _ in [order[k]]}

    def mul(v1, v2):
        out = {}
        for i, s in v1.items():
            for j, t in v2.items():
                for k, w in word_mul(i, j).items():
                    out[k] = out.get(k, 0) + s * t * w
        return out

    def tensor_mul(p1, p2):
        out = {}
        for (i1, j1), s in p1.items():
            for (i2, j2), t in p2.items():
                for k1, w1 in word_mul(i1, i2).items():
                    for k2, w2 in word_mul(j1, j2).items():
                        out[(k1, k2)] = out.get((k1, k2), 0) + s * t * w1 * w2
        return out

    dz = tensor_mul({(one, one): half, (one, x): half, (y, one): half, (y, x): -half}, {(z, z): 1})
    comult, star = {}, {}
    for col, (a, b, c) in enumerate(order):
        word = {(one, one): 1}
        for factor, power in (({(x, x): 1}, a), ({(y, y): 1}, b), (dz, c)):
            for _ in range(power):
                word = tensor_mul(word, factor)
        comult.update({(k1 * 8 + k2, col): v for (k1, k2), v in word.items()})
        image = {one: 1}  # star reverses the word and sends z to u z
        for factor, power in ((mul(u, {z: 1}), c), ({y: 1}, b), ({x: 1}, a)):
            for _ in range(power):
                image = mul(image, factor)
        star.update({(k, col): v for k, v in image.items()})
    mult = {(k, i * 8 + j): v for i in range(8) for j in range(8) for k, v in word_mul(i, j).items()}
    return Matrix(8, 64, mult), Matrix(64, 8, comult), Matrix(8, 8, star)


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


def ref_codiagonal_system(h):
    """(matrix, rhs) of F o delta = eps over the balance rows (p, q, c) that
    either side reaches, in increasing (p, q, c)."""
    d = h.dim
    # each coproduct column's nonzero entries delta(e_j)[a, b], read once:
    # by the second leg b (for the left side) and by the first leg a (right side)
    by_b: dict = {}
    by_a: dict = {}
    rows_entries: dict = {}
    for (idx, j), v in h.comult.entries.items():
        a, b = divmod(idx, d)
        by_b.setdefault((j, b), []).append((a, v))
        by_a.setdefault((j, a), []).append((b, v))
        rows_entries[(j, idx)] = v  # F o delta = eps on e_j
    rhs = list(h.counit)
    row = d
    # (F (x) id)(id (x) delta) = (id (x) F)(delta (x) id) on e_p (x) e_q, coord c
    for p in range(d):
        for q in range(d):
            for c in range(d):
                left, right = by_b.get((q, c), ()), by_a.get((p, c), ())
                if not left and not right:
                    continue
                coeffs: dict = {}
                for a, v in left:
                    coeffs[p * d + a] = coeffs.get(p * d + a, 0) + v
                for b, v in right:
                    coeffs[b * d + q] = coeffs.get(b * d + q, 0) - v
                for key, v in coeffs.items():
                    rows_entries[(row, key)] = v
                rhs.append(Scalar(0))
                row += 1
    return Matrix(row, d * d, rows_entries), tuple(rhs)


def ref_contraction(b, kind: str, functional: Matrix, n: int, sign: int) -> Matrix:
    """K_n = sign (functional (x) id) on the first S leg of Hom(X, S^n), or on the
    last leg of X (x) S^n for the natural complex, as a kron product."""
    rest = Matrix.identity(b.space_dim * b.hopf.dim ** (n - 1))
    return (kron(rest, functional) if kind == "natural" else kron(functional, rest)).scale(sign)


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


# the function algebra of Z/4 with the character comodule x -> x (x) chi,
# chi = (1, i, -1, -i): a non-real coaction, so the job eliminates over Q(i)
Z4_CHARACTER_JOB = """
algebra = inline-function
tasks = cohomology:dual:0-2, cohomology:natural:0-2, check-C10, check-C15

begin cayley
  identity = 0
  row 0 1 2 3
  row 1 2 3 0
  row 2 3 0 1
  row 3 0 1 2
end

begin comodule chi
  dim = 1
  gamma = trivial
  begin beta
    row 1
    row i
    row -1
    row -i
  end
end
"""


def order3_monoid_tables():
    """Every associative table on {0, 1, 2} with identity 0."""
    out = []
    for a, b, c, d in product(range(3), repeat=4):
        t = ((0, 1, 2), (1, a, b), (2, c, d))
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x, y, z in product(range(3), repeat=3)):
            out.append(t)
    return out


# -- the phase-1 simplex over Fractions ---------------------------------------


def ref_solve_equality_feasibility(a_rows, b_col) -> Feasibility:
    """Phase-1 simplex for {A w = b, w >= 0} in exact rational arithmetic."""
    a = [[Fraction(x) for x in row] for row in a_rows]
    b = [Fraction(x) for x in b_col]
    m = len(a)
    n = len(a[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau columns: w_0..w_{n-1}, artificials a_0..a_{m-1}, rhs
    width = n + m
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimise sum of artificials; row of reduced costs for -z
    obj = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        s = Fraction(0)
        for i in range(m):
            if basis[i] >= n:
                s += tab[i][j]
        obj[j] = (Fraction(1) if n <= j < width else Fraction(0)) - s

    def pivot(r, c):
        pr = tab[r]
        pv = pr[c]
        tab[r] = [x / pv for x in pr]
        pr = tab[r]
        for i in range(m):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], pr)]
        if obj[c]:
            f = obj[c]
            for j in range(width + 1):
                obj[j] -= f * pr[j]
        basis[r] = c

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        ratios = [
            (tab[i][width] / tab[i][entering], basis[i], i)
            for i in range(m)
            if tab[i][entering] > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded: impossible")
        _, _, leave = min(ratios)
        pivot(leave, entering)

    optimum = -obj[width]
    if optimum > 0:
        # simplex multipliers: y_i = 1 - reduced cost of artificial i
        y = tuple(Fraction(1) - obj[n + i] for i in range(m))
        yb = Fraction(0)
        for i in range(m):
            yb += y[i] * Fraction(b[i])
        certify(yb > 0, "Farkas certificate lost its objective value")
        for j in range(n):
            s = Fraction(0)
            for i in range(m):
                s += y[i] * a[i][j]
            certify(s <= 0, "Farkas certificate fails y^T A <= 0")
        # undo the row sign flips so the certificate applies to the input data
        signs = [1 if Fraction(x) >= 0 else -1 for x in b_col]
        y_orig = tuple(y[i] * signs[i] for i in range(m))
        return Feasibility(False, farkas=y_orig)
    point = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            point[col] = tab[i][width]
    w = tuple(point)
    _verify_point(a_rows, b_col, w)
    return Feasibility(True, point=w)


# -- the PSD test on an (i, j)-keyed copy --------------------------------------


def ref_psd_check(m: Matrix) -> PsdResult:
    """Exact LDL*-with-diagonal-pivoting PSD test for Hermitian m.

    Zero diagonal pivots are legal only when their whole active row/column
    vanishes; a negative diagonal or a nonzero off-diagonal entry against a
    zero diagonal yields an explicit witness v with v* m v < 0.  A PSD answer
    is certified by m = V D V* with D positive diagonal (_certify_ldl).
    """
    if not m.is_hermitian():
        raise ValueError("psd_check requires a Hermitian matrix")
    n = m.rows
    a = {k: v for k, v in m.entries.items()}

    def get(i, j):
        return a.get((i, j), Scalar(0))

    active = list(range(n))
    steps = []  # (pivot index p, pivot d, {j: a[p,j]/d}), for witness lifting and _certify_ldl

    def lift(w: dict) -> Vec:
        for p, _, ratios in reversed(steps):
            s = Scalar(0)
            for j, r in ratios.items():
                x = w.get(j)
                if x:
                    s = s + r * x
            if s:
                w[p] = -s
        return dense(w, n)

    def certified(w: dict) -> PsdResult:
        v = lift(w)
        quad = Scalar(0)
        for (i, j), val in m.entries.items():
            if v[i] and v[j]:
                quad = quad + v[i].conjugate() * val * v[j]
        certify(quad.is_real and quad < 0, "PSD witness failed verification")
        return PsdResult(False, witness=v)

    while active:
        diag = {i: get(i, i) for i in active}
        for i in active:
            d = diag[i]
            if d and not d.is_real:
                raise ValueError("Hermitian matrix with non-real diagonal")
        neg = [i for i in active if diag[i] and diag[i] < 0]
        if neg:
            return certified({neg[0]: ONE})
        pos = [i for i in active if diag[i]]
        if not pos:
            # all active diagonals zero: PSD iff the active block is zero
            off = [
                (i, j)
                for (i, j) in a
                if i in active and j in active and i != j and a[(i, j)]
            ]
            if off:
                i, j = min(off)
                return certified({i: -a[(i, j)], j: ONE})
            break
        p = pos[0]
        d = diag[p]
        row = {j: get(p, j) for j in active if j != p and get(p, j)}
        ratios = {j: v / d for j, v in row.items()}
        for i in active:
            if i == p:
                continue
            api = get(i, p)
            if not api:
                continue
            for j, r in ratios.items():
                key = (i, j)
                nv = a.get(key, Scalar(0)) - api * r
                if nv:
                    a[key] = nv
                elif key in a:
                    del a[key]
        for i in active:
            a.pop((i, p), None)
            a.pop((p, i), None)
        steps.append((p, d, ratios))
        active.remove(p)
    _certify_ldl(m, steps)
    return PsdResult(True, pivots=tuple((p, d) for p, d, _ in steps))
