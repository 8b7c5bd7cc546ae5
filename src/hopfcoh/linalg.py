"""Exact tensor-indexed linear algebra over Gaussian rationals.

Matrices are immutable and sparse (zero entries are never stored), but
every operation has dense semantics.  A Matrix holds integer numerators
over one common denominator, with an imaginary part only when some entry
is non-real, so products, sums and kron run on Python ints; `entries` is
the {(r, c): Scalar} view for the edges.  The single global tensor-index
convention lives here:

    flat index of e_{i1} (x) ... (x) e_{ik}  =  mixed-radix number with i1
    most significant (row-major).

Everything that builds tensor-leg maps (kron, leg_map, rotation_sigma, the
cochain module) cites this convention; nothing else in the package is
allowed to invent its own index order.  Tensors change legs without
arithmetic: leg_map says where each flat index goes and Matrix.reindex
moves the entries there.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Optional

from .scalars import ONE, ZERO, Scalar, as_scalar

Vec = tuple  # tuple[Scalar, ...]


class CertificateError(Exception):
    """A certificate failed its exact re-check: a bug, never bad input."""


def certify(ok: bool, what: str) -> None:
    """Raise CertificateError(what) unless ok; unlike assert, runs under python -O."""
    if not ok:
        raise CertificateError(what)


# ---------------------------------------------------------------------------
# vectors


def vec(entries) -> Vec:
    return tuple(as_scalar(x) for x in entries)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def dense(v: dict, n: int) -> Vec:
    """The length-n vector with the sparse entries v (index -> Scalar), zeros the shared ZERO."""
    out = [ZERO] * n
    for i, x in v.items():
        out[i] = x
    return tuple(out)


def vec_dot(a: Vec, b: Vec) -> Scalar:
    """Plain bilinear pairing (no conjugation)."""
    total = Scalar(0)
    for x, y in zip(a, b, strict=True):
        if x and y:
            total = total + x * y
    return total


# ---------------------------------------------------------------------------
# tensor index bookkeeping


@dataclass(frozen=True)
class TensorSpace:
    """An ordered tensor product of coordinate spaces."""

    factors: tuple

    def __init__(self, factors: Iterable[int]):
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


# ---------------------------------------------------------------------------
# matrices


def _combine(x: dict, kx: int, y: dict, ky: int) -> dict:
    """kx x + ky y for sparse integer dicts, zeros dropped."""
    out = {k: kx * v for k, v in x.items()} if kx else {}
    for k, v in y.items() if ky else ():
        s = out.get(k, 0) + ky * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _product(a: dict, b: dict) -> dict:
    """The sparse integer product of {(i, k): x} and {(k, j): y}, zeros dropped."""
    right: dict = {}
    for (k, j), y in b.items():
        right.setdefault(k, []).append((j, y))
    acc: dict = {}
    for (i, k), x in a.items():
        for j, y in right.get(k, ()):
            key = (i, j)
            acc[key] = acc.get(key, 0) + x * y
    return {k: v for k, v in acc.items() if v}


def _parts(v):
    """(re, im) of an int, Fraction or Scalar, each an int or a Fraction."""
    if type(v) is int:
        return v, 0
    v = as_scalar(v)
    return v.re, v.im


class Matrix:
    """Immutable sparse matrix over Q(i): integer numerators over one denominator.

    `re` and `im` map (r, c) to the nonzero integer numerators of the real
    and imaginary parts (`im` is empty unless an entry is non-real) and
    `den` is positive, with gcd(den, numerators) = 1 and den = 1 for the
    zero matrix; so `==` and `hash` compare these fields directly.
    `entries` is the {(r, c): Scalar} view, built on first use.
    """

    __slots__ = ("rows", "cols", "re", "im", "den", "_entries")

    def __init__(self, rows: int, cols: int, entries: dict):
        parts = {}
        for (r, c), v in entries.items():
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
            x, y = _parts(v)
            if x or y:
                parts[(r, c)] = x, y
        # den, the lcm of the reduced denominators, is already coprime to the numerators
        den = lcm(*(q.denominator for xy in parts.values() for q in xy))
        re = {k: x.numerator * (den // x.denominator) for k, (x, _) in parts.items() if x}
        im = {k: y.numerator * (den // y.denominator) for k, (_, y) in parts.items() if y}
        self._set(rows, cols, re, im, den)

    def _set(self, rows, cols, re, im, den):
        for name, value in zip(self.__slots__, (rows, cols, re, im, den, None)):
            object.__setattr__(self, name, value)

    @staticmethod
    def _of(rows: int, cols: int, re: dict, im: dict, den: int = 1) -> "Matrix":
        """The matrix (re + i im) / den from nonzero numerators, den > 0, put in lowest terms."""
        if den != 1:
            g = gcd(den, *re.values(), *im.values())
            if g != 1:
                re = {k: v // g for k, v in re.items()}
                im = {k: v // g for k, v in im.items()}
                den //= g
        m = object.__new__(Matrix)
        m._set(rows, cols, re, im, den)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors --

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._of(rows, cols, {}, {})

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._of(n, n, {(i, i): 1 for i in range(n)}, {})

    @staticmethod
    def from_rows(rows_data) -> "Matrix":
        rows_data = [tuple(r) for r in rows_data]
        nc = len(rows_data[0]) if rows_data else 0
        if any(len(row) != nc for row in rows_data):
            raise ValueError("ragged rows")
        return Matrix.from_cols(rows_data, rows=nc).transpose()

    @staticmethod
    def from_cols(cols_data, rows: Optional[int] = None) -> "Matrix":
        """The matrix with these columns; the shared ZERO of dense vectors is skipped untested."""
        cols_data = [tuple(c) for c in cols_data]
        nr = rows if rows is not None else (len(cols_data[0]) if cols_data else 0)
        cells = {(i, j): v for j, col in enumerate(cols_data) for i, v in enumerate(col) if v is not ZERO and v}
        return Matrix(nr, len(cols_data), cells)

    @staticmethod
    def column(v: Vec) -> "Matrix":
        return Matrix.from_cols([v])

    @staticmethod
    def row(v: Vec) -> "Matrix":
        return Matrix.from_rows([v])

    # -- access --

    @property
    def entries(self) -> dict:
        """The nonzero entries as {(r, c): Scalar}, built on first use."""
        if self._entries is None:
            d = self.den
            out = {k: Scalar(Fraction(v, d)) for k, v in self.re.items()}
            for k, v in self.im.items():
                out[k] = Scalar(out.get(k, ZERO).re, Fraction(v, d))
            object.__setattr__(self, "_entries", out)
        return self._entries

    def __getitem__(self, rc) -> Scalar:
        return Scalar(Fraction(self.re.get(rc, 0), self.den), Fraction(self.im.get(rc, 0), self.den))

    def col(self, j: int) -> Vec:
        return dense({r: v for (r, c), v in self.entries.items() if c == j}, self.rows)

    @property
    def nnz(self) -> int:
        return len(self.re.keys() | self.im.keys()) if self.im else len(self.re)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.re, self.im) == (
            other.rows, other.cols, other.den, other.re, other.im
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, frozenset(self.re.items()), frozenset(self.im.items())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, nnz={self.nnz})"

    # -- arithmetic --

    def _plus(self, other: "Matrix", sign: int) -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        re, im = _combine(self.re, ka, other.re, kb), _combine(self.im, ka, other.im, kb)
        return Matrix._of(self.rows, self.cols, re, im, den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        x, y = _parts(c)
        s = lcm(x.denominator, y.denominator)
        x, y = x.numerator * (s // x.denominator), y.numerator * (s // y.denominator)
        # (A + Bi)(x + yi) = (xA - yB) + (yA + xB)i
        re, im = _combine(self.re, x, self.im, -y), _combine(self.re, y, self.im, x)
        return Matrix._of(self.rows, self.cols, re, im, self.den * s)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"composition undefined: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        re, im = _product(self.re, other.re), {}
        if self.im or other.im:  # (A + Bi)(C + Di) = (AC - BD) + (AD + BC)i
            re = _combine(re, 1, _product(self.im, other.im), -1)
            im = _combine(_product(self.re, other.im), 1, _product(self.im, other.re), 1)
        return Matrix._of(self.rows, other.cols, re, im, self.den * other.den)

    def apply(self, v: Vec) -> Vec:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return (self @ Matrix.column(v)).col(0)

    def transpose(self) -> "Matrix":
        re, im = ({(c, r): v for (r, c), v in d.items()} for d in (self.re, self.im))
        return Matrix._of(self.cols, self.rows, re, im, self.den)

    def conj(self) -> "Matrix":
        return Matrix._of(self.rows, self.cols, self.re, {k: -v for k, v in self.im.items()}, self.den)

    def conj_transpose(self) -> "Matrix":
        return self.conj().transpose()

    def is_hermitian(self) -> bool:
        return self.rows == self.cols and self == self.conj_transpose()

    def reindex(self, rows: int, cols: int, key) -> "Matrix":
        """The rows x cols matrix holding each nonzero entry (r, c) of self at key(r, c).

        Moves the numerators and keeps den, so it does no arithmetic; a key
        outside the new shape, or two entries on one key, raise ValueError.
        """
        re = {key(r, c): v for (r, c), v in self.re.items()}
        im = {key(r, c): v for (r, c), v in self.im.items()}
        cells = re.keys() | im.keys() if im else re.keys()
        if len(cells) != self.nnz:
            raise ValueError("reindex sends two entries to one key")
        if not all(0 <= r < rows and 0 <= c < cols for r, c in cells):
            raise ValueError(f"reindex sends an entry outside {rows}x{cols}")
        return Matrix._of(rows, cols, re, im, self.den)

    def augment(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in augment")
        den, shift = lcm(self.den, other.den), self.cols
        ka, kb = den // self.den, den // other.den
        re, im = _combine(self.re, ka, {}, 0), _combine(self.im, ka, {}, 0)
        for out, part in ((re, other.re), (im, other.im)):
            out.update({(r, c + shift): kb * v for (r, c), v in part.items()})
        return Matrix._of(self.rows, shift + other.cols, re, im, den)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Tensor product of operators: (a (x) b)(x (x) y) = a(x) (x) b(y).

    Row/column flat indices follow the global row-major convention, so
    kron(a, b)[(ia,ib),(ja,jb)] = a[ia,ja] * b[ib,jb].
    """
    br, bc = b.rows, b.cols

    def part(x: dict, y: dict) -> dict:
        return {
            (ia * br + ib, ja * bc + jb): u * v for (ia, ja), u in x.items() for (ib, jb), v in y.items()
        }

    re, im = part(a.re, b.re), {}
    if a.im or b.im:
        re = _combine(re, 1, part(a.im, b.im), -1)
        im = _combine(part(a.re, b.im), 1, part(a.im, b.re), 1)
    return Matrix._of(a.rows * br, a.cols * bc, re, im, a.den * b.den)


def kron_all(*mats: Matrix) -> Matrix:
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def leg_map(src_dims, tgt_slot_to_src_slot) -> list:
    """Where reordering tensor legs sends each flat index: source -> target.

    Entry i is the target flat index of source flat index i, where target
    slot t carries source leg tgt_slot_to_src_slot[t] (both row-major).
    """
    dims, perm = TensorSpace(src_dims).factors, tuple(tgt_slot_to_src_slot)
    if sorted(perm) != list(range(len(dims))):
        raise ValueError("not a permutation of tensor slots")
    stride, step = [0] * len(dims), 1
    for leg in reversed(perm):
        stride[leg] = step
        step *= dims[leg]
    out = [0]
    for d, st in zip(dims, stride):
        out = [base + k * st for base in out for k in range(d)]
    return out


def tensor_permutation(src_dims, tgt_slot_to_src_slot) -> Matrix:
    """Permutation matrix reordering tensor legs.

    Sends a pure tensor with legs (v_0,...,v_{m-1}) (dims src_dims) to the
    pure tensor whose slot t carries leg tgt_slot_to_src_slot[t].
    """
    move = leg_map(src_dims, tgt_slot_to_src_slot)
    return Matrix._of(len(move), len(move), {(t, i): 1 for i, t in enumerate(move)}, {})


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


# ---------------------------------------------------------------------------
# elimination


def _rows_of(entries: dict):
    """The nonzero rows of sparse {(r, c): x} entries, in row order, as {c: x} dicts."""
    rows: dict = {}
    for (r, c), v in entries.items():
        rows.setdefault(r, {})[c] = v
    return [rows[r] for r in sorted(rows)]


def _rref_rows(row_dicts, track=None, p: int = 0):
    """Full RREF of a list of sparse rows: the package's one elimination.

    When p is 0 it is exact over whatever field the entries lie in, and
    keeps their type: Fraction rows stay Fraction, Scalar rows (Q(i)) stay
    Scalar, since the only constant it brings in is 1 / pivot.
    Otherwise it works over Z/p (int entries in [0, p)).  Mutates nothing
    passed in.  Returns (pivots, rows, tracks) with monic pivots, zero above
    and below each pivot, rows sorted by pivot column.  If `track` is a
    parallel list of sparse rows, the same row operations are applied to it
    (used for inconsistency certificates) and tracks is (the tracks of the
    rows that reduced to zero, the tracks of the pivot rows); else None.
    """

    def scaled(row, k):
        return {c: k * v % p if p else k * v for c, v in row.items()}

    def axpy(trow, prow, factor, ri=None):
        """trow -= factor * prow in place; with ri, `present` follows row ri's support."""
        for c, v in prow.items():
            nv = trow[c] - factor * v if c in trow else -(factor * v)
            if p:
                nv %= p
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
        inv = pow(work[ri][col], -1, p) if p else 1 / work[ri][col]
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


def rref(m: Matrix):
    """Reduced row echelon form; returns (pivot_cols, rows as sparse dicts)."""
    pivots, rows, _ = _rref_rows(_rows_of(m.entries))
    return pivots, rows


def image_rank(m: Matrix) -> int:
    """Exact rank.  Eliminates along the smaller dimension."""
    work = m.transpose() if m.rows < m.cols else m
    pivots, _, _ = _rref_rows(_rows_of(work.entries))
    return len(pivots)


# kernel_basis eliminates modulo this prime before the exact path
_P = 2**61 - 1


def _null_space(rows, cols: int, p: int = 0):
    """(rank, RREF basis of the null space as sparse rows), over Q(i), or Z/p when p."""
    pivots, red, _ = _rref_rows(rows, p=p)
    raw = {f: {f: 1 if p else ONE} for f in range(cols)}
    for piv in pivots:
        del raw[piv]
    for piv, row in zip(pivots, red):
        for c, v in row.items():
            if c != piv:
                raw[c][piv] = p - v if p else -v
    _, basis, _ = _rref_rows(list(raw.values()), p=p)
    return len(pivots), basis


def _wang(u: int, p: int):
    """Wang's rational reconstruction: a/b = u mod p with |a|, b <= isqrt(p // 2), or None."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or gcd(r1, t1) != 1:
        return None
    return Scalar(Fraction(r1, t1))


def _cleared(v: dict):
    """(real, imaginary) parts of a sparse vector times the lcm of its denominators, as ints."""
    den = lcm(*(q.denominator for x in v.values() for q in (x.re, x.im)))
    return (
        {c: x.re.numerator * (den // x.re.denominator) for c, x in v.items() if x.re},
        {c: x.im.numerator * (den // x.im.denominator) for c, x in v.items() if x.im},
    )


def _is_kernel_rref(m: Matrix, rank: int, basis) -> bool:
    """The exact certificate that basis is the canonical kernel basis of D = m.

    basis must be in RREF (each vector monic at its leading column, leading
    columns increasing and zero in every other vector), hold cols - rank
    vectors and satisfy D K = 0, checked on integers: D's numerators (den D
    has D's kernel) against each vector with its denominators cleared.
    This certifies the kernel given rank: a rank that is too small is
    caught, one that is too large (a spurious pivot) is not, so the rank
    itself is trusted to the elimination.
    """
    if len(basis) != m.cols - rank or not all(basis):
        return False
    leads = [min(v) for v in basis]
    lead_set = set(leads)
    if any(a >= b for a, b in zip(leads, leads[1:])):
        return False
    if any(v[c] != 1 or len(lead_set.intersection(v)) != 1 for c, v in zip(leads, basis)):
        return False
    d_re, d_im = {}, {}  # column -> [(row, numerator)]
    for part, index in ((m.re, d_re), (m.im, d_im)):
        for (r, c), a in part.items():
            index.setdefault(c, []).append((r, a))
    for x, y in map(_cleared, basis):
        re, im = {}, {}  # (A + Bi)(X + Yi) = (AX - BY) + (AY + BX)i
        for d, k, acc, sign in ((d_re, x, re, 1), (d_im, y, re, -1), (d_re, y, im, 1), (d_im, x, im, 1)):
            for c, a in k.items():
                for r, b in d.get(c, ()):
                    acc[r] = acc.get(r, 0) + sign * a * b
        if any(re.values()) or any(im.values()):
            return False
    return True


def kernel_basis(m: Matrix):
    """Canonical kernel basis: the RREF basis of the null space.

    Eliminates modulo 2^61 - 1, rebuilding the entries by rational
    reconstruction, and returns that basis if it passes _is_kernel_rref;
    otherwise eliminates exactly, and an exact basis that fails the check
    raises CertificateError.  The basis is thus checked against D given
    the elimination's rank, and the same whichever path found it.
    Idempotent under re-reduction: stacking the output as rows of a matrix
    and re-running rref reproduces it unchanged.
    """
    if not m.im and m.den % _P:  # real, and the numerators over den reduce mod p
        inv = pow(m.den, -1, _P)
        mod = _rows_of({k: x for k, v in m.re.items() if (x := v * inv % _P)})
        rank, basis = _null_space(mod, m.cols, _P)
        basis = [{c: _wang(u, _P) for c, u in v.items()} for v in basis]
        if all(None not in v.values() for v in basis) and _is_kernel_rref(m, rank, basis):
            return [dense(v, m.cols) for v in basis]
    rank, basis = _null_space(_rows_of(m.entries), m.cols)
    certify(_is_kernel_rref(m, rank, basis), "exact kernel basis fails its certificate")
    return [dense(v, m.cols) for v in basis]


@dataclass(frozen=True)
class SolveResult:
    solution: Optional[Vec]
    certificate: Optional[Vec]  # y with y^T m = 0, y^T rhs != 0 when no solution

    @property
    def consistent(self) -> bool:
        return self.solution is not None


class LinearSolver:
    """One elimination, many right-hand sides.

    Precomputes the RREF of m with the row-operation transform, so each
    solve costs a few sparse dot products.
    """

    def __init__(self, m: Matrix):
        self.m = m
        row_list = [{} for _ in range(m.rows)]
        for (r, c), v in m.entries.items():
            row_list[r][c] = v
        track = [{r: ONE} for r in range(m.rows)]
        pivots, _red, tracked = _rref_rows(row_list, track=track)
        self.pivots = pivots
        self.zero_tracks, self.pivot_tracks = tracked

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def solve(self, rhs: Vec) -> SolveResult:
        if len(rhs) != self.m.rows:
            raise ValueError("rhs length mismatch")

        def combo(track_row):
            total = Scalar(0)
            for r, coef in track_row.items():
                if rhs[r]:
                    total = total + coef * rhs[r]
            return total

        for t in self.zero_tracks:
            if combo(t):
                y = dense(t, self.m.rows)
                certify((Matrix.row(y) @ self.m).is_zero(), "inconsistency certificate fails y^T m = 0")
                certify(bool(vec_dot(y, rhs)), "inconsistency certificate fails y^T rhs != 0")
                return SolveResult(None, y)
        x = [Scalar(0)] * self.m.cols
        for p, t in zip(self.pivots, self.pivot_tracks):
            x[p] = combo(t)
        certify(all(a == b for a, b in zip(self.m.apply(x), rhs)), "solution fails m x = rhs")
        return SolveResult(tuple(x), None)


def solve(m: Matrix, rhs: Vec) -> SolveResult:
    """One particular solution of m x = rhs, or a left-kernel certificate."""
    return LinearSolver(m).solve(rhs)


# ---------------------------------------------------------------------------
# incremental span (augmented-rank certification)


class SpanTracker:
    """Row-space tracker: membership tests and rank-increase certification."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict = {}  # pivot col -> monic reduced row dict

    def reduce(self, v: Vec):
        w = {i: x for i, x in enumerate(v) if x}
        for p in sorted(self.rows):
            coeff = w.get(p)
            if not coeff:
                continue
            for c, val in self.rows[p].items():
                nv = w.get(c, Scalar(0)) - coeff * val
                if nv:
                    w[c] = nv
                elif c in w:
                    del w[c]
        return w

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def add(self, v: Vec) -> bool:
        """Insert v; True if it enlarged the span (certified rank increase)."""
        w = self.reduce(v)
        if not w:
            return False
        p = min(w)
        inv = ONE / w[p]
        w = {c: inv * val for c, val in w.items()}
        # keep reduced form: eliminate the new pivot from stored rows
        for q, row in self.rows.items():
            coeff = row.get(p)
            if coeff:
                for c, val in w.items():
                    nv = row.get(c, Scalar(0)) - coeff * val
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
        self.rows[p] = w
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# exact positive-semidefiniteness


@dataclass(frozen=True)
class PsdResult:
    ok: bool
    pivots: Optional[tuple] = None  # pivot (index, value) sequence when PSD
    witness: Optional[Vec] = None  # v with v* m v < 0 otherwise

    def __bool__(self):
        return self.ok


def psd_check(m: Matrix) -> PsdResult:
    """Exact LDL*-with-diagonal-pivoting PSD test for Hermitian m.

    Zero diagonal pivots are legal only when their whole active row/column
    vanishes; a negative diagonal or a nonzero off-diagonal entry against a
    zero diagonal yields an explicit witness v with v* m v < 0.
    """
    if not m.is_hermitian():
        raise ValueError("psd_check requires a Hermitian matrix")
    n = m.rows
    a = {k: v for k, v in m.entries.items()}

    def get(i, j):
        return a.get((i, j), Scalar(0))

    active = list(range(n))
    steps = []  # (pivot index, {j: a[p,j]/d}) for witness lifting
    pivots = []

    def lift(w: dict) -> Vec:
        for p, ratios in reversed(steps):
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
            if not off:
                return PsdResult(True, pivots=tuple(pivots))
            i, j = min(off)
            return certified({i: -a[(i, j)], j: ONE})
        p = pos[0]
        d = diag[p]
        pivots.append((p, d))
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
        steps.append((p, ratios))
        active.remove(p)
    return PsdResult(True, pivots=tuple(pivots))
