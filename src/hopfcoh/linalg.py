"""Exact tensor-indexed linear algebra over Gaussian rationals.

Matrices are immutable and sparse (zero entries are never stored), but
every operation has dense semantics.  A Matrix holds integer numerators
over one common denominator, with an imaginary part only when some entry
is non-real, so products, sums and kron run on Python ints; `entries` is
the {(r, c): Scalar} view for the edges.  The single global tensor-index
convention lives here:

    flat index of e_{i1} (x) ... (x) e_{ik}  =  mixed-radix number with i1
    most significant (row-major).

Everything that builds tensor-leg maps (kron, face_sum, leg_map, the
cochain module) cites this convention; nothing else may invent its own
index order.  Tensors change legs without arithmetic: leg_map says where
each flat index goes, and Matrix.reindex, or a face of face_sum, moves
the entries there.
"""
from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import chain, compress
from math import gcd, lcm
from typing import Optional

from .records import record
from .scalars import ONE, ZERO, Scalar, as_scalar

Vec = tuple  # tuple[Scalar, ...]


class CertificateError(Exception):
    """A certificate failed its exact re-check: a bug, never bad input; degree and column locate
    it when known, and bicomodule names the catalog entry when a cross-check knows it."""

    def __init__(self, what: str, degree: Optional[int] = None, column: Optional[int] = None):
        super().__init__(what)
        self.degree, self.column, self.bicomodule = degree, column, None


def certify(ok: bool, what: str, degree: Optional[int] = None, column: Optional[int] = None) -> None:
    """Raise CertificateError unless ok; unlike assert, runs under python -O."""
    if not ok:
        raise CertificateError(what, degree, column)


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


def _product(terms, cols: int, den: int) -> tuple:
    """(re, im) nonzero numerators over den, on flat keys r * cols + c in first-touch order, of
    the sum of k (a @ b) over the terms (k, a, b), b with cols columns, by Gustavson's row
    accumulation on b's rows bucketed in a list indexed by row.  A left part with fewer
    entries than the right buckets only the right rows it reaches."""
    re, im = {}, {}
    for k, a, b in terms:
        k *= den // (a.den * b.den)  # (A + Bi)(C + Di) = (AC - BD) + (AD + BC)i
        for acc, x, y, f in ((re, a.re, b.re, k), (re, a.im, b.im, -k), (im, a.re, b.im, k), (im, a.im, b.re, k)):
            if not (f and x and y):
                continue
            right = [None] * b.rows
            if len(x) < len(y):
                for _, kk in x:
                    right[kk] = []
                for (kk, j), v in y.items():
                    if (bucket := right[kk]) is not None:
                        bucket.append((j, f * v))
            else:
                for (kk, j), v in y.items():
                    if (bucket := right[kk]) is None:
                        right[kk] = bucket = []
                    bucket.append((j, f * v))
            for (i, kk), u in x.items():
                base = i * cols
                for j, v in right[kk] or ():
                    key = base + j
                    acc[key] = acc.get(key, 0) + u * v
    return tuple({key: v for key, v in acc.items() if v} for acc in (re, im))


def _cells(flat: dict, cols: int) -> dict:
    """The (r, c)-keyed copy of numerators on flat keys r * cols + c, in their order."""
    return {divmod(key, cols): v for key, v in flat.items()}


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
        store = object.__setattr__  # one store per slot: a loop over the slots costs a third of _of
        store(self, "rows", rows)
        store(self, "cols", cols)
        store(self, "re", re)
        store(self, "im", im)
        store(self, "den", den)
        store(self, "_entries", None)

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

    def __reduce__(self):
        return Matrix._of, (self.rows, self.cols, self.re, self.im, self.den)

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
    def support(self):
        """The cells (r, c) of the nonzero entries."""
        return self.re.keys() | self.im.keys() if self.im else self.re.keys()

    @property
    def nnz(self) -> int:
        return len(self.support)

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

    def __add__(self, other: "Matrix") -> "Matrix":
        return combination([(1, self), (1, other)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        return combination([(1, self), (-1, other)])

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
            raise ValueError(f"composition undefined: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        den, cols = self.den * other.den, other.cols
        re, im = _product([(1, self, other)], cols, den)
        return Matrix._of(self.rows, cols, _cells(re, cols), _cells(im, cols), den)

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


def _accumulate(terms) -> tuple:
    """(rows, cols, den, re, im): the sum of combination's terms as nonzero numerators over
    den on the flat keys r * cols + c, in combination's key order: the products together by
    _product, then the plain terms, the first copied unless a product sum came first."""
    if not terms:
        raise ValueError("combination of no terms")
    for _, a, *b in terms:
        if b and a.cols != b[0].rows:
            raise ValueError(f"composition undefined: {a.rows}x{a.cols} @ {b[0].rows}x{b[0].cols}")
    if len({(t[1].rows, t[-1].cols) for t in terms}) != 1:
        raise ValueError("shape mismatch in combination")
    rows, cols = terms[0][1].rows, terms[0][-1].cols
    den = lcm(*(t[1].den * (t[2].den if len(t) == 3 else 1) for t in terms))
    plain = [(k * (den // m.den), m.re, m.im) for k, m, *b in terms if not b]
    if len(plain) < len(terms):
        re, im = _product([t for t in terms if len(t) == 3], cols, den)
    else:
        (k, re, im), *plain = plain
        re, im = ({r * cols + c: k * v for (r, c), v in part.items()} if k else {} for part in (re, im))
    for k, *pair in plain:
        for out, part in zip((re, im), pair):
            for (r, c), v in part.items():
                key = r * cols + c
                if s := out.get(key, 0) + k * v:
                    out[key] = s
                elif key in out:
                    del out[key]
    return rows, cols, den, re, im


def combination(terms) -> Matrix:
    """The sum of the terms, integers k and matrices of one shape: k m for a term (k, m),
    k (a @ b) for a product term (k, a, b), in one pass over the numerators (_accumulate)."""
    rows, cols, den, re, im = _accumulate(terms)
    return Matrix._of(rows, cols, _cells(re, cols), _cells(im, cols), den)


def _legs(index, p: int, q: int, step: int, move):
    """kron(I_p, m, I_q)'s flat indices i * step + x * q + j of m's indices x, in kron's
    order (i < p, each x in turn, j < q; step = q * m's dim), through move unless None."""
    block = index if q == 1 else [x * q + j for x in index for j in range(q)]
    out = block if p == 1 else [i + x for i in range(0, p * step, step) for x in block]
    return map(move.__getitem__, out) if move else out


def face_sum(faces) -> Matrix:
    """The sum of the faces (k, p, m, q, row_move, col_move), all of one shape: k kron(I_p, m, I_q)
    with row r at row_move[r] and column c at col_move[c] (leg_map lists, or None for no move).
    It is combination's one accumulation on the common denominator, and builds no face: a face
    meeting an empty sum is copied in kron's order, any other added and a key that cancels
    deleted, so the entries, den and key order are those of combination of the faces.  A face
    with p q = 0 is the zero matrix and is skipped."""
    _, p, m, q, *_ = faces[0]
    rows, cols, den = p * m.rows * q, p * m.cols * q, lcm(*(f[2].den for f in faces))
    re, im = {}, {}
    for k, p, m, q, row_move, col_move in faces:
        k *= den // m.den
        for out, part in ((out, part) for out, part in ((re, m.re), (im, m.im)) if k and p * q and part):
            r_index, c_index = zip(*part)
            keys = zip(_legs(r_index, p, q, m.rows * q, row_move), _legs(c_index, p, q, m.cols * q, col_move))
            values = part.values() if k == 1 else [k * v for v in part.values()]
            values = [v for v in values for _ in range(q)] if q > 1 else values
            values = list(values) * p if p > 1 else values
            if not out:  # a face's keys are distinct
                out.update(zip(keys, values))
                continue
            for key, v in zip(keys, values):
                if s := out.get(key, 0) + v:
                    out[key] = s
                else:
                    del out[key]
    return Matrix._of(rows, cols, re, im, den)


def product_is_zero(a: Matrix, b: Matrix) -> bool:
    """a @ b == 0 with no product built (Kronecker substitution): each row of b packed into
    one int sum_c b_rc 2^(w c), each output row summed as sum_k a_ik packed_k, real and
    imaginary parts apart, in lists indexed by row.  Every output entry is below 2^(w-1) in
    absolute value, so a packed row is 0 exactly when each of its entries is."""
    if a.cols != b.rows:
        raise ValueError(f"composition undefined: {a.rows}x{a.cols} @ {b.rows}x{b.cols}")
    top_a, top_b = ((max(map(abs, m.re.values()), default=0) + max(map(abs, m.im.values()), default=0)) for m in (a, b))
    w = (a.cols * top_a * top_b).bit_length() + 1
    re, im = ([0] * b.rows if part else None for part in (b.re, b.im))
    for rows, part in ((re, b.re), (im, b.im)):
        for (r, c), v in part.items():
            rows[r] += v << w * c
    sums = [0] * a.rows  # a passing real part leaves them all zero for the imaginary part
    # (A + Bi)(C + Di) = (AC - BD) + (AD + BC)i
    for terms in (((a.re, re), (a.im, im and [-v for v in im])), ((a.re, im), (a.im, re))):
        for part, rows in terms:
            for (i, k), u in part.items() if rows else ():
                if row := rows[k]:
                    sums[i] += row if u == 1 else -row if u == -1 else u * row
        if any(sums):
            return False
    return True


def failing_column(terms) -> Optional[int]:
    """The least column where the combination of terms is nonzero, read off _accumulate's
    flat keys; None when it vanishes."""
    _, cols, _, re, im = _accumulate(terms)
    return min((key % cols for key in chain(re, im)), default=None)


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
    dims, perm = tuple(int(d) for d in src_dims), tuple(tgt_slot_to_src_slot)
    if any(d < 0 for d in dims):
        raise ValueError("negative factor dimension")
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


# ---------------------------------------------------------------------------
# elimination


class _GaussInt:
    """A Gaussian integer real + imag i: an entry of a non-real sweep."""

    __slots__ = ("real", "imag")

    def __init__(self, real: int, imag: int):
        self.real, self.imag = real, imag

    def __mul__(self, o):
        return _GaussInt(self.real * o.real - self.imag * o.imag, self.real * o.imag + self.imag * o.real)

    def __sub__(self, o):
        return _GaussInt(self.real - o.real, self.imag - o.imag)

    def __neg__(self):
        return _GaussInt(-self.real, -self.imag)

    def __floordiv__(self, k: int):  # only ever by an integer dividing both parts
        return _GaussInt(self.real // k, self.imag // k)

    def __bool__(self):
        return bool(self.real or self.imag)

    def __eq__(self, o):  # with an int or a _GaussInt, so pv == 1 and a != 1 hold in _clear
        return (self.real, self.imag) == ((o, 0) if type(o) is int else (o.real, o.imag))


def _int_cells(m: Matrix):
    """m's nonzero ((r, c), x) cells on its integer numerators, which span the same rows and
    kernel as m: ints, or _GaussInts when some entry is non-real."""
    if not m.im:
        return m.re.items()
    return ((k, _GaussInt(m.re.get(k, 0), m.im.get(k, 0))) for k in m.support)


def _ratio(v, d) -> Scalar:
    """The Scalar v / d of two entries of one sweep."""
    if type(v) is int:
        return Scalar(Fraction(v, d))
    return Scalar(v.real, v.imag) / Scalar(d.real, d.imag)


def _clear(row: dict, prow: dict, col: int, present=None, key=None) -> None:
    """Make row zero at col with the pivot row prow, fraction-free and in place.

    row becomes (pv/g) row - (f/g) prow, pv = prow[col], f = row[col] and
    g the gcd of their parts, and when pv/g != 1 is divided by the gcd of
    its entries' parts: a nonzero multiple of what a field sweep would
    hold, pv/g > 0 when pv > 0.  With present, present[c] gains or loses
    key as row's support at c does.  Clearing by the unit row {col: 1} is
    deleting col, done directly.
    """
    pv, f = prow[col], row[col]
    if pv == 1 and len(prow) == 1:
        del row[col]
        if present is not None:
            present[col].discard(key)
        return
    gauss = type(pv) is not int
    g = gcd(pv.real, pv.imag, f.real, f.imag) if gauss else gcd(pv, f)
    a, f = pv // g, f // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, v in prow.items():
        nv = row[c] - f * v if c in row else -(f * v)
        if nv:
            if present is not None and c not in row:
                present[c].add(key)
            row[c] = nv
        else:
            del row[c]
            if present is not None:
                present[c].discard(key)
    if a != 1:
        g = gcd(*(p for v in row.values() for p in (v.real, v.imag))) if gauss else gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g


def _rows_of(cells):
    """The nonzero rows of sparse ((r, c), x) cells, in row order, as {c: x} dicts."""
    rows: dict = {}
    for (r, c), v in cells:
        if (row := rows.get(r)) is None:
            rows[r] = row = {}
        row[c] = v
    return [rows[r] for r in sorted(rows)]


def _rref_rows(row_dicts, cols: int):
    """RREF of a list of sparse rows over `cols` columns, fraction-free: the package's one elimination.

    The entries are nonzero ints, or _GaussInts when some entry is
    non-real.  Mutates nothing passed in.  Returns (pivots, rows, origins),
    rows sorted by pivot column: each row is a nonzero integer multiple of
    its RREF row, so zero at every other pivot column, and a real row's
    pivot is positive.

    It takes the rows one at a time against pivot rows kept fully reduced:
    a row is cleared, by _clear, at the pivot columns in its support (by a
    unit pivot row {c: 1}, that is deleting c), and a nonzero remainder
    becomes the pivot row of its least column (a real one divided by its
    content, with the pivot's sign), which is then cleared from the earlier
    pivot rows.  A row that reduces to zero, as most rows of a coboundary
    do, costs one pass.  A one-entry row {c: x} is neither copied nor
    reduced: if c's pivot row has the one entry c, e_c is in the span of
    the rows read so far and the row is skipped; if c holds no pivot, a
    nonzero x makes the unit row {c: 1} c's pivot row and c is deleted from
    the pivot rows holding it, since a multiple of e_c clears it; a zero x
    is skipped.  It stops once every column holds a pivot.  origins lists,
    for each pivot, the index of the input row whose remainder made it:
    each such row is independent of the rows before it, and together they
    span all the rows.
    """
    reduced: dict = {}  # pivot column -> its pivot row
    origin: dict = {}  # pivot column -> the input index its row came from
    present: dict = defaultdict(set)  # column -> the pivot columns whose rows have a nonzero there
    for i, row in enumerate(row_dicts):
        if len(row) == 1 and (col := next(iter(row))) not in reduced:
            x = row[col]
            if not x:
                continue
            for q in present.pop(col, ()):
                del reduced[q][col]
            row = {col: 1 if type(x) is int else _GaussInt(1, 0)}
        elif len(row) == 1 and len(reduced[col]) == 1:
            continue  # e_col is in the span already
        else:
            row = dict(row)
            for c in [c for c in row if c in reduced]:  # no other pivot row touches column c
                _clear(row, reduced[c], c)
            if not row:
                continue
            col = min(row)
            if type(row[col]) is int:  # divided by its content, the pivot made positive
                g = gcd(*row.values()) if row[col] > 0 else -gcd(*row.values())
                if g != 1:
                    row = {c: v // g for c, v in row.items()}
            for q in list(present[col]):
                _clear(reduced[q], row, col, present, q)
        reduced[col], origin[col] = row, i
        for c in row:
            present[c].add(col)
        if len(reduced) == cols:
            break
    pivots = sorted(reduced)
    return pivots, [reduced[c] for c in pivots], [origin[c] for c in pivots]


def rref(m: Matrix):
    """Reduced row echelon form; returns (pivot_cols, rows as sparse dicts of Scalars)."""
    pivots, rows, _ = _rref_rows(_rows_of(_int_cells(m)), m.cols)
    return pivots, [{c: _ratio(v, row[p]) for c, v in row.items()} for p, row in zip(pivots, rows)]


def image_rank(m: Matrix) -> int:
    """Exact rank: the pivot-row count of kernel_basis of m or, when m is
    wide, of its transpose, so the kernel it certifies is the smaller one."""
    return len(kernel_basis(m.transpose() if m.rows < m.cols else m).pivot_rows)


def _null_space(cells, height: int, cols: int, drop=frozenset()):
    """(pivot rows, RREF basis of the null space as sparse rows of Scalars) of A,
    D (height x cols) without the columns in drop, from one pass over D's nonzero
    ((r, c), x) cells, x ints or _GaussInts, into rows indexed by position that
    skips drop (A is never built), and one elimination.

    The pivot rows are rank-many rows r of D, independent and spanning A's
    rows.  With A's columns numbered right to left, the null vector of free
    column f is monic at f, zero at every other free column and otherwise
    supported on pivot columns right of f: in increasing f, already the RREF
    basis, each vector keyed by D's columns.
    """
    back = [c for c in reversed(range(cols)) if c not in drop]  # A's columns right to left, as D's
    at, rows = [None] * cols, [{} for _ in range(height)]  # at: D's column -> A's, None when dropped
    for j, c in enumerate(back):
        at[c] = j
    for (r, c), x in cells:
        if (j := at[c]) is not None:
            rows[r][j] = x
    ids = [r for r, row in enumerate(rows) if row]
    pivots, red, origins = _rref_rows([rows[r] for r in ids], len(back))
    taken = {back[piv] for piv in pivots}
    null = {f: {f: ONE} for f in reversed(back) if f not in taken}
    for piv, row in zip(pivots, red):
        for c, v in row.items():
            if c != piv:
                null[back[c]][back[piv]] = _ratio(-v, row[piv])
    return [ids[i] for i in origins], list(null.values())


def _is_kernel_rref(m: Matrix, rank: int, basis, drop=frozenset()) -> bool:
    """The exact certificate that basis, keyed by m's columns, is the canonical
    kernel basis of A, m without the columns in drop.

    basis must be in RREF (each vector monic at its leading column, leading
    columns increasing and zero in every other vector), hold cols - |drop| -
    rank vectors, each zero on drop, and satisfy m Z = 0 for Z the matrix whose
    columns they are, one product_is_zero (none for an empty basis).  This
    certifies the kernel given rank: a rank that is too small is caught, one
    that is too large (a spurious pivot) is not, so the rank itself is trusted
    to the elimination.
    """
    if len(basis) != m.cols - len(drop) - rank or not all(basis) or not all(map(drop.isdisjoint, basis)):
        return False
    leads = [min(v) for v in basis]
    lead_set = set(leads)
    if any(a >= b for a, b in zip(leads, leads[1:])):
        return False
    if any(v[c] != 1 or len(lead_set.intersection(v)) != 1 for c, v in zip(leads, basis)):
        return False
    if not basis:
        return True
    k = Matrix(m.cols, len(basis), {(c, j): x for j, v in enumerate(basis) for c, x in v.items()})
    return product_is_zero(m, k)


class Kernel(list):
    """kernel_basis_without's dense basis vectors of ker A, on A's columns, and in
    `pivot_rows` the rows of m its elimination took as pivot rows (see _null_space)."""

    def __init__(self, m: Matrix, pivot_rows, basis, drop):
        keep = [c not in drop for c in range(m.cols)] if drop else None
        super().__init__(tuple(compress(dense(v, m.cols), keep)) if drop else dense(v, m.cols) for v in basis)
        self.pivot_rows = pivot_rows


def kernel_basis_without(m: Matrix, drop) -> Kernel:
    """kernel_basis of A, m without the columns in drop (some of m's columns), the
    others renumbered in order, with no A built: m's integer numerators (the common
    denominator changes no kernel) eliminated once, skipping drop, and the basis
    returned only after _is_kernel_rref certifies it on m itself, given the
    elimination's rank, by m Z = 0 for Z the basis padded with zeros on drop.  A
    basis that fails raises CertificateError."""
    drop = frozenset(drop)
    rows, basis = _null_space(_int_cells(m), m.rows, m.cols, drop)
    certify(_is_kernel_rref(m, len(rows), basis, drop), "exact kernel basis fails its certificate")
    return Kernel(m, rows, basis, drop)


def kernel_basis(m: Matrix) -> Kernel:
    """Canonical kernel basis, certified: kernel_basis_without of no column.  Idempotent:
    the output stacked as rows and re-run through rref reproduces it unchanged."""
    return kernel_basis_without(m, ())


@record
class SolveResult:
    solution: Optional[Vec]
    certificate: Optional[Vec]  # y with y^T m = 0, y^T rhs != 0 when no solution

    @property
    def consistent(self) -> bool:
        return self.solution is not None


class LinearSolver:
    """Exact solutions of m x = rhs, or a left-kernel certificate, by a column sweep.

    solve sweeps the rows of [m | rhs], rhs as one more column, scaled to
    integer numerators (Gaussian integers if some entry is non-real): at
    each column of m the shortest row holding it, counting only its entries
    in m (the first of those), becomes the pivot row and clears the column
    from every other row fraction-free, by _clear.  Every row stays a
    nonzero multiple of the row a Fraction sweep would hold, so the
    supports, and with them the pivot rows P, are the same.
    This is its own sweep, not _rref_rows, because the pivot rows P it
    picks fix the certificates that reports print.  A consistent system
    reads each x_p as its pivot row's rhs entry over its entry at p.
    Otherwise the first other row r whose rhs entry is still nonzero fails,
    and its certificate is the only left-kernel vector of m on the rows
    {r} u P with y_r = 1, since the rows in P are independent.
    """

    def __init__(self, m: Matrix):
        self.m = m
        self.pivots = None  # m's pivot columns, the same for every rhs; set by solve

    @property
    def rank(self) -> int:
        if self.pivots is None:
            raise ValueError("the rank of a LinearSolver is known only after solve")
        return len(self.pivots)

    def solve(self, rhs: Vec) -> SolveResult:
        m, end = self.m, self.m.cols  # end: the rhs column
        if len(rhs) != m.rows:
            raise ValueError("rhs length mismatch")
        rhs = vec(rhs)
        aug, work = m.augment(Matrix.column(rhs)), [{} for _ in rhs]  # aug: [m | rhs] on integer numerators
        for (r, c), v in _int_cells(aug):
            work[r][c] = v
        present: dict = defaultdict(set)  # column -> the rows with a nonzero there
        for ri, row in enumerate(work):
            for c in row:
                present[c].add(ri)
        self.pivots, pivot_rows, used = [], [], set()  # pivot_rows: indices into work, aligned with pivots
        for col in sorted(present.keys() - {end}):
            cand = [ri for ri in present[col] if ri not in used]
            if not cand:
                continue
            ri = min(cand, key=lambda r: (len(work[r]) - (end in work[r]), r))
            for other in [r for r in present[col] if r != ri]:
                _clear(work[other], work[ri], col, present, other)
            used.add(ri)
            self.pivots.append(col)
            pivot_rows.append(ri)
        bad = next((r for r, row in enumerate(work) if end in row and r not in used), None)
        if bad is None:
            x = {}
            for p, ri in zip(self.pivots, pivot_rows):
                if end in work[ri]:
                    x[p] = _ratio(work[ri][end], work[ri][p])
            x = dense(x, m.cols)
            certify(m.apply(x) == rhs, "solution fails m x = rhs")
            return SolveResult(x, None)
        at = {bad: 0, **{ri: j for j, ri in enumerate(pivot_rows, 1)}}  # row of m -> column of m[{r} u P]^T
        re, im = ({(c, at[r]): v for (r, c), v in d.items() if r in at} for d in (m.re, m.im))
        y = kernel_basis(Matrix._of(m.cols, len(at), re, im, m.den))[0]
        y = dense(dict(zip(at, y)), m.rows)
        certify((Matrix.row(y) @ m).is_zero(), "inconsistency certificate fails y^T m = 0")
        certify(bool(vec_dot(y, rhs)), "inconsistency certificate fails y^T rhs != 0")
        return SolveResult(None, y)


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


@record
class PsdResult:
    ok: bool
    pivots: Optional[tuple] = None  # pivot (index, value) sequence when PSD
    witness: Optional[Vec] = None  # v with v* m v < 0 otherwise

    def __bool__(self):
        return self.ok


def psd_check(m: Matrix) -> PsdResult:
    """Exact LDL*-with-diagonal-pivoting PSD test for Hermitian m, on its rows.

    Each step pivots on the least index p with a positive diagonal and
    updates only the rows in the support of p's row: the active block stays
    Hermitian, so those are exactly the rows holding column p.  A negative
    diagonal, or a nonzero entry left once every diagonal is zero, yields an
    explicit witness v with v* m v < 0.  A PSD answer is certified by
    m = V D V* with D positive diagonal (_certify_ldl).
    """
    if not m.is_hermitian():
        raise ValueError("psd_check requires a Hermitian matrix")
    rows: dict = {}
    for (i, j), v in m.entries.items():
        rows.setdefault(i, {})[j] = v
    steps = []  # (pivot index p, pivot d, {j: a[p,j]/d}), for witness lifting and _certify_ldl
    while True:
        diag = {i: row[i] for i, row in rows.items() if i in row}
        neg = [i for i, d in diag.items() if d < 0]
        if neg:
            return _psd_witness(m, steps, {min(neg): ONE})
        if not diag:
            # every active diagonal is zero: PSD iff the active block is zero
            i = min((i for i, row in rows.items() if row), default=None)
            if i is None:
                break
            j = min(rows[i])
            return _psd_witness(m, steps, {i: -rows[i][j], j: ONE})
        p = min(diag)
        row = rows.pop(p)
        d = row.pop(p)
        ratios = {j: v / d for j, v in row.items()}
        for i in row:
            target = rows[i]
            api = target.pop(p)
            for j, r in ratios.items():
                nv = target.get(j, ZERO) - api * r
                if nv:
                    target[j] = nv
                else:
                    target.pop(j, None)
        steps.append((p, d, ratios))
    _certify_ldl(m, steps)
    return PsdResult(True, pivots=tuple((p, d) for p, d, _ in steps))


def _psd_witness(m: Matrix, steps, w: dict) -> PsdResult:
    """The failed test's witness: w on the active block, lifted back through the
    steps to v with v* m v < 0, which is certified."""
    for p, _, ratios in reversed(steps):
        s = sum((r * w[j] for j, r in ratios.items() if j in w), Scalar(0))
        if s:
            w[p] = -s
    v = dense(w, m.rows)
    quad = Scalar(0)
    for (i, j), val in m.entries.items():
        if v[i] and v[j]:
            quad = quad + v[i].conjugate() * val * v[j]
    certify(quad.is_real and quad < 0, "PSD witness failed verification")
    return PsdResult(False, witness=v)


def _certify_ldl(m: Matrix, steps) -> None:
    """Certify m = V D V* with D = diag(d_k) > 0, so m is PSD, from psd_check's
    steps (p, d, ratios): the kth column of V is e_p plus the conjugated ratios,
    and (V D) V* - m is one combination."""
    cols = {(p, k): ONE for k, (p, _, _) in enumerate(steps)}
    cols.update({(j, k): r.conjugate() for k, (_, _, ratios) in enumerate(steps) for j, r in ratios.items()})
    v = Matrix(m.rows, len(steps), cols)
    d = Matrix(len(steps), len(steps), {(k, k): dk for k, (_, dk, _) in enumerate(steps)})
    ok = all(dk > 0 for _, dk, _ in steps) and failing_column([(1, v @ d, v.conj_transpose()), (-1, m)]) is None
    certify(ok, "PSD decomposition fails m = V D V*")
