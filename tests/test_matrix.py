"""Matrix arithmetic (integer numerators over one denominator) against the
dict-of-Scalar reference, and the canonical form that makes == and hash
independent of how a matrix was built."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh.linalg import Matrix, kron
from hopfcoh.scalars import Scalar, as_scalar
from reference import (
    ref_augment,
    ref_conj_transpose,
    ref_kron,
    ref_product,
    ref_reindex,
    ref_scale,
    ref_sum,
    ref_transpose,
)

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
FRACTIONS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
GAUSSIAN = st.builds(Scalar, FRACTIONS, FRACTIONS)


@st.composite
def matrices(draw, rows=None, cols=None):
    """(rows, cols, entries) up to 6 x 6: int, Fraction and Scalar entries with
    denominators 1-6, up to two zero rows and columns, and in about half of
    the matrices Gaussian entries."""
    rows = draw(st.integers(1, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    kinds = [st.just(0), st.integers(-3, 3), FRACTIONS, st.builds(Scalar, FRACTIONS)]
    value = st.one_of(kinds + [GAUSSIAN] if draw(st.booleans()) else kinds)
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    cells = [(r, c) for r in range(rows) for c in range(cols) if r not in zero_rows and c not in zero_cols]
    return rows, cols, {rc: draw(value) for rc in cells}


def build(spec):
    """The Matrix of a drawn spec and its reference dict of nonzero Scalars."""
    rows, cols, entries = spec
    return Matrix(rows, cols, entries), {k: as_scalar(v) for k, v in entries.items() if v}


def assert_is(m: Matrix, rows: int, cols: int, ref: dict):
    assert (m.rows, m.cols) == (rows, cols)
    assert m.entries == ref
    assert m.nnz == len(ref)
    assert all(m[r, c] == ref.get((r, c), 0) for r in range(rows) for c in range(cols))
    # canonical: no zero numerator, a positive denominator coprime to the numerators
    assert 0 not in m.re.values() and 0 not in m.im.values()
    assert m.den > 0 and gcd(m.den, *m.re.values(), *m.im.values()) == 1


@PROPERTY
@given(matrices(), st.data())
def test_product_apply_and_kron_match_reference(a, data):
    b = data.draw(matrices(rows=a[1]))
    (ma, ra), (mb, rb) = build(a), build(b)
    assert_is(ma @ mb, a[0], b[1], ref_product(ra, rb))
    assert_is(kron(ma, mb), a[0] * b[0], a[1] * b[1], ref_kron(ra, rb, b[0], b[1]))
    image = ref_product(ra, {(r, 0): x for (r, c), x in rb.items() if c == 0})
    assert ma.apply(mb.col(0)) == tuple(image.get((r, 0), Scalar(0)) for r in range(a[0]))


@PROPERTY
@given(matrices(), st.data())
def test_sum_difference_and_augment_match_reference(a, data):
    rows, cols, _ = a
    b, c = data.draw(matrices(rows, cols)), data.draw(matrices(rows=rows))
    (ma, ra), (mb, rb), (mc, rc) = build(a), build(b), build(c)
    assert_is(ma + mb, rows, cols, ref_sum(ra, rb))
    assert_is(ma - mb, rows, cols, ref_sum(ra, rb, -1))
    assert_is(-ma, rows, cols, ref_scale(ra, Scalar(-1)))
    assert_is(ma.augment(mc), rows, cols + c[1], ref_augment(ra, rc, cols))


@PROPERTY
@given(matrices(), st.one_of(st.just(0), st.integers(-4, 4), FRACTIONS, GAUSSIAN))
def test_scale_transpose_and_conjugates_match_reference(a, q):
    rows, cols, _ = a
    ma, ra = build(a)
    assert_is(ma.scale(q), rows, cols, ref_scale(ra, as_scalar(q)))
    assert_is(ma.transpose(), cols, rows, ref_transpose(ra))
    assert_is(ma.conj_transpose(), cols, rows, ref_conj_transpose(ra))
    assert_is(ma.conj(), rows, cols, ref_transpose(ref_conj_transpose(ra)))


@PROPERTY
@given(matrices(), st.data(), GAUSSIAN.filter(bool))
def test_canonical_form_is_independent_of_the_route(a, data, q):
    rows, cols, _ = a
    ma, mb = build(a)[0], build(data.draw(matrices(rows, cols)))[0]
    routes = (
        ma.scale(q).scale(1 / q),
        ma + mb - mb,
        (ma - mb) + mb,
        Matrix(rows, cols, ma.entries),
        Matrix.from_cols([ma.col(j) for j in range(cols)], rows=rows),
        Matrix.identity(rows) @ ma @ Matrix.identity(cols),
        kron(Matrix.identity(1), ma),
        ma.transpose().conj_transpose().conj(),
    )
    for m in routes:
        assert m == ma and hash(m) == hash(ma)
    zero = ma - ma
    assert zero == Matrix.zero(rows, cols) and zero.den == 1 and zero.is_zero()


@PROPERTY
@given(matrices(), st.data())
def test_reindex_matches_reference(a, data):
    rows, cols, _ = a
    ma, ra = build(a)
    new_rows = data.draw(st.integers(1, 8))
    least_cols = -(-rows * cols // new_rows)  # room for every source cell
    new_cols = data.draw(st.integers(least_cols, least_cols + 3))
    cells = data.draw(st.permutations(range(new_rows * new_cols)))

    def key(r, c):  # injective: source cell r * cols + c goes to a distinct target cell
        return divmod(cells[r * cols + c], new_cols)

    moved = ma.reindex(new_rows, new_cols, key)
    assert_is(moved, new_rows, new_cols, ref_reindex(ra, key))
    assert moved.den == ma.den
    if ra:
        for outside in (lambda r, c: (r + rows, c), lambda r, c: (r, c - cols)):
            with pytest.raises(ValueError):
                ma.reindex(rows, cols, outside)
    if len(ra) > 1:
        with pytest.raises(ValueError):
            ma.reindex(rows, cols, lambda r, c: (0, 0))
