"""Matrix arithmetic (integer numerators over one denominator) against the
dict-of-Scalar reference, and the canonical form that makes == and hash
independent of how a matrix was built."""
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh.linalg import Matrix, combination, face_sum, failing_column, kernel_basis, kron, kron_all, product_is_zero
from hopfcoh.scalars import I, Scalar, as_scalar
from reference import (
    ref_augment,
    ref_conj_transpose,
    ref_kron,
    ref_product,
    ref_product_numerators,
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


@st.composite
def reaching_factors(draw):
    """(a, b) with a @ b defined and a sparser than b: a holds one or two entries in each
    column of a drawn set, all of b's rows or a proper subset, so a reaches only those."""
    b = draw(matrices())
    inner, cols = b[0], draw(st.integers(1, 6))
    reached = draw(st.one_of(st.just(set(range(inner))), st.sets(st.integers(0, inner - 1), max_size=inner - 1)))
    value = st.one_of(st.integers(-3, 3).filter(bool), FRACTIONS.filter(bool), GAUSSIAN.filter(bool))
    entries = {}
    for k in sorted(reached):
        for r in draw(st.sets(st.integers(0, cols - 1), min_size=1, max_size=2)):
            entries[(r, k)] = draw(value)
    return (cols, inner, entries), b


@PROPERTY
@given(reaching_factors())
def test_product_buckets_only_the_reached_rows(factors):
    """A left factor with fewer entries than the right, reaching a subset of its rows or
    all of them, over Q and Q(i): the entries, den and key order of the numerators of
    every product equal the unbucketed reference's."""
    (ma, ra), (mb, rb) = (build(spec) for spec in factors)
    product, expected = ma @ mb, ref_product_numerators(ma, mb)
    assert_is(product, ma.rows, mb.cols, ref_product(ra, rb))
    assert product.den == expected.den
    assert (list(product.re), list(product.im)) == (list(expected.re), list(expected.im))


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
@given(matrices(), st.data())
def test_combination_matches_a_fold_of_ref_sum(a, data):
    rows, cols, _ = a
    specs = [a] + data.draw(st.lists(matrices(rows, cols), max_size=3))
    signs = data.draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=len(specs), max_size=len(specs)))
    built = [build(spec) for spec in specs]
    expected = {}
    for k, (_, ref) in zip(signs, built):
        expected = ref_sum(expected, ref, k)
    assert_is(combination([(k, m) for k, (m, _) in zip(signs, built)]), rows, cols, expected)
    m = built[0][0]
    zero = combination([(1, m), (-1, m)])
    assert zero == Matrix.zero(rows, cols) and zero.den == 1
    assert combination([(0, m), (1, m), (0, m)]) == m and combination([(0, m)]) == zero


@PROPERTY
@given(matrices(), st.data())
def test_combination_with_product_terms_matches_ref_product_and_a_fold_of_ref_sum(a, data):
    """Plain terms (k, m) and product terms (k, a, b) mixed in any order, over
    Q and Q(i) with denominators 1-6, and zero coefficients among them."""
    rows, cols, _ = a
    m, expected = build(a)
    terms = [(1, m)]
    kinds = data.draw(st.lists(st.booleans(), min_size=1, max_size=4))  # True: a product term
    coeffs = data.draw(st.lists(st.sampled_from([-2, -1, 0, 1, 3]), min_size=len(kinds), max_size=len(kinds)))
    for k, is_product in zip(coeffs, kinds):
        if is_product:
            left = data.draw(matrices(rows=rows))
            (ma, ra), (mb, rb) = build(left), build(data.draw(matrices(rows=left[1], cols=cols)))
            terms.append((k, ma, mb))
            expected = ref_sum(expected, ref_product(ra, rb), k)
        else:
            m, ref = build(data.draw(matrices(rows, cols)))
            terms.append((k, m))
            expected = ref_sum(expected, ref, k)
    terms.reverse()  # the term (1, a) last, so the second sum leaves it out
    assert_is(combination(terms), rows, cols, expected)
    assert_is(combination(terms[:-1]), rows, cols, ref_sum(expected, build(a)[1], -1))


@PROPERTY
@given(matrices(), st.data())
def test_failing_column_is_the_least_column_of_the_combination(a, data):
    """Plain and product terms over Q and Q(i), with denominators 1-6, and in about half
    the draws a term cancelled by its negative, so the sum may vanish: failing_column
    reads the least column of combination's support, or None."""
    rows, cols, _ = a
    terms = [(data.draw(st.sampled_from([-2, -1, 1, 3])), build(a)[0])]
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            left = data.draw(matrices(rows=rows))
            term = (data.draw(st.sampled_from([-1, 0, 2])), build(left)[0], build(data.draw(matrices(rows=left[1], cols=cols)))[0])
        else:
            term = (data.draw(st.sampled_from([-1, 0, 2])), build(data.draw(matrices(rows, cols)))[0])
        terms.append(term)
    if data.draw(st.booleans()):
        terms += [(-k, *rest) for k, *rest in terms]
    terms = data.draw(st.permutations(terms))
    assert failing_column(terms) == min((c for _, c in combination(terms).support), default=None)


def test_failing_column_refuses_what_combination_refuses():
    for terms, message in (
        ([(1, Matrix.identity(2)), (-1, Matrix.zero(2, 3))], "shape mismatch"),
        ([(1, Matrix.identity(2), Matrix.zero(2, 3)), (-1, Matrix.identity(2))], "shape mismatch"),
        ([(1, Matrix.identity(2)), (1, Matrix.identity(2), Matrix.zero(3, 2))], "composition undefined: 2x2 @ 3x2"),
        ([], "^combination of no terms$"),
    ):
        for f in (combination, failing_column):
            with pytest.raises(ValueError, match=message):
                f(terms)


def test_combination_of_two_shapes_raises():
    with pytest.raises(ValueError, match="shape mismatch"):
        combination([(1, Matrix.identity(2)), (-1, Matrix.zero(2, 3))])


def test_combination_refuses_no_terms_and_ill_formed_products():
    with pytest.raises(ValueError, match="shape mismatch"):
        combination([(1, Matrix.identity(2), Matrix.zero(2, 3)), (-1, Matrix.identity(2))])
    with pytest.raises(ValueError, match="composition undefined: 2x2 @ 3x2"):
        combination([(1, Matrix.identity(2)), (1, Matrix.identity(2), Matrix.zero(3, 2))])
    with pytest.raises(ValueError, match="^combination of no terms$"):
        combination([])


@PROPERTY
@given(matrices(), GAUSSIAN)
def test_pickle_round_trip(a, q):
    """Over Q and Q(i), with the entries view not yet built and already built."""
    fresh, cached = build(a)[0], build(a)[0]
    assert cached.entries is not None  # builds the view
    for x in (fresh, cached, cached.scale(q), q, Scalar(1, 2), Matrix.identity(2)):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x)
    assert pickle.loads(pickle.dumps(cached)).entries == cached.entries


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


# (p, q) of a face of the 8 x 4 sum below: p q divides 4, so the face's m is 8/(pq) x 4/(pq)
LAYOUTS = [(p, q) for p in (1, 2, 4) for q in (1, 2, 4) if 4 % (p * q) == 0]


@PROPERTY
@given(st.data())
def test_face_sum_matches_combination_of_its_faces(data):
    """Each face built as a Matrix (kron_all, then reindex by its moves) and summed
    by combination: the same entries, den and key order.  A face may repeat an
    earlier one with another k, so keys cancel, are deleted and come back."""
    faces, built = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        if faces and data.draw(st.booleans()):
            _, p, m, q, row_move, col_move = data.draw(st.sampled_from(faces))
        else:
            p, q = data.draw(st.sampled_from(LAYOUTS))
            m = build(data.draw(matrices(8 // (p * q), 4 // (p * q))))[0]
            row_move, col_move = (data.draw(st.one_of(st.none(), st.permutations(range(n)))) for n in (8, 4))
        faces.append((data.draw(st.integers(-2, 2)), p, m, q, row_move, col_move))
        moved = kron_all(Matrix.identity(p), m, Matrix.identity(q))
        key = (lambda rm, cm: lambda r, c: (rm[r] if rm else r, cm[c] if cm else c))(row_move, col_move)
        built.append((faces[-1][0], moved.reindex(8, 4, key)))
    summed, expected = face_sum(faces), combination(built)
    assert summed == expected
    assert (list(summed.re), list(summed.im)) == (list(expected.re), list(expected.im))


# (p, q) of a face of the 16a x 16c sums below: 4 <= p q <= 16, so m is at most 8 x 8
WIDE_LAYOUTS = [(p, q) for p in (1, 2, 4, 8, 16) for q in (1, 2, 4, 8, 16) if p * q in (4, 8, 16)]


@PROPERTY
@given(st.data())
def test_face_sum_matches_combination_with_wide_identity_legs(data):
    """As test_face_sum_matches_combination_of_its_faces on a 16a x 16c sum (a, c <= 2), with
    p q from 4 to 16, every face's m Gaussian, and both its rows and its columns moved
    in about half the faces."""
    a, c = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    rows, cols = 16 * a, 16 * c
    value = st.one_of(st.just(0), GAUSSIAN, st.builds(Scalar, st.integers(-3, 3), st.integers(-3, 3)))
    faces, built = [], []
    for _ in range(data.draw(st.integers(1, 4))):
        if faces and data.draw(st.booleans()):
            _, p, m, q, row_move, col_move = data.draw(st.sampled_from(faces))
        else:
            p, q = data.draw(st.sampled_from(WIDE_LAYOUTS))
            shape = rows // (p * q), cols // (p * q)
            m = Matrix(*shape, {(r, k): data.draw(value) for r in range(shape[0]) for k in range(shape[1])})
            if data.draw(st.booleans()):
                row_move, col_move = data.draw(st.permutations(range(rows))), data.draw(st.permutations(range(cols)))
            else:
                row_move, col_move = (data.draw(st.one_of(st.none(), st.permutations(range(n)))) for n in (rows, cols))
        faces.append((data.draw(st.integers(-2, 2)), p, m, q, row_move, col_move))
        moved = kron_all(Matrix.identity(p), m, Matrix.identity(q))
        key = (lambda rm, cm: lambda r, c: (rm[r] if rm else r, cm[c] if cm else c))(row_move, col_move)
        built.append((faces[-1][0], moved.reindex(rows, cols, key)))
    summed, expected = face_sum(faces), combination(built)
    assert summed == expected
    assert (list(summed.re), list(summed.im)) == (list(expected.re), list(expected.im))


BIG = st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**66))


@st.composite
def kernel_products(draw):
    """(a, b): a with more columns than rows, and b whose columns are combinations
    of kernel_basis(a), so a @ b vanishes, until one entry of b is changed (about
    half the draws).  Entries run past 2^64 with denominators, Gaussian in about half."""
    part = st.one_of(st.just(0), FRACTIONS, BIG)
    value = st.builds(Scalar, part, part if draw(st.booleans()) else st.just(0))
    rows = draw(st.integers(1, 4))
    cols = rows + draw(st.integers(1, 3))
    a = Matrix(rows, cols, {(r, c): draw(value) for r in range(rows) for c in range(cols)})
    ker = kernel_basis(a)
    combos = [[draw(value) for _ in ker] for _ in range(draw(st.integers(1, 3)))]
    b = Matrix.from_cols(
        [[sum((k * v[i] for k, v in zip(ks, ker)), Scalar(0)) for i in range(cols)] for ks in combos], rows=cols
    )
    if draw(st.booleans()):
        cell = draw(st.integers(0, cols - 1)), draw(st.integers(0, b.cols - 1))
        b = b + Matrix(cols, b.cols, {cell: draw(value)})
    return a, b


@PROPERTY
@given(kernel_products())
def test_product_is_zero_on_kernel_columns_matches_the_product(pair):
    a, b = pair
    assert product_is_zero(a, b) == (a @ b).is_zero()


@PROPERTY
@given(matrices(), st.data())
def test_product_is_zero_matches_the_product(a, data):
    ma, mb = build(a)[0], build(data.draw(matrices(rows=a[1])))[0]
    assert product_is_zero(ma, mb) == (ma @ mb).is_zero()
    assert product_is_zero(ma, Matrix.zero(a[1], 3)) and product_is_zero(Matrix.zero(2, a[0]), ma)


def test_a_packed_row_carries_no_entry_into_the_next_slot():
    """a = [[2^k, -1]] and b = I_2 give the row (2^k, -1), packed 2^k - 2^w:
    a slot of w <= k bits would read it as zero.  The same row times i too."""
    for k in range(1, 81):
        a = Matrix.from_rows([[2**k, -1]])
        assert not product_is_zero(a, Matrix.identity(2))
        assert not product_is_zero(a.scale(I), Matrix.identity(2))
        assert not product_is_zero(Matrix.identity(1), a)


def test_product_is_zero_checks_the_shapes():
    with pytest.raises(ValueError, match="composition undefined"):
        product_is_zero(Matrix.identity(2), Matrix.identity(3))
