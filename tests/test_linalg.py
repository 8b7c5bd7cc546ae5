from fractions import Fraction
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh import linalg
from hopfcoh.linalg import (
    CertificateError,
    LinearSolver,
    Matrix,
    image_rank,
    kernel_basis,
    kron,
    leg_map,
    psd_check,
    solve,
    tensor_permutation,
    unit_vec,
    vec_dot,
)
from hopfcoh.scalars import ONE, ZERO, Scalar
from reference import TensorSpace, ref_psd_check, rotation_sigma


def rand_matrix(rng, rows, cols, density=0.7):
    entries = {}
    for i in range(rows):
        for j in range(cols):
            if rng.random() < density:
                entries[(i, j)] = Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return Matrix(rows, cols, entries)


# -- tensor index convention -------------------------------------------------


def test_tensor_space_flat_is_row_major():
    ts = TensorSpace([2, 3, 2])
    assert ts.total_dim == 12
    assert ts.flat((1, 2, 0)) == 1 * 6 + 2 * 2 + 0
    for i in range(ts.total_dim):
        assert ts.flat(ts.unflat(i)) == i


def test_leg_map_matches_the_digit_reference():
    src, perm = TensorSpace([2, 3, 4]), (2, 0, 1)
    tgt = TensorSpace([src.factors[k] for k in perm])
    move = leg_map(src.factors, perm)
    for i in range(src.total_dim):
        legs = src.unflat(i)
        assert move[i] == tgt.flat(legs[k] for k in perm)
    for dims, bad_perm in (([2, -1], [0, 1]), ([2, 3], [0, 0]), ([2, 3], [0])):
        with pytest.raises(ValueError):
            leg_map(dims, bad_perm)


def test_kron_identity():
    assert kron(Matrix.identity(2), Matrix.identity(3)) == Matrix.identity(6)


def test_kron_pure_tensor():
    rng = Random(7)
    a = rand_matrix(rng, 3, 2)
    b = rand_matrix(rng, 2, 2)
    e0 = unit_vec(2, 0)
    out = kron(a, b).apply(tuple_tensor(e0, e0))
    expected = tuple_tensor(a.apply(e0), b.apply(e0))
    assert out == expected


def tuple_tensor(u, v):
    out = []
    for x in u:
        for y in v:
            out.append(x * y)
    return tuple(out)


def test_kron_of_swaps_brute_force():
    # 2x2-factor swap tensored with itself, checked on all 16 flat indices
    swap = tensor_permutation([2, 2], [1, 0])
    big = kron(swap, swap)
    ts = TensorSpace([2, 2, 2, 2])
    for i in range(16):
        a, b, c, d = ts.unflat(i)
        image = big.apply(unit_vec(16, i))
        assert image == unit_vec(16, ts.flat((b, a, d, c)))


def test_kron_mixed_product_property():
    rng = Random(3)
    a, c = rand_matrix(rng, 2, 3), rand_matrix(rng, 3, 2)
    b, d = rand_matrix(rng, 3, 2), rand_matrix(rng, 2, 3)
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


# -- rotation ----------------------------------------------------------------


def test_rotation_two_factor_flip():
    sigma = rotation_sigma(1, 1, x_dim=3, s_dim=2)
    ts_src = TensorSpace([2, 3])
    ts_tgt = TensorSpace([3, 2])
    for s in range(2):
        for x in range(3):
            image = sigma.apply(unit_vec(6, ts_src.flat((s, x))))
            assert image == unit_vec(6, ts_tgt.flat((x, s)))


def test_rotation_inverse_is_transpose():
    sigma = rotation_sigma(3, 2, x_dim=2, s_dim=2)
    assert sigma @ sigma.transpose() == Matrix.identity(sigma.rows)
    assert sigma.transpose() @ sigma == Matrix.identity(sigma.cols)


def test_rotation_n2_k1_brute_force():
    # source s_2 (x) x (x) s_1 with dim S = 2, dim X = 3; image x (x) s_1 (x) s_2
    sigma = rotation_sigma(2, 1, x_dim=3, s_dim=2)
    src = TensorSpace([2, 3, 2])
    tgt = TensorSpace([3, 2, 2])
    for s2 in range(2):
        for x in range(3):
            for s1 in range(2):
                image = sigma.apply(unit_vec(12, src.flat((s2, x, s1))))
                assert image == unit_vec(12, tgt.flat((x, s1, s2)))


# -- kernels, ranks, solving -------------------------------------------------


def test_kernel_of_zero_matrix():
    basis = kernel_basis(Matrix.zero(3, 3))
    assert basis == [unit_vec(3, i) for i in range(3)]


def test_rank_identity():
    assert image_rank(Matrix.identity(5)) == 5


def minor_rank(m: Matrix) -> int:
    """Independent oracle: biggest r with a nonvanishing r x r minor."""

    def det(rows_idx, cols_idx):
        if not rows_idx:
            return Scalar(1)
        i = rows_idx[0]
        total = Scalar(0)
        sign = ONE
        for pos, j in enumerate(cols_idx):
            a = m[(i, j)]
            if a:
                sub = det(rows_idx[1:], cols_idx[:pos] + cols_idx[pos + 1 :])
                total = total + sign * a * sub
            sign = -sign
        return total

    best = 0
    for r in range(1, min(m.rows, m.cols) + 1):
        found = False
        for rows_idx in combinations(range(m.rows), r):
            for cols_idx in combinations(range(m.cols), r):
                if det(tuple(rows_idx), tuple(cols_idx)):
                    found = True
                    break
            if found:
                break
        if found:
            best = r
        else:
            break
    return best


def test_rank_nullity_random_5x7_with_minor_oracle():
    rng = Random(11)
    m = rand_matrix(rng, 5, 7, density=0.6)
    r = image_rank(m)
    k = len(kernel_basis(m))
    assert r + k == 7
    assert r == minor_rank(m)


def test_kernel_vectors_annihilate_and_are_canonical():
    rng = Random(23)
    m = rand_matrix(rng, 4, 6, density=0.5)
    basis = kernel_basis(m)
    assert basis, "seed should give a nontrivial kernel"
    for v in basis:
        assert not any(m.apply(v))
    # idempotent under re-reduction
    from hopfcoh.linalg import rref

    pivots, rows = rref(Matrix.from_rows(basis))
    again = []
    for p, row in zip(pivots, rows):
        v = [Scalar(0)] * 6
        for c, val in row.items():
            v[c] = val
        again.append(tuple(v))
    assert again == basis


def test_solve_consistent_and_certificate():
    rng = Random(5)
    m = rand_matrix(rng, 5, 3, density=0.8)
    x = tuple(Scalar(rng.randint(-3, 3)) for _ in range(3))
    rhs = m.apply(x)
    res = solve(m, rhs)
    assert res.consistent
    assert m.apply(res.solution) == rhs
    # engineered inconsistent system
    m2 = Matrix.from_rows([[1, 0], [1, 0]])
    res2 = solve(m2, (Scalar(1), Scalar(2)))
    assert not res2.consistent
    y = res2.certificate
    assert not any(m2.transpose().apply(y))
    assert vec_dot(y, (Scalar(1), Scalar(2)))


def test_solver_certifies_what_it_returns(monkeypatch):
    m = Matrix.from_rows([[1, 0], [1, 0]])
    consistent, inconsistent = (Scalar(1), Scalar(1)), (Scalar(1), Scalar(2))
    # untouched, both answers pass their own checks
    assert LinearSolver(m).solve(consistent).solution == (ONE, ZERO)
    assert LinearSolver(m).solve(inconsistent).certificate == (-ONE, ONE)
    # a sweep whose integer arithmetic is wrong (every gcd read as 2) zeroes
    # the second row instead of clearing it, and returns the point (1, 0)
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "gcd", lambda *parts: 2)
        with pytest.raises(CertificateError, match="solution fails m x = rhs"):
            LinearSolver(m).solve(inconsistent)
    # a kernel vector on the rows {r} u P that is not m's claims a y with y^T m != 0
    monkeypatch.setattr(linalg, "kernel_basis", lambda sub: [(ONE, ONE)])
    with pytest.raises(CertificateError, match="fails y\\^T m = 0"):
        LinearSolver(m).solve(inconsistent)


def test_reported_left_kernel_certificates_are_pinned():
    """The infeasibility vector of the function:rzid3 codiagonal system and the
    certificate of the function:leftzero2 counit system, as reports print them.

    Any y with y^T m = 0 and y^T rhs != 0 would certify these systems; which
    one LinearSolver returns depends on the column sweep's choice of pivot
    row at each column (the shortest row, then the first), which is why
    LinearSolver keeps that sweep.  Choosing the longest row
    instead gives {0: 1, 19: 1, 21: 1, 24: 1} and {0: 1, 2: -1}.
    """
    from hopfcoh.amenability import find_codiagonal
    from hopfcoh.catalog import get_algebra
    from hopfcoh.hopf import counit_find

    def sparse(v):
        return {i: x for i, x in enumerate(v) if x}

    infeasibility = find_codiagonal(get_algebra("function:rzid3")).infeasibility
    assert len(infeasibility) == 26
    assert sparse(infeasibility) == {0: -1, 9: -1, 10: 1}
    counit = counit_find(get_algebra("function:leftzero2"))
    assert counit.functional is None
    assert counit.certificate == (Scalar(-1), Scalar(0), Scalar(1), Scalar(0))
    assert all(type(x) is Scalar for x in infeasibility + counit.certificate)


# -- psd ---------------------------------------------------------------------


def test_psd_identity():
    assert psd_check(Matrix.identity(4)).ok


def test_psd_rejects_indefinite_diagonal():
    m = Matrix.from_rows([[1, 0], [0, -1]])
    res = psd_check(m)
    assert not res.ok
    assert res.witness == unit_vec(2, 1)


def test_psd_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_check(Matrix.from_rows([[0, 1], [0, 0]]))


def test_psd_zero_diagonal_with_offdiagonal_witness():
    m = Matrix.from_rows([[0, 2], [2, 0]])
    res = psd_check(m)
    assert not res.ok
    v = res.witness
    quad = Scalar(0)
    for i in range(2):
        for j in range(2):
            quad = quad + v[i].conjugate() * m[(i, j)] * v[j]
    assert quad < 0


def test_psd_semidefinite_rank_deficient():
    # all-ones 3x3: eigenvalues 3, 0, 0
    m = Matrix.from_rows([[1, 1, 1]] * 3)
    res = psd_check(m)
    assert res.ok
    assert len(res.pivots) == 1


def test_psd_witness_on_random_indefinite():
    rng = Random(17)
    a = rand_matrix(rng, 4, 4, density=0.9)
    m = a + a.conj_transpose()  # Hermitian, generically indefinite
    res = psd_check(m)
    if not res.ok:
        v = res.witness
        quad = Scalar(0)
        for (i, j), val in m.entries.items():
            quad = quad + v[i].conjugate() * val * v[j]
        assert quad.is_real and quad < 0


def test_psd_complex_hermitian():
    # [[2, i], [-i, 2]] has eigenvalues 1 and 3
    m = Matrix(2, 2, {(0, 0): Scalar(2), (0, 1): Scalar(0, 1), (1, 0): Scalar(0, -1), (1, 1): Scalar(2)})
    assert psd_check(m).ok
    # [[1, 2i], [-2i, 1]] has eigenvalues -1 and 3
    m2 = Matrix(2, 2, {(0, 0): Scalar(1), (0, 1): Scalar(0, 2), (1, 0): Scalar(0, -2), (1, 1): Scalar(1)})
    assert not psd_check(m2).ok


def test_psd_answer_is_certified_by_its_steps(monkeypatch):
    """A PSD answer re-checks m = V D V* from the recorded steps; one corrupted
    pivot, or one corrupted ratio, fails it."""
    m = Matrix(3, 3, {(0, 0): 2, (0, 1): Scalar(0, 1), (1, 0): Scalar(0, -1), (1, 1): 2, (2, 2): 1})
    assert psd_check(m).ok
    original = linalg._certify_ldl

    def pivot_off_by_one(p, d, ratios):
        return p, d + 1, ratios

    def ratios_negated(p, d, ratios):
        return p, d, {j: -r for j, r in ratios.items()}

    for corrupt in (pivot_off_by_one, ratios_negated):
        monkeypatch.setattr(linalg, "_certify_ldl", lambda m, steps: original(m, [corrupt(*steps[0]), *steps[1:]]))
        with pytest.raises(CertificateError, match="PSD decomposition"):
            psd_check(m)


@st.composite
def hermitian_matrices(draw):
    """Hermitian n x n over Q, or over Q(i) about a quarter of the time: either
    arbitrary sparse entries (negative and zero diagonals, zero diagonals on
    nonzero rows) or a Gram matrix b b* of an n x k b, PSD and often rank-deficient."""
    n = draw(st.integers(1, 6))
    part = st.one_of(st.just(0), st.just(0), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    gaussian = draw(st.integers(0, 3)) == 0
    entry = st.builds(Scalar, part, part if gaussian else st.just(0))
    if draw(st.booleans()):
        k = draw(st.integers(1, n))
        b = Matrix(n, k, {(i, j): x for i in range(n) for j in range(k) if (x := draw(entry))})
        return b @ b.conj_transpose()
    entries = {}
    for i in range(n):
        if d := draw(part):
            entries[(i, i)] = Scalar(d)
        for j in range(i + 1, n):
            if x := draw(entry):
                entries[(i, j)], entries[(j, i)] = x, x.conjugate()
    return Matrix(n, n, entries)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(hermitian_matrices())
def test_psd_check_on_rows_matches_the_keyed_copy(m):
    """The row version returns the reference's verdict, pivots and witness."""
    got, expected = psd_check(m), ref_psd_check(m)
    assert (got.ok, got.pivots, got.witness) == (expected.ok, expected.pivots, expected.witness)


def test_matmul_dimension_check():
    with pytest.raises(ValueError):
        Matrix.identity(2) @ Matrix.identity(3)
