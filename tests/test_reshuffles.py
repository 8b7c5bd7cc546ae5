"""Tensor reshuffles built with Matrix.reindex against the builders they
replaced (tests/reference.py): entry-by-entry Scalar loops, and products
with tensor_permutation and rotation_sigma matrices.  Every comparison is
Matrix ==, so it covers the canonical form as well as the entries.  The
span tests, each from one product, are held to the per-basis-element loop
and the S (x) S product they replaced."""
from fractions import Fraction
from functools import cache

import pytest

import reference as ref
from hopfcoh.amenability import find_codiagonal
from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.cochain import (
    _flattened_natural,
    bar_boundary,
    codiagonal_contraction,
    dual_coboundary,
    natural_coboundary,
)
from hopfcoh.comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    catalog_bicomodules,
    check_nondegenerate,
    check_nondegenerate_left,
    dual_bicomodule,
    dual_coaction,
    dual_coaction_left,
    graded_right_coaction,
    module_from_coaction,
    module_from_left_coaction,
    regular_left_coaction,
    regular_right_coaction,
)
from hopfcoh.hopf import HopfStarAlgebra, check_saturated, function_algebra
from hopfcoh.linalg import Matrix, kron, tensor_permutation
from hopfcoh.monoids import FiniteMonoid
from hopfcoh.scalars import I

GAUSSIAN = "gaussian:Z2"


def gaussian_bicomodule() -> Bicomodule:
    """The graded group:Z2 bicomodule (beta grades 0, 1; gamma grades 1, 0)
    conjugated by P = [[1, i], [0, 1]], so both coactions have non-real entries."""
    h = get_algebra("group:Z2")
    p, p_inv, i_s = Matrix.from_rows([[1, I], [0, 1]]), Matrix.from_rows([[1, -I], [0, 1]]), Matrix.identity(2)
    beta = graded_right_coaction(h, [0, 1]).beta
    gamma = Matrix(4, 2, {(2, 0): 1, (1, 1): 1})  # e_0 -> u_1 (x) e_0, e_1 -> u_0 (x) e_1
    return Bicomodule(
        RightCoaction(2, h, kron(p, i_s) @ beta @ p_inv),
        LeftCoaction(2, h, kron(i_s, p) @ gamma @ p_inv),
    )


@cache
def bicomodules(name: str) -> tuple:
    if name == GAUSSIAN:
        return (gaussian_bicomodule(),)
    return tuple(e.bicomodule for e in catalog_bicomodules(get_algebra(name)))


@cache
def functionals(name: str) -> tuple:
    """The codiagonal of the algebra when it has one, and a functional on S (x) S
    with F(e_c (x) e_a) != F(e_a (x) e_c), some zeros and denominators up to 4."""
    h = bicomodules(name)[0].hopf
    s = h.dim
    out = [tuple(Fraction(k % 7 - 3, k % 4 + 1) for k in range(s * s))]
    if h.counit is not None and (found := find_codiagonal(h).certificate) is not None:
        out.append(found.functional)
    return tuple(out)


ALL = algebra_names() + (GAUSSIAN,)


def test_the_gaussian_bicomodule_is_not_real():
    (b,) = bicomodules(GAUSSIAN)
    assert b.beta.beta.im and b.gamma.gamma.im


@pytest.mark.parametrize("name", ALL)
def test_coaction_reshuffles_match_reference(name):
    for b in bicomodules(name):
        beta, gamma, x, s = b.beta.beta, b.gamma.gamma, b.space_dim, b.hopf.dim
        assert dual_coaction(b.beta).gamma == ref.ref_dual_coaction(beta, x, s)
        assert dual_coaction_left(b.gamma).beta == ref.ref_dual_coaction_left(gamma, x, s)
        act = module_from_coaction(b.beta)
        assert act == ref.ref_module_from_coaction(beta, x, s)
        assert ref.ref_coaction_from_module(act, x, s) == beta
        assert module_from_left_coaction(b.gamma) == ref.ref_module_from_left_coaction(gamma, x, s)


@pytest.mark.parametrize("name", ALL)
def test_dual_coboundaries_match_reference(name):
    for b in bicomodules(name):
        for n in range(3):
            assert dual_coboundary(b, n) == ref.ref_dual_coboundary(b, n)


def assert_same_sum(m: Matrix, summed: Matrix):
    """Equal as matrices, and in the key order of their numerator dicts."""
    assert m == summed
    assert (list(m.re), list(m.im)) == (list(summed.re), list(summed.im))


def assert_builders_sum_their_faces(b: Bicomodule):
    for n in range(4):
        assert_same_sum(natural_coboundary(b, n), ref.combination_natural_coboundary(b, n))
        assert_same_sum(dual_coboundary(b, n), ref.combination_dual_coboundary(b, n))
        assert_same_sum(bar_boundary(b, n + 1), ref.combination_bar_boundary(b, n + 1))


@pytest.mark.parametrize("name", ALL)
def test_builders_match_the_face_by_face_combination(name):
    """face_sum against one Matrix per face summed by combination, degrees 0-3:
    kp8's faces have den 2, gaussian:Z2's non-real entries."""
    for b in bicomodules(name):
        assert_builders_sum_their_faces(b)


def test_builders_match_the_face_by_face_combination_on_order3_monoids():
    for table in ref.order3_monoid_tables():
        h = function_algebra(FiniteMonoid(order=3, table=[list(r) for r in table], identity=0))
        for entry in catalog_bicomodules(h):
            assert_builders_sum_their_faces(entry.bicomodule)


@pytest.mark.parametrize("name", ALL)
def test_codiagonal_contractions_match_reference(name):
    for b in bicomodules(name):
        for f in functionals(name):
            for side in ("beta", "gamma"):
                for n in (1, 2, 3):
                    assert codiagonal_contraction(b, n, f, side) == ref.ref_codiagonal_contraction(b, n, f, side)


@pytest.mark.parametrize("name", ALL)
def test_permutation_products_match_reference(name):
    for b in bicomodules(name):
        dual_b = dual_bicomodule(b)
        for n in range(3):
            assert natural_coboundary(b, n) == ref.ref_natural_coboundary(b, n)
            assert bar_boundary(b, n + 1) == ref.ref_bar_boundary(b, n + 1)


@pytest.mark.parametrize("name", ALL)
def test_flattened_natural_matches_the_sign_identity_reference(name):
    """check-C10's one face build M = (-1)^{n+1} R d^{natural} R^{-1} on X^*, degrees 0-3:
    M R is the reference's R d^{natural} times the sign, and M is the dual D_n
    exactly where the reference's two sides agree (on every catalog bicomodule)."""
    for b in bicomodules(name):
        dual_b, x, s = dual_bicomodule(b), b.space_dim, b.hopf.dim
        for n in range(4):
            nat, dua = natural_coboundary(dual_b, n), dual_coboundary(b, n)
            lhs, rhs = ref.ref_sign_identity_sides(nat, dua, x, s, n)
            moved = _flattened_natural(dual_b, n)
            assert (moved @ tensor_permutation([x, s**n], [1, 0])).scale((-1) ** (n + 1)) == lhs
            assert moved == dua and lhs == rhs


def assert_spans_match_reference(bics):
    """Both non-degeneracy flags of each side of every bicomodule, and the algebra's saturation."""
    for b in bics:
        x = b.space_dim
        assert check_nondegenerate(b.beta) == ref.ref_translates_span(b.hopf, b.beta.beta, x, False)
        assert check_nondegenerate_left(b.gamma) == ref.ref_translates_span(b.hopf, b.gamma.gamma, x, True)
    assert check_saturated(bics[0].hopf) == ref.ref_check_saturated(bics[0].hopf)


@pytest.mark.parametrize("name", ALL)
def test_span_tests_match_reference(name):
    assert_spans_match_reference(bicomodules(name))


def test_span_tests_match_reference_on_every_small_monoid():
    workloads = ref.bench_workloads()
    tables = workloads.monoid_tables(3) + workloads.monoid_tables(4)
    assert len(tables) == 11 + 156
    for table in tables:
        h = function_algebra(FiniteMonoid(len(table), table))
        assert_spans_match_reference([e.bicomodule for e in catalog_bicomodules(h)])


@pytest.mark.parametrize("name", [n for n in algebra_names() if n.startswith("function:")])
def test_span_sides_match_reference_on_semigroup_algebras(name):
    """C[S] of the function algebra's semigroup (product and coproduct transposed):
    on S = leftzero2 it is neither commutative nor unital, so the left and right
    translates differ, which no Hopf algebra above can show."""
    f = get_algebra(name)
    h = HopfStarAlgebra(f.dim, f.comult.transpose(), f.unit, f.mult.transpose())
    right_reg, left_reg = regular_right_coaction(h), regular_left_coaction(h)
    right_flags = ref.ref_translates_span(h, h.comult, h.dim, False)
    left_flags = ref.ref_translates_span(h, h.comult, h.dim, True)
    assert check_nondegenerate(right_reg) == right_flags
    assert check_nondegenerate_left(left_reg) == left_flags
    assert check_saturated(h) == (right_flags[1], left_flags[1])  # the right translates of both
    if name == "function:leftzero2":
        assert right_flags == left_flags == (True, False)
