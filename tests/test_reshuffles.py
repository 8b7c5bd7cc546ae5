"""Tensor reshuffles built with Matrix.reindex against the builders they
replaced (tests/reference.py): entry-by-entry Scalar loops, and products
with tensor_permutation and rotation_sigma matrices.  Every comparison is
Matrix ==, so it covers the canonical form as well as the entries."""
from fractions import Fraction
from functools import cache

import pytest

import reference as ref
from hopfcoh.amenability import find_codiagonal
from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.cochain import (
    bar_boundary,
    codiagonal_contraction,
    dual_coboundary,
    natural_coboundary,
    sign_identity_sides,
)
from hopfcoh.comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    catalog_bicomodules,
    coaction_from_module,
    dual_bicomodule,
    dual_coaction,
    dual_coaction_left,
    graded_right_coaction,
    module_from_coaction,
    module_from_left_coaction,
)
from hopfcoh.linalg import Matrix, kron
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
SMALL = tuple(n for n in algebra_names() if get_algebra(n).dim <= 4) + ("kp8", GAUSSIAN)


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
        assert coaction_from_module(b.hopf, act).beta == ref.ref_coaction_from_module(act, x, s) == beta
        assert module_from_left_coaction(b.gamma) == ref.ref_module_from_left_coaction(gamma, x, s)


@pytest.mark.parametrize("name", ALL)
def test_dual_coboundaries_match_reference(name):
    for b in bicomodules(name):
        for n in range(3):
            assert dual_coboundary(b, n) == ref.ref_dual_coboundary(b, n)


@pytest.mark.parametrize("name", ALL)
def test_codiagonal_contractions_match_reference(name):
    for b in bicomodules(name):
        for f in functionals(name):
            for side in ("beta", "gamma"):
                for n in (1, 2, 3):
                    assert codiagonal_contraction(b, n, f, side) == ref.ref_codiagonal_contraction(b, n, f, side)


@pytest.mark.parametrize("name", SMALL)
def test_permutation_products_match_reference(name):
    for b in bicomodules(name):
        dual_b = dual_bicomodule(b)
        for n in range(3):
            assert natural_coboundary(b, n) == ref.ref_natural_coboundary(b, n)
            assert bar_boundary(b, n + 1) == ref.ref_bar_boundary(b, n + 1)
            nat, dua = natural_coboundary(dual_b, n), dual_coboundary(b, n)
            args = (nat, dua, b.space_dim, b.hopf.dim, n)
            lhs, rhs = sign_identity_sides(*args)
            assert (lhs, rhs) == ref.ref_sign_identity_sides(*args)
            assert lhs == rhs
