from fractions import Fraction

import pytest

from hopfcoh.catalog import get_algebra
from hopfcoh.hopf import (
    HopfStarAlgebra,
    check_axioms,
    check_saturated,
    counit_find,
    dual_hopf,
    function_algebra,
    group_algebra,
    haar_state,
)
from hopfcoh.linalg import Matrix, unit_vec, vec_dot
from hopfcoh.monoids import (
    FiniteGroup,
    FiniteMonoid,
    right_zero_with_identity,
    symmetric_group,
    trivial_monoid,
)
from hopfcoh.scalars import ONE, Scalar


def corrupt_comult(h: HopfStarAlgebra) -> HopfStarAlgebra:
    entries = dict(h.comult.entries)
    # flip one structure constant
    key = (0, h.dim - 1)
    entries[key] = entries.get(key, Scalar(0)) + ONE
    return HopfStarAlgebra(
        dim=h.dim,
        mult=h.mult,
        unit=h.unit,
        comult=Matrix(h.dim * h.dim, h.dim, entries),
        counit=h.counit,
        star=h.star,
        labels=h.labels,
        kind=h.kind,
        monoid=h.monoid,
    )


# -- monoids -------------------------------------------------------------


def test_monoid_validation():
    with pytest.raises(ValueError):
        FiniteMonoid(order=2, table=((0, 1), (0, 0)))  # 0 not an identity
    with pytest.raises(ValueError):
        FiniteGroup(order=2, table=((0, 1), (1, 1)))  # not a group


def test_symmetric_group_s3():
    g = symmetric_group(3)
    assert g.order == 6
    assert g.identity == 0
    assert all(g.mul(i, g.inv(i)) == 0 for i in range(6))


# -- builders ------------------------------------------------------------


def test_every_builder_passes_axioms():
    for name in (
        "function:trivial",
        "function:Z2",
        "function:Z3",
        "function:Z2xZ2",
        "function:S3",
        "function:leftzero2",
        "function:rzid3",
        "function:mult01",
        "group:trivial",
        "group:Z2",
        "group:Z3",
        "group:Z2xZ2",
        "group:S3",
    ):
        h = get_algebra(name)
        report = check_axioms(h)
        assert report.ok, (name, [c.name for c in report.failures()])


def test_function_algebra_trivial_monoid():
    h = function_algebra(trivial_monoid())
    assert h.dim == 1
    assert h.comult.col(0) == (ONE,)


def test_function_algebra_z2_comultiplication():
    h = get_algebra("function:Z2")
    # comult(d_a) = d_e (x) d_a + d_a (x) d_e  (indices: e=0, a=1)
    col = h.comult.col(1)
    expected = [Scalar(0)] * 4
    expected[0 * 2 + 1] = ONE
    expected[1 * 2 + 0] = ONE
    assert col == tuple(expected)


def test_function_algebra_rzid_counit_is_evaluation_at_identity():
    m = right_zero_with_identity(3)
    h = function_algebra(m)
    assert check_axioms(h).ok
    assert h.counit == unit_vec(3, 0)


def test_group_algebra_z2_comult_two_entries():
    h = get_algebra("group:Z2")
    assert h.comult.nnz == 2
    assert all(v == ONE for v in h.comult.entries.values())


def test_group_counit_is_multiplicative():
    h = get_algebra("group:S3")
    eps = h.counit
    for r in range(h.dim):
        for s in range(h.dim):
            prod = h.multiply(unit_vec(h.dim, r), unit_vec(h.dim, s))
            assert vec_dot(eps, prod) == ONE


def test_corrupted_comult_caught_with_witness():
    h = corrupt_comult(get_algebra("function:Z2"))
    report = check_axioms(h)
    assert not report.ok
    bad = [c for c in report.failures() if c.name == "comult coassociative"]
    assert bad and bad[0].witness is not None


# -- saturation ----------------------------------------------------------


def test_group_algebra_saturated():
    assert check_saturated(get_algebra("group:Z3")) == (True, True)


def test_function_algebra_s3_saturated_by_rank():
    assert check_saturated(get_algebra("function:S3")) == (True, True)


def test_left_zero_fails_right_saturation_with_rank_two():
    h = get_algebra("function:leftzero2")
    left, right = check_saturated(h)
    assert (left, right) == (True, False)
    # the right span is delta(f)(t (x) 1) = f t (x) 1: dimension 2 of 4
    from hopfcoh.linalg import image_rank, kron, tensor_permutation

    d = h.dim
    swap_mid = tensor_permutation([d, d, d, d], [0, 2, 1, 3])
    mult2 = kron(h.mult, h.mult) @ swap_mid
    cols = []
    for s in range(d):
        for t in range(d):
            x = [Scalar(0)] * (d * d)
            x[t * d + 0] = ONE  # t (x) first-basis-element of unit expansion
            vec = [Scalar(0)] * (d * d * d * d)
            ds = h.comult.col(s)
            other = [Scalar(0)] * (d * d)
            for i in range(d):
                other[t * d + i] = h.unit[i]
            for i1, v1 in enumerate(ds):
                if v1:
                    for i2, v2 in enumerate(other):
                        if v2:
                            vec[i1 * d * d + i2] = v1 * v2
            cols.append(mult2.apply(tuple(vec)))
    assert image_rank(Matrix.from_cols(cols, rows=d * d)) == 2


# -- duals ---------------------------------------------------------------


def test_dual_of_function_z2_is_group_z2():
    dual = dual_hopf(get_algebra("function:Z2"))
    grp = get_algebra("group:Z2")
    # the identity on coordinates is the isomorphism under our conventions
    assert dual.structure_equal(grp)


def test_double_dual_is_identity():
    for name in ("group:Z3", "function:S3"):
        h = get_algebra(name)
        assert dual_hopf(dual_hopf(h)).structure_equal(h)


def test_dual_product_of_group_delta_functionals_is_pointwise():
    h = get_algebra("group:Z3")
    dual = dual_hopf(h)
    # (phi_r . phi_s)(u_t) = [r==t][s==t]
    for r in range(3):
        for s in range(3):
            arg = [Scalar(0)] * 9
            arg[r * 3 + s] = ONE
            prod = dual.mult.apply(tuple(arg))
            expected = tuple(ONE if (r == t and s == t) else Scalar(0) for t in range(3))
            assert prod == expected


def test_dual_needs_counit():
    with pytest.raises(ValueError):
        dual_hopf(get_algebra("function:leftzero2"))


# -- counits -------------------------------------------------------------


def test_counit_of_function_z3_is_evaluation():
    res = counit_find(get_algebra("function:Z3"))
    assert res.functional == unit_vec(3, 0)
    assert res.two_sided


def test_counit_of_group_s3_is_all_ones():
    res = counit_find(get_algebra("group:S3"))
    assert res.functional == tuple(ONE for _ in range(6))
    assert res.two_sided


def test_counit_left_zero_inconsistent_with_certificate():
    h = get_algebra("function:leftzero2")
    res = counit_find(h)
    assert res.functional is None
    y = res.certificate
    assert y is not None and any(y)
    # certificate: y annihilates every column of the system but not the rhs
    d = h.dim
    entries = {}
    for (r, c), v in h.comult.entries.items():
        a, b = divmod(r, d)
        entries[(b * d + c, a)] = entries.get((b * d + c, a), Scalar(0)) + v
    system = Matrix(d * d, d, entries)
    rhs = [Scalar(0)] * (d * d)
    for j in range(d):
        rhs[j * d + j] = ONE
    assert not any(system.transpose().apply(y))
    assert vec_dot(y, tuple(rhs))


def test_left_counit_law_implies_right_on_saturated_catalog():
    for name in ("function:Z2", "function:S3", "group:Z2xZ2", "group:S3"):
        res = counit_find(get_algebra(name))
        assert res.functional is not None and res.two_sided


# -- Haar states ---------------------------------------------------------


def test_haar_function_algebra_uniform():
    res = haar_state(get_algebra("function:Z3"))
    assert res.state == tuple(Scalar(Fraction(1, 3)) for _ in range(3))
    assert res.positive


def test_haar_group_algebra_is_delta_at_identity():
    h = get_algebra("group:S3")
    res = haar_state(h)
    assert res.state == unit_vec(6, 0)
    assert res.positive
    # direct expansion: (phi (x) id) comult(u_r) = [r == e] unit
    from hopfcoh.linalg import kron

    phi_row = Matrix.row(res.state)
    lhs = kron(phi_row, Matrix.identity(6)) @ h.comult
    for r in range(6):
        expected = tuple((ONE if r == 0 else Scalar(0)) * x for x in h.unit) if r == 0 else tuple(Scalar(0) for _ in range(6))
        assert lhs.col(r) == (h.unit if r == 0 else expected)


def test_haar_on_corrupted_comult_inconsistent():
    h = corrupt_comult(get_algebra("group:Z3"))
    res = haar_state(h)
    assert res.state is None
    assert res.certificate is not None


def test_a_job_forms_the_product_on_s_tensor_s_once(monkeypatch):
    """axioms and saturation both read HopfStarAlgebra.mult2, the product
    kron(mult, mult) with its middle legs swapped, derived once per algebra."""
    from hopfcoh import hopf
    from hopfcoh.jobfile import parse_input
    from hopfcoh.linalg import kron, tensor_permutation
    from hopfcoh.report import run

    products = []

    def counting_kron(a, b):
        if a is b and a.cols == a.rows**2 > 1:  # kron(mult, mult)
            products.append(a)
        return kron(a, b)

    monkeypatch.setattr(hopf, "kron", counting_kron)
    run(parse_input("algebra = group:S3\ntasks = axioms, saturation\n"))
    assert len(products) == 1
    m = products[0]
    assert get_algebra("group:S3").mult2 == kron(m, m) @ tensor_permutation([6] * 4, [0, 2, 1, 3])
