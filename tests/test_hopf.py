from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.hopf import (
    AxiomCheck,
    HopfStarAlgebra,
    check_axioms,
    check_saturated,
    counit_find,
    dual_algebra_mult,
    function_algebra,
    group_algebra,
    haar_state,
)
from hopfcoh.linalg import Matrix, kron, unit_vec, vec_dot
from hopfcoh.monoids import (
    FiniteGroup,
    FiniteMonoid,
    cyclic_group,
    right_zero_with_identity,
    symmetric_group,
    trivial_monoid,
)
from hopfcoh.scalars import ONE, Scalar
from hopfcoh.records import replace
from reference import order3_monoid_tables, ref_associativity_witness, ref_multiplicativity


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
        assert report.ok, (name, [c.name for c in report.checks if not c.passed])


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
            prod = (h.mult @ kron(Matrix.column(unit_vec(h.dim, r)), Matrix.column(unit_vec(h.dim, s)))).col(0)
            assert vec_dot(eps, prod) == ONE


def test_corrupted_comult_caught_with_witness():
    h = corrupt_comult(get_algebra("function:Z2"))
    report = check_axioms(h)
    assert not report.ok
    # each witness is the least column where the two sides differ
    assert [(c.name, c.witness) for c in report.checks if not c.passed] == [
        ("comult coassociative", 0),
        ("comult multiplicative", 1),
        ("comult unital", 0),
        ("counit left", 1),
        ("counit right", 1),
    ]


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


def assert_function_algebra_dual_to_group_algebra(g):
    """function:G and group:G are dual: each one's product is the other's coproduct
    transposed, and the unit and the counit swap (same coordinates, no isomorphism)."""
    fn, grp = function_algebra(g), group_algebra(g)
    assert fn.comult.transpose() == grp.mult
    assert fn.mult.transpose() == grp.comult
    assert fn.unit == grp.counit
    assert fn.counit == grp.unit


def test_dual_of_function_z2_is_group_z2():
    assert_function_algebra_dual_to_group_algebra(cyclic_group(2))


def test_dual_of_function_s3_is_group_s3():
    assert_function_algebra_dual_to_group_algebra(symmetric_group(3))


def test_dual_product_of_group_delta_functionals_is_pointwise():
    mult = dual_algebra_mult(get_algebra("group:Z3"))
    # (phi_r . phi_s)(u_t) = [r==t][s==t]
    for r in range(3):
        for s in range(3):
            arg = [Scalar(0)] * 9
            arg[r * 3 + s] = ONE
            prod = mult.apply(tuple(arg))
            expected = tuple(ONE if (r == t and s == t) else Scalar(0) for t in range(3))
            assert prod == expected


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
    """A job forms kron(mult, mult), the product on S (x) S, at most once,
    and never on group:S3, and kron(comult, comult) never: the axiom gate
    accumulates the multiplicativity law over basis pairs in one pass, and
    saturation takes its translates from kron(I_s, mult)."""
    from hopfcoh import hopf
    from hopfcoh.jobfile import parse_input
    from hopfcoh.linalg import kron
    from hopfcoh.report import run

    products, coproducts = [], []

    def counting_kron(a, b):
        if a is b and a.cols == a.rows**2 > 1:  # kron(mult, mult)
            products.append(a)
        if a is b and a.rows == a.cols**2 > 1:  # kron(comult, comult)
            coproducts.append(a)
        return kron(a, b)

    monkeypatch.setattr(hopf, "kron", counting_kron)
    for name, most in (("function:S3", 1), ("group:S3", 0), ("kp8", 1)):
        products.clear()
        run(parse_input(f"algebra = {name}\ntasks = axioms, saturation\n"))
        assert len(products) <= most, name
        assert not coproducts, name


def _multiplicativity_both_ways(m, delta, d):
    """delta m - (m (x) m) swap (delta (x) delta), by the gate's one-pass accumulation and
    through kron(m, m)."""
    from hopfcoh.hopf import _multiplicativity_defect

    return _multiplicativity_defect(m, delta, d), ref_multiplicativity(m, delta, d)


@pytest.mark.parametrize("name", algebra_names())
def test_legwise_multiplicativity_equals_the_kron_square_form(name):
    h = get_algebra(name)
    legwise, square = _multiplicativity_both_ways(h.mult, h.comult, h.dim)
    assert legwise == square and legwise.is_zero()
    bad = corrupt_comult(h)
    legwise, square = _multiplicativity_both_ways(bad.mult, bad.comult, bad.dim)
    assert legwise == square


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(st.sampled_from(order3_monoid_tables()), st.data())
def test_legwise_multiplicativity_on_monoid_algebras_and_any_tensors(table, data):
    """On function algebras of order-3 monoids, their duals, and on random
    Q(i) tensors of the same shapes, where the law need not hold."""
    h = function_algebra(FiniteMonoid(order=3, table=[list(r) for r in table], identity=0))
    assert check_axioms(h).ok
    for m, delta in ((h.mult, h.comult), (h.comult.transpose(), h.mult.transpose())):
        legwise, square = _multiplicativity_both_ways(m, delta, 3)
        assert legwise == square and legwise.is_zero()
    d = data.draw(st.integers(1, 3))
    gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    value = gaussian | st.builds(Fraction, st.integers(-2, 2), st.just(3))

    def tensor(rows, cols):
        cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
        return Matrix(rows, cols, data.draw(st.dictionaries(cells, value)))

    legwise, square = _multiplicativity_both_ways(tensor(d, d * d), tensor(d * d, d), d)
    assert legwise == square


def _mult_associative(h: HopfStarAlgebra):
    """The gate's "mult associative" check of h."""
    return next(c for c in check_axioms(h).checks if c.name == "mult associative")


@pytest.mark.parametrize("name", algebra_names())
def test_associativity_law_equals_the_kron_form(name):
    h = get_algebra(name)
    assert ref_associativity_witness(h.mult, h.dim) is None
    assert _mult_associative(h) == AxiomCheck("mult associative", True, None)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.sampled_from(algebra_names()), st.data())
def test_a_corrupted_mult_has_the_same_associativity_witness_either_way(name, data):
    """One to three structure constants of a catalog product changed (to zero, a rational or a
    Gaussian rational): the gate's witness is the kron form's least failing column."""
    h = get_algebra(name)
    entries = dict(h.mult.entries)
    gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    change = gaussian | st.builds(Fraction, st.integers(1, 3), st.just(2))
    for _ in range(data.draw(st.integers(1, 3))):
        cell = data.draw(st.integers(0, h.dim - 1)), data.draw(st.integers(0, h.dim**2 - 1))
        entries[cell] = entries.get(cell, Scalar(0)) + data.draw(change)
    bad = replace(h, mult=Matrix(h.dim, h.dim**2, entries))
    witness = ref_associativity_witness(bad.mult, bad.dim)
    assert _mult_associative(bad) == AxiomCheck("mult associative", witness is None, witness)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.data())
def test_associativity_witness_on_any_tensor(data):
    """Random Q(i) products m: S (x) S -> S, d <= 3, where the law need not hold."""
    from hopfcoh.hopf import _associativity_witness

    d = data.draw(st.integers(1, 3))
    gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    value = gaussian | st.builds(Fraction, st.integers(-2, 2), st.just(3))
    cells = st.tuples(st.integers(0, d - 1), st.integers(0, d * d - 1))
    m = Matrix(d, d * d, data.draw(st.dictionaries(cells, value)))
    assert _associativity_witness(m, d) == ref_associativity_witness(m, d)


@settings(derandomize=True, max_examples=30, deadline=None, database=None)
@given(st.sampled_from([n for n in algebra_names() if get_algebra(n).dim <= 4]), st.data())
def test_associativity_holds_in_a_gaussian_basis(name, data):
    """A catalog product in the basis of the columns of P = I + N, N strictly upper triangular
    with Gaussian entries, is associative and non-real, so products of two imaginary parts
    count; one entry changed, the witness is the kron form's."""
    from hopfcoh.hopf import _associativity_witness

    h = get_algebra(name)
    d = h.dim
    gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
    n = Matrix(d, d, {(r, c): data.draw(gaussian) for r in range(d) for c in range(r + 1, d)})
    p_inv, power = Matrix.identity(d), Matrix.identity(d)
    for _ in range(d - 1):  # (I + N)^-1 = sum (-N)^k, N^d = 0
        power = -(power @ n)
        p_inv = p_inv + power
    m = p_inv @ h.mult @ kron(Matrix.identity(d) + n, Matrix.identity(d) + n)
    assert _associativity_witness(m, d) is None
    cell = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d * d - 1))
    bad = m + Matrix(d, d * d, {cell: data.draw(gaussian)})
    assert _associativity_witness(bad, d) == ref_associativity_witness(bad, d)


def test_the_gate_builds_no_kron_of_mult_and_the_identity(monkeypatch):
    from hopfcoh import hopf

    seen = []

    def counting_kron(a, b):
        seen.append((a.rows, a.cols, b.rows, b.cols))
        return kron(a, b)

    monkeypatch.setattr(hopf, "kron", counting_kron)
    for name in ("function:S3", "group:S3", "kp8"):
        h = get_algebra(name)
        seen.clear()
        assert check_axioms(h).ok
        d = h.dim
        assert (d, d * d, d, d) not in seen and (d, d, d, d * d) not in seen, name


def test_corrupted_comult_has_the_same_witness_either_way():
    """The witness of test_corrupted_comult_caught_with_witness, from both forms of the law."""
    h = corrupt_comult(get_algebra("function:Z2"))
    for diff in _multiplicativity_both_ways(h.mult, h.comult, h.dim):
        assert min(c for _, c in diff.support) == 1


@pytest.mark.parametrize("name, own", [("function:S3", "symmetric_group"), ("group:Z3", "cyclic_group")])
def test_a_catalog_lookup_builds_only_its_own_monoid(name, own, monkeypatch):
    """Every other monoid constructor raises, and cyclic_group for any order but 3."""
    from hopfcoh import catalog, monoids

    expected = get_algebra(name)
    constructors = (
        "trivial_monoid",
        "cyclic_group",
        "direct_product",
        "symmetric_group",
        "left_zero_semigroup",
        "right_zero_with_identity",
        "mult01_monoid",
    )

    def refusing(constructor, allowed=None):
        def build(*args):
            if allowed is None or args != allowed:
                raise AssertionError(f"{constructor}{args} was built")
            return getattr(monoids, constructor)(*args)

        return build

    for constructor in constructors:
        monkeypatch.setattr(catalog, constructor, refusing(constructor, (3,) if constructor == own else None))
    assert get_algebra(name) == expected


def test_catalog_names_and_unknown_names():
    from hopfcoh.catalog import GROUP_NAMES, MONOID_NAMES, get_group, get_monoid

    assert GROUP_NAMES == ("S3", "Z2", "Z2xZ2", "Z3", "trivial")
    assert MONOID_NAMES == ("S3", "Z2", "Z2xZ2", "Z3", "leftzero2", "mult01", "rzid3", "trivial")
    kinds = [f"function:{n}" for n in MONOID_NAMES] + [f"group:{n}" for n in GROUP_NAMES]
    assert algebra_names() == tuple(sorted(kinds + ["kp8"]))
    for lookup, name, message in (
        (get_monoid, "nope", "unknown monoid 'nope'"),
        (get_group, "rzid3", "unknown group 'rzid3'"),
        (get_algebra, "function:nope", "unknown monoid 'nope'"),
        (get_algebra, "group:mult01", "unknown group 'mult01'"),
    ):
        with pytest.raises(KeyError) as raised:
            lookup(name)
        assert raised.value.args == (message,)
