from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh.amenability import _mean_system
from hopfcoh.lp import enumerate_feasibility, solve_equality_feasibility
from hopfcoh.monoids import FiniteMonoid
from reference import bench_workloads, ref_solve_equality_feasibility


def test_simple_feasible():
    # w0 + w1 = 1, w0 - w1 = 0  ->  (1/2, 1/2)
    res = solve_equality_feasibility([[1, 1], [1, -1]], [1, 0])
    assert res.feasible
    assert res.point == (Fraction(1, 2), Fraction(1, 2))


def test_simple_infeasible_with_farkas():
    # w0 + w1 = -1 with w >= 0
    res = solve_equality_feasibility([[1, 1]], [-1])
    assert not res.feasible
    y = res.farkas
    assert sum(yi * ai for yi, ai in zip(y, [1])) is not None
    # y^T A <= 0 and y^T b > 0 against the ORIGINAL data
    a = [[1, 1]]
    b = [-1]
    for j in range(2):
        assert sum(y[i] * a[i][j] for i in range(1)) <= 0
    assert sum(y[i] * b[i] for i in range(1)) > 0


def test_zero_rhs_always_feasible():
    res = solve_equality_feasibility([[1, -1], [2, 1]], [0, 0])
    assert res.feasible
    assert res.point == (Fraction(0), Fraction(0))


def test_degenerate_equalities():
    # w0 = 1 duplicated plus a redundant sum
    res = solve_equality_feasibility([[1, 0], [1, 0], [2, 0]], [1, 1, 2])
    assert res.feasible
    assert res.point[0] == 1


def test_random_systems_match_enumeration_oracle():
    rng = Random(42)
    for trial in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        res = solve_equality_feasibility(a, b)
        assert res.feasible == enumerate_feasibility(a, b), (a, b)
        if res.feasible:
            for row, rhs in zip(a, b):
                assert sum(c * w for c, w in zip(row, res.point)) == rhs
            assert all(w >= 0 for w in res.point)
        else:
            y = res.farkas
            for j in range(n):
                assert sum(y[i] * a[i][j] for i in range(m)) <= 0
            assert sum(y[i] * b[i] for i in range(m)) > 0


def test_oracle_simplex_and_minimal_ideal_agree_on_every_small_monoid():
    """All 11 + 156 monoid tables of order 3 and 4 with identity 0: the
    enumeration oracle, the simplex and the one-minimal-left-ideal criterion
    for an invariant mean give one answer."""
    workloads = bench_workloads()
    tables = workloads.monoid_tables(3) + workloads.monoid_tables(4)
    assert len(tables) == 11 + 156
    for table in tables:
        rows, rhs = _mean_system(FiniteMonoid(len(table), table))
        expected = workloads.has_invariant_mean(table)
        assert enumerate_feasibility(rows, rhs) == expected, table
        assert solve_equality_feasibility(rows, rhs).feasible == expected, table


# -- the integer tableau against the Fraction simplex -------------------------

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def lp_systems(draw):
    """{A w = b} with Fraction entries: b either arbitrary or A w0 for some
    w0 >= 0 (feasible), negative entries of b included (the row sign flip),
    and some rows repeated, scaled or not (ties in Bland's ratio test)."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)))
    a = [[draw(entry) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):
        w0 = [abs(draw(entry)) for _ in range(n)]
        b = [sum((x * w for x, w in zip(row, w0)), Fraction(0)) for row in a]
    else:
        b = [draw(entry) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        k = draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 3)]))
        a.append([k * x for x in a[i]])
        b.append(k * b[i])
    return a, b


def assert_simplex_matches_reference(a, b):
    got, expected = solve_equality_feasibility(a, b), ref_solve_equality_feasibility(a, b)
    assert (got.feasible, got.point, got.farkas) == (expected.feasible, expected.point, expected.farkas)
    assert all(type(x) is Fraction for x in (got.point if got.feasible else got.farkas))
    return got


@PROPERTY
@given(lp_systems())
def test_integer_tableau_matches_the_fraction_simplex(spec):
    """The integer tableau returns the Fraction simplex's point or Farkas
    vector, entry by entry."""
    assert_simplex_matches_reference(*spec)


def test_integer_tableau_matches_on_the_sign_flip_and_ties():
    """Negative right-hand sides and duplicated rows, feasible and not; and the sparse
    rows' edge cases: no rows, zero rows, a variable in no row, fractional b only."""
    cases = [
        ([[1, 1], [1, 1]], [-1, -1]),
        ([[-1, 2], [-1, 2], [1, 0]], [-1, -1, 1]),
        ([[1, 0, 1], [1, 0, 1], [0, 1, 1]], [1, 1, 1]),
        ([[Fraction(1, 2), 1], [1, 2]], [1, 3]),
        ([], []),
        ([[0, 0]], [1]),
        ([[0, 0], [1, 1], [0, 0]], [0, 1, 0]),
        ([[0, 0], [0, 0]], [-1, 2]),
        ([[1, 0, -1], [0, 0, 1]], [2, 1]),
        ([[1, 2], [3, 1]], [Fraction(1, 3), Fraction(2, 5)]),
    ]
    answers = [assert_simplex_matches_reference(a, b).feasible for a, b in cases]
    assert answers == [enumerate_feasibility(a, b) for a, b in cases]
    assert answers == [False, True, True, False, True, False, True, False, True, True]


def test_integer_tableau_matches_on_every_small_mean_system():
    """All 11 + 156 invariant-mean systems of order 3 and 4."""
    workloads = bench_workloads()
    tables = workloads.monoid_tables(3) + workloads.monoid_tables(4)
    for table in tables:
        assert_simplex_matches_reference(*_mean_system(FiniteMonoid(len(table), table)))
