from fractions import Fraction
from random import Random

from hopfcoh.amenability import _mean_system
from hopfcoh.lp import enumerate_feasibility, solve_equality_feasibility
from hopfcoh.monoids import FiniteMonoid
from reference import bench_workloads


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
