"""Known answers in every built degree, through inline job files.

The function algebra of a finite monoid M has a dual complex dual to the
Hochschild complex of B = CM (README), so the regular entries of the dual
and natural tables follow from the Hochschild cohomology of B:

- N_m = {1, x, ..., x^{m-1}, 0} (index 0 is 1, index i is x^i, index m is
  0) has C N_m = C x C[x]/(x^m), and HH^n(C[x]/(x^m)) has dimension m - 1
  for every n >= 1 (T. Holm, Beitr. Algebra Geom. 41, 2000); with the
  centre of C x C[x]/(x^m) in degree 0, H^0 = m + 1 and H^n = m - 1.
- A group G with a zero adjoined has C G^0 = C x CG, which is semisimple:
  H^0 is 1 + the number of conjugacy classes of G, and H^n = 0 for n >= 1.
"""
import pytest

from hopfcoh.jobfile import parse_input
from hopfcoh.monoids import cyclic_group, symmetric_group
from hopfcoh.report import run


def regular_tables(table, cap: int) -> dict:
    """The regular entries of the dual and natural tables of the inline function
    algebra of table, degrees 0 .. cap - 1, from one job file."""
    rows = "".join(f"  row {' '.join(map(str, row))}\n" for row in table)
    span = f"0-{cap - 1}"
    job = parse_input(
        f"algebra = inline-function\ndegree-cap = {cap}\n"
        f"tasks = cohomology:dual:{span}, cohomology:natural:{span}\n"
        f"begin cayley\n  identity = 0\n{rows}end\n"
    )
    tasks = run(job)["tasks"]
    return {kind: tasks[f"cohomology:{kind}:{span}"]["regular"] for kind in ("dual", "natural")}


def nilpotent_table(m: int) -> list:
    """N_m: x^i x^j = x^{i+j}, or 0 (index m) once i + j >= m."""
    return [[min(i + j, m) if m not in (i, j) else m for j in range(m + 1)] for i in range(m + 1)]


def with_zero(g) -> list:
    """G with a zero (index |G|) adjoined."""
    n = g.order
    return [[g.mul(a, b) if n not in (a, b) else n for b in range(n + 1)] for a in range(n + 1)]


def conjugacy_classes(g) -> int:
    return len({frozenset(g.mul(g.mul(x, a), g.inv(x)) for x in range(g.order)) for a in range(g.order)})


@pytest.mark.parametrize("m, cap", [(2, 6), (3, 4), (4, 3), (5, 3), (4, 4), (5, 4)])
def test_nilpotent_monoid_is_periodic_in_every_degree(m, cap):
    expected = {str(n): m + 1 if n == 0 else m - 1 for n in range(cap)}
    assert regular_tables(nilpotent_table(m), cap) == {"dual": expected, "natural": expected}


@pytest.mark.parametrize(
    "g, cap", [(cyclic_group(2), 4), (cyclic_group(3), 4), (symmetric_group(3), 3)], ids=["Z2", "Z3", "S3"]
)
def test_group_with_a_zero_vanishes_in_positive_degrees(g, cap):
    expected = {str(n): 1 + conjugacy_classes(g) if n == 0 else 0 for n in range(cap)}
    assert regular_tables(with_zero(g), cap) == {"dual": expected, "natural": expected}


def test_the_tables_are_the_monoids_named():
    """N_2 and Z2 with a zero, written out; S3 has three conjugacy classes."""
    assert nilpotent_table(2) == [[0, 1, 2], [1, 2, 2], [2, 2, 2]]
    assert with_zero(cyclic_group(2)) == [[0, 1, 2], [1, 0, 2], [2, 2, 2]]
    assert conjugacy_classes(symmetric_group(3)) == 3
