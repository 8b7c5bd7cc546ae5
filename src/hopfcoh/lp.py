"""Exact rational linear-programming feasibility.

Solves {A w = b, w >= 0} by a phase-1 simplex with Bland's rule (finite
termination, no tolerances) on sparse integer rows, and certifies
infeasibility by a Farkas vector y (y^T A <= 0, y^T b > 0) re-verified
exactly against the input rows.  A brute-force basic-solution enumeration
by linalg's one elimination, `_rref_rows`, is an independent oracle at
small sizes.  Both read the same integer rows of [A | b] (`_integer_rows`).
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Optional

from .linalg import _clear, _rref_rows, certify
from .records import record


@record
class Feasibility:
    feasible: bool
    point: Optional[tuple] = None  # Fractions, when feasible
    farkas: Optional[tuple] = None  # y with y^T A <= 0, y^T b > 0, otherwise


def _integer_rows(a_rows, b_col) -> list:
    """Each row [a_i | b_i] of [A | b] times the lcm k_i of its denominators:
    (k_i, {col: int}), b_i at column n = len(a_i), zero entries left out."""
    out = []
    for row, rhs in zip(a_rows, b_col):
        row = (*row, rhs)
        k = lcm(*(x.denominator for x in row))
        out.append((k, {j: x.numerator * (k // x.denominator) for j, x in enumerate(row) if x}))
    return out


def solve_equality_feasibility(a_rows, b_col) -> Feasibility:
    """Phase-1 simplex for {A w = b, w >= 0} on sparse integer tableau rows {col: int}.

    Each row is a positive multiple of the exact rational row, cleared by
    linalg's one clearing rule, `_clear`, so every sign, ratio and choice of
    Bland's rule is the one the rational tableau would make.
    """
    n = len(a_rows[0]) if a_rows else 0
    rows = _integer_rows(a_rows, b_col)
    m = len(rows)
    # tableau columns: w_0..w_{n-1}, artificials a_0..a_{m-1}, rhs at width; row i is
    # sign_i [a_i | b_i] cleared to integers by k_i, with k_i e_i between
    width = n + m
    signs = [-1 if row.get(n, 0) < 0 else 1 for _, row in rows]
    tab = [
        {**{j if j < n else width: sign * x for j, x in row.items()}, n + i: k}
        for i, (sign, (k, row)) in enumerate(zip(signs, rows))
    ]
    basis = [n + i for i in range(m)]
    # objective: minimise sum of artificials; obj / obj[width + 1] is the row of reduced
    # costs for -z, cost 1 at each artificial cleared by the artificial's own row
    obj = {**{n + i: 1 for i in range(m)}, width + 1: 1}
    for i, row in enumerate(tab):
        _clear(obj, row, n + i)
    while True:
        entering = min((j for j, x in obj.items() if x < 0 and j < width), default=None)
        if entering is None:
            break
        ratios = [
            (Fraction(r.get(width, 0), r[entering]), basis[i], i) for i, r in enumerate(tab) if r.get(entering, 0) > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded: impossible")
        _, _, leave = min(ratios)
        prow = tab[leave]
        for row in (*tab, obj):
            if row is not prow and entering in row:
                _clear(row, prow, entering)
        basis[leave] = entering

    if obj.get(width, 0) < 0:  # the optimum -obj[width] / obj[width + 1] is positive
        # simplex multipliers: y_i = 1 - reduced cost of artificial i, times
        # row i's sign, so y applies to the input rows and is re-verified on them
        y = tuple((1 - Fraction(obj.get(n + i, 0), obj[width + 1])) * signs[i] for i in range(m))
        yb = sum((yi * x for yi, x in zip(y, b_col)), Fraction(0))
        certify(yb > 0, "Farkas certificate lost its objective value")
        for j in range(n):
            s = sum((yi * row[j] for yi, row in zip(y, a_rows)), Fraction(0))
            certify(s <= 0, "Farkas certificate fails y^T A <= 0")
        return Feasibility(False, farkas=y)
    point = [Fraction(0)] * n
    for row, col in zip(tab, basis):
        if col < n:
            point[col] = Fraction(row.get(width, 0), row[col])
    w = tuple(point)
    _verify_point(a_rows, b_col, w)
    return Feasibility(True, point=w)


def _verify_point(a_rows, b_col, w):
    for row, rhs in zip(a_rows, b_col):
        certify(sum((x * v for x, v in zip(row, w)), Fraction(0)) == rhs, "feasible point fails equality re-check")
    certify(all(v >= 0 for v in w), "feasible point not nonnegative")


def enumerate_feasibility(a_rows, b_col) -> bool:
    """Independent oracle: scan basic solutions (supports of size <= rank).

    A support S of size k carries a basic solution exactly when the RREF of
    the augmented rows [A_S | b] has pivots 0 .. k-1: then A_S has full
    column rank and the rhs column no pivot, so the solution is unique and
    its coordinates are the reduced rows' rhs entries over their pivots,
    which _rref_rows keeps positive on integer rows.
    """
    n = len(a_rows[0]) if a_rows else 0
    rows = [row for _, row in _integer_rows(a_rows, b_col)]
    if not any(n in row for row in rows):
        return True
    rank = len(_rref_rows([{j: x for j, x in row.items() if j < n} for row in rows], n)[0])
    for k in range(1, rank + 1):
        for support in combinations(range(n), k):
            sub = [{c: row[j] for c, j in enumerate((*support, n)) if j in row} for row in rows]
            pivots, red, _ = _rref_rows(sub, k + 1)
            if pivots == list(range(k)) and all(row.get(k, 0) >= 0 for row in red):
                return True
    return False
