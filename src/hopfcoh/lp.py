"""Exact rational linear-programming feasibility.

Solves {A w = b, w >= 0} by a phase-1 simplex with Bland's rule (finite
termination, no tolerances) on an integer tableau: each row is a positive
multiple of the rational row, so every sign, ratio and pivot is the one
the simplex over Fractions would take.  Infeasibility comes with a
Farkas certificate y (y^T A <= 0, y^T b > 0) that is re-verified exactly
against the input rows before being returned.  A brute-force basic-solution
enumeration serves as an independent oracle at small sizes; it eliminates
with linalg's one elimination, `_rref_rows`.  Both read one integer copy of
[A | b], each row cleared by the lcm of its denominators (`_integer_rows`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Optional

from .linalg import _rref_rows, certify


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: Optional[tuple] = None  # Fractions, when feasible
    farkas: Optional[tuple] = None  # y with y^T A <= 0, y^T b > 0, otherwise


def _cleared(row, prow, c):
    """row minus a multiple of the pivot row prow, zero at column c, on integers.

    It is (pv/g) row - (f/g) prow with pv = prow[c] > 0, f = row[c] and
    g = gcd(pv, f), divided by its content: a positive multiple of the
    exact result.  Entries of row past the end of prow are only scaled.
    """
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    out = [a * x - b * y for x, y in zip(row, prow)] + [a * x for x in row[len(prow) :]]
    k = gcd(*out)
    return [x // k for x in out] if k > 1 else out


def _integer_rows(a_rows, b_col) -> list:
    """Each row [a_i | b_i] of [A | b] times the lcm k_i of its denominators: (k_i, ints)."""
    out = []
    for row, rhs in zip(a_rows, b_col):
        row = (*row, rhs)
        k = lcm(*(x.denominator for x in row))
        out.append((k, [x.numerator * (k // x.denominator) for x in row]))
    return out


def solve_equality_feasibility(a_rows, b_col) -> Feasibility:
    """Phase-1 simplex for {A w = b, w >= 0} on an integer tableau.

    Each tableau row holds integers, a positive multiple of the exact row;
    its basic entry is that multiple.  The objective row carries its own
    positive scale s as one more entry.  Every sign, ratio and choice of
    Bland's rule is the one the exact rational tableau would make.
    """
    rows = _integer_rows(a_rows, b_col)
    m = len(rows)
    n = len(rows[0][1]) - 1 if m else 0
    # tableau columns: w_0..w_{n-1}, artificials a_0..a_{m-1}, rhs; row i is
    # sign_i [a_i | b_i] cleared to integers by k_i, with k_i e_i between
    signs = [-1 if row[n] < 0 else 1 for _, row in rows]
    width = n + m
    tab = [
        [sign * x for x in row[:n]] + [k * (i == j) for j in range(m)] + [sign * row[n]]
        for i, (sign, (k, row)) in enumerate(zip(signs, rows))
    ]
    basis = [n + i for i in range(m)]
    # objective: minimise sum of artificials; obj[:-1] / s is the row of
    # reduced costs for -z, and obj[-1] = s > 0
    s = lcm(*(tab[i][n + i] for i in range(m)))
    obj = [
        s * (n <= j < width) - sum(s // row[n + i] * row[j] for i, row in enumerate(tab))
        for j in range(width + 1)
    ]
    obj.append(s)

    def pivot(r, c):
        for i in range(m):
            if i != r and tab[i][c]:
                tab[i] = _cleared(tab[i], tab[r], c)
        if obj[c]:
            obj[:] = _cleared(obj, tab[r], c)
        basis[r] = c

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        ratios = [
            (Fraction(tab[i][width], tab[i][entering]), basis[i], i)
            for i in range(m)
            if tab[i][entering] > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded: impossible")
        _, _, leave = min(ratios)
        pivot(leave, entering)

    if obj[width] < 0:  # the optimum -obj[width] / s is positive
        # simplex multipliers: y_i = 1 - reduced cost of artificial i, times
        # row i's sign, so y applies to the input rows and is re-verified on them
        y = tuple((1 - Fraction(obj[n + i], obj[-1])) * signs[i] for i in range(m))
        yb = sum((yi * x for yi, x in zip(y, b_col)), Fraction(0))
        certify(yb > 0, "Farkas certificate lost its objective value")
        for j in range(n):
            s = sum((yi * row[j] for yi, row in zip(y, a_rows)), Fraction(0))
            certify(s <= 0, "Farkas certificate fails y^T A <= 0")
        return Feasibility(False, farkas=y)
    point = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            point[col] = Fraction(tab[i][width], tab[i][col])
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
    rows = [row for _, row in _integer_rows(a_rows, b_col)]
    if not any(row[-1] for row in rows):
        return True
    n = len(rows[0]) - 1
    rank = len(_rref_rows([{j: x for j, x in enumerate(row[:n]) if x} for row in rows], n)[0])
    for k in range(1, rank + 1):
        for support in combinations(range(n), k):
            sub = [{c: row[j] for c, j in enumerate((*support, n)) if row[j]} for row in rows]
            pivots, red, _ = _rref_rows(sub, k + 1)
            if pivots == list(range(k)) and all(row.get(k, 0) >= 0 for row in red):
                return True
    return False
