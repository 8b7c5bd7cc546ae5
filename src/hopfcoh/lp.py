"""Exact rational linear-programming feasibility.

Solves {A w = b, w >= 0} by a phase-1 simplex over Fractions with Bland's
rule (finite termination, no tolerances).  Infeasibility comes with a
Farkas certificate y (y^T A <= 0, y^T b > 0) that is re-verified exactly
before being returned.  A brute-force basic-solution enumeration serves as
an independent oracle at small sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .linalg import certify


@dataclass(frozen=True)
class Feasibility:
    feasible: bool
    point: Optional[tuple] = None  # Fractions, when feasible
    farkas: Optional[tuple] = None  # y with y^T A <= 0, y^T b > 0, otherwise


def _as_fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def solve_equality_feasibility(a_rows, b_col) -> Feasibility:
    """Phase-1 simplex for {A w = b, w >= 0} in exact rational arithmetic."""
    a = _as_fractions(a_rows)
    b = [Fraction(x) for x in b_col]
    m = len(a)
    n = len(a[0]) if m else 0
    for i in range(m):
        if b[i] < 0:
            a[i] = [-x for x in a[i]]
            b[i] = -b[i]
    # tableau columns: w_0..w_{n-1}, artificials a_0..a_{m-1}, rhs
    width = n + m
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    # objective: minimise sum of artificials; row of reduced costs for -z
    obj = [Fraction(0)] * (width + 1)
    for j in range(width + 1):
        s = Fraction(0)
        for i in range(m):
            if basis[i] >= n:
                s += tab[i][j]
        obj[j] = (Fraction(1) if n <= j < width else Fraction(0)) - s

    def pivot(r, c):
        pr = tab[r]
        pv = pr[c]
        tab[r] = [x / pv for x in pr]
        pr = tab[r]
        for i in range(m):
            if i != r and tab[i][c]:
                f = tab[i][c]
                tab[i] = [x - f * y for x, y in zip(tab[i], pr)]
        if obj[c]:
            f = obj[c]
            for j in range(width + 1):
                obj[j] -= f * pr[j]
        basis[r] = c

    while True:
        entering = next((j for j in range(width) if obj[j] < 0), None)
        if entering is None:
            break
        ratios = [
            (tab[i][width] / tab[i][entering], basis[i], i)
            for i in range(m)
            if tab[i][entering] > 0
        ]
        if not ratios:
            raise RuntimeError("phase-1 objective unbounded: impossible")
        _, _, leave = min(ratios)
        pivot(leave, entering)

    optimum = -obj[width]
    if optimum > 0:
        # simplex multipliers: y_i = 1 - reduced cost of artificial i
        y = tuple(Fraction(1) - obj[n + i] for i in range(m))
        yb = Fraction(0)
        for i in range(m):
            yb += y[i] * Fraction(b[i])
        certify(yb > 0, "Farkas certificate lost its objective value")
        for j in range(n):
            s = Fraction(0)
            for i in range(m):
                s += y[i] * a[i][j]
            certify(s <= 0, "Farkas certificate fails y^T A <= 0")
        # undo the row sign flips so the certificate applies to the input data
        signs = [1 if Fraction(x) >= 0 else -1 for x in b_col]
        y_orig = tuple(y[i] * signs[i] for i in range(m))
        return Feasibility(False, farkas=y_orig)
    point = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            point[col] = tab[i][width]
    w = tuple(point)
    _verify_point(a_rows, b_col, w)
    return Feasibility(True, point=w)


def _verify_point(a_rows, b_col, w):
    for row, rhs in zip(a_rows, b_col):
        s = Fraction(0)
        for x, v in zip(row, w):
            s += Fraction(x) * v
        certify(s == Fraction(rhs), "feasible point fails equality re-check")
    certify(all(v >= 0 for v in w), "feasible point not nonnegative")


def enumerate_feasibility(a_rows, b_col) -> bool:
    """Independent oracle: scan basic solutions (supports of size <= rank)."""
    a = _as_fractions(a_rows)
    b = [Fraction(x) for x in b_col]
    m = len(a)
    n = len(a[0]) if m else 0
    if not any(b):
        return True
    r = _rank([row[:] for row in a])
    for size in range(1, min(r, n) + 1):
        for support in combinations(range(n), size):
            sol = _solve_support(a, b, support)
            if sol is not None and all(v >= 0 for v in sol):
                return True
    return False


def _rank(rows):
    rank = 0
    n = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(n):
        sel = next((i for i in range(pivot_row, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pr = rows[pivot_row]
        inv = 1 / pr[col]
        rows[pivot_row] = pr = [x * inv for x in pr]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        pivot_row += 1
        rank += 1
    return rank


def _solve_support(a, b, support):
    """Unique solution of A_S x = b with x supported on S, if one exists."""
    m = len(a)
    k = len(support)
    rows = [[a[i][j] for j in support] + [b[i]] for i in range(m)]
    # gaussian elimination
    piv = 0
    where = []
    for col in range(k):
        sel = next((i for i in range(piv, m) if rows[i][col]), None)
        if sel is None:
            return None  # rank-deficient on this support: skip
        rows[piv], rows[sel] = rows[sel], rows[piv]
        pr = rows[piv]
        inv = 1 / pr[col]
        rows[piv] = pr = [x * inv for x in pr]
        for i in range(m):
            if i != piv and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        where.append(piv)
        piv += 1
    for i in range(piv, m):
        if rows[i][k]:
            return None  # inconsistent
    xs = [Fraction(0)] * k
    for col, i in enumerate(where):
        xs[col] = rows[i][k]
    n = len(a[0])
    full = [Fraction(0)] * n
    for col, j in enumerate(support):
        full[j] = xs[col]
    return tuple(full)
