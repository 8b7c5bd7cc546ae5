"""Finite-dimensional Hopf *-algebras as structure-constant records.

A HopfStarAlgebra packages the four structure tensors (product, unit,
coproduct, optional counit) plus an optional conjugate-linear involution.
Axioms are never assumed: check_axioms re-derives each law exactly and
reports a witness basis index on failure.

The involution is encoded as a plain matrix M acting by v -> M * conj(v).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .linalg import (
    Matrix,
    Vec,
    kron,
    image_rank,
    leg_map,
    psd_check,
    solve,
    unit_vec,
    vec,
)
from .monoids import FiniteGroup, FiniteMonoid


@dataclass(frozen=True)
class HopfStarAlgebra:
    dim: int
    mult: Matrix  # S (x) S -> S
    unit: Vec
    comult: Matrix  # S -> S (x) S
    counit: Optional[Vec] = None  # functional on S
    star: Optional[Matrix] = None  # conjugate-linear, v -> star * conj(v)
    labels: tuple = ()
    kind: Optional[str] = None  # "function" | "group" | None
    monoid: Optional[FiniteMonoid] = None

    def __post_init__(self):
        d = self.dim
        if (self.mult.rows, self.mult.cols) != (d, d * d):
            raise ValueError("mult must be dim x dim^2")
        if (self.comult.rows, self.comult.cols) != (d * d, d):
            raise ValueError("comult must be dim^2 x dim")
        if len(self.unit) != d:
            raise ValueError("unit length mismatch")
        if self.counit is not None and len(self.counit) != d:
            raise ValueError("counit length mismatch")
        if self.star is not None and (self.star.rows, self.star.cols) != (d, d):
            raise ValueError("star must be dim x dim")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"b{i}" for i in range(d)))

    # derived once per algebra: the fields are immutable, and so is a Matrix

    @cached_property
    def unit_col(self) -> Matrix:
        return Matrix.column(self.unit)

    @cached_property
    def counit_row(self) -> Matrix:
        if self.counit is None:
            raise ValueError("algebra has no counit")
        return Matrix.row(self.counit)

    @cached_property
    def mult2(self) -> Matrix:
        """The componentwise product on S (x) S: (a (x) b)(c (x) d) = ac (x) bd."""
        m, d = self.mult, self.dim
        # precompose the swap of the middle legs, (a, b, c, d) -> (a, c, b, d): an involution
        swap_mid = leg_map([d] * 4, [0, 2, 1, 3])
        return kron(m, m).reindex(d * d, d**4, lambda r, c: (r, swap_mid[c]))

    def multiply(self, a: Vec, b: Vec) -> Vec:
        return (self.mult @ kron(Matrix.column(a), Matrix.column(b))).col(0)

    def structure_equal(self, other: "HopfStarAlgebra") -> bool:
        """Equality of product/unit/coproduct/counit tensors (labels, star aside)."""
        return (
            self.dim == other.dim
            and self.mult == other.mult
            and self.comult == other.comult
            and self.unit == other.unit
            and self.counit == other.counit
        )


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[int] = None  # input basis (column) index of first failure


@dataclass(frozen=True)
class AxiomReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _first_bad_column(a: Matrix, b: Matrix) -> Optional[int]:
    if a == b:
        return None
    diff = a - b
    return next(c for c in range(diff.cols) if any(diff.col(c)))


def check_axioms(h: HopfStarAlgebra) -> AxiomReport:
    d = h.dim
    i_s = Matrix.identity(d)
    checks = []

    def law(name, lhs, rhs):
        w = _first_bad_column(lhs, rhs)
        checks.append(AxiomCheck(name, w is None, w))

    m, delta = h.mult, h.comult
    law("mult associative", m @ kron(m, i_s), m @ kron(i_s, m))
    law("unit left", m @ kron(h.unit_col, i_s), i_s)
    law("unit right", m @ kron(i_s, h.unit_col), i_s)
    law("comult coassociative", kron(delta, i_s) @ delta, kron(i_s, delta) @ delta)
    law("comult multiplicative", delta @ m, h.mult2 @ kron(delta, delta))
    law(
        "comult unital",
        delta @ h.unit_col,
        kron(h.unit_col, h.unit_col),
    )
    if h.star is not None:
        st = h.star
        law("star involutive", st @ st.conj(), i_s)
        swap = leg_map([d, d], [1, 0])  # an involution
        m_op = m.reindex(d, d * d, lambda r, c: (r, swap[c]))
        law("star anti-multiplicative", st @ m.conj(), m_op @ kron(st, st))
        star_unit = st.apply(tuple(x.conjugate() for x in h.unit))
        law("star fixes unit", Matrix.column(star_unit), h.unit_col)
        law("comult star-compatible", delta @ st, kron(st, st) @ delta.conj())
    if h.counit is not None:
        eps = h.counit_row
        law("counit left", kron(eps, i_s) @ delta, i_s)
        law("counit right", kron(i_s, eps) @ delta, i_s)
    return AxiomReport(tuple(checks))


def check_saturated(h: HopfStarAlgebra):
    """Span-equality form of saturation: (left, right).

    left:  span{ delta(s) * (1 (x) t) } = S (x) S
    right: span{ delta(s) * (t (x) 1) } = S (x) S
    """
    d = h.dim
    i_s = Matrix.identity(d)
    # column (s, t) of kron(comult, side) is delta(s) (x) (1 (x) t), resp. (t (x) 1)
    sides = (kron(h.unit_col, i_s), kron(i_s, h.unit_col))
    return tuple(image_rank(h.mult2 @ kron(h.comult, side)) == d * d for side in sides)


# ---------------------------------------------------------------------------
# builders


def function_algebra(m: FiniteMonoid) -> HopfStarAlgebra:
    """Pointwise algebra on delta functions with comult(d_u) = sum_{st=u} d_s (x) d_t."""
    n = m.order
    mult = Matrix(n, n * n, {(u, u * n + u): 1 for u in range(n)})
    comult_entries = {}
    for s in range(n):
        for t in range(n):
            comult_entries[(s * n + t, m.mul(s, t))] = 1
    comult = Matrix(n * n, n, comult_entries)
    counit = unit_vec(n, m.identity) if m.has_identity else None
    return HopfStarAlgebra(
        dim=n,
        mult=mult,
        unit=vec([1] * n),
        comult=comult,
        counit=counit,
        star=Matrix.identity(n),
        labels=tuple(f"d_{name}" for name in m.names),
        kind="function",
        monoid=m,
    )


def group_algebra(g: FiniteGroup) -> HopfStarAlgebra:
    """Group algebra with group-like basis: comult(u_r) = u_r (x) u_r."""
    n = g.order
    mult = Matrix(n, n * n, {(g.mul(a, b), a * n + b): 1 for a in range(n) for b in range(n)})
    comult = Matrix(n * n, n, {(r * n + r, r): 1 for r in range(n)})
    star = Matrix(n, n, {(g.inv(r), r): 1 for r in range(n)})
    return HopfStarAlgebra(
        dim=n,
        mult=mult,
        unit=unit_vec(n, 0),
        comult=comult,
        counit=vec([1] * n),
        star=star,
        labels=tuple(f"u_{name}" for name in g.names),
        kind="group",
        monoid=g,
    )


def dual_hopf(h: HopfStarAlgebra) -> HopfStarAlgebra:
    """The dual algebra: product = comult^T, coproduct = mult^T, unit = counit.

    Needs a counit (it becomes the dual unit).  No involution is attached:
    defining one in general requires an antipode, which is out of scope.
    """
    if h.counit is None:
        raise ValueError("dual_hopf requires a counital algebra")
    return HopfStarAlgebra(
        dim=h.dim,
        mult=h.comult.transpose(),
        unit=h.counit,
        comult=h.mult.transpose(),
        counit=h.unit,
        star=None,
        labels=tuple(f"{name}^" for name in h.labels),
        kind=None,
        monoid=None,
    )


def dual_algebra_mult(h: HopfStarAlgebra) -> Matrix:
    """Product of the dual algebra S^* (f.g = (f (x) g) o comult); no unit needed."""
    return h.comult.transpose()


# ---------------------------------------------------------------------------
# distinguished functionals


@dataclass(frozen=True)
class CounitSearch:
    functional: Optional[Vec]
    two_sided: Optional[bool]  # right law verified (left law held by construction)
    certificate: Optional[Vec]  # inconsistency certificate when absent


def counit_find(h: HopfStarAlgebra) -> CounitSearch:
    """Solve (eps (x) id) o comult = id, then verify the right law follows."""
    d = h.dim
    # unknowns eps_a; equations indexed by (b, j): sum_a comult[(a,b),j] eps_a = [b==j]
    system = h.comult.reindex(d * d, d, lambda r, j: (r % d * d + j, r // d))
    res = solve(system, sum((unit_vec(d, b) for b in range(d)), ()))  # [b == j] at b * d + j
    if not res.consistent:
        return CounitSearch(None, None, res.certificate)
    eps = res.solution
    right = kron(Matrix.identity(d), Matrix.row(eps)) @ h.comult == Matrix.identity(d)
    return CounitSearch(eps, right, None)


@dataclass(frozen=True)
class HaarSearch:
    state: Optional[Vec]
    positive: Optional[bool]
    certificate: Optional[Vec]


def haar_state(h: HopfStarAlgebra) -> HaarSearch:
    """Left-invariant state: (phi (x) id) o comult = phi(.) unit, phi(unit) = 1.

    Positivity is family-specific: nonnegative coordinates on function
    algebras, a positive-semidefinite Gram matrix on group algebras.
    """
    d = h.dim
    # equations indexed by (j, b): sum_a comult[(a,b),j] phi_a - unit_b phi_j = 0
    invariance = h.comult.reindex(d * d, d, lambda r, j: (j * d + r % d, r // d))
    invariance = invariance - kron(Matrix.identity(d), h.unit_col)
    # and last the normalisation phi(unit) = 1
    system = invariance.transpose().augment(h.unit_col).transpose()
    res = solve(system, unit_vec(d * d + 1, d * d))
    if not res.consistent:
        return HaarSearch(None, None, res.certificate)
    phi = res.solution
    return HaarSearch(phi, _functional_positive(h, phi), None)


def _functional_positive(h: HopfStarAlgebra, phi: Vec) -> Optional[bool]:
    if h.kind == "function":
        return all(x.is_real and x >= 0 for x in phi)
    if h.kind == "group" and isinstance(h.monoid, FiniteGroup):
        g = h.monoid
        gram = Matrix(
            g.order,
            g.order,
            {(r, s): phi[g.mul(g.inv(r), s)] for r in range(g.order) for s in range(g.order)},
        )
        return bool(psd_check(gram))
    return None
