"""Finite-dimensional Hopf *-algebras as structure-constant records.

A HopfStarAlgebra packages the four structure tensors (product, unit,
coproduct, optional counit) plus an optional conjugate-linear involution.
Axioms are never assumed: check_axioms re-derives each law exactly, as one
combination of products that vanishes when it holds, and reports the least
column of its support, a basis index, as the witness of a failure.

The involution is encoded as a plain matrix M acting by v -> M * conj(v).
"""
from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Optional

from .linalg import (
    Matrix,
    Vec,
    _cells,
    _product,
    combination,
    failing_column,
    kron,
    image_rank,
    psd_check,
    solve,
    unit_vec,
    vec,
)
from .monoids import FiniteGroup, FiniteMonoid
from .records import Memo, record


@record
class HopfStarAlgebra(Memo):
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
    def coassociativity_witness(self) -> Optional[int]:
        """The least column where (comult (x) id) comult - (id (x) comult) comult is nonzero,
        None when comult is coassociative: the axiom gate and every coaction identity whose
        matrix is comult itself read this one evaluation."""
        i_s = Matrix.identity(self.dim)
        return failing_column([(1, kron(self.comult, i_s), self.comult), (-1, kron(i_s, self.comult), self.comult)])

    @cached_property
    def unitality_witness(self) -> Optional[int]:
        """0 when comult(1) - 1 (x) 1 is nonzero, else None: the axiom gate and the coaction
        identity of every trivial left coaction (trivial_gamma) read this one evaluation."""
        return failing_column([(1, self.comult, self.unit_col), (-1, kron(self.unit_col, self.unit_col))])

    def trivial_gamma(self, x: int) -> Matrix:
        """gamma = 1 (x) id on a space of dimension x, built once per x: its coaction identity
        is kron(comult(1) - 1 (x) 1, I_x), and it is compatible with every right coaction."""
        return self.once(("trivial gamma", x), lambda: kron(self.unit_col, Matrix.identity(x)))

    def is_trivial_gamma(self, gamma: Matrix) -> bool:
        """Is gamma the very matrix trivial_gamma built? An equal copy takes the full checks."""
        return self.holds(gamma, ("trivial gamma", gamma.cols))


# ---------------------------------------------------------------------------
# axiom checking


@record
class AxiomCheck:
    name: str
    passed: bool
    witness: Optional[int] = None  # input basis (column) index of first failure


@record
class AxiomReport:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def check_axioms(h: HopfStarAlgebra) -> AxiomReport:
    d = h.dim
    i_s = Matrix.identity(d)
    checks = []

    def record(name, w):
        checks.append(AxiomCheck(name, w is None, w))

    def law(name, *terms):
        record(name, failing_column(terms))

    m, delta = h.mult, h.comult
    record("mult associative", _associativity_witness(m, d))
    law("unit left", (1, m, kron(h.unit_col, i_s)), (-1, i_s))
    law("unit right", (1, m, kron(i_s, h.unit_col)), (-1, i_s))
    record("comult coassociative", h.coassociativity_witness)
    defect = _multiplicativity_defect(m, delta, d)
    record("comult multiplicative", min((c for _, c in defect.support), default=None))
    record("comult unital", h.unitality_witness)
    if h.star is not None:
        st = h.star
        law("star involutive", (1, st, st.conj()), (-1, i_s))
        law("star anti-multiplicative", (1, st, m.conj()), (-1, _opposite(m, d), kron(st, st)))
        law("star fixes unit", (1, st, h.unit_col.conj()), (-1, h.unit_col))
        law("comult star-compatible", (1, delta, st), (-1, kron(st, st), delta.conj()))
    if h.counit is not None:
        eps = h.counit_row
        law("counit left", (1, kron(eps, i_s), delta), (-1, i_s))
        law("counit right", (1, kron(i_s, eps), delta), (-1, i_s))
    return AxiomReport(tuple(checks))


def _multiplicativity_defect(m: Matrix, delta: Matrix, d: int) -> Matrix:
    """delta(ab) - delta(a) delta(b) over the basis pairs (a, b), column a * d + b, in one
    accumulation on flat keys: delta m by _product, less v w (e_p e_r (x) e_q e_s) for each
    entry v at (p, q) of delta's column a and w at (r, s) of its column b, the two legs
    multiplied by m's columns p * d + r and q * d + s.  Each choice of real or imaginary part
    of the four factors adds i^k times its product, k the imaginary ones, and a choice with
    an empty part is skipped, as in _product; neither kron(delta, delta) nor kron(m, m) is built."""
    d2, den = d * d, (delta.den * m.den) ** 2
    re, im = _product([(1, delta, m)], d2, den)

    def by_column(part, n, legs):  # the entries of each column as (*legs(row), v), None if none
        out = [[] for _ in range(n)]
        for (r, c), v in part.items():
            out[c].append((*legs(r), v))
        return out if part else None

    cols = [by_column(part, d, lambda r: divmod(r, d)) for part in (delta.re, delta.im)]
    legs = [by_column(part, d2, lambda r: (r,)) for part in (m.re, m.im)]
    for ka, kb, kx, ky in product((0, 1), repeat=4):
        col_a, col_b, left, right = cols[ka], cols[kb], legs[kx], legs[ky]
        if col_a is None or col_b is None or left is None or right is None:
            continue
        k = ka + kb + kx + ky
        acc, sign = (im if k % 2 else re), (-1 if k % 4 < 2 else 1)  # minus i^k
        for a, entries_a in enumerate(col_a):
            for p, q, v in entries_a:
                for b, entries_b in enumerate(col_b):
                    ab = a * d + b
                    for r, s, w in entries_b:
                        xs, ys = left[p * d + r], right[q * d + s]
                        if xs and ys:
                            vw = sign * v * w
                            for x, mu in xs:
                                for y, nu in ys:
                                    key = (x * d + y) * d2 + ab
                                    acc[key] = acc.get(key, 0) + vw * mu * nu
    re, im = ({key: v for key, v in acc.items() if v} for acc in (re, im))
    return Matrix._of(d2, d2, _cells(re, d2), _cells(im, d2), den)


def _associativity_witness(m: Matrix, d: int) -> Optional[int]:
    """The least column (a d + b) d + c where (e_a e_b) e_c - e_a (e_b e_c) is nonzero, None when m is
    associative: one accumulation over the basis triples on flat keys column * d + row, real and
    imaginary parts taken as in _multiplicativity_defect; neither kron(m, I_s) nor kron(I_s, m) is built."""
    cols = [[[] for _ in range(d * d)] if part else None for part in (m.re, m.im)]
    for k, part in enumerate((m.re, m.im)):
        for (r, c), v in part.items():
            cols[k][c].append((r, v))
    re, im = {}, {}
    for kx, ky in product((0, 1), repeat=2):
        outer, inner = cols[kx], cols[ky]
        if outer is None or inner is None:
            continue
        acc, sign = (im, 1) if kx != ky else (re, -1 if kx else 1)  # i^k
        for xy, entries in enumerate(outer):  # e_x e_y = sum v e_p, then e_p e_z and e_z e_p
            for p, v in entries:
                v *= sign
                for z in range(d):
                    key = (xy * d + z) * d  # (e_x e_y) e_z
                    for r, w in inner[p * d + z]:
                        acc[key + r] = acc.get(key + r, 0) + v * w
                    key = (z * d * d + xy) * d  # less e_z (e_x e_y)
                    for r, w in inner[z * d + p]:
                        acc[key + r] = acc.get(key + r, 0) - v * w
    return min((key // d for acc in (re, im) for key, v in acc.items() if v), default=None)


def _opposite(m: Matrix, d: int) -> Matrix:
    """The opposite product a (x) b -> ba: m with its two inputs swapped."""
    return m.reindex(d, d * d, lambda r, c: (r, c % d * d + c // d))


def translates_span(h: HopfStarAlgebra, coaction: Matrix, s_leg_first: bool, right: bool) -> bool:
    """Do the coaction's columns, their S leg multiplied by every basis element
    t (u -> ut if right, else tu), span X (x) S?

    Memoized on h per (coaction object, leg, side), so the catalog entries that
    share a coaction, and saturation and the regular coactions (all h.comult),
    run each test once.
    """
    return h.once_for(coaction, ("span", s_leg_first, right), lambda: _spans(h, coaction, s_leg_first, right))


def _spans(h: HopfStarAlgebra, coaction: Matrix, s_leg_first: bool, right: bool) -> bool:
    """translates_span's test. One product holds every translate: column (j, t) of
    kron(C, I_s) is C(e_j) (x) e_t, which kron(I_x, mult) sends to C(e_j)(1 (x) t); the
    S leg first, kron(mult, I_x) @ kron(I_s, C); t from the other side swaps mult's inputs.
    """
    x, d = coaction.cols, h.dim
    m = _opposite(h.mult, d) if right == s_leg_first else h.mult
    ix, i_s = Matrix.identity(x), Matrix.identity(d)
    legs = kron(m, ix) @ kron(i_s, coaction) if s_leg_first else kron(ix, m) @ kron(coaction, i_s)
    return image_rank(legs) == x * d


def check_saturated(h: HopfStarAlgebra):
    """Span-equality form of saturation, as right translates of the regular
    right and left coactions: (left, right).

    left:  span{ delta(s) * (1 (x) t) } = S (x) S
    right: span{ delta(s) * (t (x) 1) } = S (x) S
    """
    return tuple(translates_span(h, h.comult, s_leg_first, right=True) for s_leg_first in (False, True))


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


def dual_algebra_mult(h: HopfStarAlgebra) -> Matrix:
    """Product of the dual algebra S^* (f.g = (f (x) g) o comult); no unit needed."""
    return h.comult.transpose()


# ---------------------------------------------------------------------------
# distinguished functionals


@record
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
    right = combination([(1, kron(Matrix.identity(d), Matrix.row(eps)), h.comult), (-1, Matrix.identity(d))]).is_zero()
    return CounitSearch(eps, right, None)


@record
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
    gram, coordinates = functional_positivity(h, phi)
    return HaarSearch(phi, coordinates if gram is None else bool(gram), None)


def functional_positivity(h: HopfStarAlgebra, phi: Vec) -> tuple:
    """(Gram certificate, coordinates nonnegative) of a functional phi on S^{(x)k}, k read
    from len(phi): on a group algebra psd_check of quotient_gram(G, phi) and None, on a
    function algebra None and whether every coordinate is real and >= 0, else (None, None)."""
    if h.kind == "function":
        return None, all(x.is_real and x >= 0 for x in phi)
    if h.kind == "group" and isinstance(h.monoid, FiniteGroup):
        return psd_check(quotient_gram(h.monoid, phi)), None
    return None, None


def quotient_gram(g: FiniteGroup, phi: Vec) -> Matrix:
    """The Gram matrix [phi(a^{-1} b)] over a, b in G^k, |G|^k = len(phi), in row-major order."""
    n = g.order
    quotient = [[g.mul(g.inv(r), s) for s in range(n)] for r in range(n)]
    table = [[0]]  # table[a][b] = the flat index of a^{-1} b in G^k, here k = 0
    while len(table) < len(phi):
        table = [[t * n + q for t in row for q in q_r] for row in table for q_r in quotient]
    entries = {(a, b): phi[t] for a, row in enumerate(table) for b, t in enumerate(row) if phi[t]}
    return Matrix(len(table), len(table), entries)
