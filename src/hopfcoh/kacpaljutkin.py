"""The 8-dimensional Hopf *-algebra that is neither commutative nor cocommutative.

Presentation on generators x, y, z with

    x^2 = y^2 = 1,  xy = yx,  z x = y z,  z y = x z,
    z^2 = u := (1 + x + y - xy)/2,
    comult(x) = x (x) x,  comult(y) = y (x) y,
    comult(z) = (1 (x) 1 + 1 (x) x + y (x) 1 - y (x) x)/2 * (z (x) z),
    counit(x) = counit(y) = counit(z) = 1,
    x* = x,  y* = y,  z* = u z  (z is unitary: z^4 = 1),

on the basis words 1, x, y, xy, z, xz, yz, xyz.  All structure constants
are rational.  The builder re-derives every tensor from the relations and
checks nothing: like every algebra, kp8 passes the axiom gate that opens
each job, and tests/test_kacpaljutkin.py holds the builder to the axioms.
"""
from __future__ import annotations

from .hopf import HopfStarAlgebra
from .linalg import Matrix
from .scalars import Scalar

_NAMES = ("1", "x", "y", "xy", "z", "xz", "yz", "xyz")
_ORDER = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]


def _idx(a, b, c):
    return (a * 2 + b) * 2 + c


# z^2 = (1 + x + y - xy)/2, as numerators over 2 of the words x^a y^b
_U = (((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), -1))

# An element is (numerators, den): {basis index: int} on S, {(index, index): int} on
# S (x) S, each numerator over the power of two den.


def _word_table():
    """The products of the basis words on integer numerators over 2:
    table[i][j] = [(k, n), ...] with e_i e_j = sum n/2 e_k, the k distinct."""
    table = []
    for a, b, c in _ORDER:
        row = []
        for d, e, f in _ORDER:
            if c == 1:  # z x^d y^e = x^e y^d z
                d, e = e, d
            a2, b2 = (a + d) % 2, (b + e) % 2
            if c + f < 2:
                row.append([(_idx(a2, b2, c + f), 2)])
            else:
                row.append([(_idx((a2 + p) % 2, (b2 + q) % 2, 0), n) for (p, q), n in _U])
        table.append(row)
    return table


def _mul(table, u, v):
    """The product of two elements of S."""
    (x, dx), (y, dy) = u, v
    out = {}
    for i, p in x.items():
        for j, q in y.items():
            for k, n in table[i][j]:
                out[k] = out.get(k, 0) + p * q * n
    return {k: n for k, n in out.items() if n}, dx * dy * 2


def _tensor_mul(table, u, v):
    """The product of two elements of S (x) S, leg by leg."""
    (x, dx), (y, dy) = u, v
    out = {}
    for (i1, j1), p in x.items():
        for (i2, j2), q in y.items():
            for k1, n1 in table[i1][i2]:
                for k2, n2 in table[j1][j2]:
                    out[(k1, k2)] = out.get((k1, k2), 0) + p * q * n1 * n2
    return {k: n for k, n in out.items() if n}, dx * dy * 4


def _matrix(rows, columns):
    """The matrix whose column j holds the element columns[j], keyed by row."""
    den = max(d for _, d in columns)  # the dens are powers of two
    re = {(r, j): n * (den // d) for j, (col, d) in enumerate(columns) for r, n in col.items()}
    return Matrix._of(rows, len(columns), re, {}, den)


def kac_paljutkin() -> HopfStarAlgebra:
    table = _word_table()
    mult = _matrix(8, [(dict(table[i][j]), 2) for i in range(8) for j in range(8)])

    dx = ({(_idx(1, 0, 0), _idx(1, 0, 0)): 1}, 1)
    dy = ({(_idx(0, 1, 0), _idx(0, 1, 0)): 1}, 1)
    j_factor = {
        (_idx(0, 0, 0), _idx(0, 0, 0)): 1,
        (_idx(0, 0, 0), _idx(1, 0, 0)): 1,
        (_idx(0, 1, 0), _idx(0, 0, 0)): 1,
        (_idx(0, 1, 0), _idx(1, 0, 0)): -1,
    }
    dz = _tensor_mul(table, (j_factor, 2), ({(_idx(0, 0, 1), _idx(0, 0, 1)): 1}, 1))

    words = []
    for a, b, c in _ORDER:
        word = ({(0, 0): 1}, 1)
        for factor, power in ((dx, a), (dy, b), (dz, c)):
            for _ in range(power):
                word = _tensor_mul(table, word, factor)
        words.append(({k1 * 8 + k2: n for (k1, k2), n in word[0].items()}, word[1]))
    comult = _matrix(64, words)

    # star is the conjugate-linear antihomomorphism fixing x, y with z* = u z
    sz = _mul(table, ({_idx(p, q, 0): n for (p, q), n in _U}, 2), ({_idx(0, 0, 1): 1}, 1))
    images = []
    for a, b, c in _ORDER:
        word = ({0: 1}, 1)
        for factor, power in ((sz, c), (({_idx(0, 1, 0): 1}, 1), b), (({_idx(1, 0, 0): 1}, 1), a)):
            for _ in range(power):
                word = _mul(table, word, factor)
        images.append(word)
    star = _matrix(8, images)

    return HopfStarAlgebra(
        dim=8,
        mult=mult,
        unit=tuple(Scalar(1) if i == 0 else Scalar(0) for i in range(8)),
        comult=comult,
        counit=tuple(Scalar(1) for _ in range(8)),
        star=star,
        labels=_NAMES,
        kind=None,
        monoid=None,
    )
