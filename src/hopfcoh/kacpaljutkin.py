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

from fractions import Fraction

from .hopf import HopfStarAlgebra
from .linalg import Matrix
from .scalars import Scalar

_NAMES = ("1", "x", "y", "xy", "z", "xz", "yz", "xyz")
_ORDER = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
_HALF = Fraction(1, 2)


def _idx(a, b, c):
    return (a * 2 + b) * 2 + c


# z^2 = (1 + x + y - xy)/2
_U = {
    _idx(0, 0, 0): _HALF,
    _idx(1, 0, 0): _HALF,
    _idx(0, 1, 0): _HALF,
    _idx(1, 1, 0): -_HALF,
}


def _word_mul(w1, w2):
    """Product of two basis words in normal form, as {basis index: Fraction}."""
    (a, b, c), (d, e, f) = w1, w2
    if c == 1:  # z x^d y^e = x^e y^d z
        d, e = e, d
    a2, b2 = (a + d) % 2, (b + e) % 2
    if c + f < 2:
        return {_idx(a2, b2, c + f): Fraction(1)}
    out = {}
    for k, v in _U.items():
        p, q, r = _ORDER[k]
        key = _idx((a2 + p) % 2, (b2 + q) % 2, r)
        out[key] = out.get(key, Fraction(0)) + v
    return out


def _lin_mul(v1, v2):
    out = {}
    for k1, c1 in v1.items():
        for k2, c2 in v2.items():
            for k3, c3 in _word_mul(_ORDER[k1], _ORDER[k2]).items():
                out[k3] = out.get(k3, Fraction(0)) + c1 * c2 * c3
    return {k: v for k, v in out.items() if v}


def _tensor_mul(p1, p2):
    out = {}
    for (i1, j1), c1 in p1.items():
        for (i2, j2), c2 in p2.items():
            for k1, v1 in _lin_mul({i1: Fraction(1)}, {i2: Fraction(1)}).items():
                for k2, v2 in _lin_mul({j1: Fraction(1)}, {j2: Fraction(1)}).items():
                    key = (k1, k2)
                    out[key] = out.get(key, Fraction(0)) + c1 * c2 * v1 * v2
    return {k: v for k, v in out.items() if v}


def kac_paljutkin() -> HopfStarAlgebra:
    mult_entries = {}
    for i in range(8):
        for j in range(8):
            for k, v in _lin_mul({i: Fraction(1)}, {j: Fraction(1)}).items():
                mult_entries[(k, i * 8 + j)] = Scalar(v)
    mult = Matrix(8, 64, mult_entries)

    dx = {(_idx(1, 0, 0), _idx(1, 0, 0)): Fraction(1)}
    dy = {(_idx(0, 1, 0), _idx(0, 1, 0)): Fraction(1)}
    j_factor = {
        (_idx(0, 0, 0), _idx(0, 0, 0)): _HALF,
        (_idx(0, 0, 0), _idx(1, 0, 0)): _HALF,
        (_idx(0, 1, 0), _idx(0, 0, 0)): _HALF,
        (_idx(0, 1, 0), _idx(1, 0, 0)): -_HALF,
    }
    dz = _tensor_mul(j_factor, {(_idx(0, 0, 1), _idx(0, 0, 1)): Fraction(1)})

    com_entries = {}
    for col, (a, b, c) in enumerate(_ORDER):
        word = {(0, 0): Fraction(1)}
        for _ in range(a):
            word = _tensor_mul(word, dx)
        for _ in range(b):
            word = _tensor_mul(word, dy)
        for _ in range(c):
            word = _tensor_mul(word, dz)
        for (k1, k2), v in word.items():
            com_entries[(k1 * 8 + k2, col)] = Scalar(v)
    comult = Matrix(64, 8, com_entries)

    # star is the conjugate-linear antihomomorphism fixing x, y with z* = u z
    sz = _lin_mul(dict(_U), {_idx(0, 0, 1): Fraction(1)})
    star_entries = {}
    for col, (a, b, c) in enumerate(_ORDER):
        word = {0: Fraction(1)}
        for _ in range(c):
            word = _lin_mul(word, sz)
        for _ in range(b):
            word = _lin_mul(word, {_idx(0, 1, 0): Fraction(1)})
        for _ in range(a):
            word = _lin_mul(word, {_idx(1, 0, 0): Fraction(1)})
        for k, v in word.items():
            star_entries[(k, col)] = Scalar(v)
    star = Matrix(8, 8, star_entries)

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
