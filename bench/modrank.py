"""Matrix rank by elimination modulo two primes, block by block.

This is the benchmark's own rank, kept apart from ``hopfcoh.linalg`` so
that it can check the program's cohomology dimensions.  Both primes are
= 1 (mod 4), so i maps to a square root of -1 and Gaussian-rational
entries map into the field.  The rank modulo p never exceeds the rank
over the rationals, and equals it unless p divides every maximal nonzero
minor; the larger of the two ranks is returned.
"""
from __future__ import annotations

PRIMES = (2305843009213693921, 2305843009213693693)


def _sqrt_minus_one(p: int) -> int:
    for g in range(2, p):
        if pow(g, (p - 1) // 2, p) == p - 1:  # a non-residue
            return pow(g, (p - 1) // 4, p)
    raise ValueError(f"{p} has no square root of -1")


_I = {p: _sqrt_minus_one(p) for p in PRIMES}


def _reduce(q, p: int):
    """A Fraction modulo p, or None when p divides its denominator."""
    den = q.denominator % p
    if not den:
        return None
    return q.numerator * pow(den, p - 2, p) % p


def to_field(value, p: int):
    """A Scalar (re, im Fractions) modulo p, or None if it cannot be mapped."""
    re = _reduce(value.re, p)
    if re is None:
        return None
    if not value.im:
        return re
    im = _reduce(value.im, p)
    if im is None:
        return None
    return (re + _I[p] * im) % p


def blocks(entries: dict):
    """Split {(row, col): value} into the connected components of its
    nonzero pattern (rows and columns joined by an entry)."""
    parent = {}

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    for r, c in entries:
        a, b = ("r", r), ("c", c)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    out = {}
    for (r, c), v in entries.items():
        out.setdefault(find(("r", r)), {})[(r, c)] = v
    return list(out.values())


def _rank_block(entries: dict, p: int):
    """Rank modulo p of one block, or None if an entry cannot be mapped."""
    rows = {}
    for (r, c), v in entries.items():
        x = to_field(v, p)
        if x is None:
            return None
        if x:
            rows.setdefault(r, {})[c] = x
    pivots = {}  # leading column -> monic row
    for row in sorted(rows.values(), key=len):
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], p - 2, p)
                pivots[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in prow.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return len(pivots)


def rank(matrix) -> int:
    """Rank of a ``hopfcoh.linalg.Matrix`` (anything with ``.entries``)."""
    ranks = []
    for p in PRIMES:
        total = 0
        for block in blocks(matrix.entries):
            r = _rank_block(block, p)
            if r is None:
                break
            total += r
        else:
            ranks.append(total)
    if not ranks:
        raise ValueError("no prime can reduce this matrix")
    return max(ranks)
