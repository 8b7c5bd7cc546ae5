"""Finite monoids, semigroups and groups as Cayley tables."""
from __future__ import annotations

from itertools import permutations
from typing import Optional

from .records import record


@record
class FiniteMonoid:
    """A finite semigroup; identity (when present) must sit at index 0."""

    order: int
    table: tuple  # tuple[tuple[int, ...], ...], table[i][j] = i*j
    identity: Optional[int] = 0
    names: tuple = ()

    def __post_init__(self):
        n = self.order
        t = self.table
        if len(t) != n or any(len(row) != n for row in t):
            raise ValueError("Cayley table shape mismatch")
        for row in t:
            for x in row:
                if not 0 <= x < n:
                    raise ValueError("Cayley table entry out of range")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise ValueError(f"not associative at ({i},{j},{k})")
        if self.identity is not None:
            if self.identity != 0:
                raise ValueError("identity must be element 0")
            if any(t[0][j] != j or t[j][0] != j for j in range(n)):
                raise ValueError("element 0 is not an identity")
        if not self.names:
            object.__setattr__(self, "names", tuple(f"x{i}" for i in range(n)))
        elif len(self.names) != n:
            raise ValueError("names length mismatch")

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    @property
    def has_identity(self) -> bool:
        return self.identity is not None


@record
class FiniteGroup(FiniteMonoid):
    """A finite group: a monoid with an inverse permutation."""

    inverse: tuple = ()

    def __post_init__(self):
        if self.identity is None:
            raise ValueError("a group needs an identity")
        super().__post_init__()
        if not self.inverse:
            inv = []
            for i in range(self.order):
                js = [j for j in range(self.order) if self.table[i][j] == 0]
                if len(js) != 1:
                    raise ValueError(f"element {i} has no unique inverse")
                inv.append(js[0])
            object.__setattr__(self, "inverse", tuple(inv))
        for i in range(self.order):
            if self.table[i][self.inverse[i]] != 0 or self.table[self.inverse[i]][i] != 0:
                raise ValueError(f"inverse law fails at {i}")

    def inv(self, i: int) -> int:
        return self.inverse[i]


# ---------------------------------------------------------------------------
# constructors


def trivial_monoid() -> FiniteGroup:
    return FiniteGroup(order=1, table=((0,),), names=("e",))


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    names = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    return FiniteGroup(order=n, table=table, names=names)


def direct_product(a: FiniteMonoid, b: FiniteMonoid):
    """Direct product; a group when both factors are groups."""
    n, m = a.order, b.order
    idx = lambda i, j: i * m + j
    table = tuple(
        tuple(idx(a.table[i1][i2], b.table[j1][j2]) for i2 in range(n) for j2 in range(m))
        for i1 in range(n)
        for j1 in range(m)
    )
    names = tuple(f"({a.names[i]},{b.names[j]})" for i in range(n) for j in range(m))
    both_groups = isinstance(a, FiniteGroup) and isinstance(b, FiniteGroup)
    has_id = a.has_identity and b.has_identity
    cls = FiniteGroup if both_groups else FiniteMonoid
    return cls(order=n * m, table=table, identity=0 if has_id else None, names=names)


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on {0..n-1}; the identity permutation is element 0."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    # composition (p*q)(x) = p(q(x))
    table = tuple(
        tuple(index[tuple(p[q[x]] for x in range(n))] for q in elems) for p in elems
    )
    names = tuple("".join(str(x) for x in p) for p in elems)
    return FiniteGroup(order=len(elems), table=table, names=names)


def left_zero_semigroup(n: int) -> FiniteMonoid:
    """x*y = x for all x, y; no identity when n > 1."""
    table = tuple(tuple(i for _ in range(n)) for i in range(n))
    return FiniteMonoid(order=n, table=table, identity=None if n > 1 else 0)


def right_zero_with_identity(n: int) -> FiniteMonoid:
    """An identity adjoined to an (n-1)-element right-zero semigroup."""
    table = [[j for j in range(n)]]
    for i in range(1, n):
        table.append([i] + [j for j in range(1, n)])
    names = ("e",) + tuple(chr(ord("a") + i - 1) for i in range(1, n))
    return FiniteMonoid(order=n, table=tuple(tuple(r) for r in table), names=names)


def mult01_monoid() -> FiniteMonoid:
    """{1, 0} under multiplication; 1 is the identity, 0 absorbs."""
    return FiniteMonoid(order=2, table=((0, 1), (1, 1)), names=("1", "0"))
