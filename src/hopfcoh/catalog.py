"""Named catalog of monoids, groups and Hopf *-algebras."""
from __future__ import annotations

from .hopf import HopfStarAlgebra, function_algebra, group_algebra
from .monoids import (
    FiniteGroup,
    FiniteMonoid,
    cyclic_group,
    direct_product,
    left_zero_semigroup,
    mult01_monoid,
    right_zero_with_identity,
    symmetric_group,
    trivial_monoid,
)


# name -> constructor, each reading the module global at call time: a lookup builds only
# the monoid it names
_GROUPS = {
    "trivial": lambda: trivial_monoid(),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z2xZ2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
    "S3": lambda: symmetric_group(3),
}
_MONOIDS = {
    **_GROUPS,
    "leftzero2": lambda: left_zero_semigroup(2),
    "rzid3": lambda: right_zero_with_identity(3),
    "mult01": lambda: mult01_monoid(),
}

GROUP_NAMES = tuple(sorted(_GROUPS))
MONOID_NAMES = tuple(sorted(_MONOIDS))


def get_monoid(name: str) -> FiniteMonoid:
    if name not in _MONOIDS:
        raise KeyError(f"unknown monoid {name!r}")
    return _MONOIDS[name]()


def get_group(name: str) -> FiniteGroup:
    if name not in _GROUPS:
        raise KeyError(f"unknown group {name!r}")
    return _GROUPS[name]()


def algebra_names():
    names = [f"function:{n}" for n in MONOID_NAMES]
    names += [f"group:{n}" for n in GROUP_NAMES]
    names.append("kp8")
    return tuple(sorted(names))


def get_algebra(name: str) -> HopfStarAlgebra:
    """Resolve "function:NAME", "group:NAME" or "kp8" to a built algebra."""
    if name == "kp8":
        from .kacpaljutkin import kac_paljutkin

        return kac_paljutkin()
    if ":" not in name:
        raise KeyError(f"malformed algebra name {name!r} (want kind:name)")
    kind, _, base = name.partition(":")
    if kind == "function":
        return function_algebra(get_monoid(base))
    if kind == "group":
        return group_algebra(get_group(base))
    raise KeyError(f"unknown algebra kind {kind!r}")


def default_suite():
    """The algebra names exercised by the cross-check suite."""
    return sorted([f"function:{n}" for n in MONOID_NAMES] + [f"group:{n}" for n in GROUP_NAMES])
