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


def _groups():
    return {
        "trivial": trivial_monoid(),
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z2xZ2": direct_product(cyclic_group(2), cyclic_group(2)),
        "S3": symmetric_group(3),
    }


def _monoids():
    out = dict(_groups())
    out["leftzero2"] = left_zero_semigroup(2)
    out["rzid3"] = right_zero_with_identity(3)
    out["mult01"] = mult01_monoid()
    return out


GROUP_NAMES = tuple(sorted(_groups()))
MONOID_NAMES = tuple(sorted(_monoids()))


def get_monoid(name: str) -> FiniteMonoid:
    table = _monoids()
    if name not in table:
        raise KeyError(f"unknown monoid {name!r}")
    return table[name]


def get_group(name: str) -> FiniteGroup:
    table = _groups()
    if name not in table:
        raise KeyError(f"unknown group {name!r}")
    return table[name]


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
