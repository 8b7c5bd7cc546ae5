"""The package's records (hopfcoh.records): frozen, compared by value within
one class, printed as Name(field=value, ...), checked by __post_init__; and
Memo, the one keyed per-instance cache."""
import gc
import weakref

import pytest

from hopfcoh.catalog import get_algebra
from hopfcoh.cochain import CochainComplex, CohomologyResult, build_complex
from hopfcoh.comodule import (
    Bicomodule,
    RightCoaction,
    catalog_bicomodules,
    one_sided,
    regular_left_coaction,
    regular_right_coaction,
)
from hopfcoh.hopf import translates_span
from hopfcoh.jobfile import CayleySpec, JobSpec, parse_input
from hopfcoh.linalg import Matrix
from hopfcoh.monoids import FiniteGroup, FiniteMonoid
from hopfcoh.records import Memo, replace

INLINE_JOB = "algebra = inline-function\ntasks = axioms\nbegin cayley\n  identity = 0\n  row 0 1\n  row 1 1\nend\n"


def test_fields_cannot_be_assigned_or_deleted():
    records = [
        (get_algebra("group:Z2"), "dim"),
        (parse_input(INLINE_JOB), "degree_cap"),
        (CohomologyResult(3, 1), "dim_kernel"),
    ]
    for rec, name in records:
        before = getattr(rec, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(rec, name, 7)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.not_a_field = 1
        assert getattr(rec, name) == before


def test_two_parses_of_one_job_compare_and_hash_equal():
    a, b = parse_input(INLINE_JOB), parse_input(INLINE_JOB)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.cayley == CayleySpec(0, ((0, 1), (1, 1))) and hash(a.cayley) == hash(b.cayley)
    done = {(a.algebra, a.cayley)}  # how the fresh-start benchmark keys the algebras it has built
    assert (b.algebra, b.cayley) in done
    assert a != replace(a, degree_cap=2) and replace(a, degree_cap=a.degree_cap) == a


def test_equality_holds_only_within_one_class():
    table = ((0, 1), (1, 0))
    monoid, group = FiniteMonoid(2, table), FiniteGroup(2, table)
    assert monoid != group and group != monoid
    assert group == FiniteGroup(2, table, inverse=(0, 1))
    assert CohomologyResult(3, 1) != (3, 1)


def test_post_init_still_validates():
    h = get_algebra("group:Z2")
    with pytest.raises(ValueError, match=r"beta must be \(x\*s\) x x"):
        RightCoaction(1, h, Matrix.identity(1))
    with pytest.raises(ValueError, match="Cayley table shape mismatch"):  # FiniteMonoid's own check
        FiniteGroup(2, ((0, 1),))
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(3, ((0, 1, 2), (1, 0, 0), (2, 0, 0)))
    with pytest.raises(ValueError, match="a group needs an identity"):
        FiniteGroup(2, ((0, 1), (1, 0)), identity=None)
    with pytest.raises(ValueError, match="Cayley table shape mismatch"):  # replace builds anew
        replace(FiniteMonoid(2, ((0, 1), (1, 1))), table=((0, 1),))


def test_fields_come_from_the_bases_too():
    g = FiniteGroup(2, ((0, 1), (1, 0)))
    assert (g.order, g.identity, g.names, g.inverse) == (2, 0, ("x0", "x1"), (0, 1))
    assert FiniteGroup.__record_fields__ == ("order", "table", "identity", "names", "inverse")


def test_bad_arguments_are_refused():
    with pytest.raises(TypeError):
        CohomologyResult(3)
    with pytest.raises(TypeError):
        CohomologyResult(3, 1, 0)
    with pytest.raises(TypeError):
        CohomologyResult(3, dim_kernel=3)
    with pytest.raises(TypeError):
        CohomologyResult(3, dim_image=1)
    with pytest.raises(TypeError):
        replace(CohomologyResult(3, 1), dim=2)


def test_keyword_calls_fill_the_fields_in_order_with_defaults():
    """Keywords in any order, mixed with positional fields, give the positional record; a
    missing field, a repeated positional one and an unknown name are each refused."""
    full = JobSpec("group:Z2", ("axioms",), 3, "json", None, ())
    assert JobSpec(tasks=("axioms",), algebra="group:Z2") == full
    assert JobSpec("group:Z2", format="json", tasks=("axioms",)) == full
    assert CohomologyResult(dim_image_prev=1, dim_kernel=3) == CohomologyResult(3, 1)
    for args, kwargs in (
        ((), {"algebra": "group:Z2"}),  # tasks missing
        (("group:Z2",), {"algebra": "group:Z2", "tasks": ()}),  # algebra twice
        (("group:Z2", ()), {"colour": 1}),  # unknown
        (("group:Z2", (), 3, "json", None, (), 0), {}),  # one field too many
    ):
        with pytest.raises(TypeError, match=r"JobSpec\(\) takes the fields algebra, tasks, degree_cap"):
            JobSpec(*args, **kwargs)


def test_repr_is_unchanged():
    assert repr(CohomologyResult(dim_kernel=3, dim_image_prev=1)) == "CohomologyResult(dim_kernel=3, dim_image_prev=1)"
    job = JobSpec(algebra="group:Z2", tasks=("axioms",))
    assert repr(job) == (
        "JobSpec(algebra='group:Z2', tasks=('axioms',), degree_cap=3, format='json', cayley=None, comodules=())"
    )


def test_cochain_complex_equality_ignores_its_reductions():
    b = one_sided(regular_right_coaction(get_algebra("group:Z2")))
    a, c = build_complex(b, "dual", 2), build_complex(b, "dual", 2)
    reduced = {n: a.reduction(n) for n in (1, 0)}  # degree 1 reduces degree 0 first
    assert all(a.holds(r, ("reduction", n)) and a.reduction(n) is r for n, r in reduced.items())
    assert not any(c.holds(r, ("reduction", n)) for n, r in reduced.items())
    assert a == c and hash(a) == hash(c)
    assert "reduction" not in repr(a) and "memo" not in repr(a)
    assert c.reduction(1) == reduced[1] and c.reduction(1) is not reduced[1]


def test_cached_properties_still_work():
    h = get_algebra("group:Z2")
    assert h.unit_col is h.unit_col
    entry = catalog_bicomodules(h)[0]
    assert entry.nondegenerate_side == entry.nondegenerate_side


def test_a_patched_post_init_is_what_construction_runs(monkeypatch):
    seen = []
    original = CochainComplex.__dict__["__post_init__"]

    def counted(self):
        seen.append(self.kind)
        original(self)

    monkeypatch.setattr(CochainComplex, "__post_init__", counted)
    b = one_sided(regular_right_coaction(get_algebra("group:Z2")))
    build_complex(b, "natural", 2)
    assert seen == ["natural"]


class Held:
    """A weakref-able object that is equal to every other Held."""

    def __eq__(self, other):
        return isinstance(other, Held)

    __hash__ = object.__hash__


def counting(value):
    """make() for a memo: returns value and counts each call in made."""
    made = []
    return made, lambda: made.append(value) or value


def test_once_for_makes_each_objects_value_once():
    memo, obj = Memo(), Held()
    made, make = counting("v")
    assert memo.once_for(obj, "k", make) == memo.once_for(obj, "k", make) == "v"
    assert made == ["v"] and memo.holds(obj, "k")
    assert memo.once_for(obj, "other", make) == "v" and made == ["v", "v"]


def test_an_equal_but_distinct_object_gets_its_own_entry():
    memo, a, b = Memo(), Held(), Held()
    assert a == b and a is not b
    made, make = counting(1)
    memo.once_for(a, "k", make)
    assert memo.holds(a, "k") and not memo.holds(b, "k")
    memo.once_for(b, "k", make)
    assert made == [1, 1] and memo.holds(b, "k")


def test_holds_makes_nothing():
    memo, obj = Memo(), Held()
    assert not memo.holds(obj, "k") and not memo.holds(obj, "k")
    made, make = counting(obj)
    assert memo.once("k", make) is obj and memo.holds(obj, "k") and not memo.holds(Held(), "k")
    assert made == [obj]


def test_an_entry_keeps_its_object_alive():
    memo, kept, dropped = Memo(), Held(), Held()
    kept_ref, dropped_ref = weakref.ref(kept), weakref.ref(dropped)
    memo.once_for(kept, "k", lambda: None)
    del kept, dropped
    gc.collect()
    assert dropped_ref() is None  # no entry: freed, and its id may go to a new object
    assert kept_ref() is not None and memo.holds(kept_ref(), "k")


def test_two_lookups_of_one_algebra_share_no_entry():
    a, b = get_algebra("group:Z3"), get_algebra("group:Z3")
    assert a == b and a is not b
    assert translates_span(a, a.comult, False, True)
    assert a.holds(a.comult, ("span", False, True))
    assert not b.holds(a.comult, ("span", False, True)) and not b.holds(b.comult, ("span", False, True))
    gamma = a.trivial_gamma(2)
    assert a.trivial_gamma(2) is gamma and b.trivial_gamma(2) == gamma and b.trivial_gamma(2) is not gamma


def test_a_replaced_bicomodule_starts_with_an_empty_memo():
    h = get_algebra("group:Z2")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    obj = Held()
    value, held = b.once("k", lambda: Held()), b.once_for(obj, "k", lambda: Held())
    copy = replace(b)
    assert copy == b and copy is not b
    assert not copy.holds(value, "k") and not copy.holds(obj, "k")
    assert copy.once("k", lambda: 2) == 2 and copy.once_for(obj, "k", lambda: 3) == 3
    assert b.once("k", lambda: 2) is value and b.once_for(obj, "k", lambda: 3) is held
