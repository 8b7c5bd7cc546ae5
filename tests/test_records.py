"""The package's records (hopfcoh.records): frozen, compared by value within
one class, printed as Name(field=value, ...), checked by __post_init__."""
import pytest

from hopfcoh.catalog import get_algebra
from hopfcoh.cochain import CochainComplex, CohomologyResult, build_complex
from hopfcoh.comodule import RightCoaction, catalog_bicomodules, one_sided, regular_right_coaction
from hopfcoh.jobfile import CayleySpec, JobSpec, parse_input
from hopfcoh.linalg import Matrix
from hopfcoh.monoids import FiniteGroup, FiniteMonoid
from hopfcoh.records import replace

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
    assert a._reduced is not c._reduced
    a.reduction(1)
    assert a._reduced and not c._reduced
    assert a == c and hash(a) == hash(c)
    assert "_reduced" not in repr(a)


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
