"""Cohomology by reduction (cochain.cohomology) against dimensions from the
reference kernels; the non-vanishing cross-check; a tampered Q_n; the work
it leaves out."""
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopfcoh import cochain
from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.cochain import Workspace, build_complex, cohomology
from hopfcoh.comodule import Bicomodule, regular_left_coaction, regular_right_coaction
from hopfcoh.hopf import function_algebra
from hopfcoh.jobfile import parse_input
from hopfcoh.linalg import CertificateError, image_rank
from hopfcoh.monoids import FiniteMonoid
from hopfcoh.report import run
from hopfcoh.tasks import KINDS
from reference import order3_monoid_tables, ref_drop_cols, reference_kernel

RZID3 = ((0, 1, 2), (1, 1, 2), (2, 1, 2))  # function:rzid3's table


def reduced_against_reference(ws: Workspace, cap: int = 3) -> dict:
    """H^0..cap-1 of every kind of complex of every job bicomodule, by
    reduction, once the counts hold against the reference kernels:
    dim ker D_n, and rank D_{n-1} = cols - dim ker D_{n-1} = |Q_n|."""
    nullity: dict = {}  # boundary -> dim of its reference kernel

    def reference_nullity(d):
        if d not in nullity:
            nullity[d] = len(reference_kernel(d))
        return nullity[d]

    dims = {}
    for name, b in ws.bicomodules():
        for kind in KINDS:
            cx = ws.complex_of(b, kind)
            for n in range(cap):
                res = ws.cohomology_of(b, kind, n)
                rank_prev = cx.degrees[n - 1] - reference_nullity(cx.boundary(n - 1)) if n else 0
                assert (res.dim_kernel, res.dim_image_prev) == (reference_nullity(cx.boundary(n)), rank_prev)
                assert len(cx.reduction(n - 1)[0] if n else ()) == rank_prev
                dims[(name, kind, n)] = res.dim
    return dims


@pytest.mark.parametrize("name", algebra_names())
def test_reduction_matches_reference_dims_on_the_catalog(name):
    dims = reduced_against_reference(Workspace(get_algebra(name), 3))
    nonzero = {(kind, n) for (_, kind, n), dim in dims.items() if n and dim}
    # the catalog's only nonzero H^n, n >= 1: rzid3's H^1 off the natural side
    assert nonzero == ({("dual", 1), ("bar", 1), ("restricted", 1)} if name == "function:rzid3" else set())


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(st.sampled_from(order3_monoid_tables()))
@example(RZID3)
def test_reduction_matches_reference_dims_on_random_order3_monoids(table):
    h = function_algebra(FiniteMonoid(order=3, table=[list(r) for r in table], identity=0))
    dims = reduced_against_reference(Workspace(h, 3))
    if table == RZID3:  # the non-vanishing branch, cross-checked against kernel(1)
        assert dims[("unit-quotient", "dual", 1)] == 2


def test_a_swapped_pivot_row_is_caught():
    """Q_2 with one pivot row swapped for a non-pivot row that leaves A_2 a
    kernel over-reports H^2, and the cross-check against ker D_2 names the degree."""
    h = get_algebra("group:Z3")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    cx = build_complex(b, "dual", 3)
    assert cohomology(cx, 2).dim == 0
    q_2, dim = cx.reduction(1)
    d_2 = cx.boundary(2)
    assert image_rank(ref_drop_cols(d_2, q_2)) == d_2.cols - len(q_2)
    swaps = (
        q_2[:i] + (other,) + q_2[i + 1 :]
        for i in range(len(q_2))
        for other in range(d_2.cols)
        if other not in q_2
    )
    tampered = next(q for q in swaps if image_rank(ref_drop_cols(d_2, q)) < d_2.cols - len(q))
    fresh = build_complex(b, "dual", 3)
    assert fresh.once(("reduction", 1), lambda: (tampered, dim)) == fresh.reduction(1) == (tampered, dim)
    with pytest.raises(CertificateError, match="degree 2"):
        cohomology(fresh, 2)


def test_vanishing_tables_eliminate_no_full_boundary(monkeypatch):
    """function:S3's dual tables vanish in degrees 1 and 2, and no elimination
    there sees a whole D_n with n >= 1: each is eliminated as A_n, by
    kernel_basis_without of D_n and its nonempty Q_n."""
    seen, built = [], []
    kernel_basis, without, build = cochain.kernel_basis, cochain.kernel_basis_without, cochain.build_complex
    monkeypatch.setattr(cochain, "kernel_basis", lambda m: seen.append((m, ())) or kernel_basis(m))
    monkeypatch.setattr(cochain, "kernel_basis_without", lambda m, drop: seen.append((m, drop)) or without(m, drop))
    monkeypatch.setattr(cochain, "build_complex", lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    report = run(parse_input("algebra = function:S3\ntasks = axioms, cohomology:dual:0-2\n"))
    table = report["tasks"]["cohomology:dual:0-2"]
    assert table and all(degrees["1"] == degrees["2"] == 0 for degrees in table.values())
    assert built and len(seen) == 3 * len(built)
    boundaries = [d for cx in built for d in cx.boundaries[1:]]
    assert not any(not drop and m.cols == d.cols and m == d for m, drop in seen for d in boundaries)
    assert sorted(id(m) for m, drop in seen if drop) == sorted(map(id, boundaries))
