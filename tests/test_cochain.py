from collections import Counter
from fractions import Fraction

import pytest

from hopfcoh.amenability import find_invariant_mean
from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.cochain import (
    CochainComplex,
    Workspace,
    bar_boundary,
    bar_dual_coboundary,
    build_complex,
    codiagonal_contraction,
    cohomology,
    dual_coboundary,
    homotopy_from_codiagonal,
    homotopy_from_counit_dual,
    homotopy_from_counit_natural,
    homotopy_from_haar,
    identify_dual_with_bar,
    identify_dual_with_natural,
    natural_coboundary,
)
from hopfcoh.comodule import (
    Bicomodule,
    catalog_bicomodules,
    check_nondegenerate,
    check_nondegenerate_left,
    dual_bicomodule,
    one_sided,
    pair_graded_bicomodule,
    regular_left_coaction,
    regular_right_coaction,
    with_trivial_gamma,
)
from hopfcoh.hopf import function_algebra, haar_state
from hopfcoh.jobfile import JobSpec
from hopfcoh.linalg import (
    CertificateError,
    Matrix,
    SpanTracker,
    image_rank,
    kernel_basis,
    kron,
    tensor_permutation,
)
from hopfcoh.monoids import FiniteMonoid
from hopfcoh.records import Memo
from hopfcoh.report import run
from hopfcoh.scalars import I, ONE, Scalar
from hopfcoh.tasks import KINDS, for_verb
from reference import (
    order3_monoid_tables,
    ref_certify_homotopy,
    ref_contraction,
    ref_drop_cols,
    reference_bookkeeping,
    reference_kernel,
)


def unit_leg_bicomodule(h, x_dim):
    from hopfcoh.comodule import RightCoaction

    beta = RightCoaction(x_dim, h, kron(Matrix.identity(x_dim), h.unit_col))
    return with_trivial_gamma(beta)


# -- degree-0 coboundaries -------------------------------------------------


def test_natural_degree0_vanishes_on_unit_leg_with_trivial_gamma():
    b = unit_leg_bicomodule(get_algebra("function:Z3"), 2)
    assert natural_coboundary(b, 0).is_zero()


def test_natural_degree0_vanishes_on_cocommutative_regular():
    h = get_algebra("group:Z2")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    # comult(u_r) = u_r (x) u_r is flip-invariant, so beta - sigma gamma = 0
    assert natural_coboundary(b, 0).is_zero()


def test_dual_degree0_vanishes_on_unit_leg_with_trivial_gamma():
    b = unit_leg_bicomodule(get_algebra("group:Z3"), 2)
    assert dual_coboundary(b, 0).is_zero()


def test_identity_is_a_dual_one_cocycle_one_sided():
    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    d1 = dual_coboundary(b, 1)
    # vec of id: Hom(S, S) with the S-output index most significant
    id_vec = [Scalar(0)] * (h.dim * h.dim)
    for i in range(h.dim):
        id_vec[i * h.dim + i] = ONE
    assert not any(d1.apply(tuple(id_vec)))


def test_bar_degree1_is_commutator():
    h = get_algebra("group:Z2")
    b = pair_graded_bicomodule(h)
    from hopfcoh.comodule import module_from_coaction, module_from_left_coaction

    act_l = module_from_coaction(b.beta)
    act_r = module_from_left_coaction(b.gamma)
    swap = tensor_permutation([h.dim, b.space_dim], [1, 0])
    assert bar_boundary(b, 1) == act_l - act_r @ swap


# -- chain property ----------------------------------------------------------


def test_chain_property_enforced_by_constructor():
    h = get_algebra("group:Z3")
    b = pair_graded_bicomodule(h)
    for kind in ("natural", "dual", "bar"):
        cx = build_complex(b, kind, 3)
        for n in range(2):
            assert (cx.boundary(n + 1) @ cx.boundary(n)).is_zero()


# (D_0 rows, D_1 rows): D_1 D_0 is [[1]]; [[i]], zero in its real part; [[1/6], [0]]
# from denominators 2 and 3; and zero, a valid rational chain
CHAINS = {
    "real": ([[1], [0]], [[1, 0]]),
    "imaginary": ([[1], [1]], [[1, -1 + I]]),
    "sixth": ([[Fraction(1, 2)], [1]], [[Fraction(1, 3), 0], [1, Fraction(-1, 2)]]),
    "valid": ([[Fraction(1, 2)], [Fraction(1, 3)]], [[Fraction(2, 3), -1]]),
}


@pytest.mark.parametrize("case", CHAINS)
def test_complex_constructor_rejects_broken_chain(case):
    d0, d1 = (Matrix.from_rows(rows) for rows in CHAINS[case])
    degrees = (d0.cols, d0.rows, d1.rows)
    if case == "valid":
        assert CochainComplex("dual", degrees, (d0, d1)).boundary(1) == d1
        return
    with pytest.raises(ValueError, match="chain property fails at degree 0"):
        CochainComplex("dual", degrees, (d0, d1))


@pytest.mark.parametrize("delta", [1, I, Fraction(1, 3)], ids=["one", "imaginary", "third"])
def test_chain_check_catches_one_changed_entry_at_scale(delta):
    """function:S3 regular's dual D_2 (1296 x 216) with delta added at (r, k), k a
    row of D_1 whose least nonzero column is the largest: the broken row r of
    D_2 D_1 is delta D_1[k, :], zero in its low packed slots of 36."""
    b = catalog_bicomodules(get_algebra("function:S3"))[0].bicomodule
    cx = build_complex(b, "dual", 3)
    d0, d1, d2 = cx.boundaries
    assert (d2.rows, d2.cols, d1.cols) == (1296, 216, 36)
    lead = {}
    for r, c in d1.support:
        lead[r] = min(c, lead.get(r, c))
    k = max(lead, key=lead.get)
    assert lead[k] > 0
    broken = d2 + Matrix(d2.rows, d2.cols, {(7, k): delta})
    with pytest.raises(ValueError, match="chain property fails at degree 1"):
        CochainComplex("dual", cx.degrees, (d0, d1, broken))


def test_degree_cap_enforced():
    """The cap's one owner, the built complex, refuses a degree at or past it."""
    h = get_algebra("group:Z2")
    b = unit_leg_bicomodule(h, 1)
    for kind in ("natural", "dual", "bar"):
        with pytest.raises(ValueError, match="below the degree cap"):
            build_complex(b, kind, 3).boundary(3)
    ws = Workspace(h, 3)
    with pytest.raises(ValueError, match="below the degree cap"):
        identify_dual_with_bar(ws, b, ws.degree_cap)


# -- cohomology --------------------------------------------------------------


def test_all_zero_boundaries_give_full_cohomology():
    cx = CochainComplex("dual", (3, 4, 5), (Matrix.zero(4, 3), Matrix.zero(5, 4)))
    assert cohomology(cx, 0).dim == 3
    assert cohomology(cx, 1).dim == 4


def test_h0_dual_right_nondegenerate_is_zero():
    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 2)
    assert cohomology(cx, 0).dim == 0


def test_h1_dual_of_s3_pair_graded_is_zero():
    h = get_algebra("group:S3")
    b = pair_graded_bicomodule(h)
    cx = build_complex(b, "dual", 2)
    assert cohomology(cx, 1).dim == 0


def test_representatives_are_certified():
    # a complex with nonzero H^1: the one-sided regular comodule of the
    # left-zero function algebra (no counit, so nothing contracts it)
    h = get_algebra("function:leftzero2")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 3)
    res = cohomology(cx, 1)
    reps, preimages = reference_bookkeeping(cx, 1)
    assert res.dim > 0
    assert len(reps) == res.dim
    d1 = cx.boundary(1)
    d0 = cx.boundary(0)
    span = SpanTracker(cx.degrees[1])
    for j in range(d0.cols):
        span.add(d0.col(j))
    for v in reps:
        assert not any(d1.apply(v))  # certified cocycle
        assert not span.contains(v)  # certified non-coboundary
    for v, pre in preimages:
        assert not any(d1.apply(v))


def test_coboundary_preimages_reconstruct():
    h = get_algebra("group:Z3")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    cx = build_complex(b, "dual", 3)
    reps, preimages = reference_bookkeeping(cx, 1)
    d0 = cx.boundary(0)
    for v, pre in preimages:
        recon = d0.apply(pre[: d0.cols])
        rest = tuple(a - bb for a, bb in zip(v, recon))
        # the remainder must lie in the span of the representatives
        span = SpanTracker(cx.degrees[1])
        for r in reps:
            span.add(r)
        assert span.contains(rest)


SMALL_ALGEBRAS = [name for name in algebra_names() if get_algebra(name).dim <= 4]


@pytest.mark.parametrize("name", SMALL_ALGEBRAS)
def test_cohomology_matches_reference_eliminations(name):
    # H^n from kernels alone against the reference kernel, rank and
    # incremental-span eliminations, on every catalog bicomodule
    h = get_algebra(name)
    for entry in catalog_bicomodules(h):
        for kind in ("natural", "dual", "bar"):
            cx = build_complex(entry.bicomodule, kind, 3)
            for n in range(3):
                res = cohomology(cx, n)
                kernel = reference_kernel(cx.boundary(n))
                reps, preimages = reference_bookkeeping(cx, n)
                assert kernel_basis(cx.boundary(n)) == kernel
                assert res.dim_kernel == len(kernel)
                span = SpanTracker(cx.degrees[n])
                rank_prev = 0
                if n:
                    prev = cx.boundary(n - 1)
                    rank_prev = image_rank(prev)
                    for j in range(prev.cols):
                        span.add(prev.col(j))
                assert res.dim == len(kernel) - rank_prev == len(reps)
                assert res.dim_image_prev == rank_prev
                # each representative enlarges the span of Im D_{n-1} and the
                # earlier representatives: the greedy choice over the kernel basis
                assert all(span.add(v) for v in reps)
                assert all(span.contains(v) for v in kernel)
                reps_span = SpanTracker(cx.degrees[n])
                for v in reps:
                    reps_span.add(v)
                assert len(reps) + len(preimages) == len(kernel)
                for v, pre in preimages:
                    rest = tuple(a - b for a, b in zip(v, prev.apply(pre)))
                    assert reps_span.contains(rest)


def _watch_eliminations(monkeypatch, cochain) -> list:
    """Spy on both of cochain's entry points into the one elimination; returns the
    list of their calls, each (matrix, dropped columns), () for kernel_basis."""
    seen, kernel_basis, without = [], cochain.kernel_basis, cochain.kernel_basis_without
    monkeypatch.setattr(cochain, "kernel_basis", lambda m: seen.append((m, ())) or kernel_basis(m))
    monkeypatch.setattr(cochain, "kernel_basis_without", lambda m, drop: seen.append((m, drop)) or without(m, drop))
    return seen


def test_cohomology_eliminates_each_boundary_once(monkeypatch):
    """Each boundary D_n is eliminated once, as A_n: D_n without the columns
    Q_n, the rows of D_{n-1}'s pivots, all distinct columns of D_n.  Only a
    nonzero H^n with Q_n nonempty also eliminates the full D_n, for its
    cross-check."""
    from hopfcoh import cochain, linalg

    seen = _watch_eliminations(monkeypatch, cochain)
    monkeypatch.setattr(linalg, "rref", lambda m: pytest.fail("cohomology called rref"))
    assert not hasattr(cochain, "rref")
    ws = Workspace(get_algebra("group:Z2"), 3)
    expected = []
    for _, b in ws.bicomodules():
        for kind in ("natural", "dual", "bar"):
            cx = ws.complex_of(b, kind)
            for n in range(3):
                q_n = cx.reduction(n - 1)[0] if n else ()
                expected.append((cx.boundary(n), q_n))
                a_n = ref_drop_cols(cx.boundary(n), q_n)
                assert a_n.rows == cx.degrees[n + 1] and a_n.cols == cx.degrees[n] - len(q_n)
                assert len(set(q_n)) == len(q_n) and set(q_n) <= set(range(cx.degrees[n]))
                if q_n and ws.cohomology_of(b, kind, n).dim:
                    expected.append((cx.boundary(n), ()))
    assert len(expected) >= len(ws.bicomodules()) * 3 * 3
    assert Counter(seen) == Counter(expected)


def test_reduction_eliminates_the_boundary_itself_when_q_n_is_empty(monkeypatch):
    """Q_0 is empty, so A_0 is D_0 itself: reduction hands kernel_basis the
    boundary object, not a copy, and hands kernel_basis_without D_1 itself
    with the columns Q_1 to skip."""
    from hopfcoh import cochain

    seen = _watch_eliminations(monkeypatch, cochain)
    cx = build_complex(pair_graded_bicomodule(get_algebra("group:S3")), "dual", 2)
    cx.reduction(1)
    q_1 = cx.reduction(0)[0]
    assert q_1 and len(seen) == 2
    assert seen[0][0] is cx.boundary(0) and seen[0][1] == ()
    assert seen[1][0] is cx.boundary(1) and seen[1][1] == q_1


def test_cohomology_runs_no_cross_check_when_q_n_is_empty(monkeypatch):
    """With rank D_{n-1} = 0, A_n is D_n and the cross-check would repeat
    the reduction: on the order-3 table 0 1 2 / 1 2 2 / 2 2 2, the regular
    H^1 = 1 sits over D_0 = 0, so the table makes 6 eliminations, not 7."""
    from hopfcoh import cochain
    from hopfcoh.jobfile import CayleySpec

    calls = _watch_eliminations(monkeypatch, cochain)
    cayley = CayleySpec(identity=0, table=((0, 1, 2), (1, 2, 2), (2, 2, 2)))
    job = JobSpec(algebra="inline-function", tasks=("cohomology:dual:0-1",), degree_cap=2, cayley=cayley)
    table = run(job)["tasks"]["cohomology:dual:0-1"]
    assert table["regular"] == {"0": 3, "1": 1}
    assert len(calls) == 6


def _counted(counts, kind, builder):
    """builder(b, n), counting each call under (kind, id(b), n)."""

    def wrapper(b, n):
        counts[kind, id(b), n] += 1
        return builder(b, n)

    return wrapper


def test_workspace_builds_each_complex_once(monkeypatch):
    from hopfcoh import cochain

    built, calls = [], Counter()
    original = cochain.build_complex

    def counting(b, kind, *args):
        built.append(kind)
        return original(b, kind, *args)

    monkeypatch.setattr(cochain, "build_complex", counting)
    monkeypatch.setattr(cochain, "_natural_faces", _counted(calls, "natural", cochain._natural_faces))
    h = get_algebra("group:Z2")
    ws = Workspace(h, 3)
    for _, b in ws.bicomodules():
        for n in range(3):
            assert identify_dual_with_natural(ws, b, n).holds
            assert identify_dual_with_bar(ws, b, n).holds
            assert ws.cohomology_of(b, "dual", n) is ws.cohomology_of(b, "dual", n)
    # per bicomodule: one dual complex; check-C10 reads the natural faces once
    # per degree on the dual bicomodule and builds no natural complex, and the bar
    # side of identify_dual_with_bar is a boundary compared alone
    assert sorted(built) == ["dual"] * len(ws.bicomodules())
    assert set(calls) == {("natural", id(dual_bicomodule(b)), n) for _, b in ws.bicomodules() for n in range(3)}
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("kind", ["dual", "natural", "bar"])
def test_a_bicomodule_owns_its_boundaries_and_its_dual(kind):
    """Two complexes of one bicomodule, at caps 2 and 3, hold the same D_0 and D_1; its dual is built once."""
    h = get_algebra("function:S3")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    two, three = build_complex(b, kind, 2), build_complex(b, kind, 3)
    assert two is not three and all(two.boundary(n) is three.boundary(n) for n in range(2))
    assert dual_bicomodule(b) is dual_bicomodule(b)


def test_a_complex_owns_its_cohomology():
    """H^n is reduced once per complex: a second complex of the same bicomodule has its own."""
    h = get_algebra("group:S3")
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    cx, other = build_complex(b, "dual", 3), build_complex(b, "dual", 3)
    for n in range(3):
        assert cohomology(cx, n) is cohomology(cx, n)
        assert cohomology(other, n) == cohomology(cx, n) and cohomology(other, n) is not cohomology(cx, n)


def test_the_workspace_holds_only_restrictions_and_complexes(monkeypatch):
    """Every per-bicomodule entry of a job's workspace is a restriction or a complex: the
    boundaries, the dual bicomodule, H^n and check-C10's squares live on their owners."""
    keys, once_for = set(), Memo.once_for

    def recording(memo, obj, key, make):
        if isinstance(memo, Workspace):
            keys.add(key)
        return once_for(memo, obj, key, make)

    monkeypatch.setattr(Memo, "once_for", recording)
    assert run(JobSpec(algebra="group:Z2", tasks=for_verb("report", kinds=KINDS), degree_cap=3))["consistent"]
    assert keys == {"restricted", ("complex", "dual"), ("complex", "natural"), ("complex", "bar")}


@pytest.mark.parametrize("tasks", [("cohomology:bar:0-2", "check-C15"), ("check-C15", "cohomology:bar:0-2")])
def test_each_bar_boundary_built_once_per_job(monkeypatch, tasks):
    """The bar table's complex and check-C15 read one boundary per (bicomodule,
    degree), whichever task runs first."""
    from hopfcoh import cochain

    calls = Counter()
    counting = _counted(calls, "bar", bar_dual_coboundary)
    monkeypatch.setattr(cochain, "bar_dual_coboundary", counting)
    monkeypatch.setitem(cochain._BUILDERS, "bar", counting)
    report = run(JobSpec(algebra="group:Z2", tasks=tasks, degree_cap=3))
    assert report["consistent"] is True
    names = report["tasks"]["cohomology:bar:0-2"]
    assert len(calls) == 3 * len(names) and set(calls.values()) == {1}


def _tampered(builder, degree):
    """builder with one entry of its degree-`degree` boundary changed."""

    def wrapper(b, n):
        d = builder(b, n)
        return d + Matrix(d.rows, d.cols, {(0, 0): ONE}) if n == degree else d

    return wrapper


def _tampered_faces(faces_of, degree):
    """faces_of with a face adding 1 at entry (0, 0) of its degree-`degree` boundary."""

    def wrapper(b, n):
        faces = faces_of(b, n)
        _, p, m, q, *_ = faces[0]
        extra = (1, 1, Matrix(p * m.rows * q, p * m.cols * q, {(0, 0): ONE}), 1, None, None)
        return faces + [extra] if n == degree else faces

    return wrapper


def test_check_c10_fails_in_the_tampered_degree_only(monkeypatch):
    """H^n is transported only when the squares of degrees n-1 and n both
    commute, so degree 2 keeps its square but not its H-dims; each degree's
    natural faces are still read once."""
    from hopfcoh import cochain

    calls = Counter()
    tampered = _tampered_faces(cochain._natural_faces, 1)
    monkeypatch.setattr(cochain, "_natural_faces", _counted(calls, "natural", tampered))
    report = run(JobSpec(algebra="group:Z2", tasks=("check-C10",), degree_cap=3))
    assert report["consistent"] is False and report["tasks"]["check-C10"]["passed"] is False
    for per in report["tasks"]["check-C10"]["results"].values():
        assert per["0"] == {"holds": True, "detail": "sign identity and H-dims agree"}
        assert per["1"] == {"holds": False, "detail": "sign identity fails entrywise"}
        assert per["2"] == {"holds": True, "detail": "sign identity holds; H-dims not transported: degree 1 fails"}
    assert len(calls) == 3 * len(report["tasks"]["check-C10"]["results"]) and set(calls.values()) == {1}


@pytest.mark.parametrize("name", ["function:S3", "kp8"])
def test_check_c10_moves_no_boundary_sized_matrix(monkeypatch, name):
    """check-C10's squares move the natural faces by leg_map lists inside face_sum:
    no Matrix.reindex, scale or transpose runs on, or returns, a matrix of a
    boundary's shape (x s^{n+1}) x (x s^n)."""
    ws = Workspace(get_algebra(name), 3)
    bics = [b for _, b in ws.bicomodules()]
    for b in bics:  # the dual bicomodules and the dual complexes are built before the guard
        dual_bicomodule(b)
        ws.complex_of(b, "dual")
    s = ws.hopf.dim
    shapes = {(b.space_dim * s ** (n + 1), b.space_dim * s**n) for b in bics for n in range(3)}
    moved = []
    for method in ("reindex", "scale", "transpose"):
        original = getattr(Matrix, method)

        def guarded(self, *args, _original=original, _method=method):
            out = _original(self, *args)
            if {(self.rows, self.cols), (out.rows, out.cols)} & shapes:
                moved.append((_method, self.rows, self.cols))
            return out

        monkeypatch.setattr(Matrix, method, guarded)
    for b in bics:
        for n in range(3):
            assert identify_dual_with_natural(ws, b, n).holds
    assert moved == []


def test_check_c15_fails_in_the_tampered_degree_only(monkeypatch):
    from hopfcoh import cochain

    tampered = _tampered(bar_dual_coboundary, 2)
    # the workspace builds each kind's boundaries through _BUILDERS
    monkeypatch.setattr(cochain, "bar_dual_coboundary", tampered)
    monkeypatch.setitem(cochain._BUILDERS, "bar", tampered)
    report = run(JobSpec(algebra="function:Z2", tasks=("check-C15",), degree_cap=3))
    assert report["consistent"] is False and report["tasks"]["check-C15"]["passed"] is False
    for per in report["tasks"]["check-C15"]["results"].values():
        assert per["2"] == {"holds": False, "detail": "matrices differ"}
        assert per["0"] == per["1"] == {"holds": True, "detail": "matrices bit-identical"}


def test_check_c10_eliminates_nothing(monkeypatch):
    """check-C10 alone builds each dual complex, chain-checked, and no natural
    complex, and calls kernel_basis and kernel_basis_without nowhere."""
    import hopfcoh
    from hopfcoh import cochain, linalg

    built = []
    original = cochain.build_complex
    monkeypatch.setattr(cochain, "build_complex", lambda b, kind, *a: built.append(kind) or original(b, kind, *a))
    kernel_basis, without = linalg.kernel_basis, linalg.kernel_basis_without
    for name in dir(hopfcoh):
        module = getattr(hopfcoh, name)
        if getattr(module, "kernel_basis", None) is kernel_basis:
            monkeypatch.setattr(module, "kernel_basis", lambda m: pytest.fail("kernel_basis ran"))
        if getattr(module, "kernel_basis_without", None) is without:
            monkeypatch.setattr(module, "kernel_basis_without", lambda m, drop: pytest.fail("kernel_basis_without ran"))
    report = run(JobSpec(algebra="function:S3", tasks=("check-C10",), degree_cap=3))
    assert report["consistent"] is True
    assert built and set(built) == {"dual"}


def conjugacy_class_count(g):
    """Independent oracle from the Cayley table alone."""
    seen = set()
    classes = 0
    for x in range(g.order):
        if x in seen:
            continue
        classes += 1
        for t in range(g.order):
            seen.add(g.mul(g.mul(t, x), g.inv(t)))
    return classes


def test_h0_dual_of_regular_is_centre_of_dual_algebra():
    # pairing with any g gives (f.g - g.f)(x), so Ker d_0 is the centre of
    # the dual algebra: all of it for group algebras (dual commutative),
    # the class functions for function algebras of groups
    from hopfcoh.catalog import get_group

    for gname in ("Z2", "Z3", "Z2xZ2", "S3"):
        g = get_group(gname)
        grp = get_algebra(f"group:{gname}")
        fun = get_algebra(f"function:{gname}")
        for h, want in ((grp, g.order), (fun, conjugacy_class_count(g))):
            b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
            got = cohomology(build_complex(b, "dual", 1), 0).dim
            assert got == want, (h.labels, got, want)


# -- identifications ---------------------------------------------------------


@pytest.mark.parametrize("name", ["group:Z2", "group:Z3", "function:Z2"])
def test_dual_vs_natural_on_dual_bicomodule(name):
    h = get_algebra(name)
    b = Bicomodule(regular_right_coaction(h), regular_left_coaction(h))
    for n in range(3):
        assert identify_dual_with_natural(Workspace(h, 3), b, n).holds


def test_dual_vs_bar_bit_identical():
    for name in ("group:Z3", "function:Z2"):
        h = get_algebra(name)
        for b in (
            Bicomodule(regular_right_coaction(h), regular_left_coaction(h)),
            with_trivial_gamma(regular_right_coaction(h)),
        ):
            for n in range(3):
                assert identify_dual_with_bar(Workspace(h, 3), b, n).holds
                assert dual_coboundary(b, n) == bar_dual_coboundary(b, n)


def test_restricted_complexes_reuse_the_dual_ones(monkeypatch):
    from hopfcoh import cochain

    h = get_algebra("function:Z2")
    ws = Workspace(h, 3)
    for _, b in ws.bicomodules():
        for n in range(3):
            ws.cohomology_of(b, "dual", n)
    built = []
    original = cochain.build_complex
    monkeypatch.setattr(cochain, "build_complex", lambda *a, **k: built.append(a) or original(*a, **k))
    restricted = {
        (name, n): ws.cohomology_of(b, "restricted", n) for name, b in ws.bicomodules() for n in range(3)
    }
    assert built == []
    monkeypatch.undo()
    for name, b in ws.bicomodules():
        fresh = build_complex(with_trivial_gamma(b.beta), "restricted", 3)
        for n in range(3):
            assert restricted[(name, n)] == cohomology(fresh, n), (name, n)


# -- homotopies --------------------------------------------------------------


def _assert_contracts(cx, n, k_n, k_next):
    """D_{n-1} K_n + K_{n+1} D_n = id on C^n by plain products, and so
    D_{n-1}(K_n z) = z for every n-cocycle z."""
    assert cx.boundary(n - 1) @ k_n + k_next @ cx.boundary(n) == Matrix.identity(cx.degrees[n])
    for t in kernel_basis(cx.boundary(n)):
        assert cx.boundary(n - 1).apply(k_n.apply(t)) == t


def test_counit_homotopy_dual_group_z3():
    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 3)
    k = {m: ref_contraction(b, "dual", h.counit_row, m, (-1) ** (m - 1)) for m in (1, 2, 3)}
    for n in (1, 2):
        assert homotopy_from_counit_dual(b, n, cx=cx) == k[n + 1]
        _assert_contracts(cx, n, k[n], k[n + 1])


def test_counit_homotopy_natural_certifies():
    h = get_algebra("function:Z2")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "natural", 3)
    k = {m: ref_contraction(b, "natural", h.counit_row, m, (-1) ** (m - 1)) for m in (1, 2, 3)}
    for n in (1, 2):
        assert homotopy_from_counit_natural(b, n, cx=cx) == k[n + 1]
        _assert_contracts(cx, n, k[n], k[n + 1])


def test_haar_homotopy_function_z2():
    h = get_algebra("function:Z2")
    b = with_trivial_gamma(regular_right_coaction(h))
    phi = haar_state(h).state
    cx = build_complex(b, "dual", 3)
    k = {m: ref_contraction(b, "dual", Matrix.row(phi), m, (-1) ** m) for m in (1, 2, 3)}
    for n in (1, 2):
        assert homotopy_from_haar(b, n, phi, cx=cx) == k[n + 1]
        _assert_contracts(cx, n, k[n], k[n + 1])


def test_haar_homotopy_rejects_the_negated_state():
    h = get_algebra("function:Z2")
    b = with_trivial_gamma(regular_right_coaction(h))
    minus_phi = tuple(-v for v in haar_state(h).state)
    cx = build_complex(b, "dual", 3)
    for n in (1, 2):
        assert kernel_basis(cx.boundary(n))
        # the contraction of -phi is the negated one, D K + K D = -id, and no sign is forgiven
        message = f"^invariant-state homotopy fails D K \\+ K D = id in degree {n}$"
        with pytest.raises(CertificateError, match=message) as err:
            homotopy_from_haar(b, n, minus_phi, cx=cx)
        assert (err.value.degree, err.value.column) == (n, 0)


def test_codiagonal_homotopy_pair_graded_z2():
    from hopfcoh.amenability import kronecker_codiagonal
    from hopfcoh.catalog import get_group

    h = get_algebra("group:Z2")
    b = pair_graded_bicomodule(h)
    f = kronecker_codiagonal(get_group("Z2")).certificate.functional
    cx = build_complex(b, "dual", 3)
    for n in (1, 2):
        for side in ("beta", "gamma"):
            homotopy_from_codiagonal(b, n, f, side, cx=cx)
    for n, side in ((0, "beta"), (3, "beta"), (1, "delta")):  # no K_0, no D_3, no such side
        with pytest.raises(ValueError):
            homotopy_from_codiagonal(b, n, f, side, cx=cx)


def test_zero_functional_is_no_codiagonal():
    h = get_algebra("group:Z2")
    b = pair_graded_bicomodule(h)
    cx = build_complex(b, "dual", 2)
    with pytest.raises(CertificateError, match="in degree 1"):
        homotopy_from_codiagonal(b, 1, (Scalar(0),) * (h.dim * h.dim), cx=cx)


def _least_failing_column(m: Matrix) -> int:
    return min(c for _, c in m.support)


def _plus_one_at(m: Matrix, cell) -> Matrix:
    return m + Matrix(m.rows, m.cols, {cell: ONE})


@pytest.mark.parametrize("n", [1, 2])
def test_a_corrupted_next_contraction_is_named_by_degree_and_column(monkeypatch, n):
    """One entry added to K_{n+1}, on a row of D_n that is not zero: the
    certificate names degree n and the least column where D K + K D - id is
    nonzero, as the plain sum of the built products finds it."""
    from hopfcoh import cochain
    from hopfcoh.amenability import find_codiagonal

    h = get_algebra("group:Z3")
    b, f = pair_graded_bicomodule(h), find_codiagonal(h).certificate.functional
    cx = build_complex(b, "dual", 3)
    row = min(r for r, _ in cx.boundary(n).support)
    original = cochain.codiagonal_contraction

    def tampered(b, m, f, side):
        k = original(b, m, f, side)
        return _plus_one_at(k, (k.rows - 1, row)) if m == n + 1 else k

    k_n, k_next = original(b, n, f, "beta"), tampered(b, n + 1, f, "beta")
    lhs = cx.boundary(n - 1) @ k_n + k_next @ cx.boundary(n)
    monkeypatch.setattr(cochain, "codiagonal_contraction", tampered)
    with pytest.raises(CertificateError, match=f"^codiagonal homotopy fails D K \\+ K D = id in degree {n}$") as err:
        homotopy_from_codiagonal(b, n, f, "beta", cx=cx)
    assert (err.value.degree, err.value.column) == (n, _least_failing_column(lhs - Matrix.identity(cx.degrees[n])))


@pytest.mark.parametrize("n", [1, 2])
def test_a_corrupted_primitive_is_named_by_degree_and_column(monkeypatch, n):
    """One entry added to the counit contraction K_n, in a column where an
    n-cocycle is nonzero and on a row where D_{n-1} is not zero, corrupts that
    cocycle's primitive K_n z; the certificate names degree n and the least
    column where D K + K D - id is nonzero, as the plain products find it."""
    from hopfcoh import cochain

    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 3)
    z = Matrix.from_cols(kernel_basis(cx.boundary(n)), rows=cx.degrees[n])
    source = min(r for r, c in z.support if c == z.cols - 1)  # a coordinate where the last cocycle is nonzero
    target = min(c for _, c in cx.boundary(n - 1).support)  # D_{n-1} is nonzero on this coordinate
    original = cochain._post_compose

    def tampered(functional, x, s, m, sign):
        k = original(functional, x, s, m, sign)
        return _plus_one_at(k, (target, source)) if m == n else k

    monkeypatch.setattr(cochain, "_post_compose", tampered)
    k_n, k_next = (tampered(h.counit_row, b.space_dim, h.dim, m, (-1) ** (m - 1)) for m in (n, n + 1))
    lhs = cx.boundary(n - 1) @ k_n + k_next @ cx.boundary(n)
    assert cx.boundary(n - 1) @ k_n @ z != z
    with pytest.raises(CertificateError, match=f"^counit homotopy fails D K \\+ K D = id in degree {n}$") as err:
        homotopy_from_counit_dual(b, n, cx=cx)
    assert (err.value.degree, err.value.column) == (n, _least_failing_column(lhs - Matrix.identity(cx.degrees[n])))


def _codiagonal_primitive_reference(b, n, t_vec, f, side):
    """The per-vector formula (id^{n-1} (x) F)(T (x) id) beta, or (F (x) id^{n-1})(id (x) T) gamma."""
    x, s = b.space_dim, b.hopf.dim
    t_mat = Matrix(s**n, x, {divmod(i, x): v for i, v in enumerate(t_vec) if v})
    f_row = Matrix.row(f)
    if side == "beta":
        lifted = kron(t_mat, Matrix.identity(s)) @ b.beta.beta
        prim = kron(Matrix.identity(s ** (n - 1)), f_row) @ lifted
    else:
        lifted = kron(Matrix.identity(s), t_mat) @ b.gamma.gamma
        prim = (kron(f_row, Matrix.identity(s ** (n - 1))) @ lifted).scale((-1) ** n)
    out = [Scalar(0)] * (prim.rows * x)
    for (w, j), v in prim.entries.items():
        out[w * x + j] = v
    return tuple(out)


def test_codiagonal_operator_matches_per_vector_formula():
    from hopfcoh.amenability import find_codiagonal

    h = get_algebra("group:Z2xZ2")
    f = find_codiagonal(h).certificate.functional
    # the operator identity holds for any functional; an asymmetric one tells the two legs of F apart
    skew = tuple(Scalar(i + 1) for i in range(h.dim * h.dim))
    certified = 0
    for entry in catalog_bicomodules(h):
        b = entry.bicomodule
        cx = build_complex(b, "dual", 3)
        sides = ("beta", check_nondegenerate(b.beta)), ("gamma", check_nondegenerate_left(b.gamma))
        for side, nondegenerate in sides:
            for n in (1, 2):
                cocycles = kernel_basis(cx.boundary(n))
                for g in (f, skew):
                    k_n = codiagonal_contraction(b, n, g, side)
                    assert [k_n.apply(t) for t in cocycles] == [
                        _codiagonal_primitive_reference(b, n, t, g, side) for t in cocycles
                    ], (entry.name, side, n)
                if any(nondegenerate):
                    homotopy_from_codiagonal(b, n, f, side, cx=cx)
                    expected = [_codiagonal_primitive_reference(b, n, t, f, side) for t in cocycles]
                    assert [cx.boundary(n - 1).apply(p) for p in expected] == cocycles, (entry.name, side, n)
                    certified += len(cocycles)
    assert certified > 0


NO_CODIAGONAL = ("function:leftzero2", "function:rzid3")  # no counit; a counit but no codiagonal


def test_catalog_algebras_without_a_codiagonal():
    from hopfcoh.amenability import find_codiagonal

    assert get_algebra("function:leftzero2").counit is None
    assert find_codiagonal(get_algebra("function:rzid3")).certificate is None


@pytest.mark.parametrize("name", [n for n in algebra_names() if n not in NO_CODIAGONAL])
def test_codiagonal_contraction_is_a_chain_homotopy(name):
    """D_{n-1} K_n + K_{n+1} D_n = id on C^n, n = 1..cap-1, on every catalog
    bicomodule and each of its non-degenerate sides."""
    from hopfcoh.amenability import find_codiagonal

    h = get_algebra(name)
    f = find_codiagonal(h).certificate.functional
    cap, checked = 3, 0
    for entry in catalog_bicomodules(h):
        b = entry.bicomodule
        cx = build_complex(b, "dual", cap)
        sides = ("beta", check_nondegenerate(b.beta)), ("gamma", check_nondegenerate_left(b.gamma))
        for side, nondegenerate in sides:
            if not any(nondegenerate):
                continue
            k = {m: codiagonal_contraction(b, m, f, side) for m in range(1, cap + 1)}
            for n in range(1, cap):
                lhs = cx.boundary(n - 1) @ k[n] + k[n + 1] @ cx.boundary(n)
                assert lhs == Matrix.identity(cx.degrees[n]), (entry.name, side, n)
                checked += 1
    assert checked or name in ("function:trivial", "group:trivial")


def _assert_mean_contracts(h, cap=3):
    """The contraction of h's invariant mean on the restricted complex of every
    catalog entry: certified in degrees 1 to cap-1, and equal to the kron-built
    one, which satisfies D K + K D = id by plain products."""
    phi = tuple(Scalar(w) for w in find_invariant_mean(h.monoid).certificate.weights)
    for entry in catalog_bicomodules(h):
        b = with_trivial_gamma(entry.bicomodule.beta)
        cx = build_complex(b, "restricted", cap)
        k = {m: ref_contraction(b, "dual", Matrix.row(phi), m, (-1) ** m) for m in range(1, cap + 1)}
        for n in range(1, cap):
            assert homotopy_from_haar(b, n, phi, cx=cx) == k[n + 1], (entry.name, n)
            _assert_contracts(cx, n, k[n], k[n + 1])


@pytest.mark.parametrize("name", [n for n in algebra_names() if n.startswith("function:") and n != "function:rzid3"])
def test_mean_contraction_certifies_on_every_restricted_catalog_complex(name):
    h = get_algebra(name)
    assert find_invariant_mean(h.monoid).feasible  # rzid3 is the catalog's only function algebra with no mean
    _assert_mean_contracts(h)


def test_mean_contraction_certifies_on_the_order3_monoids():
    with_mean = 0
    for table in order3_monoid_tables():
        h = function_algebra(FiniteMonoid(order=3, table=[list(r) for r in table], identity=0))
        if find_invariant_mean(h.monoid).feasible:
            _assert_mean_contracts(h)
            with_mean += 1
    assert with_mean == len(order3_monoid_tables()) - 1  # all but the right-zero table with identity


def test_every_homotopy_reaches_the_one_certifier(monkeypatch):
    from hopfcoh import cochain
    from hopfcoh.amenability import find_codiagonal

    calls = []  # (label, complex, degree, returned K_{n+1}) per certification
    original = cochain._certify_contraction

    def spy(cx, n, what, contraction, k_n=None):
        k_next = original(cx, n, what, contraction, k_n)
        calls.append((what, cx, n, k_next))
        return k_next

    monkeypatch.setattr(cochain, "_certify_contraction", spy)
    h = get_algebra("group:Z2")
    coaction = regular_right_coaction(h)
    counit_side, haar_side = one_sided(coaction), with_trivial_gamma(coaction)
    f = find_codiagonal(h).certificate.functional
    homotopies = (
        ("counit", homotopy_from_counit_dual, counit_side, "dual", ()),
        ("counit", homotopy_from_counit_natural, counit_side, "natural", ()),
        ("invariant-state", homotopy_from_haar, haar_side, "dual", (haar_state(h).state,)),
        ("codiagonal", homotopy_from_codiagonal, pair_graded_bicomodule(h), "dual", (f,)),
    )
    for what, homotopy, b, kind, args in homotopies:
        cx = build_complex(b, kind, 3)
        for n in (1, 2):
            calls.clear()
            k_next = homotopy(b, n, *args, cx=cx)
            assert calls == [(what, cx, n, k_next)], (homotopy.__name__, n)


@pytest.mark.parametrize("name", algebra_names())
def test_signed_reference_certificates_have_sign_plus_one(name, monkeypatch):
    """The signed column-by-column certificate, on every contraction the catalog
    certifies, finds sign +1 and the columns of the primitives K_n Z."""
    from hopfcoh import cochain
    from hopfcoh.amenability import check_mean_vs_cohomology, find_codiagonal
    from hopfcoh.comodule import catalog_right_comodules

    pairs = []  # (K_n Z, the signed reference's (primitive, sign) per column)
    original = cochain._certify_contraction

    def both(cx, n, what, contraction, k_n=None):
        k_next = original(cx, n, what, contraction, k_n)
        k_n = contraction(n) if k_n is None else k_n
        cocycles = kernel_basis(cx.boundary(n))
        pairs.append((k_n @ Matrix.from_cols(cocycles, rows=cx.degrees[n]), ref_certify_homotopy(cx, n, cocycles, k_n)))
        return k_next

    monkeypatch.setattr(cochain, "_certify_contraction", both)
    h = get_algebra(name)
    ws = Workspace(h, 3)
    phi = haar_state(h).state
    for _, coaction in catalog_right_comodules(h):
        counit_side, haar_side = one_sided(coaction), with_trivial_gamma(coaction)
        for n in (1, 2):
            if h.counit is not None:
                for kind, homotopy in (("dual", homotopy_from_counit_dual), ("natural", homotopy_from_counit_natural)):
                    homotopy(counit_side, n, cx=ws.complex_of(counit_side, kind))
            if phi is not None:
                homotopy_from_haar(haar_side, n, phi, cx=ws.complex_of(haar_side, "dual"))
    if h.kind == "function" and h.monoid.has_identity:
        check_mean_vs_cohomology(ws)  # the mean's contraction, where a mean exists
    if name not in NO_CODIAGONAL:
        f = find_codiagonal(h).certificate.functional
        for entry in ws.catalog:
            b = entry.bicomodule
            sides = ("beta", check_nondegenerate(b.beta)), ("gamma", check_nondegenerate_left(b.gamma))
            for side, nondegenerate in sides:
                if any(nondegenerate):
                    for n in (1, 2):
                        homotopy_from_codiagonal(b, n, f, side, cx=ws.complex_of(b, "dual"))
    assert pairs
    for prims, signed in pairs:
        assert [sign for _, sign in signed] == [1] * prims.cols
        assert [p for p, _ in signed] == [prims.col(j) for j in range(prims.cols)]


@pytest.mark.parametrize("name", ["group:Z3", "function:S3", "kp8"])
def test_a_job_moves_each_bicomodules_coactions_once(name, monkeypatch):
    """A cap-3 job enters the dual and bar builders once per degree, and the codiagonal
    contraction once per degree, functional and side; every leg move made inside them
    (Matrix.reindex, told apart by its key's code) and dual_algebra_mult run once per
    bicomodule, functional and side: what does not depend on the degree is built once."""
    from hopfcoh import cochain
    from hopfcoh.jobfile import parse_input

    entered, made, inside = Counter(), Counter(), []

    def entering(builder):
        def wrapped(b, n, *args):
            key = (builder.__name__, id(b), *args)
            entered[key] += 1
            inside.append(key)
            try:
                return builder(b, n, *args)
            finally:
                inside.pop()

        return wrapped

    def counted(original, what):
        def wrapped(*args):
            if inside:
                made[inside[-1], what(*args)] += 1
            return original(*args)

        return wrapped

    for builder in ("dual_coboundary", "bar_boundary", "codiagonal_contraction"):
        monkeypatch.setattr(cochain, builder, entering(getattr(cochain, builder)))
    monkeypatch.setitem(cochain._BUILDERS, "dual", cochain.dual_coboundary)
    monkeypatch.setattr(Matrix, "reindex", counted(Matrix.reindex, lambda m, rows, cols, key: key.__code__))
    monkeypatch.setattr(cochain, "dual_algebra_mult", counted(cochain.dual_algebra_mult, lambda h: "mult"))
    tasks = "cohomology:dual:0-2, cohomology:bar:1-2, check-B20, check-C15"
    assert run(parse_input(f"algebra = {name}\ndegree-cap = 3\ntasks = {tasks}\n"))["consistent"]
    assert {key[0] for key in entered} == {"dual_coboundary", "bar_boundary", "codiagonal_contraction"}
    assert min(entered.values()) == 3, entered
    assert {what for _, what in made} > {"mult"} and set(made.values()) == {1}, made
