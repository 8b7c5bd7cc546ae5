from fractions import Fraction

import pytest

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
    one_sided,
    pair_graded_bicomodule,
    regular_left_coaction,
    regular_right_coaction,
    with_trivial_gamma,
)
from hopfcoh.hopf import haar_state
from hopfcoh.linalg import (
    CertificateError,
    Matrix,
    SpanTracker,
    image_rank,
    kernel_basis,
    kron,
    tensor_permutation,
    unit_vec,
)
from hopfcoh.scalars import I, ONE, Scalar
from reference import ref_certify_homotopy, reference_bookkeeping, reference_kernel


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


def test_degree_cap_enforced():
    h = get_algebra("group:Z2")
    b = unit_leg_bicomodule(h, 1)
    with pytest.raises(ValueError):
        natural_coboundary(b, 3, degree_cap=3)
    with pytest.raises(ValueError):
        dual_coboundary(b, 5, degree_cap=3)


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
                assert res.kernel == tuple(kernel)
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


def test_cohomology_eliminates_each_boundary_once(monkeypatch):
    from hopfcoh import cochain, linalg

    seen = []
    original = cochain.kernel_basis
    monkeypatch.setattr(cochain, "kernel_basis", lambda m: seen.append(id(m)) or original(m))
    monkeypatch.setattr(linalg, "rref", lambda m: pytest.fail("cohomology called rref"))
    assert not hasattr(cochain, "rref")
    ws = Workspace(get_algebra("group:Z2"), 3)
    boundaries = []
    for _, b in ws.bicomodules():
        for kind in ("natural", "dual", "bar"):
            for n in range(3):
                ws.cohomology_of(b, kind, n)
            boundaries += ws.complex_of(b, kind).boundaries
    assert len(boundaries) == len(ws.bicomodules()) * 3 * 3
    assert sorted(seen) == sorted(id(d) for d in boundaries)


def test_workspace_builds_each_complex_once(monkeypatch):
    from hopfcoh import cochain

    built = []
    original = cochain.build_complex

    def counting(b, kind, degree_cap=3):
        built.append(kind)
        return original(b, kind, degree_cap)

    monkeypatch.setattr(cochain, "build_complex", counting)
    h = get_algebra("group:Z2")
    ws = Workspace(h, 3)
    for _, b in ws.bicomodules():
        for n in range(3):
            assert identify_dual_with_natural(b, n, 3, ws).holds
            assert identify_dual_with_bar(b, n, 3, ws).holds
            assert ws.cohomology_of(b, "dual", n) is ws.cohomology_of(b, "dual", n)
    # per bicomodule: dual, natural of the dual bicomodule, bar
    assert sorted(built) == sorted(["dual", "natural", "bar"] * len(ws.bicomodules()))
    with pytest.raises(ValueError):
        identify_dual_with_bar(b, 0, 2, ws)


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
        assert identify_dual_with_natural(b, n).holds


def test_dual_vs_bar_bit_identical():
    for name in ("group:Z3", "function:Z2"):
        h = get_algebra(name)
        for b in (
            Bicomodule(regular_right_coaction(h), regular_left_coaction(h)),
            with_trivial_gamma(regular_right_coaction(h)),
        ):
            for n in range(3):
                assert identify_dual_with_bar(b, n).holds
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


def test_counit_homotopy_dual_group_z3():
    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 3)
    for n in (1, 2):
        cocycles = kernel_basis(cx.boundary(n))
        prims = homotopy_from_counit_dual(b, n, cocycles, cx=cx)
        assert prims.cols == len(cocycles)
        for j, t in enumerate(cocycles):
            assert cx.boundary(n - 1).apply(prims.col(j)) == t


def test_counit_homotopy_natural_certifies():
    h = get_algebra("function:Z2")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "natural", 3)
    for n in (1, 2):
        cocycles = kernel_basis(cx.boundary(n))
        prims = homotopy_from_counit_natural(b, n, cocycles, cx=cx)
        assert prims.cols == len(cocycles)
        for j, m_vec in enumerate(cocycles):
            assert cx.boundary(n - 1).apply(prims.col(j)) == m_vec


def test_haar_homotopy_function_z2():
    h = get_algebra("function:Z2")
    b = with_trivial_gamma(regular_right_coaction(h))
    phi = haar_state(h).state
    cx = build_complex(b, "dual", 3)
    for n in (1, 2):
        cocycles = kernel_basis(cx.boundary(n))
        prims = homotopy_from_haar(b, n, cocycles, phi, cx=cx)
        assert cx.boundary(n - 1) @ prims == Matrix.from_cols(cocycles, rows=cx.degrees[n])


def test_haar_homotopy_rejects_the_negated_state():
    h = get_algebra("function:Z2")
    b = with_trivial_gamma(regular_right_coaction(h))
    minus_phi = tuple(-v for v in haar_state(h).state)
    cx = build_complex(b, "dual", 3)
    for n in (1, 2):
        cocycles = kernel_basis(cx.boundary(n))
        assert cocycles
        # the primitives of -phi are the negated ones, D P = -Z, and no sign is forgiven
        with pytest.raises(CertificateError, match=f"in degree {n}"):
            homotopy_from_haar(b, n, cocycles, minus_phi, cx=cx)


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


def test_homotopy_rejects_non_cocycle():
    h = get_algebra("group:Z3")
    b = one_sided(regular_right_coaction(h))
    cx = build_complex(b, "dual", 3)
    bad = unit_vec(h.dim * h.dim, 1)  # not a cocycle of the dual complex
    d1 = dual_coboundary(b, 1)
    assert any(d1.apply(bad))
    with pytest.raises(ValueError):
        homotopy_from_counit_dual(b, 1, [bad], cx=cx)
    # one non-cocycle refuses the whole batch
    good = kernel_basis(cx.boundary(1))[0]
    with pytest.raises(ValueError):
        homotopy_from_counit_dual(b, 1, [good, bad], cx=cx)


def test_zero_functional_is_no_codiagonal():
    h = get_algebra("group:Z2")
    b = pair_graded_bicomodule(h)
    cx = build_complex(b, "dual", 2)
    with pytest.raises(CertificateError, match="in degree 1"):
        homotopy_from_codiagonal(b, 1, (Scalar(0),) * (h.dim * h.dim), cx=cx)


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
        for side, nondegenerate in (("beta", entry.beta_nondegenerate), ("gamma", entry.gamma_nondegenerate)):
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
        for side, nondegenerate in (("beta", entry.beta_nondegenerate), ("gamma", entry.gamma_nondegenerate)):
            if not any(nondegenerate):
                continue
            k = {m: codiagonal_contraction(b, m, f, side) for m in range(1, cap + 1)}
            for n in range(1, cap):
                lhs = cx.boundary(n - 1) @ k[n] + k[n + 1] @ cx.boundary(n)
                assert lhs == Matrix.identity(cx.degrees[n]), (entry.name, side, n)
                checked += 1
    assert checked or name in ("function:trivial", "group:trivial")


@pytest.mark.parametrize("name", algebra_names())
def test_signed_reference_certificates_have_sign_plus_one(name, monkeypatch):
    """The signed column-by-column certificate, on every contraction the catalog
    certifies, finds sign +1 and the columns of the one-equality primitives P."""
    from hopfcoh import cochain
    from hopfcoh.amenability import check_mean_vs_cohomology, find_codiagonal
    from hopfcoh.comodule import catalog_right_comodules

    pairs = []  # (P, the signed reference's (primitive, sign) per column)
    original = cochain._certify_homotopy

    def both(cx, n, cocycles, contraction):
        prims = original(cx, n, cocycles, contraction)
        pairs.append((prims, ref_certify_homotopy(cx, n, cocycles, contraction)))
        return prims

    monkeypatch.setattr(cochain, "_certify_homotopy", both)
    h = get_algebra(name)
    ws = Workspace(h, 3)
    phi = haar_state(h).state
    for _, coaction in catalog_right_comodules(h):
        counit_side, haar_side = one_sided(coaction), with_trivial_gamma(coaction)
        for n in (1, 2):
            if h.counit is not None:
                for kind, homotopy in (("dual", homotopy_from_counit_dual), ("natural", homotopy_from_counit_natural)):
                    cx = ws.complex_of(counit_side, kind)
                    homotopy(counit_side, n, ws.cohomology_of(counit_side, kind, n).kernel, cx=cx)
            if phi is not None:
                cx = ws.complex_of(haar_side, "dual")
                homotopy_from_haar(haar_side, n, ws.cohomology_of(haar_side, "dual", n).kernel, phi, cx=cx)
    if h.kind == "function" and h.monoid.has_identity:
        check_mean_vs_cohomology(h, 3, ws)  # the mean's primitive, where a mean exists
    if name not in NO_CODIAGONAL:
        f = find_codiagonal(h).certificate.functional
        for entry in ws.catalog:
            for side, nondegenerate in (("beta", entry.beta_nondegenerate), ("gamma", entry.gamma_nondegenerate)):
                if not any(nondegenerate):
                    continue
                cx = ws.complex_of(entry.bicomodule, "dual")
                for n in (1, 2):
                    cocycles = ws.cohomology_of(entry.bicomodule, "dual", n).kernel
                    k_n = codiagonal_contraction(entry.bicomodule, n, f, side)
                    z = Matrix.from_cols(cocycles, rows=cx.degrees[n])
                    pairs.append((k_n @ z, ref_certify_homotopy(cx, n, cocycles, k_n)))
    assert pairs
    for prims, signed in pairs:
        assert [sign for _, sign in signed] == [1] * prims.cols
        assert [p for p, _ in signed] == [prims.col(j) for j in range(prims.cols)]
