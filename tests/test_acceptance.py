"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every assertion here is exact (rational arithmetic, zero residuals); there
are no numeric tolerances anywhere.  Run with -s to see the per-criterion
PASS lines.
"""
import time

from hopfcoh.amenability import (
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    find_codiagonal,
    find_invariant_mean,
    kronecker_codiagonal,
)
from hopfcoh.catalog import get_algebra, get_group, get_monoid
from hopfcoh.cochain import (
    Workspace,
    build_complex,
    cohomology,
    homotopy_from_counit_dual,
    homotopy_from_counit_natural,
    identify_dual_with_bar,
    identify_dual_with_natural,
)
from hopfcoh.comodule import (
    RightCoaction,
    catalog_bicomodules,
    catalog_right_comodules,
    check_nondegenerate,
    one_sided,
)
from hopfcoh.hopf import counit_find
from hopfcoh.linalg import Matrix, image_rank, kernel_basis
from hopfcoh.report import render_json, run_suite
from reference import ref_contraction

CATALOG = (
    "function:trivial",
    "function:Z2",
    "function:Z3",
    "function:Z2xZ2",
    "function:S3",
    "function:leftzero2",
    "function:rzid3",
    "group:trivial",
    "group:Z2",
    "group:Z3",
    "group:Z2xZ2",
    "group:S3",
)

MONOIDS_WITH_IDENTITY = ("trivial", "Z2", "Z3", "Z2xZ2", "S3", "rzid3", "mult01")
GROUPS = ("trivial", "Z2", "Z3", "Z2xZ2", "S3")

_algebras = {}
_bicomodules = {}
_complexes = {}


def algebra(name):
    if name not in _algebras:
        _algebras[name] = get_algebra(name)
    return _algebras[name]


def bicomodules(name):
    if name not in _bicomodules:
        _bicomodules[name] = catalog_bicomodules(algebra(name))
    return _bicomodules[name]


def complex_for(name, entry_name, bic, kind):
    key = (name, entry_name, kind)
    if key not in _complexes:
        _complexes[key] = build_complex(bic, kind, 3)
    return _complexes[key]


def announce(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_chain_property():
    t0 = time.time()
    checked = 0
    for name in CATALOG:
        for entry in bicomodules(name):
            for kind in ("natural", "dual", "bar"):
                cx = complex_for(name, entry.name, entry.bicomodule, kind)
                for n in range(2):
                    prod = cx.boundary(n + 1) @ cx.boundary(n)
                    assert prod.is_zero(), (name, entry.name, kind, n)
                    checked += 1
    announce(
        1,
        True,
        f"D_(n+1) D_n = 0 exactly for {checked} (algebra, bicomodule, complex, n) "
        f"items across {len(CATALOG)} algebras ({time.time() - t0:.1f}s)",
    )


def test_criterion_02_degree_zero():
    checked = 0
    for name in CATALOG:
        h = algebra(name)
        for com_name, coaction in catalog_right_comodules(h):
            bic = one_sided(coaction)
            cx_d = build_complex(bic, "dual", 1)
            cx_n = build_complex(bic, "natural", 1)
            h0_d = cohomology(cx_d, 0).dim
            h0_n = cohomology(cx_n, 0).dim
            nondeg = check_nondegenerate(coaction)
            if nondeg[1]:  # right non-degenerate
                assert h0_d == 0, (name, com_name)
            injective = image_rank(coaction.beta) == coaction.space_dim
            assert (h0_n == 0) == injective, (name, com_name)
            checked += 1
    # the zero coaction is the canonical non-injective witness
    h = algebra("group:Z2")
    zero = RightCoaction(2, h, Matrix.zero(4, 2))
    cx = build_complex(one_sided(zero), "natural", 1)
    assert cohomology(cx, 0).dim == 2
    announce(2, True, f"H^0 laws verified exactly on {checked} one-sided comodules + zero-coaction witness")


def test_criterion_03_counit_homotopies():
    certified = 0
    for name in CATALOG:
        h = algebra(name)
        eps = counit_find(h)
        if name == "function:leftzero2":
            assert eps.functional is None and eps.certificate is not None
            continue
        assert eps.functional is not None, name
        for com_name, coaction in catalog_right_comodules(h):
            bic = one_sided(coaction)
            for kind in ("dual", "natural"):
                cx = build_complex(bic, kind, 3)
                homotopy = homotopy_from_counit_dual if kind == "dual" else homotopy_from_counit_natural
                k = {m: ref_contraction(bic, kind, h.counit_row, m, (-1) ** (m - 1)) for m in (1, 2, 3)}
                for n in (1, 2):
                    assert cohomology(cx, n).dim == 0, (name, com_name, kind, n)
                    assert homotopy(bic, n, cx=cx) == k[n + 1], (name, com_name, kind, n)
                    ident = cx.boundary(n - 1) @ k[n] + k[n + 1] @ cx.boundary(n)
                    assert ident == Matrix.identity(cx.degrees[n]), (name, com_name, kind, n)
                    cocycles = Matrix.from_cols(kernel_basis(cx.boundary(n)), rows=cx.degrees[n])
                    assert cx.boundary(n - 1) @ (k[n] @ cocycles) == cocycles
                    certified += cocycles.cols
    announce(
        3,
        True,
        f"one-sided H^1, H^2 vanish with counit contractions certifying {certified} primitives; "
        "left-zero counit inconsistency certificate held",
    )


def test_criterion_04_kronecker_codiagonal():
    t0 = time.time()
    for gname in ("Z2", "Z3", "S3"):
        kc = kronecker_codiagonal(get_group(gname))
        assert not any(kc.certificate.counit_residual), gname
        assert kc.certificate.balance_residual.is_zero(), gname
        assert bool(kc.gram), gname
        assert kc.block_structure_ok, gname
    announce(
        4,
        True,
        f"both defining identities exact and |G|^2 x |G|^2 Gram PSD for Z2, Z3, S3 "
        f"({time.time() - t0:.1f}s, S3 Gram is 36x36)",
    )


def test_criterion_05_codiagonal_vanishing():
    t0 = time.time()
    found = 0
    for name in CATALOG:
        h = algebra(name)
        out = check_codiagonal_vanishing(Workspace(h, 3))
        assert out.passed, (name, out.details)
        if h.counit is not None and find_codiagonal(h).certificate is not None:
            found += 1
    announce(
        5,
        True,
        f"codiagonal => H^1_d = H^2_d = 0 via ranks AND homotopy primitives on "
        f"{found} codiagonal-bearing algebras ({time.time() - t0:.1f}s)",
    )


def test_criterion_06_pair_graded_cocycles():
    for gname in ("Z3", "S3"):
        out = check_graded_cocycles(Workspace(get_algebra(f"group:{gname}"), 3))
        assert out.passed, (gname, out.details)
    announce(6, True, "pointwise two-term identity and d_0(f) = alpha exact on Z3 and S3")


def test_criterion_07_dual_vs_natural_duality():
    t0 = time.time()
    checked = 0
    for name in CATALOG:
        ws = Workspace(algebra(name), 3)
        for entry in bicomodules(name):
            for n in range(3):
                rep = identify_dual_with_natural(ws, entry.bicomodule, n)
                assert rep.holds, (name, entry.name, n, rep.detail)
                checked += 1
    announce(
        7,
        True,
        f"sign identity entrywise and H-dims equal for {checked} (bicomodule, degree) "
        f"pairs across the catalog ({time.time() - t0:.1f}s)",
    )


def test_criterion_08_dual_vs_bar_identification():
    t0 = time.time()
    checked = 0
    for name in CATALOG:
        ws = Workspace(algebra(name), 3)
        for entry in bicomodules(name):
            for n in range(3):
                rep = identify_dual_with_bar(ws, entry.bicomodule, n)
                assert rep.holds, (name, entry.name, n)
                checked += 1
    announce(
        8,
        True,
        f"dual coboundary bit-identical to the transposed bar boundary on "
        f"{checked} (bicomodule, degree) pairs ({time.time() - t0:.1f}s)",
    )


def test_criterion_09_invariant_means():
    from fractions import Fraction

    for gname in GROUPS:
        m = get_monoid(gname)
        res = find_invariant_mean(m)
        assert res.feasible and res.certificate.weights == tuple(
            Fraction(1, m.order) for _ in range(m.order)
        ), gname
    rz = find_invariant_mean(get_monoid("rzid3"))
    assert not rz.feasible and rz.farkas is not None
    m01 = find_invariant_mean(get_monoid("mult01"))
    assert m01.feasible and m01.certificate.weights == (Fraction(0), Fraction(1))
    for mname in MONOIDS_WITH_IDENTITY:
        out = check_mean_vs_cohomology(Workspace(get_algebra(f"function:{mname}"), 3))
        assert out.passed, (mname, out.details)
    announce(
        9,
        True,
        "uniform means on groups, Farkas-certified infeasibility on rzid3, point mass "
        "on mult01, and LP verdict == coboundary status on every monoid",
    )


def test_criterion_10_determinism():
    t0 = time.time()
    names = list(CATALOG) + ["function:mult01"]
    suite = run_suite(names)
    first = render_json(suite)
    second = render_json(run_suite(names))
    assert first == second
    # pins the suite's bytes: a change in how tasks are run must not move them
    assert suite["suite_digest"] == "196ee5031d9b5c89bbbc6080f9a8e6fd172dd487fad057e3adf472a7ab529847"
    announce(
        10,
        True,
        f"two full-catalog suite runs byte-identical "
        f"({len(first)} bytes each, {time.time() - t0:.1f}s)",
    )
