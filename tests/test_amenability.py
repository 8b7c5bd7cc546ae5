import hashlib
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from hopfcoh import amenability
from hopfcoh.amenability import (
    canonical_mean_cocycle,
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    find_codiagonal,
    find_invariant_mean,
    kronecker_codiagonal,
)
from hopfcoh.catalog import GROUP_NAMES, algebra_names, get_algebra, get_group, get_monoid
from hopfcoh.cochain import Workspace, dual_coboundary
from hopfcoh.hopf import function_algebra
from hopfcoh.linalg import CertificateError, Matrix, solve, vec_dot
from hopfcoh.monoids import FiniteMonoid
from hopfcoh.scalars import ONE, Scalar, format_scalar
from reference import bench_workloads, ref_codiagonal_system


# -- codiagonals -----------------------------------------------------------


def test_trivial_algebra_codiagonal_is_one():
    res = find_codiagonal(get_algebra("function:trivial"))
    assert res.certificate is not None
    assert res.certificate.functional == (ONE,)


def test_group_solution_sets_contain_kronecker():
    from hopfcoh.amenability import _codiagonal_system

    for gname in ("Z2", "Z3", "S3"):
        h = get_algebra(f"group:{gname}")
        res = find_codiagonal(h)
        assert res.certificate is not None
        f0 = kronecker_codiagonal(get_group(gname)).certificate.functional
        # membership: f0 satisfies exactly the same affine system
        system, rhs = _codiagonal_system(h)
        assert system.apply(f0) == rhs


def _small_function_algebras():
    """The function algebras of all 11 + 156 monoid tables of order 3 and 4 with identity 0."""
    workloads = bench_workloads()
    return [function_algebra(FiniteMonoid(len(t), t)) for t in workloads.monoid_tables(3) + workloads.monoid_tables(4)]


def test_codiagonal_system_matches_the_triple_loop():
    """The reindexed coproduct tensors give the entry-by-entry system, rhs and
    row order included, on every counital catalog algebra and small table."""
    catalog = [get_algebra(name) for name in algebra_names()]
    algebras = [h for h in catalog if h.counit is not None] + _small_function_algebras()
    assert len(algebras) > 167
    for h in algebras:
        assert amenability._codiagonal_system(h) == ref_codiagonal_system(h), h.labels


def test_codiagonal_outputs_on_small_tables_are_pinned():
    """find_codiagonal on the 167 small tables: 111 left-kernel certificates
    and 56 functionals, printed as reports print scalars, pinned by digest."""
    lines = []
    for h in _small_function_algebras():
        res = find_codiagonal(h)
        if res.certificate is None:
            lines.append("infeasible " + " ".join(map(format_scalar, res.infeasibility)))
        else:
            functional = " ".join(map(format_scalar, res.certificate.functional))
            lines.append(f"dim {res.solution_space_dim} {functional}")
    assert (len(lines), sum(line.startswith("infeasible") for line in lines)) == (167, 111)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "d81cbff8c22298a7a8d3fd05d719be57cf5623eab4820cb72ce7c2b732ce899e"


def test_invariant_mean_outputs_on_small_tables_are_pinned():
    """find_invariant_mean on the 167 small tables: 144 mean weights and 23
    Farkas vectors, printed as reports print scalars, pinned by digest."""
    workloads = bench_workloads()
    lines = []
    for t in workloads.monoid_tables(3) + workloads.monoid_tables(4):
        res = find_invariant_mean(FiniteMonoid(len(t), t))
        if res.feasible:
            lines.append("mean " + " ".join(format_scalar(Scalar(x)) for x in res.certificate.weights))
        else:
            lines.append("infeasible " + " ".join(format_scalar(Scalar(x)) for x in res.farkas))
    assert (len(lines), sum(line.startswith("infeasible") for line in lines)) == (167, 23)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "e6f24d6f7a0dd463e4990c2cc7965fcddd3de8a30a5bb91b2457b8470e1851d3"


def test_function_s3_codiagonal_exists():
    res = find_codiagonal(get_algebra("function:S3"))
    assert res.certificate is not None


def test_codiagonal_positivity_reported_not_required():
    res = find_codiagonal(get_algebra("group:Z3"))
    assert res.certificate is not None
    # positivity field present for group algebras (may be True or False)
    assert res.certificate.positivity is not None


def test_kronecker_z2_gram_is_two_allones_blocks():
    kc = kronecker_codiagonal(get_group("Z2"))
    assert kc.block_structure_ok
    assert bool(kc.gram)
    g = get_group("Z2")
    f = kc.certificate.functional
    pairs = [(r, s) for r in range(2) for s in range(2)]
    gram = [
        [
            f[g.mul(g.inv(r1), r2) * 2 + g.mul(g.inv(s1), s2)]
            for (r2, s2) in pairs
        ]
        for (r1, s1) in pairs
    ]
    # classes under s r^{-1}: {(e,e),(a,a)} and {(e,a),(a,e)}
    expected_classes = [[0, 3], [1, 2]]
    for cls in expected_classes:
        for i in cls:
            for j in cls:
                assert gram[i][j] == ONE
    for i in expected_classes[0]:
        for j in expected_classes[1]:
            assert gram[i][j] == Scalar(0)


def test_kronecker_s3_identities_exact():
    kc = kronecker_codiagonal(get_group("S3"))
    assert not any(kc.certificate.counit_residual)
    assert kc.certificate.balance_residual.is_zero()
    assert bool(kc.gram)


def test_kronecker_block_pattern_rejects_a_scaled_gram(monkeypatch):
    """The block check compares the Gram matrix with the block-of-ones pattern
    of the classes s r^{-1}: a doubled Gram matrix stays PSD but fails it."""
    original = amenability.quotient_gram
    monkeypatch.setattr(amenability, "quotient_gram", lambda g, f: original(g, f).scale(2))
    kc = kronecker_codiagonal(get_group("S3"))
    assert bool(kc.gram)
    assert not kc.block_structure_ok


def test_kronecker_counit_compatibility():
    g = get_group("Z3")
    h = get_algebra("group:Z3")
    f = kronecker_codiagonal(g).certificate.functional
    for r in range(3):
        assert vec_dot(f, h.comult.col(r)) == h.counit[r]


# -- invariant means --------------------------------------------------------


def test_groups_have_uniform_mean():
    for name in ("trivial", "Z2", "Z3", "Z2xZ2", "S3"):
        m = get_monoid(name)
        res = find_invariant_mean(m)
        assert res.feasible
        assert res.certificate.weights == tuple(
            Fraction(1, m.order) for _ in range(m.order)
        )


def test_mult01_mean_is_point_mass_at_zero():
    res = find_invariant_mean(get_monoid("mult01"))
    assert res.feasible
    assert res.certificate.weights == (Fraction(0), Fraction(1))


def test_rzid3_infeasible_with_verified_farkas():
    m = get_monoid("rzid3")
    res = find_invariant_mean(m)
    assert not res.feasible
    # hand elimination: r=a forces w_e + w_b = 0, r=b forces w_e + w_a = 0,
    # with w >= 0 this pins w = 0, contradicting sum w = 1
    from hopfcoh.amenability import _mean_system

    rows, rhs = _mean_system(m)
    row_ea = [Fraction(1), Fraction(0), Fraction(1)]  # w_e + w_b = 0
    row_eb = [Fraction(1), Fraction(1), Fraction(0)]  # w_e + w_a = 0
    assert row_ea in rows and row_eb in rows
    # the returned certificate verifies against the system
    y = res.farkas
    for j in range(m.order):
        assert sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0
    assert sum(y[i] * rhs[i] for i in range(len(rows))) > 0


def test_leftzero_semigroup_mean_feasible():
    res = find_invariant_mean(get_monoid("leftzero2"))
    assert res.feasible


# -- cross-checks ------------------------------------------------------------


def test_vanishing_crosscheck_group_z3():
    out = check_codiagonal_vanishing(Workspace(get_algebra("group:Z3"), 3))
    assert out.passed
    assert any("pair-graded" in d for d in out.details)


def test_vanishing_crosscheck_function_s3():
    out = check_codiagonal_vanishing(Workspace(get_algebra("function:S3"), 3))
    assert out.passed


@pytest.mark.parametrize("name", ["group:S3", "function:Z3"])
def test_vanishing_crosscheck_rejects_a_tampered_codiagonal(name, monkeypatch):
    from types import SimpleNamespace

    from hopfcoh import amenability

    h = get_algebra(name)
    f = find_codiagonal(h).certificate.functional
    for i in range(len(f)):  # no single entry of F can change with D K + K D = id still holding
        g = f[:i] + (f[i] + 1,) + f[i + 1 :]
        tampered = SimpleNamespace(certificate=SimpleNamespace(functional=g))
        monkeypatch.setattr(amenability, "job_codiagonal", lambda ws: tampered)
        with pytest.raises(CertificateError, match="D K \\+ K D = id in degree 1$"):
            check_codiagonal_vanishing(Workspace(h, 3))


def test_vanishing_crosscheck_names_the_degree_of_a_tampered_contraction(monkeypatch):
    from hopfcoh import cochain

    original = cochain.codiagonal_contraction

    def corrupt_k3(b, n, f, side):  # K_3 enters the identity of degree 2 only
        k = original(b, n, f, side)
        return k + Matrix(k.rows, k.cols, {(0, 0): 1}) if n == 3 else k

    monkeypatch.setattr(cochain, "codiagonal_contraction", corrupt_k3)
    with pytest.raises(CertificateError, match="in degree 2$"):
        check_codiagonal_vanishing(Workspace(get_algebra("group:S3"), 3))


def test_vanishing_crosscheck_builds_each_contraction_once(monkeypatch):
    from hopfcoh import cochain

    original = cochain.codiagonal_contraction
    built = []

    def counting(b, n, f, side):
        built.append((id(b), side, n))
        return original(b, n, f, side)

    monkeypatch.setattr(cochain, "codiagonal_contraction", counting)
    out = check_codiagonal_vanishing(Workspace(get_algebra("group:S3"), 3))
    assert out.passed
    sides = {key[:2] for key in built}
    # degrees 1 and 2 certified per side, from K_1, K_2 and K_3, each built once
    assert sum("homotopy certified" in d for d in out.details) == 2 * len(sides) > 0
    assert sorted(built) == sorted((*key, n) for key in sides for n in (1, 2, 3))


def test_vanishing_crosscheck_non_counital():
    out = check_codiagonal_vanishing(Workspace(get_algebra("function:leftzero2"), 3))
    assert out.passed
    assert any("counit absent" in d for d in out.details)


def test_report_job_searches_for_the_counit_once(monkeypatch):
    """The counit task and check-B20 read the job's one counit search."""
    import hopfcoh
    from hopfcoh import hopf
    from hopfcoh.jobfile import JobSpec
    from hopfcoh.report import run
    from hopfcoh.tasks import for_verb

    calls, original = [], hopf.counit_find
    for name in dir(hopfcoh):
        module = getattr(hopfcoh, name)
        if getattr(module, "counit_find", None) is original:
            monkeypatch.setattr(module, "counit_find", lambda h: calls.append(h) or original(h))
    report = run(JobSpec(algebra="function:rzid3", tasks=for_verb("report"), degree_cap=3))
    assert report["tasks"]["counit"]["exists"] and report["tasks"]["check-B20"]["passed"]
    assert len(calls) == 1


def test_canonical_cocycle_closed_and_matches_mean_z3():
    h = get_algebra("function:Z3")
    bic, t_vec = canonical_mean_cocycle(h)
    d1 = dual_coboundary(bic, 1)
    assert not any(d1.apply(t_vec))
    d0 = dual_coboundary(bic, 0)
    res = solve(d0, t_vec)
    res_neg = solve(d0, tuple(-v for v in t_vec))
    assert res.consistent or res_neg.consistent


def test_mean_crosscheck_monoids():
    for name in ("trivial", "Z2", "Z3", "S3", "mult01", "rzid3"):
        out = check_mean_vs_cohomology(Workspace(get_algebra(f"function:{name}"), 3))
        assert out.passed, (name, out.details)


def test_mean_crosscheck_requires_identity():
    with pytest.raises(ValueError):
        check_mean_vs_cohomology(Workspace(get_algebra("function:leftzero2"), 3))


@pytest.mark.parametrize("cap", [2, 3, 4])
@pytest.mark.parametrize("name", GROUP_NAMES)
def test_graded_cocycles_pass_on_every_catalog_group(name, cap):
    ws = Workspace(get_algebra(f"group:{name}"), cap)
    out = check_graded_cocycles(ws)
    bic = next(e.bicomodule for e in ws.catalog if e.name == "pair-graded")
    assert out.passed, (name, cap, out.details)
    assert out.details == (
        f"1-cocycle space dimension: {ws.cohomology_of(bic, 'dual', 1).dim_kernel}",
        "all cocycles reconstructed exactly",
    )


def test_graded_cocycles_reject_a_tampered_contraction(monkeypatch, tmp_path, capsys):
    """One entry of K_2 changed, on a row of D_1 that is not zero, breaks
    D_0 P + K_2 D_1 = id: a certificate failure naming degree 1, exit 1."""
    from hopfcoh import cochain
    from hopfcoh.cli import main

    h = get_algebra("group:Z3")
    bic = next(e.bicomodule for e in Workspace(h, 3).catalog if e.name == "pair-graded")
    row = min(r for r, _ in dual_coboundary(bic, 1).entries)
    original = cochain.codiagonal_contraction

    def tampered(b, n, f, side):
        k = original(b, n, f, side)
        return k + Matrix(k.rows, k.cols, {(0, row): ONE}) if n == 2 else k

    monkeypatch.setattr(cochain, "codiagonal_contraction", tampered)
    message = "codiagonal homotopy fails D K + K D = id in degree 1"
    with pytest.raises(CertificateError, match=re.escape(message)) as err:
        check_graded_cocycles(Workspace(h, 3))
    assert (err.value.bicomodule, err.value.degree, err.value.column) == ("pair-graded", 1, 0)
    job = tmp_path / "b18.job"
    job.write_text("algebra = group:Z3\ntasks = check-B18\n")
    assert main(["--input", str(job), "verify"]) == 1
    assert capsys.readouterr().err == f"error: certificate check failed: {message} (bicomodule pair-graded, column 0)\n"


def test_check_b20_names_the_bicomodule_of_a_failed_contraction(monkeypatch, tmp_path, capsys):
    """K_3 + e_0 e_0^T changes K_3 D_2 by row 0 of D_2, which on group:Z2 is zero
    for every entry but unit-quotient: check-B20 fails in degree 2 there, and the
    exit-1 message names that entry and the column."""
    from hopfcoh import cochain
    from hopfcoh.cli import main

    original = cochain.codiagonal_contraction

    def corrupt_k3(b, n, f, side):
        k = original(b, n, f, side)
        return k + Matrix(k.rows, k.cols, {(0, 0): 1}) if n == 3 else k

    monkeypatch.setattr(cochain, "codiagonal_contraction", corrupt_k3)
    with pytest.raises(CertificateError, match="in degree 2$") as err:
        check_codiagonal_vanishing(Workspace(get_algebra("group:Z2"), 3))
    assert (err.value.bicomodule, err.value.degree) == ("unit-quotient", 2)
    job = tmp_path / "b20.job"
    job.write_text("algebra = group:Z2\ntasks = check-B20\n")
    assert main(["--input", str(job), "verify"]) == 1
    message = "codiagonal homotopy fails D K + K D = id in degree 2"
    witness = f"(bicomodule unit-quotient, column {err.value.column})"
    assert capsys.readouterr().err == f"error: certificate check failed: {message} {witness}\n"


def test_graded_cocycles_name_the_first_failing_component(monkeypatch):
    """A doubled D_0 keeps the chain property but breaks D_0 = T in every
    off-diagonal column; the first is (0,1)."""
    from hopfcoh import cochain

    original = cochain._BUILDERS["dual"]
    monkeypatch.setitem(cochain._BUILDERS, "dual", lambda b, n: original(b, n).scale(2) if n == 0 else original(b, n))
    out = check_graded_cocycles(Workspace(get_algebra("group:Z3"), 3))
    assert not out.passed
    assert out.details == ("1-cocycle space dimension: 6", "two-term identity fails at (0,1)")


def test_graded_cocycles_refuse_a_nonzero_h1_beside_the_identity(monkeypatch):
    from hopfcoh.cochain import CohomologyResult

    ws = Workspace(get_algebra("group:Z3"), 3)
    monkeypatch.setattr(ws, "cohomology_of", lambda b, kind, n: CohomologyResult(6, 5))
    out = check_graded_cocycles(ws)
    assert not out.passed
    assert out.details == ("1-cocycle space dimension: 6", "reduction reports H^1_d = 1 != 0")


def test_graded_cocycles_eliminate_nothing_beyond_the_table(monkeypatch):
    """check-B18 reads the table's dim ker D_1 and no kernel basis of its own,
    through kernel_basis or kernel_basis_without."""
    import hopfcoh
    from hopfcoh import linalg
    from hopfcoh.jobfile import JobSpec
    from hopfcoh.report import run

    calls, original, without = [], linalg.kernel_basis, linalg.kernel_basis_without
    for name in dir(hopfcoh):
        module = getattr(hopfcoh, name)
        if getattr(module, "kernel_basis", None) is original:
            monkeypatch.setattr(module, "kernel_basis", lambda m: calls.append(m.cols) or original(m))
        if module is not linalg and getattr(module, "kernel_basis_without", None) is without:  # kernel_basis's own call
            monkeypatch.setattr(
                module, "kernel_basis_without", lambda m, drop: calls.append(m.cols) or without(m, drop)
            )
    counts = []
    for tasks in (("axioms", "cohomology:dual:0-2"), ("axioms", "cohomology:dual:0-2", "check-B18")):
        calls.clear()
        assert run(JobSpec(algebra="group:S3", tasks=tasks, degree_cap=3))["consistent"] is True
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_rzid3_restricted_h1_nonzero_both_ways():
    out = check_mean_vs_cohomology(Workspace(get_algebra("function:rzid3"), 3))
    assert out.passed
    assert any("feasible: False" in d for d in out.details)
    assert any("coboundary: False" in d for d in out.details)
    assert any("vanishing everywhere: False" in d for d in out.details)


CERTIFICATE_UNDER_O = """
import sys
from fractions import Fraction
from hopfcoh import linalg
from hopfcoh.amenability import MeanCertificate
from hopfcoh.linalg import CertificateError, Matrix
try:
    MeanCertificate((Fraction(-1), Fraction(2)), Fraction(1), ())
except CertificateError as exc:
    print(sys.flags.optimize, exc)
original = linalg._rref_rows
def dropping(rows, cols):  # every elimination loses its last pivot
    pivots, red, origins = original(rows, cols)
    return pivots[:-1], red[:-1], origins[:-1]
linalg._rref_rows = dropping
try:
    linalg.kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
except CertificateError as exc:
    print(sys.flags.optimize, exc)
certify_ldl = linalg._certify_ldl
def corrupting(m, steps):  # the first LDL* pivot is off by one
    (p, d, ratios), *rest = steps
    certify_ldl(m, [(p, d + 1, ratios), *rest])
linalg._certify_ldl = corrupting
try:
    linalg.psd_check(Matrix.identity(2))
except CertificateError as exc:
    print(sys.flags.optimize, exc)
"""


def test_certificate_checks_survive_python_O():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONOPTIMIZE", None)
    out = subprocess.run(
        [sys.executable, "-O", "-c", CERTIFICATE_UNDER_O], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == (
        "1 mean has a negative weight\n"
        "1 exact kernel basis fails its certificate\n"
        "1 PSD decomposition fails m = V D V*\n"
    )


def test_mean_crosscheck_reuses_the_catalog_quotient(monkeypatch):
    from hopfcoh import amenability, comodule
    from hopfcoh.jobfile import JobSpec
    from hopfcoh.report import run

    built = []
    original = comodule.unit_quotient_bicomodule

    def counting(h):
        built.append(h)
        return original(h)

    monkeypatch.setattr(comodule, "unit_quotient_bicomodule", counting)
    monkeypatch.setattr(amenability, "unit_quotient_bicomodule", counting)
    tasks = ("axioms", "mean", "cohomology:dual:0-2", "check-exist-im2")
    report = run(JobSpec(algebra="function:Z3", tasks=tasks, degree_cap=3))
    assert report["tasks"]["check-exist-im2"]["passed"]
    assert len(built) == 1
