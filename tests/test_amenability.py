import dataclasses
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from hopfcoh.amenability import (
    canonical_mean_cocycle,
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    find_codiagonal,
    find_invariant_mean,
    kronecker_codiagonal,
)
from hopfcoh.catalog import get_algebra, get_group, get_monoid
from hopfcoh.cochain import Workspace, dual_coboundary
from hopfcoh.linalg import CertificateError, Matrix, solve, vec_dot
from hopfcoh.scalars import ONE, Scalar


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
    out = check_codiagonal_vanishing(get_algebra("group:Z3"))
    assert out.passed
    assert any("pair-graded" in d for d in out.details)


def test_vanishing_crosscheck_function_s3():
    out = check_codiagonal_vanishing(get_algebra("function:S3"))
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
            check_codiagonal_vanishing(h)


def test_vanishing_crosscheck_names_the_degree_of_a_tampered_contraction(monkeypatch):
    from hopfcoh import cochain

    original = cochain.codiagonal_contraction

    def corrupt_k3(b, n, f, side):  # K_3 enters the identity of degree 2 only
        k = original(b, n, f, side)
        return k + Matrix(k.rows, k.cols, {(0, 0): 1}) if n == 3 else k

    monkeypatch.setattr(cochain, "codiagonal_contraction", corrupt_k3)
    with pytest.raises(CertificateError, match="in degree 2$"):
        check_codiagonal_vanishing(get_algebra("group:S3"))


def test_vanishing_crosscheck_non_counital():
    out = check_codiagonal_vanishing(get_algebra("function:leftzero2"))
    assert out.passed
    assert any("counit absent" in d for d in out.details)


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
        out = check_mean_vs_cohomology(get_algebra(f"function:{name}"))
        assert out.passed, (name, out.details)


def test_mean_crosscheck_requires_identity():
    with pytest.raises(ValueError):
        check_mean_vs_cohomology(get_algebra("function:leftzero2"))


def test_graded_cocycles_z2_and_s3():
    for name in ("Z2", "S3"):
        out = check_graded_cocycles(get_algebra(f"group:{name}"))
        assert out.passed, (name, out.details)


@pytest.mark.parametrize(
    "idx, w, s, t, diagonal",
    [(0, 0, 0, 1, False), (1, 2, 0, 1, False), (2, 1, 1, 1, True)],
)
def test_graded_cocycles_reject_a_tampered_cocycle(idx, w, s, t, diagonal):
    """One unit added at alpha(x_(s,t))'s u_w coordinate breaks both identities
    on that component (and the diagonal one there) and the reconstruction."""
    h = get_algebra("group:Z3")
    ws = Workspace(h, 3)
    bic = next(e.bicomodule for e in ws.catalog if e.name == "pair-graded")
    h1 = ws.cohomology_of(bic, "dual", 1)
    alpha = list(h1.kernel[idx])
    alpha[w * bic.space_dim + s * h.dim + t] += ONE
    tampered = dataclasses.replace(h1, kernel=h1.kernel[:idx] + (tuple(alpha),) + h1.kernel[idx + 1 :])
    real = ws.cohomology_of
    ws.cohomology_of = lambda b, kind, n: tampered if b is bic and (kind, n) == ("dual", 1) else real(b, kind, n)
    out = check_graded_cocycles(h, 3, ws)
    expected = [
        f"1-cocycle space dimension: {len(h1.kernel)}",
        f"cocycle {idx}: two-term identity fails at ({s},{t})",
        f"cocycle {idx}: mirrored identity fails at ({s},{t})",
    ]
    if diagonal:
        expected.append(f"cocycle {idx}: diagonal component nonzero at {s}")
    expected.append(f"cocycle {idx}: reconstructed functional fails d_0(f) = alpha")
    assert not out.passed
    assert out.details == tuple(expected)


def test_rzid3_restricted_h1_nonzero_both_ways():
    out = check_mean_vs_cohomology(get_algebra("function:rzid3"))
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
def dropping(rows, track=None, p=0):  # every elimination loses its last pivot
    pivots, red, tracked = original(rows, track, p)
    return pivots[:-1], red[:-1], tracked
linalg._rref_rows = dropping
try:
    linalg.kernel_basis(Matrix.from_rows([[1, 2], [2, 4]]))
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
    assert out.stdout == "1 mean has a negative weight\n1 exact kernel basis fails its certificate\n"


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
