from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.comodule import (
    Bicomodule,
    RightCoaction,
    catalog_bicomodules,
    catalog_right_comodules,
    check_nondegenerate,
    compatibility_failure,
    check_nondegenerate_left,
    dual_coaction,
    dual_coaction_left,
    graded_right_coaction,
    left_coaction_failure,
    module_from_coaction,
    pair_graded_bicomodule,
    quotient_comodule,
    regular_right_coaction,
    right_coaction_failure,
    trivial_left_coaction,
    unit_quotient_bicomodule,
    widest_catalog_space,
)
from hopfcoh.linalg import Matrix, combination, failing_column, kron, unit_vec
from hopfcoh.records import Memo
from hopfcoh.scalars import ONE, Scalar
from reference import ref_coaction_from_module


def unit_leg_coaction(h, x_dim):
    """beta(x) = x (x) 1."""
    return RightCoaction(x_dim, h, kron(Matrix.identity(x_dim), h.unit_col))


def test_coaction_constructor_rejects_invalid():
    h = get_algebra("group:Z2")
    bad = Matrix.from_rows([[1, 0], [1, 0], [0, 0], [0, 1]])  # not a coaction
    with pytest.raises(ValueError):
        RightCoaction(2, h, bad)


def test_unit_leg_coaction_is_nondegenerate():
    h = get_algebra("group:Z3")
    c = unit_leg_coaction(h, 2)
    assert check_nondegenerate(c) == (True, True)


def test_zero_coaction_degenerate():
    h = get_algebra("group:Z2")
    c = RightCoaction(2, h, Matrix.zero(4, 2))
    assert check_nondegenerate(c) == (False, False)


def test_graded_coaction_nondegenerate_and_graded():
    h = get_algebra("group:Z2")
    c = graded_right_coaction(h, [0, 1])
    assert check_nondegenerate(c) == (True, True)
    # beta(e_0) = e_0 (x) u_0, beta(e_1) = e_1 (x) u_1
    assert c.beta == Matrix(4, 2, {(0, 0): 1, (3, 1): 1})


def test_grading_projections_idempotent_and_orthogonal():
    h = get_algebra("group:Z3")
    c = regular_right_coaction(h)
    x, s = c.space_dim, h.dim
    ix = Matrix.identity(x)
    projs = []
    for r in range(s):
        phi = Matrix(1, s, {(0, r): ONE})
        projs.append(kron(ix, phi) @ c.beta)
    for i, p in enumerate(projs):
        assert p @ p == p
        for j, q in enumerate(projs):
            if i != j:
                assert (p @ q).is_zero()
    assert sum(projs, Matrix.zero(x, x)) == ix


def test_trivial_left_coaction_and_compatibility_with_any_beta():
    h = get_algebra("function:Z3")
    gamma = trivial_left_coaction(h, 2)
    expected = kron(h.unit_col, Matrix.identity(2))
    assert gamma.gamma == expected
    c = unit_leg_coaction(h, 2)
    Bicomodule(c, gamma)  # compatibility re-verified in the constructor
    graded = graded_right_coaction(get_algebra("group:Z3"), [0, 1, 2])
    Bicomodule(graded, trivial_left_coaction(get_algebra("group:Z3"), 3))


def test_quotient_zero_and_full():
    h = get_algebra("group:Z2")
    c = regular_right_coaction(h)
    q0 = quotient_comodule(c, [])
    assert q0.coaction.beta == c.beta
    qfull = quotient_comodule(c, [unit_vec(2, 0), unit_vec(2, 1)])
    assert qfull.coaction.space_dim == 0


def test_quotient_rejects_uninvariant_subspace():
    h = get_algebra("group:Z2")
    c = regular_right_coaction(h)
    # span{u_e + u_a} maps to q(u_e) (x) u_e + q(u_a) (x) u_a != 0
    with pytest.raises(ValueError):
        quotient_comodule(c, [(ONE, ONE)])


def test_quotient_checks_every_vector_of_the_subspace():
    """The factorization identity alone decides invariance: one non-invariant vector
    among invariant ones is refused, and an invariant plane is accepted."""
    h = get_algebra("group:S3")
    c = regular_right_coaction(h)
    u = [unit_vec(6, r) for r in range(6)]
    mixed = tuple(a + b for a, b in zip(u[2], u[3]))
    with pytest.raises(ValueError):
        quotient_comodule(c, [u[0], u[1], mixed])
    with pytest.raises(ValueError):
        quotient_comodule(c, [mixed, u[0], u[1]])
    q = quotient_comodule(c, [u[1], u[0]])
    # X/Y keeps u_2..u_5 with their grades
    assert q.coaction.beta == graded_right_coaction(h, [2, 3, 4, 5]).beta


@pytest.mark.parametrize("name", algebra_names())
def test_a_quotient_coaction_is_certified_by_its_factorization(name, monkeypatch):
    """quotient_comodule evaluates no coaction identity for the quotient (its factorization
    check implies it), and an equal copy of the quotient coaction passes the full check."""
    from hopfcoh import comodule

    h = get_algebra(name)
    reg = regular_right_coaction(h)
    calls = []
    monkeypatch.setattr(comodule, "failing_column", lambda terms: calls.append(terms) or failing_column(terms))
    quot = quotient_comodule(reg, [list(h.unit)])
    assert calls == [] and h.holds(quot.coaction.beta, "quotient")
    beta_hat = quot.coaction.beta
    copy = Matrix(beta_hat.rows, beta_hat.cols, beta_hat.entries)
    assert not h.holds(copy, "quotient")
    assert right_coaction_failure(h, copy) is None and len(calls) == 1
    assert RightCoaction(quot.coaction.space_dim, h, copy) == quot.coaction


def test_a_subspace_whose_quotient_does_not_factor_is_still_refused(monkeypatch):
    """Refused before any coaction is built: nothing enters the algebra's memo."""
    h = get_algebra("function:S3")
    c = regular_right_coaction(h)
    u = [unit_vec(6, r) for r in range(6)]
    made, once, once_for = [], Memo.once, Memo.once_for
    monkeypatch.setattr(Memo, "once", lambda memo, key, make: made.append(key) or once(memo, key, make))
    monkeypatch.setattr(Memo, "once_for", lambda memo, o, key, make: made.append(key) or once_for(memo, o, key, make))
    for subspace in ([u[1]], [tuple(a + b for a, b in zip(u[0], u[2]))], [u[3], list(h.unit)]):
        with pytest.raises(ValueError, match="does not factor through the projection"):
            quotient_comodule(c, subspace)
    assert made == []
    quot = quotient_comodule(c, [list(h.unit)])
    assert quot.coaction.space_dim == 5 and "quotient" in made and h.holds(quot.coaction.beta, "quotient")


def test_unit_quotient_over_function_z3():
    h = get_algebra("function:Z3")
    q = unit_quotient_bicomodule(h)
    assert q.coaction.space_dim == 2
    # (q (x) id) comult(1) = 0 held by construction; identity re-verified
    assert check_nondegenerate(q.coaction) == (True, True)


def test_dual_of_unit_leg_coaction_is_trivial_left():
    h = get_algebra("group:Z3")
    c = unit_leg_coaction(h, 2)
    dual = dual_coaction(c)
    assert dual.gamma == trivial_left_coaction(h, 2).gamma


def test_double_dual_returns_original():
    h = get_algebra("group:Z3")
    for c in (regular_right_coaction(h), graded_right_coaction(h, [2, 0, 1])):
        assert dual_coaction_left(dual_coaction(c)).beta == c.beta


def test_module_from_unit_leg_coaction_scales_by_value_at_unit():
    h = get_algebra("group:Z3")
    c = unit_leg_coaction(h, 2)
    act = module_from_coaction(c)
    # omega . x = omega(1) x: column (b, j) is [b == 0] e_j for group algebras
    for b in range(3):
        for j in range(2):
            col = act.col(b * 2 + j)
            assert col == (unit_vec(2, j) if b == 0 else (Scalar(0), Scalar(0)))


def test_module_coaction_round_trip():
    h = get_algebra("group:Z3")
    c = graded_right_coaction(h, [1, 2, 0])
    act = module_from_coaction(c)
    back = RightCoaction(3, h, ref_coaction_from_module(act, 3, 3))
    assert back.beta == c.beta
    assert module_from_coaction(back) == act


def test_module_associativity_iff_coaction_identity():
    h = get_algebra("group:Z2")
    c = graded_right_coaction(h, [0, 1])
    act = module_from_coaction(c)
    dim, s = 2, 2

    def act_on(b, v):
        arg = [Scalar(0)] * (s * dim)
        for j, x in enumerate(v):
            arg[b * dim + j] = x
        return act.apply(tuple(arg))

    dual_mult = h.comult.transpose()
    for b1 in range(s):
        for b2 in range(s):
            prod = dual_mult.transpose().col(0)  # placeholder, recomputed below
            arg = [Scalar(0)] * (s * s)
            arg[b1 * s + b2] = ONE
            prod = dual_mult.apply(tuple(arg))
            for j in range(dim):
                lhs = act_on(b1, act_on(b2, unit_vec(dim, j)))
                rhs = [Scalar(0)] * dim
                for t, coeff in enumerate(prod):
                    if coeff:
                        step = act_on(t, unit_vec(dim, j))
                        rhs = [a + coeff * bb for a, bb in zip(rhs, step)]
                assert lhs == tuple(rhs)
    # a non-coaction matrix breaks BOTH the coaction identity and, through
    # the same expansion, module associativity
    bad = Matrix.from_rows([[1, 0], [1, 0], [0, 0], [0, 1]])
    assert not (kron(bad, Matrix.identity(2)) @ bad == kron(Matrix.identity(2), h.comult) @ bad)

    def bad_act_on(b, v):
        out = [Scalar(0), Scalar(0)]
        for j, x in enumerate(v):
            if x:
                for i in range(dim):
                    out[i] = out[i] + x * bad[(i * s + b, j)]
        return tuple(out)

    broken = False
    for b1 in range(s):
        for b2 in range(s):
            arg = [Scalar(0)] * (s * s)
            arg[b1 * s + b2] = ONE
            prod = dual_mult.apply(tuple(arg))
            for j in range(dim):
                lhs = bad_act_on(b1, bad_act_on(b2, unit_vec(dim, j)))
                rhs = [Scalar(0)] * dim
                for t, coeff in enumerate(prod):
                    if coeff:
                        step = bad_act_on(t, unit_vec(dim, j))
                        rhs = [a + coeff * bb for a, bb in zip(rhs, step)]
                if lhs != tuple(rhs):
                    broken = True
    assert broken


def test_pair_graded_bicomodule_over_z3():
    h = get_algebra("group:Z3")
    b = pair_graded_bicomodule(h)
    assert b.space_dim == 9
    assert check_nondegenerate(b.beta) == (True, True)
    assert check_nondegenerate_left(b.gamma) == (True, True)


def test_catalog_entries_all_valid():
    for name in ("group:Z2", "function:Z3", "function:rzid3"):
        h = get_algebra(name)
        for entry in catalog_bicomodules(h):
            assert entry.bicomodule.space_dim >= 0
            assert isinstance(check_nondegenerate(entry.bicomodule.beta), tuple)


def _count_span_tests(monkeypatch) -> list:
    """Wrap the span test under translates_span's memo; each run appends (side, id of the
    coaction matrix, right), side "beta" for the X leg first and "gamma" for the S leg."""
    from hopfcoh import hopf

    calls = []
    original = hopf._spans

    def counted(h, coaction, s_leg_first, right):
        calls.append(("gamma" if s_leg_first else "beta", id(coaction), right))
        return original(h, coaction, s_leg_first, right)

    monkeypatch.setattr(hopf, "_spans", counted)
    return calls


def test_cohomology_table_jobs_run_no_span_test(monkeypatch):
    """The fn-S3-tables jobs read no non-degeneracy flag, so none is computed."""
    from hopfcoh.jobfile import JobSpec
    from hopfcoh.report import run

    calls = _count_span_tests(monkeypatch)
    for kind in ("dual", "natural"):
        assert run(JobSpec(algebra="function:S3", tasks=("axioms", f"cohomology:{kind}:0-2")))["consistent"]
    assert calls == []


@pytest.mark.parametrize("name", algebra_names())
def test_lazy_flags_equal_the_span_tests(name):
    for entry in catalog_bicomodules(get_algebra(name)):
        assert "nondegenerate_side" not in vars(entry)
        beta, gamma = check_nondegenerate(entry.bicomodule.beta), check_nondegenerate_left(entry.bicomodule.gamma)
        assert entry.nondegenerate_side == ("beta" if any(beta) else "gamma" if any(gamma) else None)
        assert entry.has_nondegenerate_side == any(beta + gamma)


@pytest.mark.parametrize("name", ["group:S3", "kp8", "function:Z3"])
def test_check_b20_tests_each_entry_and_side_at_most_once(name, monkeypatch):
    from collections import Counter

    from hopfcoh.cochain import Workspace
    from hopfcoh.tasks import lookup

    calls = _count_span_tests(monkeypatch)
    ws = Workspace(get_algebra(name), 3)
    assert lookup("check-B20").run(ws, "check-B20")["passed"]
    assert calls
    for entry in ws.catalog:  # every flag read again, after the check
        b = entry.bicomodule
        entry.has_nondegenerate_side, check_nondegenerate(b.beta), check_nondegenerate_left(b.gamma)
    # regular and regular-trivial-left share one right coaction, so count per holder
    holders = Counter(("beta", id(e.bicomodule.beta.beta), right) for e in ws.catalog for right in (False, True))
    holders += Counter(("gamma", id(e.bicomodule.gamma.gamma), right) for e in ws.catalog for right in (False, True))
    assert all(holders[call] >= n for call, n in Counter(calls).items())


@pytest.mark.parametrize("name", ["group:S3", "kp8", "function:Z3", "function:leftzero2"])
def test_check_b20_stops_at_the_first_side_that_holds(name, monkeypatch):
    """check-B20 tests each catalog entry's flags in the order beta left, beta right,
    gamma left, gamma right up to the first that holds (by the reference), and no
    (coaction, leg, side) twice; reading every flag afterwards runs only the rest."""
    from hopfcoh.cochain import Workspace
    from hopfcoh.tasks import lookup
    from reference import ref_translates_span

    calls = _count_span_tests(monkeypatch)
    ws = Workspace(get_algebra(name), 3)
    assert lookup("check-B20").run(ws, "check-B20")["passed"]
    sides, flags = {}, {}
    for entry in ws.catalog:
        b = entry.bicomodule
        sides[entry.name] = [("beta", id(b.beta.beta)), ("gamma", id(b.gamma.gamma))]
        for side, matrix, s_leg_first in (("beta", b.beta.beta, False), ("gamma", b.gamma.gamma, True)):
            flags[side, id(matrix)] = ref_translates_span(b.hopf, matrix, b.space_dim, s_leg_first)
    expected = []
    for entry in ws.catalog if ws.hopf.counit is not None else ():  # without a counit no flag is read
        for side, right in product(sides[entry.name], (False, True)):
            if (*side, right) not in expected:
                expected.append((*side, right))
            if flags[side][right]:
                break
    assert calls == expected
    calls.clear()
    for entry in ws.catalog:
        b = entry.bicomodule
        read = check_nondegenerate(b.beta), check_nondegenerate_left(b.gamma)
        assert read == tuple(flags[k] for k in sides[entry.name])
    assert len(set(calls)) == len(calls) and not set(calls) & set(expected)


def test_a_vanishing_pass_runs_five_span_tests(monkeypatch):
    """The benchmark's vanishing jobs (group:S3 and kp8): 8 + 6 span tests before the
    memo and the lazy side, 3 + 2 now, each run once; saturation reuses the regular ones."""
    from hopfcoh.cochain import Workspace
    from hopfcoh.hopf import check_saturated
    from hopfcoh.jobfile import JobSpec
    from hopfcoh.report import run
    from reference import bench_workloads

    calls, counts = _count_span_tests(monkeypatch), {}
    for algebra, tasks in bench_workloads().VANISHING_JOBS:
        calls.clear()  # ids are compared within a job, whose coactions are all alive
        assert run(JobSpec(algebra=algebra, tasks=tasks, degree_cap=3))["consistent"]
        assert len(calls) == len(set(calls))
        counts[algebra] = len(calls)
    assert counts == {"group:S3": 3, "kp8": 2}
    ws = Workspace(get_algebra("kp8"), 3)
    regular = ws.catalog[0]
    flags = check_nondegenerate(regular.bicomodule.beta), check_nondegenerate_left(regular.bicomodule.gamma)
    calls.clear()
    assert check_saturated(ws.hopf) == (flags[0][1], flags[1][1]) and calls == []


@pytest.mark.parametrize("name", ["kp8", "group:S3"])
def test_a_job_evaluates_the_coassociativity_law_once(name, monkeypatch):
    """The axiom gate, the regular coactions and the regular bicomodule's compatibility
    all read one evaluation of (comult (x) id) comult - (id (x) comult) comult: one
    accumulation, the one under combination and failing_column, whose terms are all
    products with comult on the right."""
    from hopfcoh import linalg, report
    from hopfcoh.jobfile import JobSpec

    algebras, laws = [], []
    resolve, accumulate = report.resolve_algebra, linalg._accumulate

    def resolved(job):
        algebras.append(resolve(job))
        return algebras[-1]

    def counted(terms):
        if algebras and all(len(t) == 3 and t[2] is algebras[0].comult for t in terms):
            laws.append(terms)
        return accumulate(terms)

    monkeypatch.setattr(report, "resolve_algebra", resolved)
    monkeypatch.setattr(linalg, "_accumulate", counted)
    rep = report.run(JobSpec(algebra=name, tasks=("axioms", "cohomology:dual:0-1")))
    assert rep["consistent"] and set(rep["tasks"]["cohomology:dual:0-1"]) >= {"regular", "regular-trivial-left"}
    assert len(laws) == 1


@pytest.mark.parametrize("name", ["function:Z2", "group:S3", "kp8"])
def test_a_non_coassociative_comult_names_one_column_everywhere(name, monkeypatch):
    """The axiom report, the RightCoaction, LeftCoaction and Bicomodule ValueErrors on
    comult itself, and the right coaction identity on an equal copy of comult all name
    the least column of (comult (x) id) comult - (id (x) comult) comult."""
    from hopfcoh import comodule
    from hopfcoh.comodule import regular_left_coaction, right_coaction_failure
    from hopfcoh.hopf import HopfStarAlgebra, check_axioms

    g = get_algebra(name)
    s, i_s = g.dim, Matrix.identity(g.dim)
    delta = g.comult + Matrix(s * s, s, {(1, s - 1): ONE})
    h = HopfStarAlgebra(s, g.mult, g.unit, delta, g.counit, g.star, g.labels, g.kind, g.monoid)
    w = min(c for _, c in (kron(delta, i_s) @ delta - kron(i_s, delta) @ delta).support)
    assert {c.name: c.witness for c in check_axioms(h).checks}["comult coassociative"] == w
    assert right_coaction_failure(h, Matrix(s * s, s, delta.entries)) == w
    with pytest.raises(ValueError, match=f"^right coaction identity fails at column {w}$"):
        regular_right_coaction(h)
    with pytest.raises(ValueError, match=f"^left coaction identity fails at column {w}$"):
        regular_left_coaction(h)
    with monkeypatch.context() as unchecked:  # coactions built unchecked, so the pair meets its own check
        unchecked.setattr(comodule, "right_coaction_failure", lambda h, beta: None)
        unchecked.setattr(comodule, "left_coaction_failure", lambda h, gamma: None)
        right, left = regular_right_coaction(h), regular_left_coaction(h)
    with pytest.raises(ValueError, match=f"^bicomodule compatibility fails at column {w}$"):
        Bicomodule(right, left)


def test_regular_bicomodule_reduces_to_coassociativity():
    h = get_algebra("group:Z2")
    from hopfcoh.comodule import regular_left_coaction

    Bicomodule(regular_right_coaction(h), regular_left_coaction(h))


@pytest.mark.parametrize("name", algebra_names())
def test_widest_catalog_space_is_read_off_the_algebra(name):
    h = get_algebra(name)
    assert widest_catalog_space(h) == max(e.bicomodule.space_dim for e in catalog_bicomodules(h))


def _least_failing_column(lhs: Matrix, rhs: Matrix) -> int:
    """The witness by the plain route: both sides built, then their difference."""
    return min(c for _, c in (lhs - rhs).support)


def _tampered(m: Matrix, cell) -> Matrix:
    return m + Matrix(m.rows, m.cols, {cell: ONE})


@pytest.mark.parametrize("name", ["function:S3", "group:Z3", "kp8"])
def test_corrupted_coactions_name_the_least_failing_column(name):
    """One entry added to the regular beta or gamma breaks its coaction
    identity; the ValueError names the column the plain difference finds first."""
    from hopfcoh.comodule import LeftCoaction

    h = get_algebra(name)
    s, i_s = h.dim, Matrix.identity(h.dim)
    beta = _tampered(h.comult, (1, s - 1))
    w = _least_failing_column(kron(beta, i_s) @ beta, kron(i_s, h.comult) @ beta)
    with pytest.raises(ValueError, match=f"^right coaction identity fails at column {w}$"):
        RightCoaction(s, h, beta)
    gamma = _tampered(h.comult, (s, s - 2))
    w = _least_failing_column(kron(i_s, gamma) @ gamma, kron(h.comult, i_s) @ gamma)
    with pytest.raises(ValueError, match=f"^left coaction identity fails at column {w}$"):
        LeftCoaction(s, h, gamma)


def test_incompatible_coactions_name_the_least_failing_column():
    """Two Z2-gradings of C^2 that do not commute: gamma grades e_0, e_1 by
    1, t and beta grades e_0 + e_1, e_0 - e_1 by 1, t.  Each is a coaction,
    and the pair is no bicomodule."""
    from hopfcoh.comodule import LeftCoaction

    h = get_algebra("group:Z2")
    gamma = Matrix(4, 2, {(0, 0): ONE, (3, 1): ONE})  # row (a, x): u_a (x) e_x
    signs = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): -1, (0, 1): 1, (1, 1): -1, (2, 1): 1, (3, 1): 1}
    beta = Matrix(4, 2, {cell: Scalar(sign) / 2 for cell, sign in signs.items()})  # row (x, a): e_x (x) u_a
    right, left, i_s = RightCoaction(2, h, beta), LeftCoaction(2, h, gamma), Matrix.identity(2)
    w = _least_failing_column(kron(i_s, beta) @ gamma, kron(gamma, i_s) @ beta)
    with pytest.raises(ValueError, match=f"^bicomodule compatibility fails at column {w}$"):
        Bicomodule(right, left)


def _unit_law_broken(name: str):
    """The catalog algebra with comult(e_0), and so comult(1), moved off 1 (x) 1 at row 1."""
    from hopfcoh.hopf import HopfStarAlgebra

    g = get_algebra(name)
    s = g.dim
    delta = g.comult + Matrix(s * s, s, {(1, 0): ONE})
    return HopfStarAlgebra(s, g.mult, g.unit, delta, g.counit, g.star, g.labels, g.kind, g.monoid)


def _left_identity(h, gamma: Matrix):
    """The left coaction identity's witness by its two products."""
    ix, i_s = Matrix.identity(gamma.cols), Matrix.identity(h.dim)
    return failing_column([(1, kron(i_s, gamma), gamma), (-1, kron(h.comult, ix), gamma)])


@pytest.mark.parametrize("name", ["function:Z3", "group:S3", "kp8"])
def test_a_broken_unit_law_fails_every_trivial_gamma_at_column_zero(name):
    """trivial_left_coaction reads the unit law's witness and names the column the full
    two-product identity names: 0 on a nonzero space, none on the zero space."""
    from hopfcoh.hopf import check_axioms

    h = _unit_law_broken(name)
    assert h.unitality_witness == 0
    assert {c.name: c.witness for c in check_axioms(h).checks}["comult unital"] == 0
    for x in (0, 1, 3):
        w = _left_identity(h, kron(h.unit_col, Matrix.identity(x)))
        assert w == (0 if x else None)
        if x:
            with pytest.raises(ValueError, match=f"^left coaction identity fails at column {w}$"):
                trivial_left_coaction(h, x)
        else:
            assert trivial_left_coaction(h, x).gamma is h.trivial_gamma(0)


@pytest.mark.parametrize("name", ["function:S3", "kp8"])
def test_an_equal_copy_of_the_trivial_gamma_runs_the_full_checks(name, monkeypatch):
    """Only the memoized object is read off the unit law: an equal copy runs the
    two-product identity and compatibility, with the same witnesses."""
    from hopfcoh import comodule

    calls = []
    monkeypatch.setattr(comodule, "failing_column", lambda terms: calls.append(terms) or failing_column(terms))
    for h in (get_algebra(name), _unit_law_broken(name)):
        beta = SimpleNamespace(hopf=h, beta=Matrix.zero(2 * h.dim, 2))
        for x in (1, 2):
            memo = h.trivial_gamma(x)
            copy = Matrix(memo.rows, memo.cols, memo.entries)
            assert copy == memo and copy is not memo and h.trivial_gamma(x) is memo
            calls.clear()
            fast = left_coaction_failure(h, memo)
            assert calls == []
            assert left_coaction_failure(h, copy) == fast == _left_identity(h, memo) and len(calls) == 1
            if x == 2:
                calls.clear()
                assert compatibility_failure(beta, SimpleNamespace(hopf=h, gamma=memo)) is None and calls == []
                assert compatibility_failure(beta, SimpleNamespace(hopf=h, gamma=copy)) is None and len(calls) == 1


def _compatibility_terms(h, beta: Matrix, gamma: Matrix):
    i_s = Matrix.identity(h.dim)
    return combination([(1, kron(i_s, beta), gamma), (-1, kron(gamma, i_s), beta)])


@pytest.mark.parametrize("name", algebra_names())
def test_the_trivial_gamma_is_compatible_with_every_catalog_beta(name):
    h = get_algebra(name)
    betas = [c for _, c in catalog_right_comodules(h)] + [e.bicomodule.beta for e in catalog_bicomodules(h)]
    for beta in betas:
        gamma = trivial_left_coaction(h, beta.space_dim)
        assert compatibility_failure(beta, gamma) is None
        assert _compatibility_terms(h, beta.beta, gamma.gamma).is_zero()


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(st.sampled_from(["function:Z3", "group:Z2", "kp8"]), st.integers(1, 3), st.data())
def test_the_trivial_gamma_is_compatible_with_any_beta(name, x, data):
    """kron(I_s, beta)(1 (x) id) = 1 (x) beta = kron(1 (x) id, I_s) beta for every beta, a
    coaction or not: the shortcut's premise, and the shortcut's answer."""
    h = get_algebra(name)
    gaussian = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    value = gaussian | st.builds(Fraction, st.integers(-2, 2), st.just(3))
    cells = st.tuples(st.integers(0, x * h.dim - 1), st.integers(0, x - 1))
    beta = Matrix(x * h.dim, x, data.draw(st.dictionaries(cells, value, max_size=8)))
    gamma = trivial_left_coaction(h, x)
    assert _compatibility_terms(h, beta, gamma.gamma).is_zero()
    assert compatibility_failure(SimpleNamespace(hopf=h, beta=beta), gamma) is None


@pytest.mark.parametrize("name", ["function:S3", "kp8"])
def test_a_job_evaluates_the_unit_law_once(name, monkeypatch):
    """The axiom gate and every trivial gamma of the catalog, its coaction identity and
    its compatibility, read one evaluation of comult(1) - 1 (x) 1: no identity check of
    comodule runs on a trivial gamma."""
    from hopfcoh import comodule, hopf, report
    from hopfcoh.jobfile import JobSpec

    algebras, laws = [], []
    resolve = report.resolve_algebra

    def resolved(job):
        algebras.append(resolve(job))
        return algebras[-1]

    def unit_law(terms) -> bool:
        return terms[0][1] is algebras[0].comult and terms[0][-1] is algebras[0].unit_col

    def on_trivial_gamma(terms) -> bool:  # the left identity and compatibility: gamma on the right
        m, u = terms[0][-1], algebras[0].unit_col
        return m.rows == u.rows * m.cols > 0 and m == kron(u, Matrix.identity(m.cols))

    def spy(module, law):
        def counted(terms):
            if algebras and law(terms):
                laws.append(terms)
            return failing_column(terms)

        monkeypatch.setattr(module, "failing_column", counted)

    monkeypatch.setattr(report, "resolve_algebra", resolved)
    spy(hopf, unit_law)
    spy(comodule, on_trivial_gamma)
    tasks = ("axioms", "cohomology:dual:0-1", "cohomology:restricted:0-1")
    rep = report.run(JobSpec(algebra=name, tasks=tasks, degree_cap=2))
    assert rep["consistent"] and set(rep["tasks"]["cohomology:dual:0-1"]) >= {"regular-trivial-left", "unit-quotient"}
    assert len(laws) == 1
