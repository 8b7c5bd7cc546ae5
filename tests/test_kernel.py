"""kernel_basis (one fraction-free elimination, exact certificate) against
the reference exact elimination."""
from fractions import Fraction
from functools import cache
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcoh import linalg, lp
from hopfcoh.amenability import find_invariant_mean
from hopfcoh.catalog import algebra_names, get_algebra
from hopfcoh.cochain import build_complex
from hopfcoh.comodule import catalog_bicomodules, quotient_comodule, regular_right_coaction
from hopfcoh.hopf import function_algebra
from hopfcoh.jobfile import parse_input
from hopfcoh.linalg import CertificateError, LinearSolver, Matrix, image_rank, kernel_basis
from hopfcoh.monoids import FiniteMonoid
from hopfcoh.report import run
from hopfcoh.scalars import Scalar, as_scalar
from reference import (
    Z4_CHARACTER_JOB,
    ref_drop_cols,
    bench_workloads,
    order3_monoid_tables,
    reference_kernel,
    reference_null_space,
    reference_rank,
    reference_rref_rows,
    reference_solve,
)

P = 2**61 - 1  # a large prime: inputs that are zero, or drop rank, modulo P stay exact
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def assert_matches_reference(m: Matrix):
    basis = kernel_basis(m)
    assert basis == reference_kernel(m)
    assert len(basis) == m.cols - image_rank(m)
    return basis


@st.composite
def matrices(draw, entries):
    """A product L R of random factors, so kernels are large, with some rows and columns zeroed."""
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    inner = draw(st.integers(1, min(rows, cols)))
    left = Matrix.from_rows([[draw(entries) for _ in range(inner)] for _ in range(rows)])
    right = Matrix.from_rows([[draw(entries) for _ in range(cols)] for _ in range(inner)])
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    product = (left @ right).entries
    kept = {(r, c): v for (r, c), v in product.items() if r not in zero_rows and c not in zero_cols}
    return Matrix(rows, cols, kept)


def fractions(numerators=st.integers(-5, 5), denominators=st.integers(1, 4)):
    return st.builds(lambda a, b: Scalar(Fraction(a, b)), numerators, denominators)


gaussian_entries = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2))


@PROPERTY
@given(matrices(st.one_of(st.just(Scalar(0)), fractions())))
def test_random_rational_matrices(m):
    assert_matches_reference(m)


@PROPERTY
@given(matrices(fractions()), st.sampled_from([P, P * P]), st.integers(1, 3))
def test_denominators_divisible_by_the_prime(m, q, k):
    # an entry k / (3q): the prime divides the common denominator, so every other numerator is zero mod p
    entries = dict(m.entries)
    entries[(0, 0)] = Scalar(Fraction(k, 3 * q))
    assert_matches_reference(Matrix(m.rows, m.cols, entries))


@PROPERTY
@given(matrices(fractions(st.integers(2**40, 2**40 + 9), st.integers(1, 2**40))))
def test_entries_past_the_reconstruction_bound(m):
    assert_matches_reference(m)


@PROPERTY
@given(matrices(gaussian_entries))
def test_gaussian_entries(m):
    assert_matches_reference(m)


@PROPERTY
@given(st.one_of(matrices(st.one_of(st.just(Scalar(0)), fractions())), matrices(gaussian_entries)))
def test_image_rank_matches_reference(m):
    """image_rank over Q and Q(i), on products L R (mostly rank-deficient),
    wide and tall, in both orientations."""
    rank = reference_rank(m)
    assert image_rank(m) == image_rank(m.transpose()) == rank


@pytest.mark.parametrize(
    "rows, rank",
    [  # each drops rank modulo P or in its real part
        ([[P]], 1),  # zero mod P
        ([[1, 1], [1, 1 + P]], 2),  # rank 1 mod P: determinant P
        ([[1, Scalar(0, 1)], [Scalar(0, 1), -1]], 1),  # its real part has rank 2
        ([[1, 1], [Scalar(1, 1), 1]], 2),  # its real part has rank 1
    ],
)
def test_image_rank_does_not_trust_a_modular_rank_drop(rows, rank):
    m = Matrix.from_rows(rows)
    assert image_rank(m) == image_rank(m.transpose()) == reference_rank(m) == rank


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(st.sampled_from(order3_monoid_tables()))
def test_complexes_of_random_order3_monoids(table):
    h = function_algebra(FiniteMonoid(order=3, table=[list(r) for r in table], identity=0))
    for entry in catalog_bicomodules(h):
        for kind in ("natural", "dual"):
            for d in build_complex(entry.bicomodule, kind, 3).boundaries:
                assert_matches_reference(d)


@cache
def catalog_boundaries(name: str) -> list:
    """The distinct boundaries of every catalog bicomodule's natural, dual and
    bar complexes at cap 3 (the bar boundaries equal the dual ones entrywise)."""
    boundaries = {}
    for entry in catalog_bicomodules(get_algebra(name)):
        for kind in ("natural", "dual", "bar"):
            boundaries.update(dict.fromkeys(build_complex(entry.bicomodule, kind, 3).boundaries))
    return list(boundaries)


@pytest.mark.parametrize("name", algebra_names())
def test_catalog_boundaries_match_reference(name):
    for d in catalog_boundaries(name):
        assert kernel_basis(d) == reference_kernel(d)


@pytest.mark.parametrize("name", algebra_names())
def test_catalog_boundaries_take_one_modular_elimination(monkeypatch, name):
    """Every catalog boundary is real, and kernel_basis answers it with one
    elimination on its integer numerators."""
    boundaries = catalog_boundaries(name)
    calls = _counting_calls(monkeypatch, linalg._rref_rows)
    for d in boundaries:
        assert not d.im
        calls.clear()
        kernel_basis(d)
        assert len(calls) == 1 and calls[0] <= {int}, d


def _counting_calls(monkeypatch, rref_rows):
    """Install rref_rows as linalg._rref_rows; returns the list of its calls,
    each the set of the entry types it was given."""
    calls = []

    def counting(rows, cols):
        rows = list(rows)
        calls.append({type(x) for row in rows for x in row.values()})
        return rref_rows(rows, cols)

    monkeypatch.setattr(linalg, "_rref_rows", counting)
    return calls


def test_every_elimination_takes_ints_or_gaussian_ints(monkeypatch):
    """The one elimination runs on one number system: every row it is given,
    from every catalog boundary at cap 3, the non-real Z/4 job, a
    quotient_comodule's rref and the invariant-mean oracle on every monoid
    of order 3 and 4, holds ints or _GaussInts, and a non-real input is
    all _GaussInts."""
    calls = _counting_calls(monkeypatch, linalg._rref_rows)
    monkeypatch.setattr(lp, "_rref_rows", linalg._rref_rows)  # lp holds its own reference
    for name in algebra_names():
        for d in catalog_boundaries(name):
            kernel_basis(d)
    assert calls and all(kinds <= {int} for kinds in calls)
    calls.clear()
    assert run(parse_input(Z4_CHARACTER_JOB))["consistent"]
    assert {linalg._GaussInt} in calls
    s3 = regular_right_coaction(get_algebra("group:S3"))
    quotient_comodule(s3, [(Fraction(1, 2), 0, 0, 0, 0, 0), (Fraction(2, 3), Fraction(1, 3), 0, 0, 0, 0)])
    quotient_comodule(s3, [(0, Scalar(0, 1), 0, 0, 0, 0)])
    workloads = bench_workloads()
    for table in workloads.monoid_tables(3) + workloads.monoid_tables(4):
        find_invariant_mean(FiniteMonoid(len(table), table))
    assert all(kinds <= {int} or kinds == {linalg._GaussInt} for kinds in calls)


@st.composite
def null_space_inputs(draw, entries):
    """The nonzero ((r, c), x) cells of a random sparse matrix, and its column count."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    cells = {(r, c): x for r in range(rows) for c in range(cols) if (x := draw(entries))}
    return cells, cols


@PROPERTY
@given(null_space_inputs(st.one_of(st.just(Scalar(0)), fractions())))
def test_null_space_over_q_matches_two_pass_reference(spec):
    assert_null_space_matches_reference(*spec)


def assert_null_space_matches_reference(cells, cols):
    """_null_space of the rows cleared to integers: its basis and rank are
    the two-pass reference's over Q, and its rank-many pivot rows are
    distinct rows of the input, independent."""
    ids = sorted({r for r, _ in cells})
    rows = cleared([{c: x for (r, c), x in cells.items() if r == q} for q in ids])
    int_cells = (((ids[i], c), x) for i, row in enumerate(rows) for c, x in row.items())
    pivot_rows, basis = linalg._null_space(int_cells, max(ids, default=-1) + 1, cols)
    assert (len(pivot_rows), basis) == reference_null_space(cells, cols)
    assert len(set(pivot_rows)) == len(pivot_rows)
    picked = [{c: x for (r, c), x in cells.items() if r == q} for q in pivot_rows]
    assert len(reference_rref_rows(picked)[0]) == len(pivot_rows)


def cleared(rows):
    """Each sparse row of Fractions or Scalars times the lcm of its
    denominators, as the one elimination takes it: ints, or _GaussInts
    when some entry of the rows is non-real."""
    rows = [{c: as_scalar(x) for c, x in row.items()} for row in rows]
    gaussian = any(x.im for row in rows for x in row.values())
    out = []
    for row in rows:
        k = lcm(*(q.denominator for x in row.values() for q in (x.re, x.im)))
        ints = {c: ((x.re * k).numerator, (x.im * k).numerator) for c, x in row.items()}
        out.append({c: linalg._GaussInt(a, b) if gaussian else a for c, (a, b) in ints.items()})
    return out


def monic(pivots, rows):
    """Each row of _rref_rows divided by its pivot entry, as Scalars: the RREF rows."""
    return [{c: linalg._ratio(v, row[p]) for c, v in row.items()} for p, row in zip(pivots, rows)]


# -- the elimination reads the numerators unreduced ---------------------------


@pytest.mark.parametrize(
    "rows",
    [
        [[P, 2 * P], [1, 2]],  # a row zero mod P, nonzero over Q
        [[-P, 1, P - 1], [1, 2 * P, -1 - 2 * P]],
        [[-(2**80), -3 * 2**80, 0], [-7, -21, -(2**70)]],  # large negative entries
        [[Fraction(1, 3), Fraction(2, 3)], [Fraction(-1, 2), -1]],  # den != 1
        [[Fraction(-5, 6), Fraction(5, 3), 0], [Fraction(1, 7), Fraction(-2, 7), Fraction(3, 7)]],
        [[P, 1], [-P, 1]],  # rank 2 over Q, 1 mod P
    ],
)
def test_raw_numerators_feed_the_one_elimination(monkeypatch, rows):
    m = Matrix.from_rows(rows)
    calls = _counting_calls(monkeypatch, linalg._rref_rows)
    assert kernel_basis(m) == reference_kernel(m)
    assert calls == [{int}]


# -- tampering: a corrupted result is never returned --------------------------

# a rank-2 matrix with a 3-dimensional kernel of non-integer entries
TAMPER = Matrix.from_rows(
    [[1, 2, Fraction(1, 3), 0, 5], [2, -1, 0, Fraction(7, 2), 1], [3, 1, Fraction(1, 3), Fraction(7, 2), 6]]
)


def test_tamper_matrix_has_a_kernel():
    assert len(assert_matches_reference(TAMPER)) == 3


def _drop_last_pivot(original):
    def tampered(rows, cols):
        pivots, red, origins = original(rows, cols)
        if pivots:  # the pivot row's origin goes with it
            return pivots[:-1], red[:-1], origins[:-1]
        return pivots, red, origins

    return tampered


def test_rref_dropping_a_pivot_is_rejected(monkeypatch):
    monkeypatch.setattr(linalg, "_rref_rows", _drop_last_pivot(linalg._rref_rows))
    with pytest.raises(CertificateError, match="exact kernel basis"):
        kernel_basis(TAMPER)


# open: the certificate trusts the elimination's rank, so a spurious pivot
# drops a kernel vector unseen; a pivot-minor rank check would catch it
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the certificate trusts the elimination's rank")
def test_rref_adding_a_pivot_is_rejected(monkeypatch):
    expected = reference_kernel(TAMPER)
    original = linalg._rref_rows

    def add_pivot(rows, cols):
        rows = list(rows)
        pivots, red, origins = original(rows, cols)
        f = min(set(range(TAMPER.cols)) - set(pivots))  # a free column made a pivot
        red = [{c: v for c, v in row.items() if c != f} for row in red]
        spare = min(set(range(len(rows))) - set(origins))  # the row it claims to come from
        pivots, red, origins = zip(*sorted(zip(pivots + [f], red + [{f: 1}], origins + [spare])))
        return list(pivots), list(red), list(origins)

    monkeypatch.setattr(linalg, "_rref_rows", add_pivot)
    assert kernel_basis(TAMPER) == expected  # fails: one vector short, and D K = 0 still holds


# a rank-2 Gaussian matrix whose 2-dimensional kernel has non-real entries
GAUSSIAN = Matrix.from_rows([[1, Scalar(0, 1), 2, 0], [Scalar(1, 1), 0, 1, Scalar(0, -3)]])


@pytest.mark.parametrize("m", [GAUSSIAN, TAMPER], ids=["gaussian", "real"])
def test_kernel_with_a_corrupted_imaginary_part_is_rejected(monkeypatch, m):
    """One entry of the kernel basis off its lead gets i added: the RREF
    shape still holds, so only the product D K = 0 can reject it."""
    rows, basis = linalg._null_space(linalg._int_cells(m), m.rows, m.cols)
    assert linalg._is_kernel_rref(m, len(rows), basis)
    v = basis[0]
    c = next(c for c in v if c != min(v))
    corrupted = [{**v, c: v[c] + Scalar(0, 1)}] + basis[1:]
    assert not linalg._is_kernel_rref(m, len(rows), corrupted)
    monkeypatch.setattr(linalg, "_null_space", lambda cells, height, cols, drop: (rows, corrupted))
    with pytest.raises(CertificateError, match="exact kernel basis"):
        kernel_basis(m)


@pytest.mark.parametrize("m", [GAUSSIAN, TAMPER, Matrix.identity(3)], ids=["gaussian", "real", "identity"])
def test_an_empty_kernel_basis_is_certified_by_its_count_alone(monkeypatch, m):
    """With no basis vector D K = 0 holds vacuously: no product is formed, and
    the count len(basis) = cols - rank is the whole check."""

    def no_product(*args):
        raise AssertionError("an empty kernel basis needs no product")

    monkeypatch.setattr(linalg, "_product", no_product)
    monkeypatch.setattr(linalg, "product_is_zero", no_product)
    assert linalg._is_kernel_rref(m, m.cols, [])
    assert not linalg._is_kernel_rref(m, m.cols - 1, [])


@pytest.mark.parametrize("m", [GAUSSIAN, TAMPER], ids=["gaussian", "real"])
def test_corrupted_elimination_raises(monkeypatch, m):
    """An entry off the pivot of the elimination's first pivot row is doubled:
    the basis keeps its RREF shape, and D K = 0 rejects it."""
    original = linalg._rref_rows

    def corrupting(rows, cols):
        pivots, red, origins = original(rows, cols)
        row = dict(red[0])
        c = next(c for c in row if c != pivots[0])
        row[c] = row[c] * 2
        return pivots, [row, *red[1:]], origins

    monkeypatch.setattr(linalg, "_rref_rows", corrupting)
    with pytest.raises(CertificateError, match="exact kernel basis"):
        kernel_basis(m)


# -- kernel_basis_without: A = D without some columns, from D's own cells ------


@st.composite
def sparse_with_drop(draw):
    """A random sparse integer or Gaussian matrix D, or a product L R with a large
    kernel, and columns of D to drop: none, all of them, or a random set."""
    ints = st.builds(Scalar, st.integers(-4, 4))
    entries = draw(st.sampled_from([ints, gaussian_entries]))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    sparse = Matrix(rows, cols, {(r, c): x for r in range(rows) for c in range(cols) if (x := draw(entries))})
    m = draw(st.one_of(st.just(sparse), matrices(entries)))
    columns = range(m.cols)
    drop = draw(st.one_of(st.just([]), st.just(list(columns)), st.lists(st.sampled_from(columns), unique=True)))
    return m, drop


@PROPERTY
@given(sparse_with_drop())
def test_kernel_without_columns_matches_the_dropped_copy(spec):
    """The pivot rows and the basis, in the kept columns' order, are kernel_basis's
    of the reference's copy of D without the columns."""
    m, drop = spec
    got, expected = linalg.kernel_basis_without(m, drop), kernel_basis(ref_drop_cols(m, drop))
    assert (got.pivot_rows, got) == (expected.pivot_rows, expected)
    assert all(len(v) == m.cols - len(drop) for v in got)


def test_kernel_lifted_onto_a_dropped_column_is_rejected(monkeypatch):
    """A = [1 0], D = [1 0 -1] without column 2, has the kernel e_1.  The lifted
    vector e_0 + e_2 is in RREF, of the right count and in ker D, so only its
    entry on the dropped column rejects it: read on A's columns it is e_0."""
    m, rows = Matrix.from_rows([[1, 0, -1]]), [0]
    assert linalg._null_space(linalg._int_cells(m), m.rows, m.cols, frozenset({2})) == (rows, [{1: 1}])
    lifted = [{0: Scalar(1), 2: Scalar(1)}]
    assert linalg._is_kernel_rref(m, 1, lifted, frozenset({1}))
    assert not linalg._is_kernel_rref(m, 1, lifted, frozenset({2}))
    monkeypatch.setattr(linalg, "_null_space", lambda cells, height, cols, drop: (rows, lifted))
    with pytest.raises(CertificateError, match="exact kernel basis"):
        linalg.kernel_basis_without(m, [2])


@pytest.mark.parametrize("m", [GAUSSIAN, TAMPER], ids=["gaussian", "real"])
def test_kernel_without_columns_with_a_corrupted_entry_is_rejected(monkeypatch, m):
    """One entry of A's kernel basis off its lead is doubled: the RREF shape
    still holds, and only D Z = 0, on D itself, rejects it."""
    drop = frozenset({0})
    rows, basis = linalg._null_space(linalg._int_cells(m), m.rows, m.cols, drop)
    assert linalg._is_kernel_rref(m, len(rows), basis, drop)
    v = basis[0]
    c = next(c for c in v if c != min(v))
    corrupted = [{**v, c: v[c] * 2}] + basis[1:]
    assert not linalg._is_kernel_rref(m, len(rows), corrupted, drop)
    monkeypatch.setattr(linalg, "_null_space", lambda cells, height, cols, drop: (rows, corrupted))
    with pytest.raises(CertificateError, match="exact kernel basis"):
        linalg.kernel_basis_without(m, drop)


@st.composite
def sparse_rows(draw):
    """Up to 6 sparse rows over up to 7 columns with Fraction entries, and the column count."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.builds(Fraction, st.integers(-5, 5), st.integers(1, 5)))
    return [{c: x for c in range(cols) if (x := draw(entry))} for _ in range(rows)], cols


def as_matrix(rows, cols):
    return Matrix(len(rows), cols, {(r, c): x for r, row in enumerate(rows) for c, x in row.items()})


def assert_solves_like_reference(solver, rows, cols, rhs):
    """solver.solve(rhs) is the reference sweep's answer, with its pivots, entry by entry as Scalars."""
    pivots, expected = reference_solve(rows, cols, rhs)
    got = solver.solve(rhs)
    assert solver.pivots == pivots
    assert got == expected
    assert all(type(x) is Scalar for x in got.solution or got.certificate)
    return got


@PROPERTY
@given(sparse_rows())
def test_solver_sweep_keeps_the_entry_field(spec):
    """LinearSolver's sweep over the rows as a Matrix, against the reference
    sweep's unit tracks on the Fraction rows: the same pivots and the same
    solution of a consistent rhs (the row sums, m times the all-ones
    vector), and the same certificate of an inconsistent one (the row sums
    plus a unit where a zero row's track is nonzero), entry by entry, as
    Scalars."""
    rows, cols = spec
    solver = LinearSolver(as_matrix(rows, cols))
    consistent = [sum(row.values(), Fraction(0)) for row in rows]
    assert assert_solves_like_reference(solver, rows, cols, consistent).consistent
    units = [{r: Fraction(1)} for r in range(len(rows))]
    zero_tracks = reference_rref_rows(rows, units)[2][0]
    if zero_tracks:
        inconsistent = list(consistent)
        inconsistent[min(zero_tracks[0])] += 1
        assert not assert_solves_like_reference(solver, rows, cols, inconsistent).consistent
    else:
        assert solver.rank == len(rows)


@st.composite
def systems(draw):
    """Sparse rows with Fraction or Gaussian entries, their column count and two right-hand sides."""
    rows, cols = draw(sparse_rows())
    if draw(st.booleans()):
        im = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        rows = [{c: Scalar(x, draw(im)) for c, x in row.items()} for row in rows]
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2)))
    return rows, cols, [draw(entry) for _ in rows], [draw(entry) for _ in rows]


@PROPERTY
@given(systems())
def test_one_solver_answers_each_rhs_like_the_reference(spec):
    """One LinearSolver asked twice returns each right-hand side's own
    answer, the reference sweep's, over Q and over Q(i)."""
    rows, cols, first, second = spec
    solver = LinearSolver(as_matrix(rows, cols))
    for rhs in (first, second, first):
        assert_solves_like_reference(solver, rows, cols, rhs)


@st.composite
def fractional_systems(draw):
    """Sparse rows over a common denominator > 1, real or Gaussian, their
    column count, and a consistent and an arbitrary right-hand side, both
    with fractional entries."""
    rows, cols = draw(sparse_rows())
    d = draw(st.integers(2, 6))
    rows[0][draw(st.integers(0, cols - 1))] = Fraction(1)  # so the Matrix's den is d or a multiple
    frac = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6))
    gaussian = draw(st.booleans())
    rows = [{c: Scalar(x / d, draw(frac) / d if gaussian else 0) for c, x in row.items()} for row in rows]
    entry = st.builds(Scalar, frac, frac if gaussian else st.just(0))
    x = [draw(entry) for _ in range(cols)]
    consistent = [sum((v * x[c] for c, v in row.items()), Scalar(0)) for row in rows]
    return rows, cols, consistent, [draw(entry) for _ in rows]


@PROPERTY
@given(fractional_systems())
def test_integer_sweep_matches_the_reference_on_fractional_systems(spec):
    """The fraction-free sweep on a Matrix with den != 1 and a fractional rhs,
    over Q and over Q(i): the reference sweep's pivots, and its solution or
    certificate entry by entry."""
    rows, cols, consistent, arbitrary = spec
    m = as_matrix(rows, cols)
    assert m.den != 1
    solver = LinearSolver(m)
    assert assert_solves_like_reference(solver, rows, cols, consistent).consistent
    assert_solves_like_reference(solver, rows, cols, arbitrary)


def test_solver_rank_is_known_only_after_solve():
    solver = LinearSolver(Matrix.from_rows([[1, 0], [1, 0]]))
    with pytest.raises(ValueError, match="only after solve"):
        solver.rank
    solver.solve((1, 1))
    assert solver.rank == 1


# -- the row-at-a-time elimination against the column sweep -------------------


def assert_rref_matches_sweep(rows, cols=None):
    """_rref_rows on the rows cleared to integers against reference_rref_rows
    on the rows: the same pivots, and each returned row, divided by its
    pivot, the reference's row entry by entry; the input untouched, the
    origins distinct, every entry of the input's number system and a real
    row's pivot positive.  cols defaults to the least column count that
    holds the rows."""
    ints = cleared(rows)
    before = [dict(r) for r in ints]
    cols = 1 + max((c for r in rows for c in r), default=-1) if cols is None else cols
    got = linalg._rref_rows(ints, cols)
    pivots, red, origins = got
    assert (pivots, monic(pivots, red)) == reference_rref_rows(rows)[:2]
    assert [r.items() for r in ints] == [r.items() for r in before]
    assert len(origins) == len(set(origins)) == len(pivots)
    assert [min(r) for r in red] == pivots == sorted(set(pivots))
    kinds = {type(x) for r in ints for x in r.values()}
    assert all(type(x) in kinds for r in red for x in r.values())
    assert all(row[p] > 0 for p, row in zip(pivots, red) if type(row[p]) is int)
    return got


@st.composite
def row_lists(draw, entries, times):
    """Random sparse rows with nonzero entries, with zero rows, duplicates and
    multiples k * row (k drawn from `times`) put in at random places."""
    cols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, cols - 1), entries, max_size=4), max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["zero", "duplicate", "multiple"]))
        if kind == "zero" or not rows:
            new = {}
        else:
            row, k = draw(st.sampled_from(rows)), draw(entries)
            new = dict(row) if kind == "duplicate" else {c: times(x, k) for c, x in row.items()}
        rows.insert(draw(st.integers(0, len(rows))), new)
    return rows


nonzero_fractions = st.builds(Fraction, st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda q: st.sampled_from([q, -q])
)
gaussians = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2)).filter(bool)


@PROPERTY
@given(row_lists(nonzero_fractions, lambda x, k: x * k))
def test_row_at_a_time_matches_the_sweep_over_q(rows):
    assert_rref_matches_sweep(rows)


@PROPERTY
@given(row_lists(gaussians, lambda x, k: x * k))
def test_row_at_a_time_matches_the_sweep_over_gaussian_scalars(rows):
    assert_rref_matches_sweep(rows)


@pytest.mark.parametrize(
    "rows, pivots, reduced",
    [
        ([], [], []),
        ([{}, {}], [], []),
        # the second row's pivot column 1 must be cleared from the first row
        ([{0: 1, 1: 1}, {1: 2}], [0, 1], [{0: 1}, {1: 1}]),
        # the third row meets both pivot columns; reducing by one alone leaves a spurious pivot
        ([{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1}], [0, 1, 2], [{0: 1}, {1: 1}, {2: 1}]),
        # the third row is the sum of the first two and reduces to zero
        ([{0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 2}], [0, 1], [{0: 1, 2: 1}, {1: 1, 2: 1}]),
    ],
)
def test_row_at_a_time_small_cases(rows, pivots, reduced):
    rows = [{c: Fraction(x) for c, x in r.items()} for r in rows]
    got = assert_rref_matches_sweep(rows)
    assert (got[0], monic(*got[:2])) == (pivots, reduced)


@pytest.mark.parametrize("name", algebra_names())
def test_row_at_a_time_matches_the_sweep_on_catalog_boundaries(name):
    """Every catalog boundary at cap 3, with its columns reversed as
    _null_space numbers them, on its integer numerators as kernel_basis
    hands them over."""
    for d in catalog_boundaries(name):
        assert not d.im
        last = d.cols - 1
        rows = linalg._rows_of(((r, last - c), Fraction(v)) for (r, c), v in d.re.items())
        assert_rref_matches_sweep(rows, d.cols)


# -- one-entry rows: no copy and no sweep -------------------------------------


@pytest.mark.parametrize(
    "rows, pivots, reduced, origins",
    [
        # the unit row's column is cleared from both multi-entry pivot rows holding it
        ([{0: 1, 2: 1}, {1: 1, 2: 3}, {2: 5}], [0, 1, 2], [{0: 1}, {1: 1}, {2: 1}], [0, 1, 2]),
        # a repeated unit row is skipped; the first copy stays the origin
        ([{1: 2}, {0: 1, 1: 1}, {1: 3}, {1: 2}, {0: 1, 2: 1}], [0, 1, 2], [{0: 1}, {1: 1}, {2: 1}], [1, 0, 4]),
        # e_1 comes from two multi-entry rows, and the unit row at 1 is skipped
        ([{0: 1, 1: 1}, {0: 1, 1: -1}, {1: 7}, {0: 1, 2: 1}], [0, 1, 2], [{0: 1}, {1: 1}, {2: 1}], [0, 1, 3]),
        # column 0's pivot row is not a unit row: the unit row at 0 takes the sweep
        ([{0: 1, 1: 1}, {0: 2}, {1: 4}], [0, 1], [{0: 1}, {1: 1}], [0, 1]),
        # unit rows P and 2P, zero mod P: the first makes column 1's pivot, the second is skipped
        ([{1: P}, {1: 2 * P}, {0: 1, 1: 1}, {1: 3}], [0, 1], [{0: 1}, {1: 1}], [2, 0]),
    ],
)
@pytest.mark.parametrize("k", [0, P])
def test_unit_rows_match_the_sweep(rows, pivots, reduced, origins, k):
    """The unit-row cases of _rref_rows against reference_rref_rows, with each
    row times 1 + k, which changes no RREF: a unit pivot row holds the entry 1."""
    got = assert_rref_matches_sweep([{c: Fraction(x * (1 + k)) for c, x in r.items()} for r in rows])
    assert (got[0], monic(*got[:2]), got[2]) == (pivots, reduced, origins)
    assert all(row == {p: 1} for p, row in zip(got[0], got[1]) if len(row) == 1)


@st.composite
def unit_rich_rows(draw, entries, times):
    """row_lists with one-entry rows {c: x} put in at random places, at least as many
    as the other rows, on their columns and the one past them: most pivot rows become
    the unit row {c: 1}, by which a later row is cleared at c by deleting c."""
    rows = draw(row_lists(entries, times))
    width = 1 + max((c for r in rows for c in r), default=0)
    for _ in range(draw(st.integers(len(rows), len(rows) + 3))):
        rows.insert(draw(st.integers(0, len(rows))), {draw(st.integers(0, width)): draw(entries)})
    return rows


@PROPERTY
@given(unit_rich_rows(nonzero_fractions, lambda x, k: x * k))
def test_rows_rich_in_unit_rows_match_the_sweep_over_q(rows):
    assert_rref_matches_sweep(rows)
    assert_origins_raise_the_rank(rows, 1 + max((c for r in rows for c in r), default=-1))


@PROPERTY
@given(unit_rich_rows(gaussians, lambda x, k: x * k))
def test_rows_rich_in_unit_rows_match_the_sweep_over_gaussian_scalars(rows):
    assert_rref_matches_sweep(rows)
    assert_origins_raise_the_rank(rows, 1 + max((c for r in rows for c in r), default=-1))


@PROPERTY
@given(st.dictionaries(st.integers(0, 6), st.integers(-9, 9).filter(bool), min_size=1), st.data())
def test_clearing_by_the_unit_row_deletes_the_column(row, data):
    """_clear by the pivot row {c: 1} leaves row without c, the rest unchanged and in order,
    and takes the row's key out of present[c] alone."""
    c = data.draw(st.sampled_from(sorted(row)))
    got, present = dict(row), {k: {"key", "other"} for k in row}
    linalg._clear(got, {c: 1}, c, present, "key")
    assert list(got.items()) == [(k, v) for k, v in row.items() if k != c]
    assert present == {k: {"other"} if k == c else {"key", "other"} for k in row}


@pytest.mark.parametrize("with_present", [False, True])
def test_clearing_a_gaussian_row_by_a_unit_pivot_keeps_its_scale(with_present):
    """A Gaussian pivot 1 + 0i is a unit: clearing by the row {0: 1} deletes column 0, and
    clearing by {0: 1, 1: 1 + i} subtracts without scaling or dividing by the content."""
    g = linalg._GaussInt
    assert g(1, 0) == 1 and g(1, 0) != g(1, 1) and g(2, 0) != 1
    for prow, expected in (({0: g(1, 0)}, {1: (4, 2), 2: (6, 0)}), ({0: g(1, 0), 1: g(1, 1)}, {1: (2, 0), 2: (6, 0)})):
        row = {0: g(2, 0), 1: g(4, 2), 2: g(6, 0)}
        present = {c: {"key"} for c in (*row, *prow)} if with_present else None
        linalg._clear(row, prow, 0, present, "key")
        assert {c: (v.real, v.imag) for c, v in row.items()} == expected
        if with_present:
            assert present == {0: set(), 1: {"key"}, 2: {"key"}}


# -- the full-rank stop and the pivot rows' origins ---------------------------


def assert_full_rank_stop(rows, width):
    """_rref_rows given the column count: the sweep's pivots and rows; the
    origins are distinct input rows spanning the same rows; and no input row
    after the one that completed the pivots is read."""
    read = []
    ints = cleared(rows)
    got = linalg._rref_rows((read.append(i) or r for i, r in enumerate(ints)), width)
    pivots, red, origins = got
    assert (pivots, monic(pivots, red)) == reference_rref_rows(rows)[:2]
    assert len(origins) == len(set(origins)) == len(pivots)
    assert reference_rref_rows([rows[i] for i in origins])[:2] == (pivots, monic(pivots, red))
    assert read == list(range(max(origins) + 1 if len(pivots) == width else len(rows)))


@st.composite
def completed_rows(draw, entries, times):
    """row_lists with every unit row of the columns put in at random places,
    so the rows reach full column rank, mostly before the last row."""
    rows = draw(row_lists(entries, times))
    width = 1 + max((c for r in rows for c in r), default=0)
    for c in draw(st.permutations(range(width))):
        rows.insert(draw(st.integers(0, len(rows))), {c: 1})
    return rows, width


@PROPERTY
@given(completed_rows(nonzero_fractions, lambda x, k: x * k), st.booleans())
def test_full_rank_stop_matches_the_sweep_over_q(spec, short):
    rows, width = spec
    assert_full_rank_stop([{c: Fraction(x) for c, x in r.items()} for r in rows], width + short)


def assert_origins_raise_the_rank(rows, cols):
    """Row i is an origin of _rref_rows exactly when it raises the reference
    rank of rows[:i]: the origins are the greedy-first row basis."""
    origins = linalg._rref_rows(cleared(rows), cols)[2]
    ranks = [len(reference_rref_rows(rows[:i])[0]) for i in range(len(rows) + 1)]
    assert sorted(origins) == [i for i in range(len(rows)) if ranks[i + 1] > ranks[i]]


@PROPERTY
@given(row_lists(nonzero_fractions, lambda x, k: x * k))
def test_origins_are_the_rows_that_raise_the_rank_over_q(rows):
    assert_origins_raise_the_rank(rows, 1 + max((c for r in rows for c in r), default=-1))


@PROPERTY
@given(completed_rows(nonzero_fractions, lambda x, k: x * k), st.booleans())
def test_origins_raise_the_rank_up_to_the_full_rank_stop_over_q(spec, short):
    rows, width = spec
    assert_origins_raise_the_rank([{c: Fraction(x) for c, x in r.items()} for r in rows], width + short)
