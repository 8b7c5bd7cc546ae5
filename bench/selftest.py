"""Fast self-tests of the benchmark's own code.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
for p in (str(BENCH.parent / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

from hopfcoh import catalog, cochain, linalg  # noqa: E402
from hopfcoh.comodule import catalog_bicomodules  # noqa: E402
from hopfcoh.jobfile import parse_input  # noqa: E402
from hopfcoh.linalg import Matrix, image_rank  # noqa: E402
from hopfcoh.report import render_json, run  # noqa: E402
from hopfcoh.scalars import Scalar  # noqa: E402

import checks  # noqa: E402
import modrank  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _random_matrix(rng, rows, cols, rank, complex_entries):
    def entry():
        if rng.random() < 0.4:
            return Scalar(0)
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        im = Fraction(rng.randint(-3, 3), rng.randint(1, 5)) if complex_entries else 0
        return Scalar(re, im)

    left = Matrix.from_rows([[entry() for _ in range(rank)] for _ in range(rows)])
    right = Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rank)])
    return left @ right


def test_modular_rank_matches_image_rank():
    rng = random.Random(20010101)
    for trial in range(60):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        m = _random_matrix(rng, rows, cols, rng.randint(1, min(rows, cols)), trial % 3 == 0)
        assert modrank.rank(m) == image_rank(m), (trial, m)


def test_monoid_enumeration_counts():
    three, four = workloads.monoid_tables(3), workloads.monoid_tables(4)
    assert (len(three), len(four)) == (11, 156)
    for t in three + four:
        n = len(t)
        assert all(t[0][j] == j == t[j][0] for j in range(n))
        assert all(t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n))
    amenable = [workloads.has_invariant_mean(t) for t in three + four]
    assert any(amenable) and not all(amenable)


def _job(algebra, tasks):
    return f"algebra = {algebra}\ndegree-cap = 3\ntasks = {tasks}\n"


def test_wrappers_reach_kernel_basis_through_cochain():
    original = cochain.kernel_basis
    h = catalog.get_algebra("function:Z2")
    bic = catalog_bicomodules(h)[0].bicomodule
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cochain.kernel_basis is not original
        cx = cochain.build_complex(bic, "dual", 3)
        cochain.cohomology(cx, 1)
    finally:
        tracer.uninstall()
    assert cochain.kernel_basis is original and linalg.kernel_basis is original
    names = tracer.fn_names
    kb = names.index("linalg:kernel_basis")
    coh = names.index("cochain:cohomology")
    spans = [i for i in range(len(tracer.fn)) if tracer.fn[i] == kb]
    assert spans and all(tracer.fn[tracer.parent[i]] == coh for i in spans)
    totals = tracer.summary()
    assert totals["cochain.builds"] == 1 and totals["linalg.eliminations"] >= 1


def test_changed_cohomology_dimension_is_rejected():
    text = _job("function:Z3", "axioms, cohomology:dual:0-2")
    good = render_json(run(parse_input(text)))
    assert checks.Checker().check(text, good) == []
    rep = json.loads(good)
    table = rep["tasks"]["cohomology:dual:0-2"]
    table["regular"]["1"] += 1
    bad = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    failures = checks.Checker().check(text, bad)
    assert any("regular H^1" in f for f in failures), failures


def test_tampered_certificates_are_rejected():
    for algebra, field in (("function:Z3", "weights"), ("function:rzid3", "farkas")):
        text = _job(algebra, "axioms, mean")
        rep = run(parse_input(text))
        assert checks.Checker().check(text, render_json(rep)) == []
        values = rep["tasks"]["mean"][field]
        values[0], values[-1] = values[-1], str(Fraction(values[0]) + 1)
        assert checks.Checker().check(text, render_json(rep)), algebra


def test_tracing_leaves_report_bytes_unchanged():
    text = _job("group:Z2", "axioms, codiagonal, mean, cohomology:dual:0-2, check-B20, check-C10")
    plain = render_json(run(parse_input(text)))
    for probe in (tracing.Tracer(), tracing.OpCounter()):
        probe.install()
        try:
            traced = render_json(run(parse_input(text)))
        finally:
            probe.uninstall()
        assert traced == plain
    assert probe.ops[0] > 0


def test_speed_clock_counts_work_not_wall():
    """N probes take N * PROBE_REF_S calibrated seconds, whatever the
    machine's speed; the clock restores SIGALRM and leaves reports alone."""
    import signal

    before = signal.getsignal(signal.SIGALRM)
    clock = speed.SpeedClock()
    clock.start()
    for _ in range(1500):
        speed.probe()
    wall, calibrated, probes = clock.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert probes >= 3 and wall > 0
    assert 0.7 < calibrated / (1500 * speed.PROBE_REF_S) < 1.3, calibrated
    text = _job("group:Z3", "axioms, codiagonal, mean, cohomology:dual:0-2")
    plain = render_json(run(parse_input(text)))
    clock.start()
    timed = render_json(run(parse_input(text)))
    clock.stop()
    assert timed == plain


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
