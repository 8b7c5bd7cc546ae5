"""The benchmark's tracer wraps hopfcoh functions by name (bench/tracing.py).

Installing it resolves every name it wraps, so a renamed or deleted layer
function fails here rather than in a benchmark run.
"""
import importlib.util
from pathlib import Path

from hopfcoh import cochain, linalg
from hopfcoh.linalg import Matrix
from hopfcoh.scalars import I

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("hopfcoh_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_and_op_counter_install_and_uninstall():
    tracing = _tracing()
    originals = (linalg.kernel_basis, cochain.homotopy_from_codiagonal, Matrix.__dict__["apply"])
    tracer, counter = tracing.Tracer(), tracing.OpCounter()
    for probe in (tracer, counter):
        probe.install()
        try:
            assert linalg.kernel_basis is not originals[0]
            # Gaussian entries take the exact path, whose Scalar arithmetic the counter counts
            linalg.kernel_basis(Matrix.from_rows([[1, I], [I, -1]]))
        finally:
            probe.uninstall()
        assert (linalg.kernel_basis, cochain.homotopy_from_codiagonal, Matrix.__dict__["apply"]) == originals
    assert tracer.summary()["linalg.eliminations"] == 1
    assert counter.ops[0] > 0
