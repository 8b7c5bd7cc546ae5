"""The benchmark's own self-tests (bench/selftest.py), run with the suite.

They hold linalg.image_rank to the benchmark's independent modular rank and
the mean and Farkas certificates to the benchmark's own checker, so a change
to the elimination or the LP that breaks either fails here.
"""
import importlib.util
from pathlib import Path

import pytest

SELFTEST = Path(__file__).resolve().parents[1] / "bench" / "selftest.py"


def _selftest():
    spec = importlib.util.spec_from_file_location("hopfcoh_bench_selftest", SELFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SELFTEST_MODULE = _selftest()
NAMES = sorted(name for name in vars(SELFTEST_MODULE) if name.startswith("test_"))


@pytest.mark.parametrize("name", NAMES)
def test_bench_selftest(name):
    getattr(SELFTEST_MODULE, name)()
