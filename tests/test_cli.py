import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from hopfcoh.catalog import get_algebra
from hopfcoh.cli import main
from hopfcoh.comodule import pair_graded_bicomodule
from hopfcoh.jobfile import JobParseError, JobSpec, parse_input, render
from hopfcoh.report import InputError, render_json, run
from hopfcoh.scalars import format_scalar
from hopfcoh.tasks import COHOMOLOGY, KINDS, TASKS
from reference import Z4_CHARACTER_JOB, bench_workloads

MINIMAL_JOB = """
# smallest useful job
algebra = group:Z2
tasks = axioms, saturation
"""

INLINE_RZID = """
algebra = inline-function
tasks = axioms, mean
begin cayley
  identity = 0
  row 0 1 2
  row 1 1 2
  row 2 1 2
end
"""

BAD_SCALAR = """
algebra = group:Z2
tasks = axioms
begin comodule X
  dim = 1
  begin beta
    row 1/0
    row 0
  end
end
"""

MISSIZED = """
algebra = group:Z2
tasks = axioms
begin comodule X
  dim = 2
  begin beta
    row 1 0
    row 0 1
  end
end
"""


def test_parse_minimal_job():
    job = parse_input(MINIMAL_JOB)
    assert job.algebra == "group:Z2"
    assert job.tasks == ("axioms", "saturation")
    assert job.degree_cap == 3


def test_parse_render_parse_is_identity():
    for text in (MINIMAL_JOB, INLINE_RZID):
        job = parse_input(text)
        assert parse_input(render(job)) == job


def test_malformed_rational_rejected_with_line():
    with pytest.raises(JobParseError) as err:
        parse_input(BAD_SCALAR)
    assert "line" in str(err.value)


def test_unknown_task_rejected():
    with pytest.raises(JobParseError):
        parse_input("algebra = group:Z2\ntasks = axioms, frobnicate\n")


def test_trailing_comma_continues_value():
    job = parse_input("algebra = group:Z2\ntasks = axioms,\n       saturation, counit\n")
    assert job.tasks == ("axioms", "saturation", "counit")
    with pytest.raises(JobParseError):
        parse_input("algebra = group:Z2\ntasks = axioms,\n")


def test_shipped_sample_job_runs_consistently():
    import pathlib

    text = (pathlib.Path(__file__).parent.parent / "sample.job").read_text()
    job = parse_input(text)
    assert parse_input(render(job)) == job
    report = run(job)
    assert report["consistent"] is True
    assert report["tasks"]["mean"]["weights"] == ["0", "1"]
    assert report["tasks"]["cohomology:dual:0-2"]["unitleg"] == {"0": 2, "1": 0, "2": 0}


def test_missized_coaction_is_input_error_before_tasks():
    job = parse_input(MISSIZED)
    with pytest.raises(InputError) as err:
        run(job)
    assert "beta must be" in str(err.value)


ONE_DIM_COMODULE = "algebra = group:Z2\ntasks = axioms\nbegin comodule X\n  dim = 1\n{blocks}end\n"
GOOD_BETA = "  begin beta\n    row 1\n    row 0\n  end\n"


@pytest.mark.parametrize(
    "blocks, message",
    [
        ("  begin beta\n    row 1\n    row 0 1\n  end\n", "beta must be 2 rows of 1 entries, got row 2 of length 2"),
        ("  begin beta\n    row 1\n  end\n", "beta must be 2 rows of 1 entries, got 1 rows"),
        ("  begin beta\n    row 1 0\n  end\n", "beta must be 2 rows of 1 entries, got 1 rows, row 1 of length 2"),
        (
            GOOD_BETA + "  begin gamma\n    row 1 0\n    row 0\n  end\n",
            "gamma must be 2 rows of 1 entries, got row 1 of length 2",
        ),
        (
            GOOD_BETA + "  begin gamma\n    row 1\n    row 0\n    row 0\n  end\n",
            "gamma must be 2 rows of 1 entries, got 3 rows",
        ),
    ],
    ids=["beta-row", "beta-count", "beta-count-and-row", "gamma-row", "gamma-count"],
)
def test_a_missized_coaction_row_exits_two_naming_it(blocks, message, tmp_path, capsys):
    """A beta or gamma block of the wrong shape names the row count it got and its
    first row, counting from 1, of another length."""
    job = tmp_path / "missized.job"
    job.write_text(ONE_DIM_COMODULE.format(blocks=blocks))
    assert main(["--input", str(job), "check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: comodule 'X': {message}\n"


def test_inline_function_algebra_mean_infeasible():
    job = parse_input(INLINE_RZID)
    report = run(job)
    assert report["tasks"]["mean"]["feasible"] is False
    assert report["tasks"]["mean"]["farkas"]


def test_run_codiagonal_task_group_s3():
    job = parse_input("algebra = group:S3\ntasks = axioms, codiagonal\n")
    report = run(job)
    assert report["tasks"]["codiagonal"]["exists"] is True


def test_explicit_pair_graded_job_roundtrip():
    # matrices generated by the catalog builder, rendered, parsed, and re-run
    h = get_algebra("group:Z3")
    b = pair_graded_bicomodule(h)
    beta_rows = "\n".join(
        "    row " + " ".join(format_scalar(b.beta.beta[(i, j)]) for j in range(9))
        for i in range(27)
    )
    gamma_rows = "\n".join(
        "    row " + " ".join(format_scalar(b.gamma.gamma[(i, j)]) for j in range(9))
        for i in range(27)
    )
    text = (
        "algebra = group:Z3\n"
        "tasks = axioms, cohomology:dual:0-2\n"
        "begin comodule pairs\n"
        "  dim = 9\n"
        "  begin gamma\n" + gamma_rows + "\n  end\n"
        "  begin beta\n" + beta_rows + "\n  end\n"
        "end\n"
    )
    job = parse_input(text)
    assert parse_input(render(job)) == job
    report = run(job)
    table = report["tasks"]["cohomology:dual:0-2"]
    assert table["pairs"] == table["pair-graded"]
    assert table["pairs"] == {"0": 3, "1": 0, "2": 0}


ZERO_DIM_JOB = """
algebra = group:Z2
tasks = cohomology:dual:0-2, cohomology:natural:0-2, cohomology:bar:1-2,
        cohomology:restricted:0-1, check-C10, check-C15
begin comodule X
  dim = 0
  gamma = trivial
  begin beta
  end
end
"""


def test_zero_dimensional_comodule_job_reports_zero_everywhere(tmp_path, capsys):
    """Every coboundary of a dim-0 comodule is 0 x 0, each face_sum face padded by an
    empty identity: every table reads 0 and both identifications hold."""
    job = tmp_path / "zero.job"
    job.write_text(ZERO_DIM_JOB)
    assert main(["--input", str(job), "report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True
    tables = {token: entry["X"] for token, entry in report["tasks"].items() if token.startswith("cohomology:")}
    assert tables == {
        "cohomology:dual:0-2": {"0": 0, "1": 0, "2": 0},
        "cohomology:natural:0-2": {"0": 0, "1": 0, "2": 0},
        "cohomology:bar:1-2": {"1": 0, "2": 0},
        "cohomology:restricted:0-1": {"0": 0, "1": 0},
    }
    for token, detail in (("check-C10", "sign identity and H-dims agree"), ("check-C15", "matrices bit-identical")):
        entry = report["tasks"][token]
        assert entry["passed"] is True
        assert entry["results"]["X"] == {str(n): {"detail": detail, "holds": True} for n in range(3)}


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["--catalog", "group:Z2", "check"]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.job"
    bad.write_text("algebra = group:NOPE\ntasks = axioms\n")
    assert main(["--input", str(bad), "check"]) == 2
    capsys.readouterr()
    assert main(["--catalog", "no:such", "check"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("algebra, message", [("group:Q8", "unknown group 'Q8'"), ("function:Q8", "unknown monoid 'Q8'")])
def test_unknown_algebra_exits_two_with_its_message(algebra, message, tmp_path, capsys):
    job = tmp_path / "q8.job"
    job.write_text(f"algebra = {algebra}\ntasks = axioms\n")
    for argv in (["--catalog", algebra, "check"], ["--input", str(job), "check"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["tasks = axioms\n", "", "# only a comment\n"])
def test_a_job_without_an_algebra_exits_two_with_no_line_number(text, tmp_path, capsys):
    """Job lines count from 1; a whole-file error names no line."""
    with pytest.raises(JobParseError) as err:
        parse_input(text)
    assert err.value.line_no is None
    job = tmp_path / "no-algebra.job"
    job.write_text(text)
    assert main(["--input", str(job), "check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: missing required key 'algebra'\n"


def test_a_cayley_block_beside_a_catalog_algebra_exits_two(tmp_path, capsys):
    """Only the inline algebras read a cayley block; next to a catalog name it
    would be ignored, so it is refused, naming the algebra."""
    job = tmp_path / "z2.job"
    job.write_text("algebra = group:Z2\ntasks = axioms\nbegin cayley\n  identity = 0\n  row 0 1\n  row 1 0\nend\n")
    assert main(["--input", str(job), "check"]) == 2
    captured = capsys.readouterr()
    message = "algebra 'group:Z2' takes no cayley block (only inline-function and inline-group do)"
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_a_job_file_that_is_not_utf8_exits_two_naming_the_byte(tmp_path, capsys):
    job = tmp_path / "utf16.job"
    job.write_bytes("algebra = group:Z2\ntasks = axioms\n".encode("utf-16"))
    assert job.read_bytes()[:2] == b"\xff\xfe"
    assert main(["--input", str(job), "check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {job}: not UTF-8 text (invalid start byte at byte offset 0)\n"
    # the offset counts bytes of the file, a byte-order mark included
    job.write_bytes(b"\xef\xbb\xbfalgebra = group:Z2\n# \xff\ntasks = axioms\n")
    assert main(["--input", str(job), "check"]) == 2
    assert capsys.readouterr().err == f"error: {job}: not UTF-8 text (invalid start byte at byte offset 24)\n"


def test_a_job_file_with_a_byte_order_mark_runs_as_without(tmp_path, capsys):
    job = tmp_path / "bom.job"
    job.write_bytes(b"\xef\xbb\xbf" + SAMPLE_JOB.read_bytes())
    assert main(["--input", str(job), "report"]) == 0
    with_mark = capsys.readouterr().out
    assert main(["--input", str(SAMPLE_JOB), "report"]) == 0
    assert with_mark == capsys.readouterr().out


def test_cli_verify_small(capsys):
    assert main(["--catalog", "function:Z2", "verify"]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["consistent"] is True
    assert report["tasks"]["check-B20"]["passed"] is True
    assert report["tasks"]["check-C15"]["passed"] is True


def test_cli_markdown_output(capsys):
    assert main(["--catalog", "group:Z2", "--format", "markdown", "cohomology"]) == 0
    out = capsys.readouterr().out
    assert "| complex | comodule | degree | dim H |" in out


def test_cli_output_file(tmp_path):
    target = tmp_path / "report.json"
    assert main(["--catalog", "group:Z2", "--output", str(target), "check"]) == 0
    data = json.loads(target.read_text())
    assert data["algebra"]["name"] == "group:Z2"


def test_an_output_path_that_cannot_be_opened_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["--catalog", "function:Z2", "--output", str(target), "report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and str(target) in captured.err
    assert not target.parent.exists()


def test_cli_flags_accepted_after_verb(tmp_path):
    target = tmp_path / "after.json"
    assert main(["check", "--catalog", "group:Z2", "--output", str(target)]) == 0
    data = json.loads(target.read_text())
    assert data["algebra"]["name"] == "group:Z2"
    # post-verb values override pre-verb ones
    target2 = tmp_path / "after2.json"
    assert main(["--catalog", "group:Z3", "check", "--catalog", "group:Z2", "--output", str(target2)]) == 0
    assert json.loads(target2.read_text())["algebra"]["name"] == "group:Z2"


def test_report_deterministic_for_single_algebra():
    job = parse_input("algebra = group:Z3\ntasks = axioms, codiagonal, mean\n")
    a = render_json(run(job))
    b = render_json(run(job))
    assert a == b


def test_report_verb_dual_emits_markdown_summary(tmp_path):
    target = tmp_path / "z2.json"
    assert main(["--catalog", "group:Z2", "--output", str(target), "report"]) == 0
    assert target.exists()
    md = (tmp_path / "z2.json.md").read_text()
    assert "| complex | comodule | degree | dim H |" in md


def test_failed_crosscheck_exits_one(monkeypatch, capsys):
    from hopfcoh import tasks as tasks_mod
    from hopfcoh.amenability import CheckOutcome
    from hopfcoh.linalg import CertificateError

    monkeypatch.setattr(
        tasks_mod,
        "check_codiagonal_vanishing",
        lambda ws: CheckOutcome("codiagonal-vanishing", False, ("forced failure",)),
    )
    assert main(["--catalog", "group:Z2", "verify"]) == 1
    capsys.readouterr()

    def broken(h):
        raise CertificateError("forced failure")

    monkeypatch.setattr(tasks_mod, "check_saturated", broken)
    assert main(["--catalog", "group:Z2", "check"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certificate check failed: forced failure\n"


def test_timing_flag_adds_wall_clock(tmp_path, capsys):
    assert main(["--catalog", "group:Z2", "--timing", "check"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert "wall_clock_seconds" in report
    assert "total" in captured.err
    job = tmp_path / "z2.job"
    job.write_text(MINIMAL_JOB)
    assert main(["--input", str(job), "--timing", "report"]) == 0
    captured = capsys.readouterr()
    assert "wall_clock_seconds" in json.loads(captured.out)
    assert "total" in captured.err
    assert main(["--input", str(job), "report"]) == 0
    assert "wall_clock_seconds" not in json.loads(capsys.readouterr().out)
    assert main(["--catalog", "all", "--timing", "check"]) == 0
    suite = json.loads(capsys.readouterr().out)["suite"]
    assert all("wall_clock_seconds" in rep for rep in suite.values())


def test_catalog_all_runs_the_verbs_tasks(capsys):
    from hopfcoh.catalog import default_suite

    assert main(["--catalog", "all", "check"]) == 0
    suite = json.loads(capsys.readouterr().out)["suite"]
    assert list(suite) == default_suite()
    for rep in suite.values():
        assert sorted(rep["tasks"]) == ["axioms", "counit", "saturation"]


SAMPLE_JOB = pathlib.Path(__file__).parent.parent / "sample.job"


def test_report_digests_pinned(capsys):
    # the bytes of two reports, as computed before the per-job workspace
    body = render_json(run(parse_input(SAMPLE_JOB.read_text())))
    assert hashlib.sha256(body.encode()).hexdigest() == (
        "1ca30de6ef60c324c5a3ee1674eb598581faad6aadb1a902129e7e2614805b89"
    )
    assert main(["--catalog", "group:Z3", "report"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "b4b7feba574504a9b8d574be121fae7f765d3e33ec665a849e06479a75a42763"
    )
    # kp8, the catalog's one algebra neither commutative nor cocommutative,
    # and a cap-4 report; both as computed before cohomology by reduction
    assert main(["--catalog", "kp8", "report"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ed2374f07e78b01d298cd16c155816771f7c71a782766e89ded0eb5bb82d0775"
    )
    assert main(["--catalog", "function:S3", "--degree-cap", "4", "report"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "ac0f768c2a3596d2cc42b704cd43d14b00e53afdd2d9c691aa881fdde20c4e83"
    )


def test_non_real_comodule_job_pinned():
    """A job whose eliminations run on Gaussian integers: the character
    comodule has no cohomology in either table, and the bytes are those
    computed with the modular elimination and its exact fallback."""
    rep = run(parse_input(Z4_CHARACTER_JOB))
    assert rep["consistent"]
    for kind in ("dual", "natural"):
        assert rep["tasks"][f"cohomology:{kind}:0-2"]["chi"] == {"0": 0, "1": 0, "2": 0}
    assert hashlib.sha256(render_json(rep).encode()).hexdigest() == (
        "fdfdb5429370922bcb1664169b4e91ff1afc7245645e60a4d4de4284ac1fec74"
    )


BENCHMARK_REPORTS = {
    "small-jobs": (54, "f8130b9aa5b777311969270a5a11e171fc0a923fb82f57f5c975da24fd488c22"),
    "fn-S3-tables": (2, "ba852e29bdc82f71a4c4acd58c609935a90deef470491196c643c0d8d17a32c8"),
    "vanishing": (2, "fd80e9467eecd920a6810f3901e099b8d1841348a4a975fd994da81a179f0efb"),
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_REPORTS))
def test_benchmark_reports_pinned(workload):
    """Every report of the benchmark's seed-1 pass, as the benchmark worker
    renders it: the sha256 of each report, in job order, hashed together.
    The job texts come from bench/workloads.py, which is only read."""
    jobs = bench_workloads().build(workload, 1, SAMPLE_JOB.parent).jobs
    digests = [hashlib.sha256(render_json(run(parse_input(text))).encode()).hexdigest() for text in jobs]
    assert (len(jobs), hashlib.sha256("\n".join(digests).encode()).hexdigest()) == BENCHMARK_REPORTS[workload]


@pytest.mark.parametrize(
    "argv",
    [
        ["--catalog", "group:Z2", "--degree-cap", "0", "check"],
        ["--catalog", "group:Z2", "--degree-cap=-1", "cohomology"],
        ["--catalog", "group:Z2", "cohomology", "--degree-cap", "0"],
        ["--catalog", "all", "--degree-cap", "0", "verify"],
    ],
)
def test_degree_cap_below_one_exits_two(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "degree-cap must be >= 1" in captured.err


def test_explicit_degree_cap_overrides_job_file(tmp_path, capsys):
    job = tmp_path / "cap2.job"
    job.write_text("algebra = group:Z2\ndegree-cap = 2\ntasks = axioms, cohomology:dual:0-2\n")
    assert main(["--input", str(job), "report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree_cap"] == 2
    assert report["tasks"]["cohomology:dual:0-2"]["regular"] == {"0": 2, "1": 0}
    assert main(["--input", str(job), "--degree-cap", "3", "report"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree_cap"] == 3
    assert report["tasks"]["cohomology:dual:0-2"]["regular"] == {"0": 2, "1": 0, "2": 0}


@pytest.mark.parametrize(
    "algebra, task",
    [
        ("group:Z2", "check-B18"),
        ("function:Z2", "check-exist-im2"),
        ("function:leftzero2", "check-B20"),
    ],
)
def test_cap_one_cross_checks_not_applicable(algebra, task, capsys):
    assert main(["--catalog", algebra, "--degree-cap", "1", "verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["degree_cap"] == 1
    assert report["tasks"][task] == {"applicable": False, "reason": "needs degree-cap >= 2"}
    assert report["tasks"]["check-C10"]["passed"] is True


CLASHING_COMODULE = """
algebra = group:Z2
tasks = axioms, cohomology:dual:0
begin comodule {first}
  dim = 1
  begin beta
    row 1
    row 0
  end
end
begin comodule {second}
  dim = 1
  begin beta
    row 0
    row 1
  end
end
"""


def test_comodule_name_clashes_rejected(tmp_path, capsys):
    from hopfcoh.comodule import CATALOG_NAMES, catalog_bicomodules

    for name in ("group:Z2", "function:Z2"):
        assert {e.name for e in catalog_bicomodules(get_algebra(name))} <= set(CATALOG_NAMES)
    parse_input(CLASHING_COMODULE.format(first="even", second="odd"))
    with pytest.raises(JobParseError) as err:
        parse_input(CLASHING_COMODULE.format(first="X", second="X"))
    assert "line 11" in str(err.value)
    assert "duplicate comodule name" in str(err.value)
    for reserved in CATALOG_NAMES:
        with pytest.raises(JobParseError) as err:
            parse_input(CLASHING_COMODULE.format(first=reserved, second="odd"))
        assert "line 4" in str(err.value)
        assert "catalog bicomodule" in str(err.value)
    job = tmp_path / "clash.job"
    job.write_text(CLASHING_COMODULE.format(first="odd", second="regular"))
    assert main(["--input", str(job), "report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 11" in captured.err


BLOCKS_JOB = """\
algebra = inline-function
tasks = axioms
begin cayley
  identity = 0
  row 0 1
  row 1 1
end
begin comodule X
  dim = 2
  gamma = trivial
  begin beta
    row 1 0
    row 1 0
    row 0 1
    row 0 1
  end
end
"""
BETA_BLOCK = "  begin beta\n    row 1 0\n    row 1 0\n    row 0 1\n    row 0 1\n  end\n"
GAMMA_BLOCK = BETA_BLOCK.replace("beta", "gamma")

# (line replaced, its replacement, the line the error names, the message)
BAD_BLOCK_LINES = {
    "dim-prefix": ("  dim = 2\n", "  dimension = 2\n", 9, "unexpected line in comodule block: 'dimension = 2'"),
    "gamma-prefix": ("  gamma = trivial\n", "  gammas = zero\n", 10, "unexpected line in comodule block: 'gammas = zero'"),
    "identity-prefix": ("  identity = 0\n", "  identityx = 0\n", 4, "unexpected line in cayley block: 'identityx = 0'"),
    "negative-dim": ("  dim = 2\n", "  dim = -1\n", 9, "dim must be >= 0, got -1"),
    "repeated-dim": ("  gamma = trivial\n", "  gamma = trivial\n  dim = 3\n", 11, "duplicate dim"),
    "repeated-gamma": ("  gamma = trivial\n", "  gamma = trivial\n  gamma = zero\n", 11, "duplicate gamma"),
    "gamma-then-gamma-block": ("  gamma = trivial\n", "  gamma = trivial\n" + GAMMA_BLOCK, 11, "duplicate gamma"),
    "repeated-beta-block": ("  end\nend\n", "  end\n" + BETA_BLOCK + "end\n", 17, "duplicate beta"),
    "repeated-gamma-block": ("  gamma = trivial\n", GAMMA_BLOCK + GAMMA_BLOCK, 16, "duplicate gamma"),
    "repeated-identity": ("  identity = 0\n", "  identity = 0\n  identity = none\n", 5, "duplicate identity"),
    "cayley-header-words": (
        "begin cayley\n",
        "begin cayley of something else\n",
        3,
        "unexpected words after 'begin cayley': 'of something else'",
    ),
    "repeated-cayley": ("  end\nend\n", "  end\nend\nbegin cayley\n  row 0\nend\n", 18, "duplicate cayley block"),
}


def test_block_keys_parse_exactly():
    job = parse_input(BLOCKS_JOB)
    assert (job.cayley.identity, job.comodules[0].dim, job.comodules[0].gamma) == (0, 2, "trivial")
    assert parse_input(render(job)) == job
    spaced = parse_input(BLOCKS_JOB.replace("  dim = 2\n", "  dim=2\n").replace("identity = 0", "identity=none"))
    assert (spaced.cayley.identity, spaced.comodules[0].dim) == (None, 2)
    assert parse_input(render(spaced)) == spaced


@pytest.mark.parametrize("case", sorted(BAD_BLOCK_LINES))
def test_bad_block_line_rejected_with_its_line(case):
    old, new, line, message = BAD_BLOCK_LINES[case]
    assert BLOCKS_JOB.count(old) == 1
    with pytest.raises(JobParseError) as err:
        parse_input(BLOCKS_JOB.replace(old, new))
    assert str(err.value) == f"line {line}: {message}"


def test_repeated_block_setting_exits_two(tmp_path, capsys):
    job = tmp_path / "repeat.job"
    old, new, line, message = BAD_BLOCK_LINES["repeated-dim"]
    job.write_text(BLOCKS_JOB.replace(old, new))
    assert main(["--input", str(job), "report"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {line}: {message}\n"


REGISTRY_TOKENS = [t.name for t in TASKS if t is not COHOMOLOGY] + [f"cohomology:{k}:0-1" for k in KINDS]


@pytest.mark.parametrize("algebra", ["group:Z2", "function:Z2"])
@pytest.mark.parametrize("token", REGISTRY_TOKENS)
def test_every_registry_task_runs(token, algebra):
    report = run(JobSpec(algebra=algebra, tasks=(token,), degree_cap=2))
    assert token in report["tasks"]
    assert report["consistent"] is True


WIDE_COMODULE_JOB = """
algebra = function:Z2
degree-cap = 3
tasks = axioms, cohomology:dual:0-2
begin comodule wide
  dim = 3
  gamma = trivial
  begin beta
    row 1 0 0
    row 1 0 0
    row 0 1 0
    row 0 1 0
    row 0 0 1
    row 0 0 1
  end
end
"""


def test_oversized_jobs_refused_before_any_build(monkeypatch, tmp_path, capsys):
    from hopfcoh import cochain, report, tasks

    def refused(argv, budget):
        """main(argv) under the budget, where the axiom gate, the catalog or a complex would fail."""
        with monkeypatch.context() as patch:
            patch.setattr(report, "MAX_COCHAIN_DIM", budget)
            for module, name in ((tasks, "check_axioms"), (cochain, "catalog_bicomodules"), (cochain, "build_complex")):
                patch.setattr(module, name, lambda *args, name=name, **kwargs: pytest.fail(f"{name} ran"))
            assert main(argv) == 2
        return capsys.readouterr().err

    def no_build(*args, **kwargs):
        raise AssertionError("a complex was built")

    # group:Z2's widest catalog bicomodule is pair-graded: 4 * 2^3 = 32
    assert "job too large: cochain space 4 * 2^3 > 31" in refused(["--catalog", "group:Z2", "report"], 31)
    monkeypatch.setattr(report, "MAX_COCHAIN_DIM", 31)
    monkeypatch.setattr(cochain, "build_complex", no_build)
    assert main(["--catalog", "group:Z2", "--degree-cap", "2", "check"]) == 0  # 4 * 2^2 = 16
    capsys.readouterr()
    # a job's own comodule counts too: 3 * 2^3 = 24 beats the catalog's 2 * 2^3
    job = tmp_path / "wide.job"
    job.write_text(WIDE_COMODULE_JOB)
    assert "job too large" in refused(["--input", str(job), "cohomology"], 23)
    monkeypatch.undo()
    monkeypatch.setattr(report, "MAX_COCHAIN_DIM", 24)
    assert main(["--input", str(job), "cohomology"]) == 0
    assert json.loads(capsys.readouterr().out)["tasks"]["cohomology:dual:0-2"]["wide"]["0"] == 3


def test_huge_degree_caps_refused_up_front(monkeypatch, tmp_path, capsys):
    """The pre-flight raises dim to no power past the budget's bit length, which
    decides the same for every dim >= 2, and refuses a cap past the budget
    outright: a dim-1 algebra would otherwise build that many boundaries."""
    from hopfcoh import report

    monkeypatch.setattr(report, "MAX_COCHAIN_DIM", 50)
    job = tmp_path / "cap.job"

    def exit_code(algebra, cap):
        job.write_text(f"algebra = {algebra}\ndegree-cap = {cap}\ntasks = axioms\n")
        code = main(["--input", str(job), "report"])
        err = capsys.readouterr().err
        assert (code == 2) == ("job too large: cochain space " in err and f"^{cap} > 50" in err), err
        return code

    # group:Z2's widest catalog space is 4: refused exactly when 4 * 2^cap > 50
    assert [exit_code("group:Z2", cap) for cap in (1, 2, 3, 4, 5, 6, 7, 12)] == [0, 0, 0, 2, 2, 2, 2, 2]
    assert exit_code("function:S3", 10**5) == 2
    assert get_algebra("function:trivial").dim == 1
    assert exit_code("function:trivial", 50) == 0
    assert exit_code("function:trivial", 51) == 2


def _cli_in_subprocess(args, cwd):
    """The tasks of the report a new interpreter prints for hopfcoh's args; a run past 60 s fails."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run(
        [sys.executable, "-m", "hopfcoh.cli", *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)["tasks"]


def test_an_unbounded_degree_span_runs_only_the_degrees_below_the_cap(tmp_path):
    """A span whose end is far past any int that a loop could walk reports the degrees
    below the cap, as 0-2 does, both from a job file and from --degrees."""
    huge = "0-99999999999999999999"
    tables = []
    for span in (huge, "0-2"):
        job = tmp_path / f"{span}.job"
        job.write_text(f"algebra = function:Z2\ndegree-cap = 3\ntasks = cohomology:dual:{span}\n")
        tables.append(_cli_in_subprocess(["--input", job.name, "report"], tmp_path)[f"cohomology:dual:{span}"])
        verb = ["--catalog", "function:Z2", "cohomology", "--kind", "dual", "--degrees", span]
        tables.append(_cli_in_subprocess(verb, tmp_path)[f"cohomology:dual:{span}"])
    assert tables[0] == tables[1] == tables[2] == tables[3]
    assert all(sorted(dims) == ["0", "1", "2"] for dims in tables[0].values())


@pytest.mark.parametrize("rows", [("0 1", "0 1"), ("1 0", "0 1")])  # right-zero semigroup; Z2, identity 1
def test_check_b20_without_a_declared_counit(tmp_path, capsys, rows):
    """The table has a left identity, so counit_find finds a counit, but with
    identity = none the algebra declares none: no codiagonal search applies."""
    job = tmp_path / "b20.job"
    table = "".join(f"  row {r}\n" for r in rows)
    job.write_text(f"algebra = inline-function\ntasks = axioms, check-B20\nbegin cayley\n  identity = none\n{table}end\n")
    assert main(["--input", str(job), "report"]) == 0
    out = capsys.readouterr()
    assert "Traceback" not in out.err
    report = json.loads(out.out)
    assert report["consistent"] is True
    assert report["tasks"]["check-B20"]["passed"] is True
    assert report["tasks"]["check-B20"]["details"] == [
        "counit found but the algebra declares no counit: no codiagonal search applies"
    ]


def test_run_pauses_the_cyclic_collector_and_restores_its_state(monkeypatch):
    """The collector is off while a job runs, and afterwards as the caller left it: after a
    normal job, an oversized one (InputError), one whose axioms fail and one that raises."""
    import gc

    from hopfcoh import tasks
    from hopfcoh.hopf import AxiomCheck, AxiomReport

    states, check_axioms = [], tasks.check_axioms

    def observed(h):
        states.append(gc.isenabled())
        return check_axioms(h)

    def failing(h):
        states.append(gc.isenabled())
        return AxiomReport((AxiomCheck("comult coassociative", False, 0),))

    def raising(h):
        states.append(gc.isenabled())
        raise RuntimeError("a fault inside the job")

    job = JobSpec(algebra="group:Z2", tasks=("axioms",))
    caller_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            monkeypatch.setattr(tasks, "check_axioms", observed)
            assert run(job)["consistent"]
            assert gc.isenabled() is enabled
            monkeypatch.setattr("hopfcoh.report.MAX_COCHAIN_DIM", 3)
            with pytest.raises(InputError, match="job too large"):
                run(job)
            assert gc.isenabled() is enabled
            monkeypatch.undo()
            monkeypatch.setattr(tasks, "check_axioms", failing)
            assert run(job)["aborted"] == "axioms failed"
            assert gc.isenabled() is enabled
            monkeypatch.setattr(tasks, "check_axioms", raising)
            with pytest.raises(RuntimeError, match="a fault inside the job"):
                run(job)
            assert gc.isenabled() is enabled
            monkeypatch.undo()
        assert states == [False] * 6
    finally:
        (gc.enable if caller_enabled else gc.disable)()
