"""Execute a JobSpec and assemble a deterministic report.

Reports are canonical: exact rationals rendered as "num/den", keys sorted,
and nothing time-dependent in the body unless a timing log is given, so the
same job always produces byte-identical output.  What each task computes
is declared in `hopfcoh.tasks`.
"""
from __future__ import annotations

import gc
import json
import sys
import time

from . import catalog
from .cochain import DEFAULT_DEGREE_CAP, Workspace
from .comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    trivial_left_coaction,
    widest_catalog_space,
    zero_left_coaction,
)
from .hopf import function_algebra, group_algebra
from .jobfile import JobSpec, render
from .linalg import Matrix
from .monoids import FiniteGroup, FiniteMonoid
from .tasks import for_verb, lookup

try:  # the interpreter's builtin SHA-256: importing hashlib would map OpenSSL's libcrypto
    sha256 = __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
except ImportError:  # an interpreter built without it; the same digests
    from hashlib import sha256


class InputError(ValueError):
    """Bad job input: unknown names, dimension mismatches, invalid tables."""


# the largest cochain space x * s^cap a job may build; the largest a catalog
# algebra builds at cap 3 is group:S3's pair-graded one, 36 * 6^3 = 7,776
MAX_COCHAIN_DIM = 10_000


def resolve_algebra(job: JobSpec):
    name = job.algebra
    if name in ("inline-function", "inline-group"):
        if job.cayley is None:
            raise InputError(f"algebra {name!r} needs a cayley block")
        table = job.cayley.table
        group = name == "inline-group"
        monoid, build = (FiniteGroup, group_algebra) if group else (FiniteMonoid, function_algebra)
        try:
            return build(monoid(order=len(table), table=table, identity=job.cayley.identity))
        except ValueError as exc:
            raise InputError(f"invalid cayley table: {exc}") from exc
    if job.cayley is not None:
        raise InputError(f"algebra {name!r} takes no cayley block (only inline-function and inline-group do)")
    try:
        return catalog.get_algebra(name)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc


def _require_rows(what: str, rows, count: int, width: int) -> None:
    """ValueError unless rows is count rows of width entries; names the first bad row, counting from 1."""
    got = [f"{len(rows)} rows"] if len(rows) != count else []
    got += [f"row {i} of length {len(row)}" for i, row in enumerate(rows, 1) if len(row) != width][:1]
    if got:
        raise ValueError(f"{what} must be {count} rows of {width} entries, got {', '.join(got)}")


def _explicit_bicomodules(job: JobSpec, h):
    out = []
    s = h.dim
    for com in job.comodules:
        x = com.dim
        try:
            _require_rows("beta", com.beta, x * s, x)
            right = RightCoaction(x, h, Matrix.from_rows(com.beta))
            if com.gamma == "trivial":
                left = trivial_left_coaction(h, x)
            elif com.gamma == "zero":
                left = zero_left_coaction(h, x)
            else:
                _require_rows("gamma", com.gamma, s * x, x)
                left = LeftCoaction(x, h, Matrix.from_rows(com.gamma))
            out.append((com.name, Bicomodule(right, left)))
        except ValueError as exc:
            raise InputError(f"comodule {com.name!r}: {exc}") from exc
    return out


def run(job: JobSpec, log=None) -> dict:
    """Execute the job's tasks in order; returns the report dict.

    With a log, each task's wall clock goes there and the total also into
    the body as wall_clock_seconds; without one the body holds nothing
    time-dependent, so the same job always gives the same bytes.  The
    cyclic garbage collector is paused for the job and left as it was
    found: the engine's data are acyclic dicts and tuples, which reference
    counting frees, so its passes would only re-scan live objects.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(job, log)
    finally:
        if enabled:
            gc.enable()


def _run(job: JobSpec, log) -> dict:
    t_start = time.monotonic()
    h = resolve_algebra(job)
    explicit = _explicit_bicomodules(job, h)
    try:
        plan = [(token, lookup(token)) for token in job.tasks]
    except ValueError as exc:
        raise InputError(str(exc)) from None
    report = {
        "algebra": {"name": job.algebra, "dim": h.dim, "labels": list(h.labels)},
        "degree_cap": job.degree_cap,
        "input_digest": sha256(render(job).encode()).hexdigest(),
        "tasks": {},
        "consistent": True,
    }
    # refuse an oversized job before the axiom gate and the catalog run; any dim >= 2
    # exceeds the budget at the power bit_length(budget), and dim 1 builds cap boundaries
    x = max([widest_catalog_space(h)] + [b.space_dim for _, b in explicit])
    power = min(job.degree_cap, MAX_COCHAIN_DIM.bit_length())
    if job.degree_cap > MAX_COCHAIN_DIM or x * h.dim**power > MAX_COCHAIN_DIM:
        raise InputError(f"job too large: cochain space {x} * {h.dim}^{job.degree_cap} > {MAX_COCHAIN_DIM}")
    entries = report["tasks"]
    ws = Workspace(h, job.degree_cap, explicit)
    # axioms always run first; a failure aborts the remaining tasks
    axioms = lookup("axioms").run(ws, "axioms")
    if "axioms" in job.tasks or not axioms["passed"]:
        entries["axioms"] = axioms
    if not axioms["passed"]:
        report["consistent"] = False
        report["aborted"] = "axioms failed"
        return report

    for token, task in plan:
        t0 = time.monotonic()
        if token not in entries:
            reason = task.not_applicable(ws)
            entry = {"applicable": False, "reason": reason} if reason else task.run(ws, token)
            entries[token] = entry
            if task.consistent:
                report["consistent"] = report["consistent"] and entry.get("passed", True)
        if log is not None:
            print(f"[{job.algebra}] {token}: {time.monotonic() - t0:.2f}s", file=log)
    if log is not None:
        total = time.monotonic() - t_start
        print(f"[{job.algebra}] total: {total:.2f}s", file=log)
        report["wall_clock_seconds"] = round(total, 3)
    return report


def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_markdown(report: dict) -> str:
    lines = [f"# Report: {report['algebra']['name']}", ""]
    lines.append(f"- dimension: {report['algebra']['dim']}")
    lines.append(f"- input digest: `{report['input_digest']}`")
    lines.append(f"- consistent: **{report['consistent']}**")
    lines.append("")
    cohom_tables = {k: v for k, v in report["tasks"].items() if k.startswith("cohomology:")}
    if cohom_tables:
        lines.append("## Cohomology dimensions")
        lines.append("")
        lines.append("| complex | comodule | degree | dim H |")
        lines.append("|---|---|---|---|")
        for task in sorted(cohom_tables):
            kind = task.split(":")[1]
            for name in sorted(cohom_tables[task]):
                for n in sorted(cohom_tables[task][name], key=int):
                    lines.append(f"| {kind} | {name} | {n} | {cohom_tables[task][name][n]} |")
        lines.append("")
    for task in sorted(report["tasks"]):
        if task.startswith("cohomology:"):
            continue
        lines.append(f"## {task}")
        lines.append("")
        lines.append("```json")
        lines.append(json.dumps(report["tasks"][task], sort_keys=True, indent=2))
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def run_suite(names, degree_cap: int = DEFAULT_DEGREE_CAP, tasks=None, log=None) -> dict:
    """Run one job on several catalog algebras; one combined report.

    The default tasks are the report verb's, without the natural cohomology
    table.  check-C10 does not check that table: it identifies the dual
    complex of X with the natural complex of X^*, not of X.
    """
    if tasks is None:
        tasks = for_verb("report", kinds=("dual",))
    combined = {"suite": {}, "consistent": True}
    for name in names:
        job = JobSpec(algebra=name, tasks=tuple(tasks), degree_cap=degree_cap)
        rep = run(job, log=log)
        combined["suite"][name] = rep
        combined["consistent"] = combined["consistent"] and rep["consistent"]
    suite_json = json.dumps(combined["suite"], sort_keys=True)
    combined["suite_digest"] = sha256(suite_json.encode()).hexdigest()
    return combined
