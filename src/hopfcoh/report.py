"""Execute a JobSpec and assemble a deterministic report.

Reports are canonical: exact rationals rendered as "num/den", keys sorted,
and nothing time-dependent in the body (timings go to the logger), so the
same job always produces byte-identical output.
"""
from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction

from . import catalog
from .amenability import (
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    find_codiagonal,
    find_invariant_mean,
)
from .cochain import Workspace, identify_dual_with_bar, identify_dual_with_natural
from .comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    trivial_left_coaction,
    zero_left_coaction,
)
from .hopf import check_axioms, check_saturated, counit_find, haar_state, function_algebra, group_algebra
from .jobfile import JobSpec, render, task_degrees
from .linalg import Matrix
from .monoids import FiniteGroup, FiniteMonoid
from .scalars import Scalar, format_scalar


class InputError(ValueError):
    """Bad job input: unknown names, dimension mismatches, invalid tables."""


def _scalar_json(x) -> str:
    if isinstance(x, Scalar):
        return format_scalar(x)
    if isinstance(x, Fraction):
        return format_scalar(Scalar(x))
    return str(x)


def _vec_json(v):
    return [_scalar_json(x) for x in v]


def resolve_algebra(job: JobSpec):
    name = job.algebra
    if name in ("inline-function", "inline-group"):
        if job.cayley is None:
            raise InputError(f"algebra {name!r} needs a cayley block")
        try:
            if name == "inline-group":
                monoid = FiniteGroup(
                    order=len(job.cayley.table),
                    table=job.cayley.table,
                    identity=job.cayley.identity,
                )
                return group_algebra(monoid)
            monoid = FiniteMonoid(
                order=len(job.cayley.table),
                table=job.cayley.table,
                identity=job.cayley.identity,
            )
            return function_algebra(monoid)
        except ValueError as exc:
            raise InputError(f"invalid cayley table: {exc}") from exc
    try:
        return catalog.get_algebra(name)
    except KeyError as exc:
        raise InputError(str(exc)) from exc


def _explicit_bicomodules(job: JobSpec, h):
    out = []
    s = h.dim
    for com in job.comodules:
        x = com.dim
        if len(com.beta) != x * s or any(len(row) != x for row in com.beta):
            raise InputError(
                f"comodule {com.name!r}: beta must be {x * s} rows of {x} entries, "
                f"got {len(com.beta)} rows"
            )
        beta = Matrix.from_rows(com.beta)
        try:
            right = RightCoaction(x, h, beta)
        except ValueError as exc:
            raise InputError(f"comodule {com.name!r}: {exc}") from exc
        if com.gamma == "trivial":
            left = trivial_left_coaction(h, x)
        elif com.gamma == "zero":
            left = zero_left_coaction(h, x)
        else:
            if len(com.gamma) != s * x or any(len(row) != x for row in com.gamma):
                raise InputError(
                    f"comodule {com.name!r}: gamma must be {s * x} rows of {x} entries"
                )
            try:
                left = LeftCoaction(x, h, Matrix.from_rows(com.gamma))
            except ValueError as exc:
                raise InputError(f"comodule {com.name!r}: {exc}") from exc
        try:
            out.append((com.name, Bicomodule(right, left)))
        except ValueError as exc:
            raise InputError(f"comodule {com.name!r}: {exc}") from exc
    return out


def run(job: JobSpec, log=None, include_timing: bool = False) -> dict:
    """Execute the job's tasks in dependency order; returns the report dict.

    Timing is kept out of the body unless include_timing is set, so default
    reports are byte-identical across runs.
    """
    t_start = time.monotonic()
    h = resolve_algebra(job)
    explicit = _explicit_bicomodules(job, h)
    report = {
        "algebra": {"name": job.algebra, "dim": h.dim, "labels": list(h.labels)},
        "degree_cap": job.degree_cap,
        "input_digest": hashlib.sha256(render(job).encode()).hexdigest(),
        "tasks": {},
        "consistent": True,
    }
    tasks = report["tasks"]

    def note(msg):
        if log is not None:
            print(msg, file=log)

    # axioms always run first; a failure aborts the remaining tasks
    axiom_report = check_axioms(h)
    if "axioms" in job.tasks or not axiom_report.ok:
        tasks["axioms"] = {
            "passed": axiom_report.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "witness": c.witness}
                for c in axiom_report.checks
            ],
        }
    if not axiom_report.ok:
        report["consistent"] = False
        report["aborted"] = "axioms failed"
        return report

    ws = Workspace(h, job.degree_cap, explicit)
    for task in job.tasks:
        t0 = time.monotonic()
        if task == "axioms":
            pass  # already recorded
        elif task == "saturation":
            left, right = check_saturated(h)
            tasks[task] = {"left": left, "right": right}
        elif task == "counit":
            c = counit_find(h)
            tasks[task] = {
                "exists": c.functional is not None,
                "functional": _vec_json(c.functional) if c.functional else None,
                "two_sided": c.two_sided,
                "certificate": _vec_json(c.certificate) if c.certificate else None,
                "provenance": "solve (eps (x) id) comult = id; right law re-verified"
                if c.functional is not None
                else "left-kernel certificate of the inconsistent linear system",
            }
        elif task == "haar":
            s = haar_state(h)
            tasks[task] = {
                "exists": s.state is not None and bool(s.positive),
                "state": _vec_json(s.state) if s.state else None,
                "positive": s.positive,
                "provenance": "affine solve of (phi (x) id) comult = phi(.) unit, "
                "phi(unit) = 1; positivity per algebra family",
            }
        elif task == "codiagonal":
            if h.counit is None:
                tasks[task] = {"exists": False, "reason": "no counit"}
            else:
                c = find_codiagonal(h)
                entry = {"exists": c.certificate is not None}
                if c.certificate is not None:
                    entry["functional"] = _vec_json(c.certificate.functional)
                    entry["solution_space_dim"] = c.solution_space_dim
                    entry["provenance"] = (
                        "canonical particular solution of the two defining "
                        "identities; residuals re-verified exactly zero"
                    )
                    entry["notes"] = (
                        "at finite dimension, bounded approximate codiagonals and "
                        "multiplier-extended codiagonals collapse to this exact one"
                    )
                    if c.certificate.positivity is not None:
                        entry["gram_psd"] = bool(c.certificate.positivity)
                    if c.certificate.positive_coordinates is not None:
                        entry["positive_coordinates"] = c.certificate.positive_coordinates
                else:
                    entry["infeasibility"] = _vec_json(c.infeasibility)
                tasks[task] = entry
        elif task == "mean":
            if h.monoid is None or h.kind != "function":
                tasks[task] = {"applicable": False, "reason": "means are computed over function algebras"}
            else:
                m = find_invariant_mean(h.monoid)
                entry = {"applicable": True, "feasible": m.feasible}
                if m.feasible:
                    entry["weights"] = _vec_json(m.certificate.weights)
                    entry["provenance"] = (
                        "exact phase-1 simplex (Bland) cross-checked by "
                        "basic-solution enumeration"
                    )
                else:
                    entry["farkas"] = _vec_json(m.farkas)
                    entry["provenance"] = "Farkas certificate re-verified exactly"
                tasks[task] = entry
        elif task.startswith("cohomology:"):
            _, kind, _span = task.split(":")
            degrees = [n for n in task_degrees(task) if n < job.degree_cap]
            table = {}
            for name, bic in ws.bicomodules():
                table[name] = {str(n): ws.cohomology_of(bic, kind, n).dim for n in degrees}
            tasks[task] = table
        elif task in ("check-B20", "check-B18", "check-exist-im2") and job.degree_cap < 2:
            # these read H^1, so they need cochains up to C^2
            tasks[task] = {"applicable": False, "reason": "needs degree-cap >= 2"}
        elif task == "check-B20":
            out = check_codiagonal_vanishing(h, job.degree_cap, ws)
            tasks[task] = {"passed": out.passed, "details": list(out.details)}
            report["consistent"] = report["consistent"] and out.passed
        elif task == "check-B18":
            if h.kind != "group":
                tasks[task] = {"applicable": False, "reason": "needs a group algebra"}
            else:
                out = check_graded_cocycles(h.monoid, job.degree_cap)
                tasks[task] = {"passed": out.passed, "details": list(out.details)}
                report["consistent"] = report["consistent"] and out.passed
        elif task == "check-exist-im2":
            if h.kind != "function" or not h.monoid.has_identity:
                tasks[task] = {
                    "applicable": False,
                    "reason": "needs a function algebra of a monoid with identity",
                }
            else:
                out = check_mean_vs_cohomology(h.monoid, job.degree_cap)
                tasks[task] = {"passed": out.passed, "details": list(out.details)}
                report["consistent"] = report["consistent"] and out.passed
        elif task == "check-C10":
            results = {}
            ok = True
            for name, bic in ws.bicomodules():
                per = {}
                for n in range(job.degree_cap):
                    r = identify_dual_with_natural(bic, n, job.degree_cap, ws)
                    per[str(n)] = {"holds": r.holds, "detail": r.detail}
                    ok = ok and r.holds
                results[name] = per
            tasks[task] = {"passed": ok, "results": results}
            report["consistent"] = report["consistent"] and ok
        elif task == "check-C15":
            results = {}
            ok = True
            for name, bic in ws.bicomodules():
                per = {}
                for n in range(job.degree_cap):
                    r = identify_dual_with_bar(bic, n, job.degree_cap, ws)
                    per[str(n)] = {"holds": r.holds, "detail": r.detail}
                    ok = ok and r.holds
                results[name] = per
            tasks[task] = {"passed": ok, "results": results}
            report["consistent"] = report["consistent"] and ok
        else:
            raise InputError(f"unknown task {task!r}")
        note(f"[{job.algebra}] {task}: {time.monotonic() - t0:.2f}s")
    note(f"[{job.algebra}] total: {time.monotonic() - t_start:.2f}s")
    if include_timing:
        report["wall_clock_seconds"] = round(time.monotonic() - t_start, 3)
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


def run_suite(names, degree_cap: int = 3, tasks=None, log=None) -> dict:
    """Run the standard job on several catalog algebras; one combined report."""
    if tasks is None:
        tasks = (
            "axioms",
            "saturation",
            "counit",
            "haar",
            "codiagonal",
            "mean",
            "cohomology:dual:0-2",
            "check-B20",
            "check-B18",
            "check-exist-im2",
            "check-C10",
            "check-C15",
        )
    combined = {"suite": {}, "consistent": True}
    for name in names:
        job = JobSpec(algebra=name, tasks=tuple(tasks), degree_cap=degree_cap)
        rep = run(job, log=log)
        combined["suite"][name] = rep
        combined["consistent"] = combined["consistent"] and rep["consistent"]
    digest = hashlib.sha256(
        json.dumps(combined["suite"], sort_keys=True).encode()
    ).hexdigest()
    combined["suite_digest"] = digest
    return combined
