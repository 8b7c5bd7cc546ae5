"""The task registry: every task a job can name, declared once.

`jobfile` validates task tokens against it, `cli` builds each verb's task
list and the `--kind` choices from it, and `report.run` runs a job's tasks
through it.  A runner takes the job's Workspace and the task token and
returns the task's report entry.  Runners reach the layer functions through
this module's globals when they run, never through references held in an
entry, so a replacement installed on this module is what runs.
"""
from __future__ import annotations

from typing import Callable

from .amenability import (
    check_codiagonal_vanishing,
    check_graded_cocycles,
    check_mean_vs_cohomology,
    job_codiagonal,
    job_counit,
    job_mean,
)
from .cochain import _BUILDERS, identify_dual_with_bar, identify_dual_with_natural
from .hopf import check_axioms, check_saturated, haar_state
from .records import record
from .scalars import as_scalar, format_scalar

KINDS = tuple(_BUILDERS)  # the complexes a cohomology task can name


@record
class Task:
    name: str
    verbs: tuple  # the CLI verbs that run it
    run: Callable  # (workspace, token) -> report entry
    not_applicable: Callable = lambda ws: None  # (workspace) -> why it cannot run here, or None
    consistent: bool = False  # a failed entry ("passed": false) makes the report inconsistent


def _vec_json(v):
    return [format_scalar(as_scalar(x)) for x in v]


def _axioms(ws, token):
    rep = check_axioms(ws.hopf)
    return {
        "passed": rep.ok,
        "checks": [{"name": c.name, "passed": c.passed, "witness": c.witness} for c in rep.checks],
    }


def _saturation(ws, token):
    left, right = check_saturated(ws.hopf)
    return {"left": left, "right": right}


def _counit(ws, token):
    c = job_counit(ws)
    return {
        "exists": c.functional is not None,
        "functional": _vec_json(c.functional) if c.functional else None,
        "two_sided": c.two_sided,
        "certificate": _vec_json(c.certificate) if c.certificate else None,
        "provenance": "solve (eps (x) id) comult = id; right law re-verified"
        if c.functional is not None
        else "left-kernel certificate of the inconsistent linear system",
    }


def _haar(ws, token):
    s = haar_state(ws.hopf)
    return {
        "exists": s.state is not None and bool(s.positive),
        "state": _vec_json(s.state) if s.state else None,
        "positive": s.positive,
        "provenance": "affine solve of (phi (x) id) comult = phi(.) unit, "
        "phi(unit) = 1; positivity per algebra family",
    }


def _codiagonal(ws, token):
    if ws.hopf.counit is None:
        return {"exists": False, "reason": "no counit"}
    c = job_codiagonal(ws)
    entry = {"exists": c.certificate is not None}
    if c.certificate is None:
        entry["infeasibility"] = _vec_json(c.infeasibility)
        return entry
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
    return entry


def _mean(ws, token):
    m = job_mean(ws)
    entry = {"applicable": True, "feasible": m.feasible}
    if m.feasible:
        entry["weights"] = _vec_json(m.certificate.weights)
        entry["provenance"] = "exact phase-1 simplex (Bland) cross-checked by basic-solution enumeration"
    else:
        entry["farkas"] = _vec_json(m.farkas)
        entry["provenance"] = "Farkas certificate re-verified exactly"
    return entry


def _cohomology(ws, token):
    kind, span = token.split(":")[1], task_degrees(token)
    degrees = range(span.start, min(span.stop, ws.degree_cap))  # the span's stop may be any integer
    return {
        name: {str(n): ws.cohomology_of(bic, kind, n).dim for n in degrees}
        for name, bic in ws.bicomodules()
    }


def _outcome(ws, check):
    out = check(ws)
    return {"passed": out.passed, "details": list(out.details)}


def _identifications(ws, identify):
    results, ok = {}, True
    for name, bic in ws.bicomodules():
        per = {}
        for n in range(ws.degree_cap):
            r = identify(ws, bic, n)
            per[str(n)] = {"holds": r.holds, "detail": r.detail}
            ok = ok and r.holds
        results[name] = per
    return {"passed": ok, "results": results}


# applicability tests: the reason a task reports instead of running, or None
def _needs_function_algebra(ws):
    return None if ws.hopf.kind == "function" else "means are computed over function algebras"


def _needs_cap_2(ws):
    # these read H^1, so they need cochains up to C^2
    return "needs degree-cap >= 2" if ws.degree_cap < 2 else None


def _needs_group(ws):
    return _needs_cap_2(ws) or (None if ws.hopf.kind == "group" else "needs a group algebra")


def _needs_identity(ws):
    unital = ws.hopf.kind == "function" and ws.hopf.monoid.has_identity
    return _needs_cap_2(ws) or (None if unital else "needs a function algebra of a monoid with identity")


def _cross_check(name, run, not_applicable=lambda ws: None):
    """A theorem cross-check: run by verify and report, and a failure makes the report inconsistent."""
    return Task(name, ("verify", "report"), run, not_applicable, consistent=True)


# the registry, in the order a verb runs its tasks
COHOMOLOGY = Task("cohomology:KIND:A-B", ("cohomology", "report"), _cohomology)
TASKS = (
    Task("axioms", ("check", "cohomology", "codiagonal", "mean", "verify", "report"), _axioms),
    Task("saturation", ("check", "report"), _saturation),
    Task("counit", ("check", "codiagonal", "report"), _counit),
    Task("haar", ("report",), _haar),
    Task("codiagonal", ("codiagonal", "report"), _codiagonal),
    Task("mean", ("mean", "report"), _mean, _needs_function_algebra),
    COHOMOLOGY,
    _cross_check("check-B20", lambda ws, _: _outcome(ws, check_codiagonal_vanishing), _needs_cap_2),
    _cross_check("check-B18", lambda ws, _: _outcome(ws, check_graded_cocycles), _needs_group),
    _cross_check("check-exist-im2", lambda ws, _: _outcome(ws, check_mean_vs_cohomology), _needs_identity),
    _cross_check("check-C10", lambda ws, _: _identifications(ws, identify_dual_with_natural)),
    _cross_check("check-C15", lambda ws, _: _identifications(ws, identify_dual_with_bar)),
)
_BY_NAME = {t.name: t for t in TASKS if t is not COHOMOLOGY}


def task_degrees(token: str) -> range:
    """The degree range of a cohomology task token, "cohomology:KIND:A-B" or "cohomology:KIND:A"."""
    span = token.split(":")[2]
    try:
        if "-" in span:
            lo, hi = span.split("-")
            lo, hi = int(lo), int(hi)
        else:
            lo = hi = int(span)
    except ValueError:
        raise ValueError(f"malformed degree span {span!r}") from None
    if lo < 0 or hi < lo:
        raise ValueError(f"bad degree span {span!r}")
    return range(lo, hi + 1)


def lookup(token: str) -> Task:
    """The entry that runs a task token; ValueError names what is wrong with an unknown one."""
    if token.startswith("cohomology:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise ValueError(f"cohomology task needs kind and degrees: {token!r}")
        if parts[1] not in KINDS:
            raise ValueError(f"unknown cohomology kind {parts[1]!r}")
        task_degrees(token)
        return COHOMOLOGY
    if token not in _BY_NAME:
        raise ValueError(f"unknown task {token!r}")
    return _BY_NAME[token]


def for_verb(verb: str, kinds=("dual", "natural"), degrees: str = "0-2") -> tuple:
    """The task tokens a CLI verb runs, in registry order, with one cohomology table per kind."""
    out = []
    for task in TASKS:
        if verb in task.verbs:
            out += [f"cohomology:{k}:{degrees}" for k in kinds] if task is COHOMOLOGY else [task.name]
    return tuple(out)
