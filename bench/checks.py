"""Output checks, made apart from the program's own bookkeeping.

``Checker.check(job_text, report_text)`` returns a list of failures (empty
when the report is right).  It re-reads the job with the program's parser
and rebuilds the cochain complexes with ``build_complex``; everything it
compares against is recomputed here: ranks by ``modrank``, certificates
against the Cayley table.  A job seen before must render the same bytes
again.  Nothing is compared with a stored copy of earlier output.
"""
from __future__ import annotations

import json
from fractions import Fraction

from hopfcoh.cochain import build_complex
from hopfcoh.comodule import (
    Bicomodule,
    LeftCoaction,
    RightCoaction,
    catalog_bicomodules,
    trivial_left_coaction,
    zero_left_coaction,
)
from hopfcoh.jobfile import parse_input, task_degrees
from hopfcoh.linalg import Matrix
from hopfcoh.report import resolve_algebra

import modrank
from workloads import has_invariant_mean


class _Fail(Exception):
    """A report value the checks cannot read as required."""


def gaussian(text: str):
    """Parse the report's scalar text ("p/q", "p/q+r/si", "-i") as (re, im)."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    body = text[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    re_text, im_text = (body[:cut], body[cut:]) if cut > 0 else ("", body)
    im = {"": 1, "+": 1, "-": -1}.get(im_text)
    return Fraction(re_text or 0), Fraction(im if im is not None else im_text)


def _reals(texts, what):
    """Exact real parts of a list of scalar texts; non-real entries fail."""
    out = []
    for t in texts:
        re, im = gaussian(t)
        if im:
            raise _Fail(f"{what}: non-real entry {t}")
        out.append(re)
    return out


def _is_group_table(table) -> bool:
    n = len(table)
    return all(sorted(row) == list(range(n)) for row in table)


class Checker:
    def __init__(self):
        self.seen = {}  # job text -> report text of its first run
        self._ranks = {}  # (algebra key, bicomodule, kind, cap) -> (degrees, ranks)

    def check(self, job_text: str, report_text: str):
        first = self.seen.get(job_text)
        if first is not None:
            return [] if first == report_text else ["report bytes differ from an earlier run of the same job"]
        failures = []
        try:
            self._check_new(job_text, json.loads(report_text), failures)
        except _Fail as exc:
            failures.append(str(exc))
        if not failures:
            self.seen[job_text] = report_text
        return failures

    def _check_new(self, job_text, rep, failures):
        job = parse_input(job_text)
        h = resolve_algebra(job)
        if rep.get("consistent") is not True or "aborted" in rep:
            failures.append("report is not consistent")
        tasks = rep["tasks"]
        missing = [t for t in job.tasks if t not in tasks]
        if missing:
            failures.append(f"tasks missing from the report: {missing}")
        for name, entry in tasks.items():
            if entry.get("passed") is False:
                failures.append(f"{name}: passed is false")
            for per in entry.get("results", {}).values():
                if not all(r["holds"] for r in per.values()):
                    failures.append(f"{name}: an identification does not hold")
        axioms = tasks.get("axioms")
        if axioms is not None and not all(c["passed"] for c in axioms["checks"]):
            failures.append("axioms: a law fails")

        table = h.monoid.table if h.monoid is not None else None
        key = (job.algebra, job.cayley)
        catalog = {e.name: e for e in catalog_bicomodules(h)}
        bicomodules = {name: e.bicomodule for name, e in catalog.items()}
        bicomodules.update(_explicit_bicomodules(job, h))
        vanishing = job.algebra == "kp8" or h.kind == "group" or (
            h.kind == "function" and table is not None and _is_group_table(table)
        )
        if vanishing and not catalog["regular"].has_nondegenerate_side:
            failures.append("regular bicomodule of a Hopf algebra reported degenerate")
        for task, entry in tasks.items():
            if task.startswith("cohomology:"):
                kind = task.split(":")[1]
                degrees = [n for n in task_degrees(task) if n < job.degree_cap]
                if sorted(entry) != sorted(bicomodules):
                    failures.append(f"{task}: bicomodules {sorted(entry)} != {sorted(bicomodules)}")
                    continue
                for name, dims in entry.items():
                    if sorted(dims, key=int) != [str(n) for n in degrees]:
                        failures.append(f"{task} {name}: degrees {sorted(dims)}")
                        continue
                    expect = self._dims(key, name, bicomodules[name], h, kind, job.degree_cap)
                    for n in degrees:
                        if dims[str(n)] != expect[n]:
                            failures.append(f"{task} {name} H^{n}: report {dims[str(n)]}, ranks give {expect[n]}")
                    nondegenerate = name in catalog and catalog[name].has_nondegenerate_side
                    if vanishing and kind == "dual" and nondegenerate:
                        for n in (1, 2):
                            if dims.get(str(n), 0) != 0:
                                failures.append(f"{task} {name}: H^{n} = {dims[str(n)]}, vanishing theorem fails")
        if table is not None:
            if "mean" in tasks and tasks["mean"].get("applicable"):
                _check_mean(table, tasks["mean"], failures)
            if "counit" in tasks:
                _check_counit(h, table, tasks["counit"], failures)
            if "haar" in tasks:
                _check_haar(h, table, tasks["haar"], failures)
        if tasks.get("codiagonal", {}).get("exists"):
            _check_codiagonal(h, tasks["codiagonal"], failures)

    def _dims(self, key, name, bic, h, kind, cap):
        """H^n = dim C^n - rank D_n - rank D_{n-1}, ranks mod p, per degree."""
        ck = (key, name, kind, cap)
        if ck not in self._ranks:
            use = Bicomodule(bic.beta, trivial_left_coaction(h, bic.space_dim)) if kind == "restricted" else bic
            cx = build_complex(use, kind, cap)
            self._ranks[ck] = (cx.degrees, [modrank.rank(d) for d in cx.boundaries])
        degrees, ranks = self._ranks[ck]
        return {n: degrees[n] - ranks[n] - (ranks[n - 1] if n else 0) for n in range(cap)}


def _explicit_bicomodules(job, h):
    """The job's own comodule blocks, built with the program's constructors."""
    out = {}
    for com in job.comodules:
        right = RightCoaction(com.dim, h, Matrix.from_rows(com.beta))
        if com.gamma == "trivial":
            left = trivial_left_coaction(h, com.dim)
        elif com.gamma == "zero":
            left = zero_left_coaction(h, com.dim)
        else:
            left = LeftCoaction(com.dim, h, Matrix.from_rows(com.gamma))
        out[com.name] = Bicomodule(right, left)
    return out


def mean_system(table):
    """The invariant-mean equalities sum_{x: x r = t} w_x = w_t, in the
    documented row order (r, then t; all-zero rows dropped), then sum w = 1."""
    n = len(table)
    rows, rhs = [], []
    for r in range(n):
        for t in range(n):
            row = [0] * n
            for x in range(n):
                if table[x][r] == t:
                    row[x] += 1
            row[t] -= 1
            if any(row):
                rows.append(row)
                rhs.append(0)
    rows.append([1] * n)
    rhs.append(1)
    return rows, rhs


def _check_mean(table, entry, failures):
    n = len(table)
    if entry["feasible"] != has_invariant_mean(table):
        failures.append(f"mean: feasible = {entry['feasible']} but the minimal left ideals say otherwise")
    if entry["feasible"]:
        w = _reals(entry["weights"], "mean weights")
        if len(w) != n or any(x < 0 for x in w) or sum(w) != 1:
            failures.append("mean: weights are not a probability vector")
        for r in range(n):
            pushed = [Fraction(0)] * n
            for x in range(n):
                pushed[table[x][r]] += w[x]
            if pushed != w:
                failures.append(f"mean: weights not invariant under right translation by {r}")
                break
    else:
        rows, rhs = mean_system(table)
        y = _reals(entry["farkas"], "Farkas vector")
        if len(y) != len(rows):
            failures.append(f"mean: Farkas vector has {len(y)} entries for {len(rows)} rows")
            return
        if sum(yi * b for yi, b in zip(y, rhs)) <= 0:
            failures.append("mean: Farkas vector has y.b <= 0")
        for j in range(n):
            if sum(yi * row[j] for yi, row in zip(y, rows)) > 0:
                failures.append(f"mean: Farkas vector has (y A)_{j} > 0")
                break


def _counit_system(table):
    """(eps (x) id) comult = id on a function algebra: rows (b, j), columns a,
    entry [a b == j]; right-hand side [b == j]."""
    n = len(table)
    rows = {}
    for a in range(n):
        for b in range(n):
            rows.setdefault(b * n + table[a][b], [0] * n)[a] += 1
    return [rows.get(k, [0] * n) for k in range(n * n)], [1 if k // n == k % n else 0 for k in range(n * n)]


def _check_counit(h, table, entry, failures):
    n = len(table)
    if h.kind == "group":
        if not entry["exists"] or _reals(entry["functional"], "counit") != [1] * n:
            failures.append("counit: not the trivial character of the group algebra")
        return
    if h.monoid.has_identity:
        expect = [1 if k == h.monoid.identity else 0 for k in range(n)]
        if not entry["exists"] or _reals(entry["functional"], "counit") != expect or not entry["two_sided"]:
            failures.append("counit: not evaluation at the identity")
        return
    if entry["exists"]:
        failures.append("counit: reported for a semigroup without identity")
        return
    rows, rhs = _counit_system(table)
    y = _reals(entry["certificate"], "counit certificate")
    if any(sum(yi * row[a] for yi, row in zip(y, rows)) for a in range(n)) or not sum(
        yi * b for yi, b in zip(y, rhs)
    ):
        failures.append("counit: certificate is not a left-kernel inconsistency witness")


def _check_haar(h, table, entry, failures):
    n = len(table)
    if not _is_group_table(table):
        if entry["exists"] and h.kind == "function":
            # (phi (x) id) comult = phi(.) 1:  sum_{s: s t = u} phi_s = phi_u
            phi = _reals(entry["state"], "Haar state")
            if sum(phi) != 1 or any(x < 0 for x in phi):
                failures.append("haar: not a state")
            elif any(
                sum(phi[s] for s in range(n) if table[s][t] == u) != phi[u] for u in range(n) for t in range(n)
            ):
                failures.append("haar: state is not left invariant")
        return
    expect = [Fraction(1, n)] * n if h.kind == "function" else [1] + [0] * (n - 1)
    if not entry["exists"] or _reals(entry["state"], "Haar state") != expect:
        failures.append(f"haar: not the {'uniform' if h.kind == 'function' else 'delta_e'} state")


def _check_codiagonal(h, entry, failures):
    """F o comult = counit, with the algebra's structure tensors."""
    d = h.dim
    f = [gaussian(t) for t in entry["functional"]]
    for j in range(d):
        re = im = Fraction(0)
        for (r, c), v in h.comult.entries.items():
            if c == j:
                a, b = f[r]
                re += a * v.re - b * v.im
                im += a * v.im + b * v.re
        eps = h.counit[j]
        if (re, im) != (eps.re, eps.im):
            failures.append(f"codiagonal: F o comult differs from the counit at basis {j}")
            return
