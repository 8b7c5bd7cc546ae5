"""The benchmark's workloads: fixed job lists made from a seed.

Each workload is one pass, a list of job texts in the hopfcoh job-file
format; a run repeats whole passes.  The program only ever sees these
texts, through ``jobfile.parse_input``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

# the task list ``report.run_suite`` uses when it is given none
SUITE_TASKS = (
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
# the catalog algebras of dimension <= 4
SMALL_CATALOG = (
    "function:trivial",
    "function:Z2",
    "function:Z3",
    "function:Z2xZ2",
    "function:leftzero2",
    "function:rzid3",
    "function:mult01",
    "group:trivial",
    "group:Z2",
    "group:Z3",
    "group:Z2xZ2",
)
# inline jobs run at degree cap 2, so their eliminations stay tiny
INLINE_TASKS = (
    "axioms",
    "saturation",
    "counit",
    "haar",
    "codiagonal",
    "mean",
    "cohomology:dual:0-1",
    "check-exist-im2",
)

FN_S3_TASKS = (
    ("axioms", "cohomology:dual:0-2"),
    ("axioms", "cohomology:natural:0-2"),
)
VANISHING_JOBS = (
    ("group:S3", ("axioms", "codiagonal", "cohomology:dual:0-2", "check-B20", "check-B18")),
    ("kp8", ("axioms", "codiagonal", "cohomology:dual:0-2", "check-B20")),
)

# Wall time of one pass on the reference machine (see README.md); a run
# does round(seconds / NOMINAL_PASS_S) passes, at least one, so every run
# with the same --seconds does the same work.
NOMINAL_PASS_S = {"small-jobs": 9.0, "fn-S3-tables": 7.8, "vanishing": 12.3}
WORKLOADS = tuple(NOMINAL_PASS_S)
# Fresh starts per --trace 0 run; setup_s is their median.  fn-S3-tables
# starts in a fraction of a second, so it takes more of them.
SETUP_STARTS = {"small-jobs": 3, "fn-S3-tables": 9, "vanishing": 3}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    jobs: tuple  # job texts of one pass, in order

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / NOMINAL_PASS_S[self.name]))


def monoid_tables(n: int):
    """Every associative Cayley table on {0..n-1} with identity 0.

    Backtracking over the (n-1)^2 free cells in row-major order; a partial
    table is abandoned as soon as a fully defined triple breaks
    associativity.
    """
    t = [[None] * n for _ in range(n)]
    for j in range(n):
        t[0][j] = j
        t[j][0] = j
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    out = []

    def consistent():
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                if ab is None:
                    continue
                for c in range(n):
                    bc = t[b][c]
                    if bc is None:
                        continue
                    left, right = t[ab][c], t[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            out.append(tuple(tuple(row) for row in t))
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if consistent():
                fill(k + 1)
        t[i][j] = None

    fill(0)
    return out


def has_invariant_mean(table) -> bool:
    """A finite monoid has a mean invariant under every right translation
    x -> x r exactly when it has one minimal left ideal, that is when the
    left ideals S r have a common element."""
    n = len(table)
    common = set(range(n))
    for r in range(n):
        common &= {table[x][r] for x in range(n)}
    return bool(common)


def _relabel(table, p):
    """The table after renaming each element i to p[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[p[i]][p[j]] = p[table[i][j]]
    return tuple(tuple(row) for row in out)


def isomorphism_classes(tables):
    """Group Cayley tables by isomorphism (relabelings that keep 0 fixed),
    ordered by each class's smallest relabeled form."""
    classes = {}
    for t in tables:
        key = min(_relabel(t, (0,) + q) for q in permutations(range(1, len(t))))
        classes.setdefault(key, []).append(t)
    return [classes[k] for k in sorted(classes)]


def job_text(header: str, algebra: str, tasks, cayley=None, cap=3) -> str:
    lines = [header, f"algebra = {algebra}", f"degree-cap = {cap}", "tasks = " + ", ".join(tasks)]
    if cayley is not None:
        lines += ["begin cayley", "  identity = 0"]
        lines += ["  row " + " ".join(str(x) for x in row) for row in cayley]
        lines.append("end")
    return "\n".join(lines) + "\n"


def _small_jobs(rng: random.Random, header: str, root: Path):
    jobs = [job_text(header, name, SUITE_TASKS) for name in SMALL_CATALOG]
    jobs.append(header + "\n" + (root / "sample.job").read_text(encoding="utf-8"))
    for n in (3, 4):
        for members in isomorphism_classes(monoid_tables(n)):
            table = rng.choice(members)
            jobs.append(job_text(header, "inline-function", INLINE_TASKS, cayley=table, cap=2))
    rng.shuffle(jobs)
    return jobs


def build(name: str, seed: int, root: Path) -> Workload:
    """The pass of workload `name` for `seed`; `root` holds sample.job."""
    if name not in NOMINAL_PASS_S:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    header = f"# hopfcoh benchmark: workload {name}, seed {seed}"
    if name == "small-jobs":
        jobs = _small_jobs(rng, header, root)
    elif name == "fn-S3-tables":
        jobs = [job_text(header, "function:S3", tasks) for tasks in FN_S3_TASKS]
        rng.shuffle(jobs)
    else:
        jobs = [job_text(header, alg, tasks) for alg, tasks in VANISHING_JOBS]
        rng.shuffle(jobs)
    return Workload(name, seed, tuple(jobs))
