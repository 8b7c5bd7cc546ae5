"""hopfcoh benchmark: certified cohomology jobs, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steady RUNS [--workload NAME ...] [--seed N] [--seconds S]

One run starts the workload's process (bench/worker.py) and drives it as
a closed loop with one client: the next job is sent only when the
previous report has come back and passed every check (bench/checks.py).
A run does whole passes over the workload's job list.  With --trace 0 it
also times fresh starts of the program (bench/setup_start.py) between
passes and prints the end-to-end metrics; with --trace 1 it runs one
untraced, one traced and one counting pass and prints per-layer metrics.
The last line of output is one JSON object.

--steady runs each workload RUNS times with seeds N, N+1, ... and prints
every metric's median, quartiles and spread, then two traced runs whose
counts must agree.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
END_TO_END = ("ok_jobs_per_s", "job_p50_s", "setup_s", "peak_rss_mb")


def reference_loop() -> float:
    """A fixed pure-Python Fraction loop: a probe of the machine's speed."""
    t0 = time.perf_counter()
    x = Fraction(0)
    for i in range(1, 20001):
        x = (x + Fraction(1, i)) * Fraction(i, i + 1)
    return time.perf_counter() - t0


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)  # the certificate checks are asserts
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Worker:
    """The workload's process, one request and one reply at a time."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=_child_env(),
        )

    def request(self, **msg) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended during {msg['op']}")
        return json.loads(line)

    def close(self) -> int:
        """Stop the worker; returns its peak resident memory in KiB."""
        try:
            rss = self.request(op="exit")["maxrss_kb"]
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
            return rss
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def fresh_start(texts) -> tuple[float, float]:
    """Wall and calibrated seconds from spawning a fresh interpreter to its
    first task being ready."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_start.py"), str(SRC), repr(time.perf_counter())],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_child_env(),
    )
    try:
        proc.stdin.write(json.dumps(list(texts)))
        proc.stdin.close()
        line = proc.stdout.read()
        proc.wait(timeout=120)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = line.split()
    if len(words) != 3 or words[0] != "ready" or proc.returncode:
        raise RuntimeError(f"fresh start failed (exit {proc.returncode})")
    return float(words[1]), float(words[2])


class Tally:
    """Jobs attempted, failed and checked, with their timed wall seconds."""

    def __init__(self, checker):
        self.checker = checker
        self.attempted = self.failed = self.ok = 0
        self.times = []  # calibrated seconds when calibrated, else wall
        self.walls = []
        self.passes = []  # per pass, the timed seconds of each job
        self.problems = []

    def run_pass(self, worker, jobs, calibrate=False):
        times = []
        for text in jobs:
            reply = worker.request(op="job", text=text, calibrate=calibrate)
            self.attempted += 1
            self.walls.append(reply["dt"])
            times.append(reply["cal"] if calibrate else reply["dt"])
            if reply["error"] is not None:
                self.failed += 1
                self.problems.append(reply["error"].strip().splitlines()[-1])
                continue
            failures = self.checker.check(text, reply["report"])
            if failures:
                self.problems.extend(failures)
            else:
                self.ok += 1
        self.times.extend(times)
        self.passes.append(times)
        return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def single_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from checks import Checker

    ref_start = reference_loop()
    wl = workloads.build(name, seed, ROOT)
    tally = Tally(Checker())
    print(f"workload {name}, seed {seed}: {len(wl.jobs)} jobs per pass")
    worker = Worker()
    try:
        metrics = _traced(wl, worker, tally) if trace else _timed(wl, worker, tally, seconds)
    finally:
        rss_kb = worker.close()
    if not trace:
        metrics["peak_rss_mb"] = _metric(rss_kb / 1024, "MB")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}")
    print(f"reference_loop_s start {ref_start:.4f} end {reference_loop():.4f}")
    return {
        "correct": tally.attempted - tally.failed == tally.ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _timed(wl, worker, tally, seconds) -> dict:
    """Whole passes, with the fresh starts spread before, between and after
    them; every time is calibrated (see speed.py)."""
    import workloads

    passes = wl.passes(seconds)
    starts = workloads.SETUP_STARTS[wl.name]
    slots = passes + 1
    setup = []
    for p in range(slots):
        for _ in range(starts * (p + 1) // slots - starts * p // slots):
            setup.append(fresh_start(wl.jobs))
        if p < passes:
            tally.run_pass(worker, wl.jobs, calibrate=True)
    print(f"{passes} passes, {tally.attempted} jobs")
    print("fresh starts, wall/calibrated s: " + " ".join(f"{w:.3f}/{c:.3f}" for w, c in setup))
    print(
        f"wall, uncalibrated: job p50 {statistics.median(tally.walls):.4f} s, "
        f"{tally.ok / sum(tally.walls):.4f} ok jobs/s; "
        f"machine speed {sum(tally.times) / sum(tally.walls):.3f} of the reference"
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"times-{wl.name}-seed{wl.seed}.json").write_text(json.dumps(tally.passes))
    return {
        "ok_jobs_per_s": _metric(tally.ok / sum(tally.times), "1/s"),
        "job_p50_s": _metric(statistics.median(tally.times), "s"),
        "setup_s": _metric(statistics.median(c for _, c in setup), "s"),
    }


def _traced(wl, worker, tally) -> dict:
    """One untraced, one traced and one counting pass; per-layer metrics per job."""
    import tracing

    plain = tally.run_pass(worker, wl.jobs)
    worker.request(op="trace_on")
    traced = tally.run_pass(worker, wl.jobs)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{wl.seed}.tsv.gz"
    summary = worker.request(op="trace_off", spans=str(spans_path))
    worker.request(op="count_on")
    tally.run_pass(worker, wl.jobs)
    counted = worker.request(op="count_off")
    totals, jobs = summary["totals"], summary["jobs"]
    metrics = {name: _metric(totals[name] / jobs, "s") for name in tracing.TIME_LAYERS}
    for name in list(tracing.CALL_COUNTS) + ["linalg.eliminations", "linalg.elim_cells"]:
        metrics[name] = _metric(totals[name] / jobs, "count")
    metrics["linalg.max_coeff_bits"] = _metric(counted["max_coeff_bits"], "bits")
    metrics["scalars.ops"] = _metric(counted["scalar_ops"] / len(wl.jobs), "count")
    p50_plain, p50_traced = statistics.median(plain), statistics.median(traced)
    covered = sum(totals[name] for name in tracing.TIME_LAYERS)
    print(f"trace: {totals['spans']} spans over {jobs} jobs, written to {spans_path.relative_to(ROOT)}")
    print(
        f"trace overhead: job p50 {p50_traced:.4f} s traced vs {p50_plain:.4f} s untraced "
        f"({p50_traced - p50_plain:+.4f} s, {p50_traced / p50_plain - 1:+.1%}); "
        f"layers cover {covered / sum(traced):.1%} of traced job time"
    )
    return metrics


def _quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steady(names, runs: int, seed: int, seconds: float) -> int:
    """Run each workload `runs` times and print the spread of every metric."""
    OUT.mkdir(exist_ok=True)
    status = 0
    for name in names:
        results, refs = [], []
        for i in range(runs):
            res = _child_run(name, seed + i, seconds, 0)
            results.append(res["result"])
            refs.append(res["reference"])
            print(f"  {name} seed {seed + i}: " + json.dumps(res["result"]), flush=True)
        print(f"== {name}: {runs} runs, seeds {seed}..{seed + runs - 1}, --seconds {seconds}")
        summary = {"runs": results, "reference_loop_s": refs, "metrics": {}}
        for metric in END_TO_END:
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = _quartiles(vals)
            summary["metrics"][metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}
            print(f"{metric:>14}: median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  spread {(q3 - q1) / med:.1%}")
        starts = [r[0] for r in refs]
        ends = [r[1] for r in refs]
        print(
            f"{'reference loop':>14}: start median {statistics.median(starts):.4f} s "
            f"[{min(starts):.4f}, {max(starts):.4f}], end median {statistics.median(ends):.4f} s "
            f"[{min(ends):.4f}, {max(ends):.4f}]"
        )
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{'failed share':>14}: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
        traces = [_child_run(name, seed, seconds, 1) for _ in range(2)]
        counts_equal = all(
            traces[0]["result"]["metrics"][m] == traces[1]["result"]["metrics"][m]
            for m, v in traces[0]["result"]["metrics"].items()
            if v["unit"] != "s"
        )
        summary["traced"] = [t["result"] for t in traces]
        summary["trace_overhead"] = [t["overhead"] for t in traces]
        print(f"{'traced runs':>14}: counts identical: {counts_equal}; " + "; ".join(t["overhead"] for t in traces))
        if not counts_equal or not all(r["correct"] for r in results + summary["traced"]):
            status = 1
        (OUT / f"steady-{name}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return status


def _child_run(name, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
        cwd=ROOT,
        env=_child_env(),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{name} seed {seed} failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    out = {"result": json.loads(lines[-1]), "reference": None, "overhead": ""}
    for line in lines:
        if line.startswith("reference_loop_s"):
            parts = line.split()
            out["reference"] = (float(parts[2]), float(parts[4]))
        elif line.startswith("trace overhead:"):
            out["overhead"] = line[len("trace overhead: "):]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable with --steady)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="RUNS", help="runs per workload for the steadiness report")
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("error: run without -O; the program's certificate checks are assert statements", file=sys.stderr)
        return 2
    missing = [p for p in (SRC / "hopfcoh" / "__init__.py", ROOT / "sample.job") if not p.is_file()]
    if missing:
        print(f"error: not a hopfcoh checkout, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = args.workload or ([] if args.steady is None else list(workloads.WORKLOADS))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or not names:
        print(f"error: choose --workload from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.steady is not None:
        if args.steady < 2:
            print("error: --steady needs at least 2 runs", file=sys.stderr)
            return 2
        return steady(names, args.steady, args.seed, args.seconds)
    if len(names) != 1:
        print("error: one --workload per run", file=sys.stderr)
        return 2
    result = single_run(names[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
