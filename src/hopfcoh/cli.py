"""Command-line front door.

Verbs: check, cohomology, codiagonal, mean, verify, report.
Exit codes: 0 all checks consistent, 1 a theorem cross-check failed,
2 input error.
"""
from __future__ import annotations

import argparse
import sys

from . import catalog
from .jobfile import JobParseError, JobSpec, parse_input
from .report import InputError, render_json, render_markdown, run, run_suite

VERIFY_TASKS = ("check-B20", "check-B18", "check-exist-im2", "check-C10", "check-C15")
REPORT_TASKS = (
    "axioms",
    "saturation",
    "counit",
    "haar",
    "codiagonal",
    "mean",
    "cohomology:dual:0-2",
    "cohomology:natural:0-2",
) + VERIFY_TASKS


def _add_common(p, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--degree-cap",
        type=int,
        default=d,
        help="cochain spaces built up to C^cap (default 3, or the job file's)",
    )
    p.add_argument("--catalog", default=d, help="built-in algebra name (see 'hopfcoh list'), or 'all'")
    p.add_argument("--input", default=d, help="job file to run (overrides --catalog)")
    p.add_argument("--output", default=d, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "markdown"), default=d)
    p.add_argument(
        "--timing",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="log per-task timings to stderr",
    )


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopfcoh",
        description="Exact cohomology and amenability certificates for "
        "finite-dimensional Hopf *-algebras.",
    )
    _add_common(p, suppress=False)
    # the same flags are accepted after the verb; post-verb values win
    common = argparse.ArgumentParser(add_help=False)
    _add_common(common, suppress=True)
    sub = p.add_subparsers(dest="verb", required=True)
    sub.add_parser("list", help="list built-in algebra names", parents=[common])
    sub.add_parser("check", help="axioms, saturation and counit", parents=[common])
    coh = sub.add_parser("cohomology", help="cohomology dimension table", parents=[common])
    coh.add_argument("--kind", choices=("natural", "dual", "bar", "restricted"), default="dual")
    coh.add_argument("--degrees", default="0-2", help="degree span, e.g. 0-2")
    sub.add_parser("codiagonal", help="solve the codiagonal identities", parents=[common])
    sub.add_parser("mean", help="invariant-mean LP feasibility", parents=[common])
    sub.add_parser("verify", help="run the theorem cross-checks", parents=[common])
    sub.add_parser("report", help="everything: structure, tables and cross-checks", parents=[common])
    return p


def _tasks_for(args) -> tuple:
    if args.verb == "check":
        return ("axioms", "saturation", "counit")
    if args.verb == "cohomology":
        return ("axioms", f"cohomology:{args.kind}:{args.degrees}")
    if args.verb == "codiagonal":
        return ("axioms", "counit", "codiagonal")
    if args.verb == "mean":
        return ("axioms", "mean")
    if args.verb == "verify":
        return ("axioms",) + VERIFY_TASKS
    if args.verb == "report":
        return REPORT_TASKS
    raise InputError(f"unknown verb {args.verb!r}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    log = sys.stderr if args.timing else None
    cap = args.degree_cap
    try:
        if cap is not None and cap < 1:
            raise InputError("degree-cap must be >= 1")
        if args.verb == "list":
            body = "\n".join(catalog.algebra_names()) + "\n"
            fmt = "text"
        elif args.input:
            with open(args.input, encoding="utf-8") as fh:
                job = parse_input(fh.read())
            job = JobSpec(
                algebra=job.algebra,
                tasks=job.tasks,
                degree_cap=job.degree_cap if cap is None else cap,
                format=args.format or job.format,
                cayley=job.cayley,
                comodules=job.comodules,
            )
            report = run(job, log=log)
            fmt = job.format
        elif args.catalog == "all":
            report = run_suite(
                [name for name, _ in catalog.default_suite()],
                degree_cap=cap or 3,
                log=log,
            )
            fmt = args.format or "json"
        elif args.catalog:
            job = JobSpec(
                algebra=args.catalog, tasks=_tasks_for(args), degree_cap=cap or 3
            )
            report = run(job, log=log, include_timing=args.timing)
            fmt = args.format or "json"
        else:
            print("error: need --catalog NAME, --catalog all, or --input FILE", file=sys.stderr)
            return 2
    except (JobParseError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.verb == "list":
        out_text = body
    elif fmt == "markdown":
        if "suite" in report:
            out_text = "\n".join(render_markdown(r) for r in report["suite"].values())
        else:
            out_text = render_markdown(report)
    else:
        out_text = render_json(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(out_text)
        # the report verb dual-emits: JSON body plus a markdown summary
        if args.verb == "report" and fmt == "json":
            with open(args.output + ".md", "w", encoding="utf-8") as fh:
                if "suite" in report:
                    fh.write("\n".join(render_markdown(r) for r in report["suite"].values()))
                else:
                    fh.write(render_markdown(report))
    else:
        sys.stdout.write(out_text)
    if args.verb == "list":
        return 0
    return 0 if report.get("consistent", True) else 1


if __name__ == "__main__":
    sys.exit(main())
