"""Command-line front door.

Verbs: check, cohomology, codiagonal, mean, verify, report.
Exit codes: 0 all checks consistent, 1 a theorem cross-check or a
certificate check failed, 2 input error or an output file that cannot be
written.
"""
from __future__ import annotations

import argparse
import sys

from . import catalog
from .cochain import DEFAULT_DEGREE_CAP
from .jobfile import JobParseError, JobSpec, parse_input
from .linalg import CertificateError
from .records import replace
from .report import InputError, render_json, render_markdown, run, run_suite
from .tasks import KINDS, for_verb


def _add_common(p, suppress: bool):
    d = argparse.SUPPRESS if suppress else None
    p.add_argument(
        "--degree-cap",
        type=int,
        default=d,
        help=f"cochain spaces built up to C^cap (default {DEFAULT_DEGREE_CAP}, or the job file's)",
    )
    p.add_argument("--catalog", default=d, help="built-in algebra name (see 'hopfcoh list'), or 'all'")
    p.add_argument("--input", default=d, help="job file to run (overrides --catalog)")
    p.add_argument("--output", default=d, help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "markdown"), default=d)
    p.add_argument(
        "--timing",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="log per-task timings to stderr and add wall_clock_seconds to each report",
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
    coh.add_argument("--kind", choices=KINDS, default="dual")
    coh.add_argument("--degrees", default="0-2", help="degree span, e.g. 0-2")
    sub.add_parser("codiagonal", help="solve the codiagonal identities", parents=[common])
    sub.add_parser("mean", help="invariant-mean LP feasibility", parents=[common])
    sub.add_parser("verify", help="run the theorem cross-checks", parents=[common])
    sub.add_parser("report", help="everything: structure, tables and cross-checks", parents=[common])
    return p


def _markdown(report: dict) -> str:
    """One markdown section per algebra, of a single report or of a suite."""
    reports = report["suite"].values() if "suite" in report else [report]
    return "\n".join(render_markdown(r) for r in reports)


def _read_text(path: str) -> str:
    """The job file's text; a leading byte-order mark is dropped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte offset {exc.start})") from None


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    log = sys.stderr if args.timing else None
    cap = args.degree_cap
    if args.verb == "cohomology":
        verb_tasks = for_verb("cohomology", kinds=(args.kind,), degrees=args.degrees)
    else:
        verb_tasks = for_verb(args.verb)
    try:
        if cap is not None and cap < 1:
            raise InputError("degree-cap must be >= 1")
        if args.verb == "list":
            body = "\n".join(catalog.algebra_names()) + "\n"
            fmt = "text"
        elif args.input:
            job = parse_input(_read_text(args.input))
            job = replace(job, degree_cap=cap or job.degree_cap, format=args.format or job.format)
            report = run(job, log=log)
            fmt = job.format
        elif args.catalog == "all":
            report = run_suite(
                catalog.default_suite(),
                degree_cap=cap or DEFAULT_DEGREE_CAP,
                tasks=None if args.verb == "report" else verb_tasks,
                log=log,
            )
            fmt = args.format or "json"
        elif args.catalog:
            job = JobSpec(algebra=args.catalog, tasks=verb_tasks, degree_cap=cap or DEFAULT_DEGREE_CAP)
            report = run(job, log=log)
            fmt = args.format or "json"
        else:
            print("error: need --catalog NAME, --catalog all, or --input FILE", file=sys.stderr)
            return 2
    except (JobParseError, InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        witness = [f"{k} {v}" for k, v in (("bicomodule", exc.bicomodule), ("column", exc.column)) if v is not None]
        where = f" ({', '.join(witness)})" if witness else ""
        print(f"error: certificate check failed: {exc}{where}", file=sys.stderr)
        return 1

    if args.verb == "list":
        out_text = body
    elif fmt == "markdown":
        out_text = _markdown(report)
    else:
        out_text = render_json(report)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out_text)
            # the report verb dual-emits: JSON body plus a markdown summary
            if args.verb == "report" and fmt == "json":
                with open(args.output + ".md", "w", encoding="utf-8") as fh:
                    fh.write(_markdown(report))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out_text)
    if args.verb == "list":
        return 0
    return 0 if report.get("consistent", True) else 1


if __name__ == "__main__":
    sys.exit(main())
