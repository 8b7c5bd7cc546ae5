"""One fresh start of the program, up to the first task being ready.

    python3 bench/setup_start.py SRC_DIR SPAWN_TIME < job_texts.json

Imports hopfcoh, then for every distinct algebra among the job texts on
stdin: parse, resolve the algebra, check its axioms and build its
bicomodule catalog.  SPAWN_TIME is the caller's time.perf_counter() when
it spawned this process; a speed.SpeedClock times from then to the
first task being ready, and the last line printed is
"ready WALL_S CALIBRATED_S".
"""
import sys

import speed


def main() -> int:
    clock = speed.SpeedClock()
    clock.start(since=float(sys.argv[2]))
    import json

    texts = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    from hopfcoh.comodule import catalog_bicomodules
    from hopfcoh.hopf import check_axioms
    from hopfcoh.jobfile import parse_input
    from hopfcoh.report import resolve_algebra

    done = set()
    for text in texts:
        job = parse_input(text)
        key = (job.algebra, job.cayley)
        if key in done:
            continue
        done.add(key)
        h = resolve_algebra(job)
        if not check_axioms(h).ok:
            print(f"axioms fail for {job.algebra}", file=sys.stderr)
            return 1
        catalog_bicomodules(h)
    wall, calibrated, _ = clock.stop()
    print(f"ready {wall!r} {calibrated!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
