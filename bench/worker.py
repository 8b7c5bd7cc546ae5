"""The workload's process: runs hopfcoh jobs one at a time.

    python3 bench/worker.py SRC_DIR

Reads one JSON request per line on stdin and writes one JSON reply per
line on stdout.  A job request carries a job text; the reply carries the
rendered report and the wall time of parse_input -> run -> render_json,
the only timed region.  Other requests switch the span tracer or the
operation counter on and off, and "exit" replies with the process's
peak resident memory.
"""
from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    sys.path.insert(0, sys.argv[1])
    import hopfcoh  # noqa: F401  (import before timing anything)
    from hopfcoh import jobfile, report

    import speed
    import tracing

    tracer = counter = None
    clock = speed.SpeedClock()
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "job":
            if tracer is not None:
                tracer.begin_job()
            calibrate = msg.get("calibrate", False)
            if calibrate:
                clock.start()
            t0 = time.perf_counter()
            try:
                text = report.render_json(report.run(jobfile.parse_input(msg["text"])))
                error = None
            except Exception:  # a failed job is reported, and the next one runs
                text, error = None, traceback.format_exc()
            reply = {"dt": time.perf_counter() - t0, "report": text, "error": error}
            if calibrate:
                reply["dt"], reply["cal"], _ = clock.stop()
        elif op == "trace_on":
            tracer = tracing.Tracer()
            tracer.install()
            reply = {}
        elif op == "trace_off":
            tracer.uninstall()
            reply = {"totals": tracer.summary(), "jobs": tracer.jobs}
            if msg.get("spans"):
                tracer.write_spans(msg["spans"])
            tracer = None
        elif op == "count_on":
            counter = tracing.OpCounter()
            counter.install()
            reply = {}
        elif op == "count_off":
            counter.uninstall()
            reply = {"scalar_ops": counter.ops[0], "max_coeff_bits": counter.max_bits}
            counter = None
        elif op == "exit":
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        else:
            reply = {"error": f"unknown request {op!r}"}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if op == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
