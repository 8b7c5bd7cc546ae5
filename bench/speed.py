"""Calibrated time: wall seconds rescaled by the machine's momentary speed.

The shared host this benchmark was written on runs the same pure-Python
code 1.4-1.8x slower in phases that last from under a second to minutes,
so plain wall times of one run disagree with the next by far more than
any change worth measuring.  A ``SpeedClock`` measures how fast the
machine is *while* a job runs: a SIGALRM timer interrupts the job every
``PERIOD_S`` seconds of wall time, and the handler times a fixed probe, a
short pure-Python ``Fraction`` loop of the same kind of work the program
does.  Each stretch of job time between two probes is weighted by
``PROBE_REF_S`` over the mean duration of the two probes around it:

    calibrated = sum(stretch_wall * PROBE_REF_S / mean_probe_s)

so a calibrated second is the time the work would take when the probe
runs in ``PROBE_REF_S``, the probe's time in a fast phase of the
reference machine (see README.md).  The probes' own time is left out.
A change that makes the program do less work lowers calibrated time as
it lowers wall time; a slow phase of the machine lowers neither.

Only one clock may run at a time in a process, and only in its main
thread.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.02  # wall seconds between probes
PROBE_REF_S = 0.00016  # the probe's duration in a fast phase of the reference machine

_now = time.perf_counter


def probe() -> None:
    """The fixed unit of work the machine's speed is measured by."""
    x = Fraction(0)
    for i in range(1, 41):
        x = (x + Fraction(1, i)) * Fraction(i, i + 1)


class SpeedClock:
    """Wall and calibrated seconds between ``start`` and ``stop``."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.marks = []  # (start, end) of each probe

    def _probe(self, *_signal_args) -> None:
        t0 = _now()
        probe()
        self.marks.append((t0, _now()))

    def start(self, since: float | None = None) -> None:
        """Start timing; `since` is an earlier perf_counter() reading (in
        this or another process on the same host) to time from instead of
        the first probe, weighted by that probe's speed."""
        self.marks = []
        self._since = since
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> tuple[float, float, int]:
        """Stop timing; returns (wall seconds, calibrated seconds, probes)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        marks = self.marks
        wall = calibrated = 0.0
        if self._since is not None:
            s0, e0 = marks[0]
            wall = s0 - self._since
            calibrated = wall * PROBE_REF_S / (e0 - s0)
        for (s0, e0), (s1, e1) in zip(marks, marks[1:]):
            stretch = s1 - e0
            wall += stretch
            calibrated += stretch * PROBE_REF_S * 2 / ((e0 - s0) + (e1 - s1))
        return wall, calibrated, len(marks)
