"""Host-speed probe: rescales a measured interval to a fixed host speed.

On a shared machine other tenants slow this process down by up to 2x, in
bursts of seconds to minutes; CPU time slows with wall time, so neither
clock nor the fastest pass gives a figure that two runs of the same code
agree on.  While an interval is measured, a SIGALRM timer runs a fixed
pure-Python probe every ``PERIOD_S``.  The interval's wall time, less the
time spent in probes, is scaled by ``REFERENCE_S / mean probe time``: the
seconds the interval would take on a host where one probe takes
``REFERENCE_S``.  Signal handlers run between bytecodes, so inside a long C
call (a large ``eigvalsh``) the probe waits until the call returns.
Pure-Python passes slow down as the probe does; time in large BLAS calls
slows about half as much in log terms, so such passes read somewhat low on
a busy host.

The program under test does not run the probe's code, so a change to the
program moves the scaled time as it moves the wall time.
"""

from __future__ import annotations

import math
import signal
import time

#: seconds between probes
PERIOD_S = 0.01
#: one probe's time on an uncontended 2-vCPU Intel Xeon VM with CPython 3.11
REFERENCE_S = 340e-6


def _probe():
    start = time.perf_counter()
    total, table = 0.0, {}
    for i in range(3000):
        total += math.sqrt(i)
        table[i & 127] = (total, i)
    return time.perf_counter() - start


class HostSpeed:
    """Times intervals with the probe running; one interval at a time.

    Use as a context manager, so no timer is left armed when the body raises."""

    def __init__(self):
        self.samples = []
        self.start_s = 0.0
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(_probe()))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def start(self, at=None):
        """Open an interval at ``at`` (a ``time.monotonic()`` value) or now."""
        self.samples = []
        self.start_s = time.monotonic() if at is None else at
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Close the interval; returns (wall seconds, scaled seconds)."""
        end = time.monotonic()
        signal.setitimer(signal.ITIMER_REAL, 0)
        samples = self.samples or [_probe()]
        wall = end - self.start_s
        return wall, (wall - sum(self.samples)) * REFERENCE_S / (sum(samples) / len(samples))
