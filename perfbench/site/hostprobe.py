"""Gauge of the shared host's speed, taken from inside a timed process.

The host's speed swings by tens of percent within seconds, so a timed
process also runs a fixed loop that never touches qtspecials, a few
milliseconds every PROBE_PERIOD_S, from a SIGALRM handler.  run.py
scales the process's times by the loop's nominal time over its median
measured time, and takes the probes' own time out of them.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PROBE_STEPS = 100
PROBE_PERIOD_S = 0.05
# a line of standard error that starts with this carries a process's probes
MARK = "#hostprobe "


def fraction_steps(n: int) -> None:
    """n steps of arithmetic on the standard library's Fraction with tuple
    keys and dict stores."""
    acc, seen = Fraction(0), {}
    x, y = Fraction(123457, 654321), Fraction(98765, 432109)
    for i in range(n):
        a = Fraction(i % 997 + 1, 1000003 - i)
        acc = (acc + a * x) / (1 + y * a)
        seen[(i % 50, i % 7)] = acc
        if acc.denominator.bit_length() > 400:
            acc = Fraction(acc.numerator % 100003 + 1, acc.denominator % 100019 + 1)


class HostProbe:
    """Times PROBE_STEPS of fraction_steps every PROBE_PERIOD_S of wall time
    between start() and stop(); at least once."""

    def __init__(self):
        self.samples: list = []

    def fire(self, signum=None, frame=None):
        t0 = time.perf_counter()
        fraction_steps(PROBE_STEPS)
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> HostProbe:
        signal.signal(signal.SIGALRM, self.fire)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def stop(self) -> list:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self.fire()
        return self.samples

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

