"""A fixed piece of pure-Python work that measures the host's speed.

On a shared host the speed of a vCPU drifts by tens of percent over
seconds to minutes, so raw wall times of the same pass differ by that
much from run to run.  ``Sampler`` runs one short ``slice_of_work``
every ``period`` seconds from a SIGALRM handler, in the same process
and between the bytecodes of the jobs it measures, and records how long
each slice took.  The work resembles the program's own inner loops
(sparse dict rows, Fractions, arithmetic mod p) and never changes, so
the mean slice time tracks the host's speed while the jobs run.

``to_reference`` rescales a measured time to a host on which one slice
takes ``REF_SLICE_S``, the slice time measured on the 2-vCPU Xeon where
the benchmark was written.  The constant only fixes the unit: parent
and change are rescaled by the same rule.
"""

import signal
import time
from fractions import Fraction

P = 32003
REF_SLICE_S = 0.003


def slice_of_work():
    """About 3 ms of dict/Fraction/modular work on a 2020s x86 core."""
    a = {k: Fraction(k + 1, 3) for k in range(0, 48, 2)}
    b = {k: Fraction(2 * k + 1, 5) for k in range(0, 48, 3)}
    c = Fraction(1, 7)
    for _ in range(24):
        for k, v in b.items():
            nv = a.get(k, 0) - v * c
            if nv:
                a[k] = nv
            else:
                a.pop(k, None)
    m = {k: k * 7919 % P for k in range(300)}
    for _ in range(32):
        for k in m:
            m[k] = (m[k] * 31 + k) % P
    return len(a) + sum(m.values()) % 7


class Sampler:
    """Times ``slice_of_work`` every ``period`` seconds of wall time."""

    def __init__(self, period=0.2):
        self.period = period
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        slice_of_work()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def to_reference(seconds, samples):
    """``seconds`` of measured time, minus the slices taken inside it,
    at the speed where one slice takes REF_SLICE_S."""
    if not samples:
        raise ValueError("no speed samples: the pass ended before the "
                         "first one was taken")
    mean = sum(samples) / len(samples)
    return (seconds - sum(samples)) * REF_SLICE_S / mean
