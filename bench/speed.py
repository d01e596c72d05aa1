"""Host-speed probe: wall times rescaled to a fixed reference speed.

The virtual machine the benchmark was sized on switches between two speeds
about 1.6x apart, within seconds, from load outside it, and CPU time moves
with wall time.  A plain wall time of the same code therefore spreads by a
fifth from run to run.  ``SpeedProbe`` tracks the speed from inside the
measured thread: every ``INTERVAL_S`` of wall time a ``SIGALRM`` handler runs
a fixed piece of pure-Python reference work (exact rational arithmetic, like
gwvir's own) and records how long it took.  A measured interval of ``raw``
seconds, with probes ``p_1 .. p_n`` inside it, did the work of

    ref = raw * mean(REFERENCE_S / p_i)

seconds at the reference speed, the speed at which one probe takes
``REFERENCE_S``.  Probes are evenly spaced in wall time, so each stands for an
equal slice of the interval and the mean of the inverse durations is the mean
speed.  ``raw`` excludes the probes' own time.  On the sized machine this cut
the run-to-run variation of one registry tag's time from 19% to 3%.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from fractions import Fraction

INTERVAL_S = 0.01

# One probe's duration at the reference speed: about its median between
# gwvir's own work on the machine the benchmark was sized on, so reference
# seconds read close to wall seconds there.
REFERENCE_S = 0.00043


def reference_work() -> Fraction:
    """Fixed pure-Python work, 0.3 to 0.5 ms: a sum of 99 small fractions."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(i % 97, i % 89 + 1)
    return total


@dataclass(frozen=True)
class Mark:
    wall: float
    probes: int


@dataclass(frozen=True)
class Elapsed:
    raw_s: float        # wall seconds, without the probes' own time
    ref_s: float        # the same work in seconds at the reference speed
    probe_s: float      # time the probes took inside the interval
    probes: int


def rescale(raw_s: float, probe_durations: list[float]) -> float:
    """Seconds at the reference speed of ``raw_s`` measured with these probes."""
    if not probe_durations:
        return raw_s
    return raw_s * sum(REFERENCE_S / p for p in probe_durations) / len(probe_durations)


class SpeedProbe:
    """Samples the host's speed in the calling (main) thread while entered."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), len(self.samples))

    def since(self, mark: Mark) -> Elapsed:
        """Raw and reference seconds from ``mark`` to now.

        An interval too short to hold a probe borrows the latest one before it.
        """
        wall = time.perf_counter() - mark.wall
        inside = self.samples[mark.probes:]
        probe_s = sum(inside)
        raw = wall - probe_s
        speed = inside or self.samples[-1:]
        return Elapsed(raw, rescale(raw, speed), probe_s, len(inside))
