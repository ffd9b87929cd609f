"""Request timing scaled to a reference CPU speed.

On a shared 2-core box the same pure-Python work runs at one of two
speeds that alternate every one to three seconds, the slow one about
1.75 times slower (measured: a fixed Fraction loop took 2.0 ms or 3.5 ms
per call, in phases, with CPU time equal to wall time).  A run of 25 s
sees a varying share of slow phases, which moves its medians by tens of
percent whatever the program does.

The clock samples the machine's current speed while requests run: every
SAMPLE_INTERVAL_S a SIGALRM handler times two calls of `reference()`, a
fixed exact-rational loop like freecert's own arithmetic, and one more
sample is taken just before and just after each request.  A request's
time is its wall time, minus the time spent in the handler, multiplied
by the mean of REFERENCE_S / sample over the samples around and inside
it: the seconds the request would take at the reference speed.  On a
machine that keeps the reference speed the two agree.

A child process runs on the other core, whose speed the parent cannot
see, so `timed_child` has the child take its own samples before and
after the statement it times.
"""

from __future__ import annotations

import inspect
import signal
import statistics
import subprocess
from fractions import Fraction
from time import perf_counter

# One `reference()` call at the fast speed of the 2-core box the baseline
# was recorded on (Python 3.11.7), measured back to back.
REFERENCE_S = 42e-6
SAMPLE_INTERVAL_S = 0.02


def reference() -> Fraction:
    s = Fraction(0)
    for i in range(1, 20):
        s += Fraction(i % 5 + 1, i)
    return s


def sample() -> tuple[float, float]:
    """(the faster of two reference calls, the one run warm; both calls' time)."""
    t0 = perf_counter()
    reference()
    t1 = perf_counter()
    reference()
    t2 = perf_counter()
    return min(t1 - t0, t2 - t1), t2 - t0


class SpeedClock:
    """Use as a context manager; time calls with `timed`."""

    def __init__(self):
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        speed, cost = sample()
        self.samples.append(speed)
        if signum is not None:
            self.handler_s += cost

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """(fn(*args), its seconds at the reference speed)."""
        self._sample()
        first = len(self.samples) - 1
        handler0 = self.handler_s
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0 - (self.handler_s - handler0)
        self._sample()
        scale = statistics.fmean(REFERENCE_S / s for s in self.samples[first:])
        return result, wall * scale


def timed_child(argv0: list[str], statement: str, **run_kwargs) -> float:
    """Wall time of `argv0 -c PROGRAM`, where PROGRAM runs `statement`
    between two speed samples, scaled to the reference speed.  The time of
    the samples themselves is left out."""
    program = "\n".join(
        [
            "from fractions import Fraction",
            "from time import perf_counter",
            inspect.getsource(reference),
            inspect.getsource(sample),
            "before = sample()",
            statement,
            "after = sample()",
            "print((before[0] + after[0]) / 2, before[1] + after[1])",
        ]
    )
    t0 = perf_counter()
    proc = subprocess.run(argv0 + ["-c", program], check=True, capture_output=True, text=True, **run_kwargs)
    wall = perf_counter() - t0
    speed, cost = (float(x) for x in proc.stdout.split())
    return (wall - cost) * REFERENCE_S / speed
