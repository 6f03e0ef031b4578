"""Reference-speed timing on a machine whose CPU speed drifts.

On a shared virtual machine the same pure computation can take 1.5 times
longer from one second to the next, because of load this process cannot see
or control.  ``SpeedProbe`` runs fixed probe computations from a SIGALRM
handler every ``INTERVAL_S`` seconds in the measured thread and records how
long each took.  ``seconds(a, b)`` converts the wall interval (a, b) into
reference seconds: the interval without the probes' own time, times the CPU's
speed relative to the reference machine.  The speed is the geometric mean,
over the probe's components, of ``reference duration / median duration``
within ``WINDOW_S`` of the interval.

Contention does not slow every kind of work alike, so each workload names
the components whose slowdowns track its own (see README.md): the
interpreter loop needs no library and also times the set-up, before numpy is
imported.
"""

import bisect
import math
import signal
import statistics
import time

INTERVAL_S = 0.05
WINDOW_S = 0.1
_BUFFER = bytearray(256 << 10)
_ARRAY = []


def _interpreter():
    s = 0
    for i in range(3000):
        s += i * i % 7
    return s


def _numpy():
    import numpy as np  # the timed code has imported it already
    if not _ARRAY:
        _ARRAY.append(np.linspace(0.0, 1.0, 64))
    a = _ARRAY[0]
    for _ in range(30):
        a = np.sin(a) + 0.5 * np.cos(a)
    return a


def _memory():
    for _ in range(16):
        bytes(_BUFFER)


# component -> (probe, its duration on an idle core of the reference machine)
COMPONENTS = {
    "interpreter": (_interpreter, 2.0e-4),
    "numpy": (_numpy, 1.2e-4),
    "memory": (_memory, 1.4e-4),
}


class SpeedProbe:
    """Context manager sampling the CPU speed while the timed code runs."""

    def __init__(self, mix=("interpreter",)):
        self.parts = [COMPONENTS[name] for name in mix]
        self.starts, self.ends = [], []
        self.durations = [[] for _ in self.parts]
        self._previous = None

    def _handler(self, signum, frame):
        t0 = t = time.perf_counter()
        for probe, durations in zip((p for p, _ in self.parts), self.durations):
            probe()
            now = time.perf_counter()
            durations.append(now - t)
            t = now
        self.starts.append(t0)
        self.ends.append(t)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def seconds(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval (a, b)."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        own = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = range(bisect.bisect_left(self.starts, a - WINDOW_S),
                     bisect.bisect_right(self.starts, b + WINDOW_S))
        if not near:  # no probe close by: the nearest one on either side
            near = [i for i in (lo - 1, lo) if 0 <= i < len(self.starts)]
        if not near:
            return b - a
        log_speed = sum(
            math.log(ref / statistics.median(durations[i] for i in near))
            for (_, ref), durations in zip(self.parts, self.durations))
        return (b - a - own) * math.exp(log_speed / len(self.parts))
