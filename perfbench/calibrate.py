"""Machine-speed sampling: a fixed slice of work timed all through a run.

The benchmark's host is shared: the same code runs up to 1.8x slower for
seconds to minutes at a time, with no steal time to show it (see README.md,
"Run length and noise").  `SpeedProbe` measures how fast the machine is
while a workload runs.  A one-shot wall-clock timer (SIGALRM) goes off every
`PERIOD_S` seconds; Python runs the handler in the main thread between two
bytecodes of the workload, and the handler times one slice of fixed work
and re-arms the timer.  The slice is built from the operations letd spends
its time in: small unbatched 2D DST-I calls, batched 1D DST-I calls on level
stacks, and short numpy expressions on piece-sized vectors driven from a
Python loop.  It does not import letd, so a change to letd never changes it.

A run's own time is its wall time minus the time spent in the handler, and
its scaled time is that, times `REFERENCE_SLICE_S`, over the mean slice
time during the run: the run's time at the reference machine's speed.
"""
from __future__ import annotations

import signal
import time

import numpy as np
from scipy.fft import dst, dstn

#: slice time, in s, of the machine the reference numbers were recorded on
#: (2 vCPU Intel Xeon at 2.0 GHz, python 3.11, numpy 2.4, scipy 1.17)
REFERENCE_SLICE_S = 0.013
#: seconds of workload between two slices (the slices add about 6%)
PERIOD_S = 0.2

_RNG = np.random.default_rng(20171106)
_SMALL = _RNG.standard_normal((40, 40))
_STACK = _RNG.standard_normal((129, 255))
_X = np.linspace(0.0, 1.0, 130)


def _slice() -> float:
    acc = 0.0
    for _ in range(60):
        acc += float(dstn(_SMALL, type=1, norm="ortho")[3, 4])
    for _ in range(3):
        acc += float(dst(_STACK, type=1, norm="ortho", axis=-1)[5, 7])
    for i in range(300):
        f = np.sin(np.pi * _X) * np.exp(-1e-3 * i)
        f = f.copy()
        f[0] += 0.5 * acc
        f[-1] -= 0.5 * acc
        acc = 0.5 * acc + float(f[64]) * 1e-3
    return acc


def warm_up() -> None:
    """The first slice in a process pays for FFT plans and caches."""
    _slice()


class SpeedProbe:
    """Context manager that times a slice every `PERIOD_S` while it is open.

    `slices` holds the slice times and `handler_s` the whole time spent in
    the handler.  At least one slice is timed, on exit if the timer never
    went off.
    """

    def __init__(self):
        self.slices: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _slice()
        self.slices.append(time.perf_counter() - start)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.slices:
            start = time.perf_counter()
            _slice()
            self.slices.append(time.perf_counter() - start)

    @property
    def speed_factor(self) -> float:
        """Reference slice time over the mean slice time of this run."""
        return REFERENCE_SLICE_S * len(self.slices) / sum(self.slices)
