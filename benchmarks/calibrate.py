"""Host-speed calibration for the timed passes.

On a shared host the same code runs at speed levels that change within a
second, and a whole run can fall in a slow level; no statistic of the raw
times removes that.  So the host's speed is sampled while each timed block
runs, and the block's wall time is rescaled to a host on which the
calibration kernel takes ``REFERENCE_NS``:

    scaled = (wall - time spent in kernel samples) * REFERENCE_NS / mean(kernel samples)

The samples are taken right before and after the block and, for blocks
that run in this process, every ``INTERVAL_S`` during it, from a
``SIGALRM`` handler (Python runs the handler in the main thread between
bytecodes, so a long C call only delays it).  The time spent in those
handlers is subtracted from the block.

The kernel is frozen code of the same kind as the package's hot paths (an
interpreted loop over small numpy matrix-vector products, a dict argmin and
CSV formatting) and never calls ``selftrig``, so a change to the package
moves the scaled time, while a change of host speed moves both and cancels.
"""
from __future__ import annotations

import contextlib
import signal
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

# Kernel time on the reference host: a quiet 2-core x86_64 Xeon at 2.0 GHz,
# Python 3.11.7, numpy 2.4.6.  It only fixes the scale of the reported times.
REFERENCE_NS = 850_000

INTERVAL_S = 0.05  # sampling period inside a block
BRACKET = 3  # kernel samples right before and right after a block
_STEPS = 100


def _kernel() -> int:
    A = np.array([[1.0, 0.0], [1.0, 1.0]])
    B = np.array([1.0, 0.5])
    L = np.array([0.4, 0.3])
    x = np.array([1.0, -1.0])
    cost = 0.0
    waits = dict.fromkeys(range(1, 6), 0.0)
    rows = []
    for k in range(_STEPS):
        u = -float(L @ x)
        x = A @ x + B * u
        if abs(x[0]) > 1e3:
            x = x * 1e-3
        cost += float(x @ x)
        for i in waits:
            waits[i] = cost * i - k
        best = min(waits, key=waits.get)
        rows.append("%d,%.17g,%.17g,%d" % (k, x[0], x[1], best))
    return len("\n".join(rows))


@dataclass
class Measurement:
    raw_s: float = 0.0  # wall time of the block, kernel samples excluded
    factor: float = 1.0  # reference-host time per wall second
    samples: int = 0

    @property
    def scaled_s(self) -> float:
        return self.raw_s * self.factor


class Calibration:
    """Times blocks and scales them to the reference host.

    ``stolen_ns`` counts the nanoseconds spent in kernel samples inside
    blocks, so code inside a block can exclude them from its own timers.
    A disabled calibration (the traced run, which reports raw times) takes
    no samples and scales by 1.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.factors = []
        self.stolen_ns = 0
        self._samples = []

    def _sample(self) -> None:
        start = perf_counter_ns()
        _kernel()
        self._samples.append(perf_counter_ns() - start)

    def _on_timer(self, signum, frame) -> None:
        start = perf_counter_ns()
        self._sample()
        self.stolen_ns += perf_counter_ns() - start

    @contextlib.contextmanager
    def measure(self, sample_inside: bool = True):
        """Time the block; the yielded :class:`Measurement` is filled in on exit.

        ``sample_inside=False`` takes only the samples around the block, for
        a block that waits on another process.
        """
        result = Measurement()
        if not self.enabled:
            start = perf_counter_ns()
            yield result
            result.raw_s = (perf_counter_ns() - start) / 1e9
            return
        self._samples = []
        for _ in range(BRACKET):
            self._sample()
        stolen = self.stolen_ns
        previous = signal.signal(signal.SIGALRM, self._on_timer) if sample_inside else None
        start = perf_counter_ns()
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield result
        finally:
            if sample_inside:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter_ns()
            if sample_inside:
                signal.signal(signal.SIGALRM, previous)
        result.raw_s = (end - start - (self.stolen_ns - stolen)) / 1e9
        for _ in range(BRACKET):
            self._sample()
        result.samples = len(self._samples)
        result.factor = REFERENCE_NS * len(self._samples) / sum(self._samples)
        self.factors.append(result.factor)
