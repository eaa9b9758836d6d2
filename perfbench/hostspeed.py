"""Host-speed sampling: measured seconds rescaled to a reference host speed.

The host the benchmark was defined on is shared, and its speed moves within
seconds: a fixed loop of small numpy operations ran 1.75 times slower in some
stretches than in others, and the median over 25 s windows moved by 40 %
within four minutes.  Workload run times move with it.  Timing a fixed loop
before and after each run did not follow these changes (the rescaled run
times spread more than the raw ones), so :class:`Sampler` times the loop
*during* the measured region instead: once on entry, then every
``SAMPLE_INTERVAL`` seconds from a ``SIGALRM`` handler.  The time the loop
takes is taken out of the region's seconds, and :attr:`Sampler.scale` turns
the rest into seconds at the speed where the loop takes
``REFERENCE_PROBE_S``.  On ``batched-sgd-sweep`` this cut the spread of the
run times of one seed (standard deviation over mean) from 10 % to 4.5 %.
The probe calls nothing in the program, so a change to the program moves the
rescaled times as much as the measured ones.

The handler runs in the main thread between bytecodes, so the measured
region must run there, as all the workloads do.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Seconds :func:`probe` took on the host the benchmark was defined on
#: (two-vCPU Intel Xeon, Python 3.11, numpy 2.4) in its quiet moments.
REFERENCE_PROBE_S = 0.0005

#: Seconds between probes inside a measured region (1 to 2 % of its time).
SAMPLE_INTERVAL = 0.05

_DATA = np.random.default_rng(0).random(2000)


def probe() -> float:
    """Seconds for a fixed mix of small numpy operations and Python arithmetic."""
    start = time.perf_counter()
    total = 0.0
    for i in range(200):
        total += float((_DATA * 1.0001 + 0.5)[i])
    return time.perf_counter() - start


class Sampler:
    """Times the ``with`` body and samples the host's speed while it runs.

    After the block, :attr:`seconds` holds the body's wall time without the
    probes, and :attr:`scale` the reference seconds per measured second.
    """

    def __enter__(self) -> "Sampler":
        self.samples = [probe()]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        self._start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def __exit__(self, *exc) -> bool:
        # Disarm first: a probe still pending runs before ``end`` is read,
        # so every probe counted in ``spent`` lies inside the region.
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = end - self._start - self.spent
        return False

    @property
    def scale(self) -> float:
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
