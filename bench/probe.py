"""In-run CPU speed probe: host seconds scaled to a reference speed.

The benchmark host is a 2-vCPU VM whose vCPUs share physical cores with
other tenants.  Measured on it, identical fig4a passes took 3.6–6.9 s in
one process, with fast and slow phases switching every few seconds and
no steal time showing: slow phases retire fewer instructions per second
rather than descheduling the process, so neither CPU time nor a minimum
over a few long passes removes them.  The two vCPUs slow down largely
independently (their probe timings correlate at 0.35), so each process
must sample its own speed.

:class:`SpeedProbe` times a fixed loop from a ``SIGALRM`` handler every
``period_s``, in the process's main thread, so each sample sees the speed
the workload saw at that moment.  A span of host time is rescaled by the
mean of ``REFERENCE_S / sample`` over the samples taken during it, after
subtracting the samples' own time.  Over 84 identical fig4a passes in
one process (raw times 3.5–7.3 s) this cut the inter-quartile spread of
pass times from 29 % to 4 %.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

#: Duration of one probe loop at reference speed (the fast phase of the
#: host the bounds were set on).
REFERENCE_S = 320e-6


class _Node:
    __slots__ = ("key", "value")

    def __init__(self, key):
        self.key = key
        self.value = key + 1


class SpeedProbe:
    """Samples the host's speed from a timer signal; main thread only."""

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        #: sample start times and loop durations, in time order
        self.starts: List[float] = []
        self.durations: List[float] = []
        self._previous = None
        self._matrix = None
        self._records: List[dict] = []

    @classmethod
    def from_samples(cls, samples) -> "SpeedProbe":
        """A probe holding another process's ``(start, duration)`` samples.

        ``time.perf_counter`` is system-wide monotonic on Linux, so their
        timeline and this process's agree.
        """
        probe = cls()
        for start, duration in samples:
            probe.starts.append(start)
            probe.durations.append(duration)
        return probe

    def samples(self) -> List[Tuple[float, float]]:
        """The samples as ``(start, duration)`` pairs (JSON-friendly)."""
        return list(zip(self.starts, self.durations))

    def _loop(self) -> float:
        """Small-object interpreter work (allocation, attribute and dict
        access) plus small matrix-vector products, the mix the engine and
        the server spend their time in.  Measured against identical fig4a
        passes, an integer-arithmetic loop in place of the object work
        left an inter-quartile spread of 7.7 %, this loop 4.0 %."""
        total = 0
        for _ in range(2):
            for record in self._records:
                node = _Node(record["key"])
                total += node.value + len(record["pair"])
                record.get("missing", 0)
        x = self._np.ones(16)
        for _ in range(30):
            x = self._np.exp(-1e-3 * (self._matrix @ x))
        return total + float(x[0])

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._loop()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "SpeedProbe":
        # numpy loads here, not at import: the parent process must set the
        # BLAS thread count before numpy first loads
        import numpy

        self._np = numpy
        self._matrix = numpy.random.default_rng(0).random((16, 16))
        self._records = [{"key": i, "pair": [i, i + 1]} for i in range(300)]
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _window(self, t0: float, t1: float) -> List[float]:
        lo = bisect.bisect_left(self.starts, t0)
        return self.durations[lo:bisect.bisect_left(self.starts, t1)]

    def scaled(self, t0: float, t1: float) -> Tuple[float, float]:
        """(reference-speed seconds, raw seconds) of the span ``[t0, t1)``.

        Both exclude the probe's own samples.  A span without a sample
        takes the speed of the latest sample before it.
        """
        inside = self._window(t0, t1)
        raw = (t1 - t0) - sum(inside)
        if inside:
            speed = sum(REFERENCE_S / d for d in inside) / len(inside)
        else:
            speed = self.speed_at(t0)
        return raw * speed, raw

    def speed_at(self, t: float) -> float:
        """Speed factor of the latest sample before ``t`` (1.0 if none)."""
        index = bisect.bisect_right(self.starts, t) - 1
        return REFERENCE_S / self.durations[index] if index >= 0 else 1.0
