"""Metrics registry: named counters, gauges and histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments that
the engine, the schedulers and the thermal solver publish into:

- :class:`Counter` — a monotonically increasing count (e.g.
  ``engine.migrations``, ``engine.migrations.to_ring.2``);
- :class:`Gauge` — a last-write-wins value (e.g.
  ``thermal.exp_cache.hits`` copied from
  :meth:`~repro.thermal.matex.ThermalDynamics.cache_stats` at run end);
- :class:`Histogram` — streaming count/sum/min/max of observations (e.g.
  ``scheduler.decision_latency_s``), plus log-bucketed counts
  (1-2-5 decades, :data:`DEFAULT_BUCKET_BOUNDS`) powering
  :meth:`Histogram.quantile` — the p50/p95/p99 estimator behind the
  serve layer's ``/metrics`` exposition and the engine's response-time
  percentiles.

Instruments measuring *wall-clock* quantities are created with
``timing=True``; :meth:`MetricsRegistry.snapshot` can exclude them so that
two identical simulations produce bit-identical snapshots (the timing
values are real measurements and therefore never reproducible).

The snapshot is a flat, sorted ``name -> value`` dict; histograms expand
into ``name.count`` / ``name.sum`` / ``name.min`` / ``name.max`` /
``name.mean``.  Export to JSON (:meth:`MetricsRegistry.to_json`) and CSV
(:meth:`MetricsRegistry.to_csv`) works on the same flat form.
"""

from __future__ import annotations

import csv
import io as _io
import json
import math
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Tuple, Union

PathLike = Union[str, Path]

#: Log-spaced bucket upper bounds (1-2-5 per decade) covering 1 µs .. 50 s
#: — the latency range of everything this codebase serves; values above
#: the last bound land in an overflow bucket.  Quantile estimates
#: interpolate within a bucket and are clamped to the exact streaming
#: min/max, so constant data yields exact quantiles.
DEFAULT_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    m * 10.0 ** e for e in range(-6, 2) for m in (1.0, 2.0, 5.0)
)


class Counter:
    """A monotonically increasing count."""

    def __init__(self, name: str, timing: bool = False):
        self.name = name
        self.timing = timing
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Increase by ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A last-write-wins value."""

    def __init__(self, name: str, timing: bool = False):
        self.name = name
        self.timing = timing
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value:g})"


class Histogram:
    """Streaming summary (count/sum/sum-of-squares/min/max) of values,
    with log-bucketed counts for quantile estimation."""

    def __init__(self, name: str, timing: bool = False):
        self.name = name
        self.timing = timing
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.bounds = DEFAULT_BUCKET_BOUNDS
        #: per-bucket counts; index i counts values <= bounds[i], the
        #: final slot is the overflow bucket (> bounds[-1]).
        self.bucket_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.sum_sq += value * value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        """Average of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 when empty).

        Computed from the streaming sum of squares; the variance is clamped
        at zero so floating-point cancellation never yields a NaN.
        """
        if not self.count:
            return 0.0
        variance = self.sum_sq / self.count - self.mean**2
        return math.sqrt(max(0.0, variance))

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Walks the cumulative bucket counts to the bucket holding rank
        ``q * count``, interpolates linearly inside it, and clamps the
        estimate to the exact streaming ``[min, max]`` — so ``p0``/``p100``
        are exact, every estimate is within one bucket's width (a factor
        of at most 2.5 on the 1-2-5 grid) of the true quantile, and a
        constant stream yields exact quantiles.  Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            if cumulative >= rank:
                low = self.bounds[index - 1] if index > 0 else min(self.min, 0.0)
                high = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.max
                )
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                estimate = low + (high - low) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count}, mean={self.mean:g})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create registry of named instruments, snapshot-exportable."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, cls, timing: bool) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, timing=timing)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, timing: bool = False) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get_or_create(name, Counter, timing)

    def gauge(self, name: str, timing: bool = False) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge, timing)

    def histogram(self, name: str, timing: bool = False) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram, timing)

    def names(self) -> List[str]:
        """All registered instrument names, sorted."""
        return sorted(self._instruments)

    def histograms(self) -> Dict[str, Histogram]:
        """The registered histograms, name-sorted (quantile exposition)."""
        return {
            name: instrument
            for name, instrument in sorted(self._instruments.items())
            if isinstance(instrument, Histogram)
        }

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    # -- snapshot and export -------------------------------------------------

    def snapshot(self, exclude_timing: bool = False) -> Dict[str, float]:
        """Flat ``name -> value`` view of every instrument, sorted by name.

        ``exclude_timing=True`` drops wall-clock instruments, leaving only
        values that are deterministic across identical runs.
        """
        flat: Dict[str, float] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if exclude_timing and instrument.timing:
                continue
            if isinstance(instrument, Histogram):
                flat[f"{name}.count"] = float(instrument.count)
                flat[f"{name}.sum"] = instrument.sum
                flat[f"{name}.min"] = instrument.min if instrument.count else 0.0
                flat[f"{name}.max"] = instrument.max if instrument.count else 0.0
                flat[f"{name}.mean"] = instrument.mean
                flat[f"{name}.stddev"] = instrument.stddev
            else:
                flat[name] = instrument.value
        return dict(sorted(flat.items()))

    def to_json(self, exclude_timing: bool = False) -> str:
        """The snapshot as a JSON object string."""
        return json.dumps(self.snapshot(exclude_timing), indent=2, sort_keys=True)

    def to_csv(self, exclude_timing: bool = False) -> str:
        """The snapshot as ``metric,value`` CSV (header included)."""
        buffer = _io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(["metric", "value"])
        for name, value in self.snapshot(exclude_timing).items():
            writer.writerow([name, repr(value)])
        return buffer.getvalue()

    def save(self, path: PathLike, exclude_timing: bool = False) -> None:
        """Write the snapshot to ``path`` (format by suffix: .csv or .json).

        Any other suffix raises :class:`ValueError` — a typo'd extension
        must not silently produce a file in an unexpected format.
        """
        path = Path(path)
        if path.suffix == ".csv":
            path.write_text(self.to_csv(exclude_timing))
        elif path.suffix == ".json":
            path.write_text(self.to_json(exclude_timing))
        else:
            raise ValueError(
                f"cannot save metrics to {path.name!r}: "
                "suffix must be .json or .csv"
            )
