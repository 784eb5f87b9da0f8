"""Composable deterministic arrival processes for the open system.

The paper's Fig. 4b drives the chip with a single homogeneous Poisson
stream; real serving traffic is not that kind.  This module provides the
arrival-time side of ``repro.traffic``:

- :class:`PoissonProcess` — homogeneous Poisson (exponential gaps): one
  ``default_rng(seed).exponential(1 / rate, n)`` draw, cumulatively
  summed.
- :class:`DiurnalProcess` — non-homogeneous Poisson with a sinusoidal
  (day/night) rate, sampled by Lewis-Shedler thinning: candidates are
  drawn at the peak rate and accepted with probability
  ``rate(t) / peak``, so the instantaneous rate never exceeds the peak
  and accepted arrivals are a subset of the candidate stream.
- :class:`FlashCrowd` — a burst overlay: deterministic burst arrivals
  (per-burst Poisson counts, uniform within the burst window) merged
  into any base process.  Zero-rate bursts contribute nothing, making
  the overlay *bit-for-bit* identical to its base — the metamorphic
  property the test suite pins.
- :class:`TraceReplay` — arrivals replayed verbatim from a recorded
  schedule (see :mod:`repro.traffic.trace` for the JSONL format).

Every process is a pure function of ``(n, seed)``; the shared-generator
entry point :meth:`ArrivalProcess.sample_times` exists so callers that
interleave other draws on one generator (the serve load generator) keep
their existing byte-exact tapes.

:func:`assign_arrivals` stamps sampled times onto
:class:`~repro.workload.generator.TaskSpec` lists following the ordering
contract of :func:`repro.workload.generator.materialize`: the result is
sorted by arrival time, so list position == task id.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..workload.generator import TaskSpec

#: Stream-derivation tag for per-burst RNG streams: keeps burst draws
#: independent of the base process's generator state.
_BURST_STREAM_TAG = 0xB0057

#: Registered pattern names for :func:`build_process`.
TRAFFIC_PATTERNS = ("poisson", "diurnal", "flash-crowd", "trace")


class ArrivalProcess(abc.ABC):
    """A deterministic source of non-decreasing arrival times."""

    name = "process"

    @abc.abstractmethod
    def sample_times(
        self, n: int, rng: np.random.Generator, seed: int = 0
    ) -> np.ndarray:
        """Draw ``n`` arrival times [s] using the caller's generator.

        ``rng`` drives the base stream (callers interleaving other draws
        on the same generator — the serve loadgen — keep their existing
        tapes); ``seed`` derives any *independent* side streams (burst
        overlays), so it must match the seed used for ``rng`` when exact
        reproducibility across entry points matters.
        """

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        """Draw ``n`` arrival times [s] as a pure function of ``seed``.

        Validates the contract every process promises: shape ``(n,)``,
        finite, non-negative, non-decreasing.
        """
        if n < 0:
            raise ValueError("cannot sample a negative number of arrivals")
        times = np.asarray(
            self.sample_times(n, np.random.default_rng(seed), seed),
            dtype=float,
        )
        if times.shape != (n,):
            raise ValueError(
                f"{self.name}: expected {n} arrivals, got shape {times.shape}"
            )
        if n and not np.all(np.isfinite(times)):
            raise ValueError(f"{self.name}: non-finite arrival time")
        if n and float(times[0]) < 0.0:
            raise ValueError(f"{self.name}: negative arrival time")
        if n > 1 and np.any(np.diff(times) < 0):
            raise ValueError(f"{self.name}: arrival times decreased")
        return times


class PoissonProcess(ArrivalProcess):
    """Homogeneous Poisson arrivals (exponential inter-arrival gaps)."""

    name = "poisson"

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        self.rate_per_s = float(rate_per_s)

    def sample_times(
        self, n: int, rng: np.random.Generator, seed: int = 0
    ) -> np.ndarray:
        # one vectorized exponential draw + cumsum: exactly the loadgen
        # tape, so the load generator stays byte-exact
        gaps = rng.exponential(1.0 / self.rate_per_s, size=n)
        return np.cumsum(gaps)


class DiurnalProcess(ArrivalProcess):
    """Sinusoidal-rate (diurnal) arrivals via Lewis-Shedler thinning.

    The instantaneous rate is::

        rate(t) = base * (1 + amplitude * sin(2 pi t / period + phase))

    bounded above by ``peak_rate_per_s = base * (1 + amplitude)``.
    Candidates arrive as a homogeneous Poisson stream at the peak rate;
    each is accepted with probability ``rate(t) / peak``.  Thinning can
    only *remove* candidates, which is what keeps the realized rate at or
    below the peak — the property the test suite checks through
    :meth:`thinning_trace`.
    """

    name = "diurnal"

    def __init__(
        self,
        base_rate_per_s: float,
        amplitude: float = 0.5,
        period_s: float = 10.0,
        phase_rad: float = 0.0,
    ) -> None:
        if base_rate_per_s <= 0:
            raise ValueError("base arrival rate must be positive")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must lie in [0, 1]")
        if period_s <= 0:
            raise ValueError("period must be positive")
        self.base_rate_per_s = float(base_rate_per_s)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase_rad = float(phase_rad)

    @property
    def peak_rate_per_s(self) -> float:
        """The thinning envelope: the largest instantaneous rate."""
        return self.base_rate_per_s * (1.0 + self.amplitude)

    def rate_at(self, t_s: float) -> float:
        """Instantaneous arrival rate [1/s] at time ``t_s``."""
        angle = 2.0 * math.pi * t_s / self.period_s + self.phase_rad
        return self.base_rate_per_s * (1.0 + self.amplitude * math.sin(angle))

    def _thin(
        self, n: int, rng: np.random.Generator
    ) -> Tuple[List[float], List[bool]]:
        """Run thinning until ``n`` acceptances; returns (candidates, mask)."""
        peak = self.peak_rate_per_s
        candidates: List[float] = []
        accepted_mask: List[bool] = []
        accepted = 0
        t = 0.0
        while accepted < n:
            t += float(rng.exponential(1.0 / peak))
            keep = float(rng.random()) * peak < self.rate_at(t)
            candidates.append(t)
            accepted_mask.append(keep)
            if keep:
                accepted += 1
        return candidates, accepted_mask

    def sample_times(
        self, n: int, rng: np.random.Generator, seed: int = 0
    ) -> np.ndarray:
        candidates, mask = self._thin(n, rng)
        return np.asarray(
            [t for t, keep in zip(candidates, mask) if keep], dtype=float
        )

    def thinning_trace(
        self, n: int, seed: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The full candidate stream and acceptance mask for ``n`` arrivals.

        ``candidates[mask]`` equals :meth:`sample` for the same seed —
        the subset property the tests assert.
        """
        if n < 0:
            raise ValueError("cannot sample a negative number of arrivals")
        candidates, mask = self._thin(n, np.random.default_rng(seed))
        return np.asarray(candidates, dtype=float), np.asarray(mask, dtype=bool)


@dataclass(frozen=True)
class Burst:
    """One flash-crowd burst: a rate surge over a finite window."""

    start_s: float
    duration_s: float
    rate_per_s: float

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError("burst start must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("burst duration must be positive")
        if self.rate_per_s < 0:
            raise ValueError("burst rate must be non-negative")


class FlashCrowd(ArrivalProcess):
    """A base process with extra burst arrivals overlaid.

    Burst arrivals are drawn from *independent* per-burst streams derived
    from ``(seed, burst index)`` — never from the base generator — so a
    zero-rate burst consumes no randomness and the overlay degenerates
    bit-for-bit to its base process (the metamorphic test anchor).  Of
    the ``n`` requested arrivals, the burst arrivals displace the tail of
    the base stream: the total count stays exactly ``n`` and the sorted
    merge is a superset of the base arrivals it kept.
    """

    name = "flash-crowd"

    def __init__(self, base: ArrivalProcess, bursts: Sequence[Burst]) -> None:
        self.base = base
        self.bursts = tuple(bursts)

    def burst_times(self, seed: int = 0) -> np.ndarray:
        """All burst arrivals [s], sorted — a pure function of ``seed``.

        Burst ``i`` contributes ``Poisson(rate * duration)`` arrivals
        placed uniformly in its window, from stream
        ``default_rng([seed, tag, i])``.
        """
        times: List[np.ndarray] = []
        for index, burst in enumerate(self.bursts):
            if burst.rate_per_s == 0.0:
                continue
            stream = np.random.default_rng([seed, _BURST_STREAM_TAG, index])
            count = int(stream.poisson(burst.rate_per_s * burst.duration_s))
            if count == 0:
                continue
            offsets = stream.uniform(0.0, burst.duration_s, size=count)
            times.append(burst.start_s + np.sort(offsets))
        if not times:
            return np.zeros(0, dtype=float)
        return np.sort(np.concatenate(times))

    def sample_times(
        self, n: int, rng: np.random.Generator, seed: int = 0
    ) -> np.ndarray:
        extra = self.burst_times(seed)
        n_extra = min(len(extra), n)
        base_times = self.base.sample_times(n - n_extra, rng, seed)
        if n_extra == 0:
            return base_times
        merged = np.concatenate([base_times, extra[:n_extra]])
        return np.sort(merged, kind="stable")


class TraceReplay(ArrivalProcess):
    """Arrivals replayed verbatim from a recorded schedule."""

    name = "trace"

    def __init__(self, times_s: Sequence[float]) -> None:
        times = np.asarray(list(times_s), dtype=float)
        if times.size and not np.all(np.isfinite(times)):
            raise ValueError("trace contains a non-finite arrival time")
        if times.size and float(times[0]) < 0.0:
            raise ValueError("trace contains a negative arrival time")
        if times.size > 1 and np.any(np.diff(times) < 0):
            raise ValueError("trace arrival times are non-monotonic")
        self.times_s = times

    @classmethod
    def from_file(cls, path) -> "TraceReplay":
        """Load the arrival times of a JSONL trace file."""
        from .trace import load_arrival_trace

        specs = load_arrival_trace(path)
        return cls([spec.arrival_time_s for spec in specs])

    def sample_times(
        self, n: int, rng: np.random.Generator, seed: int = 0
    ) -> np.ndarray:
        if n > len(self.times_s):
            raise ValueError(
                f"trace holds {len(self.times_s)} arrivals, {n} requested"
            )
        return self.times_s[:n].copy()


def build_process(
    pattern: str,
    rate_per_s: float,
    horizon_s: float = 10.0,
    amplitude: float = 0.5,
    period_s: Optional[float] = None,
    bursts: Optional[Sequence[Burst]] = None,
    trace_path=None,
) -> ArrivalProcess:
    """Construct a registered arrival process by name.

    ``horizon_s`` scales the defaults of the shaped patterns: the diurnal
    period defaults to a third of the horizon (so a sweep cell sees full
    cycles) and the default flash crowd is one 4x-rate burst over a tenth
    of the horizon, starting a quarter in.
    """
    if pattern not in TRAFFIC_PATTERNS:
        raise ValueError(
            f"unknown traffic pattern {pattern!r}; "
            f"choose from {TRAFFIC_PATTERNS}"
        )
    if pattern == "trace":
        if trace_path is None:
            raise ValueError("traffic pattern 'trace' requires a trace path")
        return TraceReplay.from_file(trace_path)
    if horizon_s <= 0:
        raise ValueError("horizon must be positive")
    if pattern == "poisson":
        return PoissonProcess(rate_per_s)
    if pattern == "diurnal":
        period = period_s if period_s is not None else horizon_s / 3.0
        return DiurnalProcess(rate_per_s, amplitude=amplitude, period_s=period)
    # flash-crowd
    if bursts is None:
        bursts = (
            Burst(
                start_s=0.25 * horizon_s,
                duration_s=0.1 * horizon_s,
                rate_per_s=4.0 * rate_per_s,
            ),
        )
    return FlashCrowd(PoissonProcess(rate_per_s), bursts)


def assign_arrivals(
    specs: Sequence[TaskSpec], process: ArrivalProcess, seed: int = 0
) -> List[TaskSpec]:
    """Stamp sampled arrival times onto a spec list, sorted by arrival.

    Spec ``i`` (input order) receives the ``i``-th arrival time; the
    result is then sorted by arrival time so that list position == the id
    :func:`repro.workload.generator.materialize` assigns.  Sampled times
    are non-decreasing, so the pairing of payloads to times survives the
    sort unchanged.
    """
    times = process.sample(len(specs), seed=seed)
    assigned = [
        replace(spec, arrival_time_s=float(at))
        for spec, at in zip(specs, times)
    ]
    return sorted(assigned, key=lambda s: s.arrival_time_s)
