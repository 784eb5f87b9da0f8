"""Run exporter: metrics snapshots as OpenMetrics text.

- :func:`to_openmetrics` — any flat metrics snapshot (a
  ``name -> float`` dict, e.g. ``MetricsRegistry.snapshot()`` or
  ``SimulationResult.metrics_snapshot``) as a Prometheus/OpenMetrics
  textfile, suitable for the node-exporter textfile collector or a
  ``promtool``-style scrape.  :func:`parse_openmetrics` is the matching
  strict line-format parser (used by the test suite to validate output);
- :func:`histogram_exposition` — flattens a
  :class:`~repro.obs.metrics.Histogram` into label-free quantile
  (``name.p50``) and cumulative bucket (``name.bucket.le_2em03``)
  samples that ride the same :func:`to_openmetrics` path — the strict
  ``name value`` line format stays label-free by design, so quantiles
  and buckets are encoded in the metric name.
"""

from __future__ import annotations

import math
import re
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

from .metrics import Histogram

PathLike = Union[str, Path]

#: Characters legal in an OpenMetrics metric name (after the first char).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
#: One sample line: ``name value`` (we emit no labels or timestamps).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) (?P<value>\S+)$"
)


def openmetrics_name(metric: str, prefix: str = "repro") -> str:
    """Sanitize a dotted metric name into an OpenMetrics-legal one.

    ``engine.migrations.to_ring.2`` becomes
    ``repro_engine_migrations_to_ring_2``: dots and any other illegal
    characters map to underscores, and a digit after the prefix is fine
    because the prefix guarantees a legal first character.
    """
    sanitized = re.sub(r"[^a-zA-Z0-9_:]", "_", metric)
    name = f"{prefix}_{sanitized}" if prefix else sanitized
    if not _NAME_RE.match(name):
        raise ValueError(f"cannot sanitize metric name {metric!r}")
    return name


def _format_value(value: float) -> str:
    """A float in OpenMetrics sample syntax (inf/nan spelled out)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def to_openmetrics(
    snapshot: Mapping[str, float], prefix: str = "repro"
) -> str:
    """Render a flat metrics snapshot as an OpenMetrics text exposition.

    Every metric is exposed as an untyped gauge with a ``# HELP`` line
    naming its original dotted form; the exposition ends with the
    mandatory ``# EOF`` terminator.  Two distinct metric names that
    sanitize to the same OpenMetrics name raise :class:`ValueError`
    instead of silently clobbering each other.
    """
    lines: List[str] = []
    seen: Dict[str, str] = {}
    for metric in sorted(snapshot):
        name = openmetrics_name(metric, prefix)
        if name in seen:
            raise ValueError(
                f"metric name collision: {metric!r} and {seen[name]!r} "
                f"both sanitize to {name!r}"
            )
        seen[name] = metric
        lines.append(f"# HELP {name} {metric}")
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(float(snapshot[metric]))}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, float]:
    """Strictly parse a :func:`to_openmetrics` exposition back to a dict.

    Validates the line format: every non-comment line must be
    ``name value`` with a legal metric name and a parseable float, and the
    exposition must end with ``# EOF``.  Raises :class:`ValueError` on any
    deviation — this is the validator the tests drive.
    """
    values: Dict[str, float] = {}
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition does not end with '# EOF'")
    for line_no, line in enumerate(lines[:-1], start=1):
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {line_no}: unexpected comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: malformed sample {line!r}")
        name = match.group("name")
        if name in values:
            raise ValueError(f"line {line_no}: duplicate metric {name!r}")
        try:
            values[name] = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: bad value in {line!r}") from exc
    return values


def write_openmetrics(
    snapshot: Mapping[str, float], path: PathLike, prefix: str = "repro"
) -> None:
    """Write an OpenMetrics textfile for ``snapshot`` to ``path``."""
    Path(path).write_text(to_openmetrics(snapshot, prefix))


# -- histogram quantile/bucket exposition --------------------------------------

#: Default quantiles exposed for every histogram.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


def quantile_label(q: float) -> str:
    """The flat-name label of one quantile: ``0.99`` -> ``p99``."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return ("p%g" % (q * 100.0)).replace(".", "_")


def bucket_label(bound: float) -> str:
    """A short, unique, name-legal label for one bucket bound.

    ``0.002`` -> ``2em03``, ``10.0`` -> ``1ep01`` (``m``/``p`` spell the
    exponent sign, since ``-``/``+`` would sanitize ambiguously to ``_``).
    """
    if math.isinf(bound):
        return "inf"
    return f"{bound:.0e}".replace("-", "m").replace("+", "p")


def histogram_exposition(
    name: str,
    histogram: Histogram,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> Dict[str, float]:
    """Flatten one histogram into quantile and cumulative-bucket samples.

    The output merges into any snapshot headed for :func:`to_openmetrics`:
    ``<name>.p50``/``.p95``/``.p99`` (via
    :meth:`~repro.obs.metrics.Histogram.quantile`) plus the cumulative
    log-bucket counts ``<name>.bucket.le_<label>`` (``le_2em03`` is
    "<= 2 ms") and the terminal
    ``<name>.bucket.le_inf`` (== count).  Everything is encoded in the
    metric *name* — the exposition (and its strict parser,
    :func:`parse_openmetrics`) is label-free, which is what lets a
    client round-trip ``/metrics`` without an OpenMetrics label
    grammar.
    """
    flat: Dict[str, float] = {}
    for q in quantiles:
        flat[f"{name}.{quantile_label(q)}"] = histogram.quantile(q)
    cumulative = 0
    for bound, bucket_count in zip(
        tuple(histogram.bounds) + (float("inf"),), histogram.bucket_counts
    ):
        cumulative += bucket_count
        flat[f"{name}.bucket.le_{bucket_label(bound)}"] = float(cumulative)
    return flat
