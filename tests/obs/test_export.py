"""OpenMetrics exporter: name sanitization, line-format validation, histograms."""

import math
import re

import pytest

from repro.obs import (
    openmetrics_name,
    parse_openmetrics,
    to_openmetrics,
    write_openmetrics,
)


class TestOpenMetricsNames:
    def test_dotted_names_sanitize(self):
        assert (
            openmetrics_name("engine.migrations.to_ring.2")
            == "repro_engine_migrations_to_ring_2"
        )

    def test_prefix_optional(self):
        assert openmetrics_name("dtm.triggers", prefix="") == "dtm_triggers"

    def test_leading_digit_without_prefix_rejected(self):
        with pytest.raises(ValueError, match="sanitize"):
            openmetrics_name("0bad", prefix="")


class TestOpenMetricsRendering:
    SNAPSHOT = {
        "engine.intervals": 100.0,
        "dtm.duty_cycle": 0.125,
        "thermal.peak_c": 72.0,
    }

    def test_line_format(self):
        text = to_openmetrics(self.SNAPSHOT)
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        assert text.endswith("# EOF\n")
        # every metric contributes exactly HELP, TYPE, sample — in order
        assert len(lines) == 3 * len(self.SNAPSHOT) + 1
        for i in range(0, len(lines) - 1, 3):
            name = lines[i].split()[2]
            assert lines[i].startswith(f"# HELP {name} ")
            assert lines[i + 1] == f"# TYPE {name} gauge"
            assert re.match(
                rf"^{re.escape(name)} \S+$", lines[i + 2]
            ), lines[i + 2]

    def test_round_trip_through_parser(self):
        parsed = parse_openmetrics(to_openmetrics(self.SNAPSHOT))
        assert parsed == {
            "repro_engine_intervals": 100.0,
            "repro_dtm_duty_cycle": 0.125,
            "repro_thermal_peak_c": 72.0,
        }

    def test_special_values_round_trip(self):
        text = to_openmetrics({"a": math.inf, "b": -math.inf, "c": math.nan})
        parsed = parse_openmetrics(text)
        assert parsed["repro_a"] == math.inf
        assert parsed["repro_b"] == -math.inf
        assert math.isnan(parsed["repro_c"])

    def test_collision_rejected(self):
        with pytest.raises(ValueError, match="collision"):
            to_openmetrics({"a.b": 1.0, "a_b": 2.0})

    def test_file_write(self, tmp_path):
        path = tmp_path / "metrics.prom"
        write_openmetrics(self.SNAPSHOT, path)
        assert parse_openmetrics(path.read_text())


class TestOpenMetricsParserStrictness:
    def test_missing_eof_rejected(self):
        with pytest.raises(ValueError, match="EOF"):
            parse_openmetrics("repro_a 1.0\n")

    def test_malformed_sample_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_openmetrics("repro_a 1.0 extra\n# EOF")

    def test_duplicate_metric_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_openmetrics("repro_a 1.0\nrepro_a 2.0\n# EOF")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_openmetrics("repro_a one\n# EOF")


class TestHistogramExposition:
    def _histogram(self):
        from repro.obs import Histogram

        histogram = Histogram("serve.latency_s")
        for _ in range(99):
            histogram.observe(0.003)
        histogram.observe(0.030)
        return histogram

    def test_quantile_and_bucket_keys(self):
        from repro.obs import histogram_exposition

        flat = histogram_exposition("serve.latency_s", self._histogram())
        # 99x 3ms lands in the (2ms, 5ms] bucket: the p50 estimate stays
        # inside that bucket, and p99 never exceeds the streaming max.
        assert 0.002 <= flat["serve.latency_s.p50"] <= 0.005
        assert flat["serve.latency_s.p99"] <= 0.030
        assert flat["serve.latency_s.bucket.le_inf"] == 100.0
        # cumulative: each bucket >= the previous one
        buckets = [
            value for key, value in flat.items() if ".bucket." in key
        ]
        assert buckets == sorted(buckets)

    def test_exposition_renders_as_valid_openmetrics(self):
        from repro.obs import histogram_exposition

        flat = histogram_exposition("serve.latency_s", self._histogram())
        text = to_openmetrics(flat)
        parsed = parse_openmetrics(text)
        assert parsed == pytest.approx(
            {openmetrics_name(name): value for name, value in flat.items()}
        )

    def test_bucket_labels_distinguish_exponent_signs(self):
        from repro.obs.export import bucket_label

        # 0.1 and 10.0 must not collide after name sanitization
        assert bucket_label(0.1) != bucket_label(10.0)
        assert openmetrics_name(
            f"h.bucket.le_{bucket_label(0.1)}"
        ) != openmetrics_name(f"h.bucket.le_{bucket_label(10.0)}")

