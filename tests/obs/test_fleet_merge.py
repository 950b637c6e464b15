"""The fleet snapshot merge arithmetic.

The determinism contract rests on one exact property: a histogram merge
of shards equals the single-process histogram over the union of
observations, bucket count by bucket count.
"""

import json

import pytest

from repro.obs.exporters import validate_metrics_json
from repro.obs.fleet import FleetMergeError, merge_rows, merge_snapshots
from repro.obs.metrics import MetricsRegistry


def _registry_snapshot(samples) -> dict:
    registry = MetricsRegistry()
    counter = registry.counter("fleet", "events")
    gauge = registry.gauge("fleet", "depth")
    histogram = registry.histogram("fleet", "latency")
    for value in samples:
        counter.inc()
        gauge.set(value)
        histogram.observe(value)
    return registry.snapshot()


class TestMergeRows:
    def test_counters_and_gauges_sum(self):
        row = merge_rows({"type": "counter", "value": 2.0},
                         {"type": "counter", "value": 3.5})
        assert row == {"type": "counter", "value": 5.5}

    def test_type_mismatch_raises(self):
        with pytest.raises(FleetMergeError):
            merge_rows({"type": "counter", "value": 1.0},
                       {"type": "gauge", "value": 1.0}, key="fleet.x")

    def test_histogram_bucket_mismatch_raises(self):
        a = {"type": "histogram", "count": 1, "sum": 1.0,
             "buckets": [1.0, 2.0], "counts": [1, 0, 0]}
        b = {"type": "histogram", "count": 1, "sum": 1.0,
             "buckets": [1.0, 4.0], "counts": [1, 0, 0]}
        with pytest.raises(FleetMergeError, match="bucket"):
            merge_rows(a, b, key="fleet.latency")


class TestHistogramShardProperty:
    def test_merge_of_shards_equals_single_process(self):
        # the union of per-shard observations, histogrammed once,
        # must equal the exact merge of the per-shard histograms
        values = [0.5, 3.0, 12.0, 99.0, 1500.0, 1e7, 42.0, 0.5]
        shards = [values[0::3], values[1::3], values[2::3]]
        merged = merge_snapshots(
            [_registry_snapshot(shard) for shard in shards])
        single = _registry_snapshot(values)
        row_merged = merged["fleet"]["latency"]
        row_single = single["fleet"]["latency"]
        assert row_merged["counts"] == row_single["counts"]
        assert row_merged["count"] == row_single["count"]
        assert row_merged["min"] == row_single["min"]
        assert row_merged["max"] == row_single["max"]
        assert row_merged["sum"] == pytest.approx(row_single["sum"])
        # counters sum across shards; the gauge (cumulative counter
        # semantics in this repo) sums too
        assert merged["fleet"]["events"]["value"] == len(values)

    def test_merge_order_base_cases(self):
        snapshot = _registry_snapshot([1.0, 2.0])
        assert merge_snapshots([]) == {}
        assert merge_snapshots([snapshot]) == snapshot


class TestMergedOutputValidates:
    def test_validate_metrics_json_passes(self, tmp_path):
        merged = merge_snapshots([_registry_snapshot([1.0, 20.0]),
                                  _registry_snapshot([300.0])])
        path = tmp_path / "fleet_metrics.json"
        path.write_text(json.dumps(merged, indent=2, sort_keys=True))
        assert validate_metrics_json(path) == []
