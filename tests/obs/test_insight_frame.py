"""TraceFrame: loading, indexing and derived series."""

import numpy as np
import pytest

from repro.obs.exporters import write_chrome_trace, write_jsonl
from repro.obs.insight.frame import TraceFrame, resample_uniform
from repro.obs.tracer import PHASE_COUNTER, PHASE_INSTANT, PHASE_SPAN, TraceEvent

EVENTS = [
    TraceEvent("wqe", PHASE_SPAN, 100.0, "rnic.server", dur=50.0),
    TraceEvent("wqe", PHASE_SPAN, 200.0, "rnic.server", dur=150.0),
    TraceEvent("txpu", PHASE_SPAN, 250.0, "rnic.server", dur=50.0),
    TraceEvent("wqe", PHASE_SPAN, 400.0, "rnic.client", dur=30.0),
    TraceEvent("covert.bit", PHASE_INSTANT, 150.0, "covert.tx",
               args={"bit": 1}),
    TraceEvent("bw", PHASE_COUNTER, 300.0, "telemetry", args={"bps": 2.0}),
    TraceEvent("bw", PHASE_COUNTER, 600.0, "telemetry", args={"bps": 4.0}),
]


def test_jsonl_and_chrome_load_to_the_same_frame(tmp_path):
    jsonl = write_jsonl(EVENTS, tmp_path / "a.trace.jsonl")
    chrome = write_chrome_trace(EVENTS, tmp_path / "a.trace.json")
    frame_a = TraceFrame.load(jsonl)
    frame_b = TraceFrame.load(chrome)
    # the Chrome exporter round-trips through µs; both frames must
    # index the same normalized records in ns
    assert frame_a.spans == frame_b.spans
    assert frame_a.counters == frame_b.counters
    assert len(frame_a) == len(EVENTS)
    assert frame_a.components() == ["covert.tx", "rnic.client",
                                    "rnic.server", "telemetry"]
    with pytest.raises(ValueError):
        TraceFrame.load(tmp_path / "a.csv")


def test_summary_and_span_range():
    frame = TraceFrame([e.to_dict() for e in EVENTS])
    info = frame.summary()
    assert info["spans"] == 4 and info["instants"] == 1
    assert info["counter_samples"] == 2
    assert info["start_ns"] == 100.0
    assert info["end_ns"] == 600.0  # the last counter sample


def test_durations_filter_and_latency_summaries():
    frame = TraceFrame([e.to_dict() for e in EVENTS])
    assert list(frame.durations("wqe", component="rnic.server")) == [50.0,
                                                                     150.0]
    summaries = frame.latency_summaries()
    assert list(summaries) == [("rnic.client", "wqe"),
                               ("rnic.server", "txpu"),
                               ("rnic.server", "wqe")]
    assert summaries[("rnic.server", "wqe")].mean == pytest.approx(100.0)


def test_slowest_spans_deterministic_tiebreak():
    frame = TraceFrame([e.to_dict() for e in EVENTS])
    ranked = frame.slowest_spans(top=3)
    assert ranked[0] == (150.0, 200.0, "rnic.server", "wqe")
    # equal durations (50 ns) break ties by earlier timestamp
    assert ranked[1] == (50.0, 100.0, "rnic.server", "wqe")
    assert ranked[2] == (50.0, 250.0, "rnic.server", "txpu")


def test_counter_series_and_keys():
    frame = TraceFrame([e.to_dict() for e in EVENTS])
    assert frame.counter_keys() == [("telemetry", "bw", "bps")]
    times, values = frame.counter_series("bw", "bps")
    assert list(times) == [300.0, 600.0]
    assert list(values) == [2.0, 4.0]


def test_occupancy_back_to_back_spans_do_not_overlap():
    records = [
        TraceEvent("s", PHASE_SPAN, 0.0, "st", dur=10.0).to_dict(),
        TraceEvent("s", PHASE_SPAN, 10.0, "st", dur=10.0).to_dict(),
    ]
    frame = TraceFrame(records)
    _, depths = frame.occupancy("st")
    assert depths.max() == 1  # the end at t=10 sorts before the start


def test_occupancy_depth_and_utilization():
    records = [
        TraceEvent("a", PHASE_SPAN, 0.0, "st", dur=100.0).to_dict(),
        TraceEvent("b", PHASE_SPAN, 50.0, "st", dur=100.0).to_dict(),
        TraceEvent("idle-marker", PHASE_INSTANT, 200.0, "st").to_dict(),
    ]
    frame = TraceFrame(records)
    _, depths = frame.occupancy("st")
    assert depths.max() == 2
    # busy 0..150 of the 0..200 window
    assert frame.utilization("st") == pytest.approx(0.75)
    assert frame.utilization("missing") == 0.0


def test_uli_series_midpoints_and_periods():
    # 64 wqe spans whose duration toggles every 4 spans: period = 8
    # spans = 8 * 1000 ns on the uniform midpoint grid
    records = []
    for i in range(64):
        dur = 200.0 if (i // 4) % 2 else 100.0
        records.append(TraceEvent("wqe", PHASE_SPAN, 1000.0 * i, "rnic",
                                  dur=dur).to_dict())
    frame = TraceFrame(records)
    times, values = frame.uli_series()
    assert times.size == 64
    assert times[0] == pytest.approx(50.0)  # midpoint of the first span
    periods = frame.uli_periods(buckets=64)
    assert periods, "periodic ULI modulation must be discovered"
    assert min(periods, key=lambda p: abs(p - 8000.0)) == pytest.approx(
        8000.0, rel=0.3)


def test_resample_uniform_zero_order_hold():
    times = np.asarray([0.0, 1.0, 9.0])
    values = np.asarray([2.0, 4.0, 8.0])
    grid, means = resample_uniform(times, values, 4)
    assert means.size == 4
    assert means[0] == pytest.approx(3.0)   # bucket mean of 2, 4
    assert means[1] == pytest.approx(3.0)   # empty bucket holds
    assert means[3] == pytest.approx(8.0)
    with pytest.raises(ValueError):
        resample_uniform(times, values, 1)
