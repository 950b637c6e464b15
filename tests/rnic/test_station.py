"""Unit tests for FIFO service stations."""

import pytest

from repro.rnic import ServiceStation


def test_idle_station_serves_immediately():
    st = ServiceStation("pcie")
    assert st.admit(100.0, 50.0) == 150.0


def test_busy_station_queues():
    st = ServiceStation("pcie")
    st.admit(0.0, 100.0)
    finish = st.admit(10.0, 100.0)   # arrives mid-service
    assert finish == 200.0
    assert st.wait_ns == pytest.approx(90.0)


def test_gap_resets_queue():
    st = ServiceStation("pcie")
    st.admit(0.0, 100.0)
    assert st.admit(500.0, 100.0) == 600.0


def test_background_inflation():
    st = ServiceStation("pcie")
    st.set_background_utilization(0.5)
    assert st.inflation == pytest.approx(2.0)
    assert st.admit(0.0, 100.0) == pytest.approx(200.0)


def test_background_clamped_below_one():
    st = ServiceStation("pcie")
    st.set_background_utilization(1.0)
    assert st.inflation < 100.0  # finite


def test_negative_background_rejected():
    st = ServiceStation("pcie")
    with pytest.raises(ValueError):
        st.set_background_utilization(-0.1)


def test_negative_service_rejected():
    st = ServiceStation("pcie")
    with pytest.raises(ValueError):
        st.admit(0.0, -1.0)


def test_stats_accumulate():
    st = ServiceStation("pcie")
    st.admit(0.0, 10.0)
    st.admit(0.0, 10.0)
    assert st.served == 2
    assert st.busy_ns == pytest.approx(20.0)


def test_reset():
    st = ServiceStation("pcie")
    st.admit(0.0, 10.0)
    st.reset()
    assert st.busy_until == 0.0
    assert st.served == 0

