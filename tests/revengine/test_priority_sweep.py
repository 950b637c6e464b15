"""Tests for the Grain-I/II priority study (Figure 4)."""

import collections

import pytest

from repro.revengine import PrioritySweep, classify_outcome
from repro.revengine.priority_sweep import (
    HALF_DROP,
    INCREASE,
    NO_DROP,
    SLIGHT_DROP,
)
from repro.rnic import cx5
from repro.verbs.enums import Opcode


@pytest.fixture(scope="module")
def sweep():
    return PrioritySweep(cx5())


def test_classify_outcome_boundaries():
    assert classify_outcome(1.2) == INCREASE
    assert classify_outcome(1.0) == NO_DROP
    assert classify_outcome(0.7) == SLIGHT_DROP
    assert classify_outcome(0.4) == HALF_DROP


def test_blue_box_write_vs_read_flip(sweep):
    """Figure 4's blue-outlined observation: the Read indicator is fine
    against small Writes but collapses against >=512 B Writes."""
    small = sweep.compete(Opcode.RDMA_WRITE, 128, Opcode.RDMA_READ, 65536)
    big = sweep.compete(Opcode.RDMA_WRITE, 2048, Opcode.RDMA_READ, 65536)
    assert small.outcome == NO_DROP
    assert big.outcome in (HALF_DROP, SLIGHT_DROP)
    assert big.ratio < small.ratio


def test_orange_box_atomic_behaviour(sweep):
    """Figure 4's orange-outlined observation: atomics mirror the
    small-write trend against reads."""
    atomic = sweep.compete(Opcode.ATOMIC_FETCH_ADD, 8, Opcode.RDMA_READ, 2048)
    write = sweep.compete(Opcode.RDMA_WRITE, 128, Opcode.RDMA_READ, 2048)
    assert atomic.outcome in (SLIGHT_DROP, HALF_DROP)
    assert write.outcome in (SLIGHT_DROP, HALF_DROP)


def test_green_box_mutual_increase(sweep):
    """Figure 4's green-outlined observation: small-write pairs boost."""
    result = sweep.compete(
        Opcode.RDMA_WRITE, 128, Opcode.RDMA_WRITE, 128,
        inducer_qps=2, indicator_qps=2,
    )
    assert result.outcome == INCREASE


def test_yellow_box_write_vs_reverse_read(sweep):
    """Figure 4's yellow-outlined observation: a Write indicator and a
    (reverse-path) Read indicator with identical parameters fare
    differently against the same Write inducer."""
    as_write = sweep.compete(Opcode.RDMA_WRITE, 4096, Opcode.RDMA_WRITE, 256)
    as_read = sweep.compete(Opcode.RDMA_WRITE, 4096, Opcode.RDMA_READ, 256)
    assert as_write.ratio != pytest.approx(as_read.ratio, rel=0.05)


def test_sweep_covers_over_6000_combinations(sweep):
    results = sweep.sweep()
    assert len(results) > 6000


def test_sweep_histogram_contains_all_classes(sweep):
    results = sweep.sweep(
        sizes=(64, 128, 2048, 65536), qp_nums=(2, 8)
    )
    hist = collections.Counter(result.outcome for result in results)
    assert hist[NO_DROP] > 0
    assert hist[HALF_DROP] > 0
    assert hist[INCREASE] > 0


def test_result_ratio_and_solo_positive(sweep):
    result = sweep.compete(Opcode.RDMA_WRITE, 1024, Opcode.RDMA_READ, 1024)
    assert result.indicator_solo_bps > 0
    assert 0 < result.ratio <= 1.5
