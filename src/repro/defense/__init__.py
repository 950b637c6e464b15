"""Defenses and mitigations (Table I's "Defended" column, Section VII).

Detection side:

* :class:`Grain1Detector` — the RNIC's native per-traffic-class
  counters and flow control (catches Grain-I pressure attacks);
* :class:`HarmonicDetector` — HARMONIC-style Grain-II/III telemetry:
  per-opcode/message-size profiles and RDMA resource counts (catches
  the Collie/Husky performance attacks);
* :class:`CacheGuard` — cache-attack detection on MPT/MTT miss and
  eviction rates (catches Pythia);
* :class:`OnlineCounterDefense` — streaming change-point/periodicity
  detectors (:mod:`repro.defense.detectors`) watching per-tenant
  counter *time series* rather than whole-run aggregates; reports
  detection latency, feeding Table I's online columns.  Each series
  is fed through :class:`DetectorBankService`
  (:mod:`repro.defense.service`), the per-stream registry that
  combines the detectors' alarms into one :class:`OnlineVerdict`.

Mitigation side (Section VII):

* :func:`with_noise_mitigation` — inject sub-microsecond latency noise
  into the translation unit;
* :func:`with_partitioning` — hard-partition translation-unit banks
  and pipelines per tenant.

Ragnar's Grain-III/IV channels present benign Grain-I..III profiles,
which is exactly why every detector above misses them.
"""

from repro.defense.profile import TenantProfile, Verdict
from repro.defense.pfc import Grain1Detector
from repro.defense.harmonic import HarmonicDetector, HarmonicIsolation
from repro.defense.cache_guard import CacheGuard
from repro.defense.noise import with_noise_mitigation
from repro.defense.detectors import (
    CusumDetector,
    Detection,
    DetectorBank,
    EwmaDetector,
    PeriodicityDetector,
)
from repro.defense.online import CounterTrace, OnlineCounterDefense, sample_counts
from repro.defense.partition import PartitionedTranslationUnit, with_partitioning
from repro.defense.service import DetectorBankService, OnlineVerdict

__all__ = [
    "TenantProfile",
    "Verdict",
    "Grain1Detector",
    "HarmonicDetector",
    "HarmonicIsolation",
    "CacheGuard",
    "Detection",
    "DetectorBank",
    "EwmaDetector",
    "CusumDetector",
    "PeriodicityDetector",
    "CounterTrace",
    "OnlineCounterDefense",
    "OnlineVerdict",
    "DetectorBankService",
    "sample_counts",
    "with_noise_mitigation",
    "PartitionedTranslationUnit",
    "with_partitioning",
]
