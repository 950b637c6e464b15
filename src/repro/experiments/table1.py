"""Table I: which defenses catch which RDMA-targeted HW attacks.

Five attacks are run (or profiled) and shown to three detectors:

====================  =======  ========  ===========
attack                grain-1  harmonic  cache-guard
====================  =======  ========  ===========
perf (Zhang/Kong)     partly   YES       no
Pythia covert         no       no        YES
Ragnar priority       partly   no        no
Ragnar inter-MR       no       no        no
Ragnar intra-MR       no       no        no
====================  =======  ========  ===========

matching the paper's claim that Ragnar's Grain-III/IV channels bypass
every deployed defense.  The ``undetected`` column keeps exactly those
three deployed defenses as its universe.

Two extra columns model a *stronger* defender — an online
change-point/periodicity suite
(:class:`repro.defense.OnlineCounterDefense`, whose series run through
the :class:`repro.defense.DetectorBankService` stream registry)
watching each attack's counter **time series** instead of its
whole-run aggregate:

* Pythia is persistent: every 1-symbol must kick durable entries out
  of the MPT cache, so its per-symbol eviction series toggles with the
  payload and the online suite flags it (``detect_ms`` reports how
  fast).
* The priority channel modulates Grain-I byte rates per bit — online
  counters see the toggling too (the paper's "partly detectable").
* Ragnar's volatile ULI channels modulate *which* address the sender
  reads, never *how much*; the sender's measured completion-rate
  series stays stationary and the online suite stays silent — the
  volatile-channel stealth claim as a measured artifact.

That is the intended reading, and ``notes`` states it, but the
measured online column does not hold it on most seeds.  Over seeds
0-15 (the perfbench corpus) Pythia is flagged only on seeds 0, 2, 4,
7 and 12 (5 of 16), and a Ragnar inter-MR or intra-MR row is flagged
on 12 seeds (2-4 and 6-14); only seed 0 matches the claim.  The
priority channel is flagged on every seed.  This is a recorded
finding, not a bound to tune: the detector thresholds and ``notes``
are unchanged (ROADMAP item 5).
"""

from __future__ import annotations

from repro.baselines.pythia import PythiaChannel
from repro.covert import PAPER_BITSTREAM, random_bits
from repro.covert.inter_mr import InterMRChannel, InterMRConfig
from repro.covert.intra_mr import IntraMRChannel, IntraMRConfig
from repro.defense import (
    CacheGuard,
    CounterTrace,
    Grain1Detector,
    HarmonicDetector,
    OnlineCounterDefense,
    TenantProfile,
    sample_counts,
)
from repro.experiments.result import ExperimentResult
from repro.rnic.spec import cx5
from repro.sim.units import MILLISECONDS, SECONDS
from repro.verbs.enums import Opcode

#: Intervals per defender-sampled counter window (the polling grid a
#: telemetry loop would use over one observation window).
SAMPLE_INTERVALS = 64


def _flat_trace(tenant: str, key: str, duration_ns: float,
                level: float) -> CounterTrace:
    """A constant-rate counter series: what the defender's polling
    loop sees from an attack that never modulates its counters."""
    width = duration_ns / SAMPLE_INTERVALS
    return CounterTrace(
        tenant=tenant, key=key,
        times_ns=tuple(width * (i + 1) for i in range(SAMPLE_INTERVALS)),
        values=tuple(level for _ in range(SAMPLE_INTERVALS)),
    )


def _perf_attack_profile() -> tuple[TenantProfile, CounterTrace]:
    """A Collie/Husky-style Grain-II availability attack: a tiny-write
    flood at the PU's message-rate ceiling."""
    spec = cx5()
    duration = 1 * SECONDS
    pps = spec.max_pps_rx * 0.8
    count = int(pps * duration / SECONDS)
    # flat-out flooding: the per-poll message count never changes, so
    # the online suite has nothing to flag (the HARMONIC aggregate
    # profile is what catches this attack)
    trace = _flat_trace("perf-attacker", "rx_pps", duration,
                        count / SAMPLE_INTERVALS)
    profile = TenantProfile(
        tenant="perf-attacker",
        duration_ns=duration,
        bytes_per_tc={0: count * 64},
        opcode_counts={Opcode.RDMA_WRITE: count},
        msg_size_counts={64: count},
        qp_count=16,
        mr_count=1,
        cache_accesses=count,
        cache_misses=2,
        cache_evictions=0,
    )
    return profile, trace


def _pythia_profile(seed: int) -> tuple[TenantProfile, CounterTrace]:
    """Measured from an actual Pythia transmission."""
    channel = PythiaChannel(cx5())
    bits = random_bits(48, seed=seed)
    telemetry = channel.cache_telemetry(bits, seed=seed)
    messages = telemetry["accesses"]
    times, deltas = telemetry["eviction_series"]
    trace = CounterTrace(tenant="pythia-tx", key="mpt_evictions",
                         times_ns=times, values=deltas)
    profile = TenantProfile(
        tenant="pythia-tx",
        duration_ns=telemetry["duration_ns"],
        bytes_per_tc={0: messages * 64},
        opcode_counts={Opcode.RDMA_READ: messages},
        msg_size_counts={64: messages},
        qp_count=1,
        # steady state touches only the eviction set + probe; the big
        # registration pool is one-time setup churn spread over time
        # (and Pythia's PTE variant needs a single MR), so Grain-III
        # utilization counters see a small working set — the paper's
        # "bypasses Grain-I-to-III counters"
        mr_count=5,
        cache_accesses=telemetry["accesses"],
        cache_misses=telemetry["misses"],
        cache_evictions=telemetry["evictions"],
    )
    return profile, trace


def _priority_tx_profile() -> tuple[TenantProfile, CounterTrace]:
    """The Figure 9 sender: saturating writes toggling 128/2048 B."""
    spec = cx5()
    duration = 16 * SECONDS  # the 16-bit Figure 9 stream
    # roughly half the time at each size, at the achievable rates
    big_bytes = int(0.5 * duration / SECONDS * 40e9 / 8)
    small_count = int(0.5 * duration / SECONDS * 20e6)
    big_count = big_bytes // 2048
    # per-TC byte rate sampled 4x per symbol: 2048 B writes saturate
    # the 40 Gb/s line, 128 B writes cap out at the message rate —
    # Grain-I counters visibly toggle with the payload
    bit_ns = duration / len(PAPER_BITSTREAM)
    polls_per_bit = 4
    times = []
    values = []
    for index, bit in enumerate(PAPER_BITSTREAM):
        rate = 40e9 / 8 if bit else 20e6 * 128
        for poll in range(polls_per_bit):
            times.append(bit_ns * index + bit_ns * (poll + 1) / polls_per_bit)
            values.append(rate)
    trace = CounterTrace(tenant="ragnar-priority-tx", key="tc0_bytes_per_s",
                         times_ns=tuple(times), values=tuple(values))
    profile = TenantProfile(
        tenant="ragnar-priority-tx",
        duration_ns=duration,
        bytes_per_tc={0: big_bytes + small_count * 128},
        opcode_counts={Opcode.RDMA_WRITE: big_count + small_count},
        msg_size_counts={128: small_count, 2048: big_count},
        qp_count=16,
        mr_count=1,
        cache_accesses=big_count + small_count,
        cache_misses=2,
        cache_evictions=0,
    )
    return profile, trace


def _uli_sender_profile(channel_name: str, seed: int
                        ) -> tuple[TenantProfile, CounterTrace]:
    """Measured from a live inter-/intra-MR transmission: the sender
    QP's exact per-QP telemetry plus the server's cache counters."""
    from repro.covert.uli_channel import _Session

    bits = random_bits(96, seed=seed)
    if channel_name == "inter-mr":
        channel = InterMRChannel(cx5(), InterMRConfig.best_for("CX-5"))
        mr_count = 2
    else:
        channel = IntraMRChannel(cx5(), IntraMRConfig.best_for("CX-5"))
        mr_count = 1
    session = _Session(channel, seed)
    inter_completion = session.warm_up(channel.config.warmup_completions)
    period = channel.config.samples_per_bit * inter_completion
    start = session.now
    start_completed = session.sender.completed
    frame_start = session.run_frame(list(bits), period, tail_ns=period)
    duration = session.cluster.sim.now - start
    sender_qp = session.sender.conn.qp
    server = session.cluster.hosts["server"]
    mpt = server.rnic.translation.mpt_cache
    profile = TenantProfile.from_qps(
        f"ragnar-{channel_name}-tx", [sender_qp], duration_ns=duration,
        mr_count=mr_count,
    )
    # the defender's polling-loop view: sender completions per poll
    # interval over the frame.  The channel modulates only *which*
    # address each read touches — the rate stays flat, so this series
    # is stationary (see the online columns in the matrix)
    frame_end = frame_start + len(bits) * period
    completion_times = [ts for ts, _ in session.sender.samples
                        if frame_start <= ts < frame_end]
    times, counts = sample_counts(completion_times, frame_start,
                                  frame_end, SAMPLE_INTERVALS)
    trace = CounterTrace(tenant=f"ragnar-{channel_name}-tx",
                         key="tx_completions", times_ns=times,
                         values=counts)
    # attach the (steady-state, warm) cache telemetry the server sees
    profile = dataclasses_replace_cache(
        profile,
        # every completion in the frame re-posts: its posts are its
        # completions
        cache_accesses=max(session.sender.completed - start_completed, 1),
        cache_misses=mpt.misses,
        cache_evictions=mpt.evictions,
    )
    return profile, trace


def dataclasses_replace_cache(profile: TenantProfile, **cache_fields
                              ) -> TenantProfile:
    """Rebuild a frozen profile with cache telemetry filled in."""
    import dataclasses

    return dataclasses.replace(profile, **cache_fields)


def run(seed: int = 0) -> ExperimentResult:
    """Regenerate the Table I attack-vs-defense matrix.

    The three deployed-defense columns (and the ``undetected`` roll-up
    over exactly those three) reproduce the paper's matrix; ``online``
    / ``detect_ms`` report the stronger streaming-counter defender
    (:class:`repro.defense.OnlineCounterDefense`, fed through the
    :class:`repro.defense.DetectorBankService` stream registry), meant
    to catch the *persistent* channels by their counter modulation and
    miss the volatile ULI channels (see the module docstring for how
    far the measured column bears that out).
    """
    spec = cx5()
    detectors = [
        Grain1Detector(spec),
        HarmonicDetector(spec),
        CacheGuard(),
    ]
    online = OnlineCounterDefense()
    attacks = [
        ("perf-grain2", "P", "II", *_perf_attack_profile()),
        ("pythia", "C+S", "IV", *_pythia_profile(seed)),
        ("ragnar-priority", "C", "I+II", *_priority_tx_profile()),
        ("ragnar-inter-mr", "C", "III",
         *_uli_sender_profile("inter-mr", seed)),
        ("ragnar-intra-mr", "C+S", "IV",
         *_uli_sender_profile("intra-mr", seed)),
    ]
    rows = []
    for name, attack_type, grain, profile, trace in attacks:
        verdicts = {d.name: d.inspect(profile) for d in detectors}
        watch = online.watch(trace)
        rows.append({
            "attack": name,
            "type": attack_type,
            "grain": grain,
            "grain1-pfc": verdicts["grain1-pfc"].flagged,
            "harmonic": verdicts["harmonic"].flagged,
            "cache-guard": verdicts["cache-guard"].flagged,
            "undetected": not any(v.flagged for v in verdicts.values()),
            "online": watch.flagged,
            "detect_ms": (watch.detection_latency_ns / MILLISECONDS
                          if watch.detection_latency_ns is not None
                          else float("nan")),
        })
    return ExperimentResult(
        experiment="table1",
        title="Attack-vs-defense matrix (paper Table I)",
        rows=rows,
        notes="Ragnar Grain-III/IV rows must be undetected by all three "
              "deployed defenses; the online counter suite flags only "
              "the counter-modulating channels (pythia, priority)",
    )
