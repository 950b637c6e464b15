"""Shared machinery of the ULI-based covert channels (Sections V-C/V-D).

Both channels follow the same lockstep protocol:

1. sender and receiver each keep a pipelined stream of RDMA Reads to
   the same server (they never communicate directly);
2. a warm-up phase measures the receiver's completion rate, fixing the
   symbol period at ``samples_per_bit`` receiver completions;
3. the sender switches its *target set* at every symbol boundary —
   which MR it reads (inter-MR) or which address offset (intra-MR);
4. the sender prepends a known alternating preamble; the receiver
   scans demodulation phase offsets for the one that best separates the
   preamble (the end-to-end lag is roughly the sender's queue drain
   plus half the receiver's queue residency);
5. the receiver buckets its ULI samples into symbol windows at the
   recovered phase and thresholds with 2-means.

An optional *ambient* client emulates unrelated tenants with bursty
on/off read traffic — the realistic noise floor that produces the
paper's few-percent error rates.

Subclasses only define the two target sets and the receiver's
background targets.

A clean session — no ambient client, no fault process or injector, no
observer — is planned whole by :class:`repro.rnic.closed_loop.Plan`:
both readers' reads as one merged closed-loop recurrence from the
session's quiescent start, the sender's target set switching at the
frame's scheduled bit flips, committed at the end of the frame with
the reads still in flight handed to the scalar pipeline.  Samples,
counters and simulator state are the scalar session's bit for bit; any
session the plan cannot prove exact runs on the scalar pipeline.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.covert.lockstep import (
    PipelinedReader,
    RelockConfig,
    decode_windows,
    detrend,
    estimate_drift,
    relock_decode,
    window_means,
    winsorize,
)
from repro.covert.result import ChannelResult
from repro.fabric.network import Link
from repro.host.cluster import Cluster
from repro.obs import runtime as _obs
from repro.host.node import Host
from repro.rnic.batch import Declined, count_fallback
from repro.rnic.closed_loop import Plan
from repro.rnic.spec import RNICSpec, cx5
from repro.sim.units import MEBIBYTE, MICROSECONDS
from repro.telemetry.uli import ProbeTarget

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.faults.plan import FaultPlan


@dataclasses.dataclass(frozen=True)
class ULIChannelConfig:
    """Lockstep parameters shared by the inter-/intra-MR channels."""

    msg_size: int = 512
    max_send_queue: int = 6      # the paper's "max send queue size"
    samples_per_bit: int = 10
    warmup_completions: int = 200
    guard_ns: float = 2 * MICROSECONDS
    preamble_bits: int = 10      # alternating 1010... sync header
    max_shift_symbols: float = 1.5
    #: Sender queue depth.  Deeper = stronger coupling (more of the
    #: shared pipeline's slots carry the sender's encoding) but more
    #: inter-symbol interference, since already-posted WQEs cannot be
    #: retargeted when the bit flips; ``samples_per_bit`` must grow
    #: accordingly.  The per-device tuned configs balance the two.
    sender_depth: int = 8
    #: Depth of the optional background (ambient) client that emulates
    #: unrelated tenants sharing the server; 0 disables it.  Ambient
    #: traffic is the main source of decoding errors, as on real
    #: hardware.
    ambient_depth: int = 0
    ambient_on_ns: float = 10 * MICROSECONDS    # mean burst duration
    ambient_off_ns: float = 40 * MICROSECONDS   # mean idle gap
    #: Receiver baseline tracking: half-width (in symbols) of the
    #: rolling mean subtracted before demodulation.
    detrend_symbols: float = 6.0
    #: Access link used by the covert endpoints (None = lossless
    #: default).  Lossy links exercise the channels under RC
    #: retransmission spikes (``bench_ablation_lossy_fabric``).
    endpoint_link: Optional["Link"] = None
    #: Fault scenario armed on the session's cluster before traffic
    #: starts (see :mod:`repro.faults`); None runs clean.  With a plan
    #: installed the endpoint readers absorb failed completions instead
    #: of raising, so the channel degrades rather than crashing.
    fault_plan: Optional["FaultPlan"] = None
    #: Re-estimate the symbol phase every this many decoded bits (0 =
    #: lock once on the preamble).  Fault scenarios perturb the
    #: receiver's completion rate mid-frame; re-locking tracks the
    #: resulting symbol-clock drift.
    relock_interval_bits: int = 0

    def __post_init__(self) -> None:
        if self.samples_per_bit < 2:
            raise ValueError("need at least two samples per bit")
        if self.warmup_completions < 4:
            # warm_up estimates the period from the last half of the
            # samples and needs two of them
            raise ValueError("warm-up needs at least 4 completions")
        if self.max_send_queue < 1:
            raise ValueError("send queue must hold at least one WQE")
        if self.preamble_bits < 4:
            raise ValueError("preamble too short to recover symbol phase")
        if self.ambient_depth < 0:
            raise ValueError("ambient depth must be non-negative")
        if self.relock_interval_bits < 0:
            raise ValueError("relock interval must be non-negative")
        if 0 < self.relock_interval_bits < 4:
            raise ValueError("relock segments must cover at least 4 bits")

    @property
    def preamble(self) -> list[int]:
        return [(i + 1) % 2 for i in range(self.preamble_bits)]  # 1010...


class AmbientClient:
    """Bursty on/off background reader (an unrelated tenant)."""

    def __init__(self, cluster: Cluster, server: Host, config: ULIChannelConfig) -> None:
        host = cluster.add_host("ambient", spec=server.rnic.spec)
        self.conn = cluster.connect(host, server, max_send_wr=config.ambient_depth)
        self.mr = server.reg_mr(2 * MEBIBYTE)
        self.cluster = cluster
        self.config = config
        self.rng = cluster.sim.random.stream("ambient")
        self.active = False
        self._reader = PipelinedReader(self.conn, self._next_target,
                                       depth=config.ambient_depth)
        self._obs = _obs.tracer_for(cluster.sim)
        # handle of the pending toggle, kept so stop() can cancel it —
        # dropping it would leave a zombie on/off chain after restart
        self._handle = None

    def _next_target(self) -> ProbeTarget:
        # benign tenants read aligned records
        offset = 64 * int(self.rng.integers(0, (self.mr.length - 4096) // 64))
        return ProbeTarget(self.mr, offset, int(self.rng.choice([64, 256, 1024])))

    def start(self) -> None:
        if self._handle is not None:
            raise RuntimeError("ambient client already started")
        self._toggle()

    def stop(self) -> None:
        """Cancel the pending toggle and quiesce the reader; a later
        :meth:`start` resumes cleanly with a single toggle chain."""
        if self._handle is not None:
            self.cluster.sim.cancel(self._handle)
            self._handle = None
        if self.active:
            self._reader.stop()
            self.active = False

    def _toggle(self) -> None:
        if self.active:
            self._reader.stop()
            self.active = False
            mean = self.config.ambient_off_ns
        else:
            self._reader.resume()
            self.active = True
            mean = self.config.ambient_on_ns
        if self._obs is not None:
            self._obs.instant("ambient.on" if self.active else "ambient.off",
                              category="covert", component="covert.ambient")
        delay = float(self.rng.exponential(mean))
        self._handle = self.cluster.sim.schedule(
            max(delay, 1000.0), self._toggle)


class _Session:
    """One live channel session: cluster + both endpoint readers.

    A clean session is planned whole (:class:`repro.rnic.closed_loop.
    Plan`): from its quiescent start, before either reader posts,
    through :meth:`warm_up` to the end of :meth:`run_frame`, where the
    plan is committed and the reads still in flight go to the scalar
    pipeline.  Until then the cluster stays at the session start, and
    :attr:`now` is the warm-up's cut.  An ambient tenant, a fault plan
    that arms anything, an observer, or a tie the plan cannot order
    declines it: the readers then start on the scalar pipeline and the
    session replays from its start, with the same results."""

    def __init__(self, channel: "ULIChannelBase", seed: int) -> None:
        cfg = channel.config
        self.channel = channel
        self.cluster = Cluster(seed=seed)
        server = self.cluster.add_host("server", spec=channel.spec)
        tx_host = self.cluster.add_host("covert-tx", spec=channel.spec,
                                        link=cfg.endpoint_link)
        rx_host = self.cluster.add_host("covert-rx", spec=channel.spec,
                                        link=cfg.endpoint_link)
        tx_conn = self.cluster.connect(tx_host, server, max_send_wr=cfg.max_send_queue)
        rx_conn = self.cluster.connect(rx_host, server, max_send_wr=cfg.max_send_queue)
        channel.setup_server(server)
        if cfg.fault_plan is not None:
            cfg.fault_plan.install(
                self.cluster, server=server, endpoints=[tx_host, rx_host]
            )

        rx_targets = channel.receiver_targets()
        self._rx_targets = rx_targets
        #: reads posted so far by the receiver and the sender (each
        #: cycles through its target set by this count)
        self._posts = [0, 0]
        self.current_bit = [0]

        # Under an armed fault plan the endpoints must survive failed
        # completions (retry-budget exhaustion shows up as an errored
        # CQE); a clean session keeps the loud fail-fast behaviour.
        survive = cfg.fault_plan is not None
        self.receiver = PipelinedReader(rx_conn, self._next_rx_target,
                                        halt_on_error=survive)
        self.sender = PipelinedReader(
            tx_conn, self._next_tx_target,
            depth=min(cfg.sender_depth, cfg.max_send_queue),
            halt_on_error=survive,
        )
        self._warmup = 0
        self._cut = self.cluster.sim.now
        self._plan: Optional[Plan] = None
        try:
            if cfg.ambient_depth > 0:
                # the ambient client starts after the readers: its
                # events would interleave with theirs
                raise Declined("not_quiescent")
            self._plan = Plan(
                [(rx_conn, self.receiver.depth, lambda symbol: rx_targets,
                  self.receiver._on_completion),
                 (tx_conn, self.sender.depth, channel.sender_targets,
                  self.sender._on_completion)])
        except Declined as declined:
            self._decline(declined.reason)
        self.ambient = None
        if cfg.ambient_depth > 0:
            self.ambient = AmbientClient(self.cluster, server, cfg)
            self.ambient.start()

    def _next_rx_target(self) -> ProbeTarget:
        target = self._rx_targets[self._posts[0] % len(self._rx_targets)]
        self._posts[0] += 1
        return target

    def _next_tx_target(self) -> ProbeTarget:
        targets = self.channel.sender_targets(self.current_bit[0])
        target = targets[self._posts[1] % len(targets)]
        self._posts[1] += 1
        return target

    @property
    def now(self) -> float:
        """The session's clock: the simulator's, or the warm-up's cut
        while the plan holds the session."""
        return self._cut if self._plan is not None else self.cluster.sim.now

    def _decline(self, reason: str) -> None:
        """Drop the plan, count why, and start both readers on the
        scalar pipeline from the session start."""
        if self._plan is not None:
            self._plan.restore()
            self._plan = None
        count_fallback(self.receiver.conn.qp.context.engine.counters, reason)
        for reader in (self.receiver, self.sender):
            reader.samples.clear()
            reader.completed = 0
        self.receiver.start()
        self.sender.start()

    def _publish(self, counts: Sequence[int]) -> None:
        """Hand each reader its planned completions up to ``counts``."""
        for reader, flow, count in zip((self.receiver, self.sender),
                                       self._plan.flows, counts):
            post, comps, depth = flow.post, flow.comps, flow.depth
            reader.samples.extend(
                (0.5 * (post[j] + comps[j]),
                 (comps[j] - post[j]) / (j + 1 if j < depth else depth))
                for j in range(reader.completed, count))
            reader.completed = count

    def warm_up(self, completions: int) -> float:
        """Run until the receiver has ``completions`` samples; returns
        the estimated inter-completion time."""
        self._warmup = completions
        if self._plan is not None:
            try:
                self._cut = self._plan.warm_up(completions)
            except Declined as declined:
                self._decline(declined.reason)
            else:
                self._publish(self._plan.published)
        if self._plan is None:
            self._step_to(completions)
        warm = self.receiver.samples[-(completions // 2):]
        return (warm[-1][0] - warm[0][0]) / (len(warm) - 1)

    def _step_to(self, completions: int) -> None:
        while self.receiver.completed < completions:
            if self.receiver.halted:
                raise RuntimeError("receiver failed during warm-up")
            if not self.cluster.sim.step():
                raise RuntimeError("simulation drained during warm-up")

    def _finish(self, flips: list, until: float) -> bool:
        """Commit the plan through ``until``; False if it declined (the
        warm-up then replayed on the scalar pipeline)."""
        plan = self._plan
        try:
            plan.finish(until, {1: flips})
        except Declined as declined:
            self._decline(declined.reason)
            self._step_to(self._warmup)
            return False
        self._publish([len(flow.comps) for flow in plan.flows])
        self._posts = [len(flow.post) for flow in plan.flows]
        if flips:
            self.current_bit[0] = flips[-1][1]
        self._plan = None
        self.receiver.conn.qp.context.engine.counters.lockstep_runs += 1
        return True

    def run_frame(self, frame: list[int], period: float, tail_ns: float) -> float:
        """Schedule the sender's bit flips and run the frame; returns
        the frame start time."""
        sim = self.cluster.sim
        start = self.now + 2 * MICROSECONDS
        end = start + len(frame) * period
        if self._plan is None or not self._finish(
                [(start + index * period, bit)
                 for index, bit in enumerate(frame)], end + tail_ns):
            obs = _obs.tracer_for(sim)

            def set_bit(bit: int) -> None:
                self.current_bit[0] = bit
                if obs is not None:
                    obs.instant("covert.bit", category="covert",
                                component="covert.tx", bit=bit)

            for index, bit in enumerate(frame):
                sim.schedule_at(start + index * period, set_bit, bit)
            if obs is not None:
                obs.span("covert.frame", start, len(frame) * period,
                         category="covert", component="covert.tx",
                         bits=len(frame), period_ns=period)
            sim.run(until=end + tail_ns)
        self.sender.stop()
        self.receiver.stop()
        return start


class ULIChannelBase:
    """Template for lockstep ULI covert channels."""

    name = "uli-base"
    #: bit 1 raises the receiver's ULI when True
    high_is_one = True

    def __init__(
        self,
        spec: Optional[RNICSpec] = None,
        config: Optional[ULIChannelConfig] = None,
    ) -> None:
        self.spec = spec if spec is not None else cx5()
        self.config = config if config is not None else ULIChannelConfig()
        #: Phase estimates from the most recent transmit (drift
        #: telemetry; one entry per re-lock segment).
        self.last_shifts: list[float] = []
        self.last_drift: float = 0.0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def setup_server(self, server: Host) -> None:
        """Register the MRs the channel uses; store them on self."""
        raise NotImplementedError

    def receiver_targets(self) -> list[ProbeTarget]:
        raise NotImplementedError

    def sender_targets(self, bit: int) -> list[ProbeTarget]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The lockstep protocol
    # ------------------------------------------------------------------
    def transmit(self, bits: Sequence[int], seed: int = 0) -> ChannelResult:
        bits = [1 if b else 0 for b in bits]
        if not bits:
            raise ValueError("nothing to transmit")
        cfg = self.config
        session = _Session(self, seed)
        inter_completion = session.warm_up(cfg.warmup_completions)
        period = cfg.samples_per_bit * inter_completion
        frame = cfg.preamble + bits
        start = session.run_frame(
            frame, period, tail_ns=cfg.max_shift_symbols * period
        )
        decoded_frame = self._demodulate(
            session.receiver.samples_after(start), start, period, frame
        )
        decoded = decoded_frame[len(cfg.preamble):]
        return ChannelResult.build(
            channel=self.name,
            rnic=self.spec.name,
            sent=bits,
            decoded=decoded,
            duration_ns=len(frame) * period,
        )

    def receiver_trace(
        self, bits: Sequence[int], seed: int = 0
    ) -> tuple[list[tuple[float, float]], float, float]:
        """Raw receiver samples plus (start, period) — the demodulator's
        input, for the folded ULI plots of Figures 10-11."""
        bits = [1 if b else 0 for b in bits]
        cfg = self.config
        session = _Session(self, seed)
        inter_completion = session.warm_up(cfg.warmup_completions)
        period = cfg.samples_per_bit * inter_completion
        start = session.run_frame(list(bits), period, tail_ns=period)
        return session.receiver.samples_after(start), start, period

    def _demodulate(
        self,
        samples: list[tuple[float, float]],
        start: float,
        period: float,
        frame: list[int],
    ) -> list[int]:
        """Outlier clipping, baseline removal, phase recovery on the
        preamble, then window decoding — segment-wise re-locked when
        ``relock_interval_bits`` is set."""
        cfg = self.config
        samples = winsorize(samples)
        samples = detrend(samples, half_window_ns=cfg.detrend_symbols * period)
        preamble = np.asarray(cfg.preamble, dtype=np.float64)
        sign = 1.0 if self.high_is_one else -1.0
        best_shift, best_contrast = 0.0, -np.inf
        for shift in np.linspace(0.0, cfg.max_shift_symbols * period, 31):
            means = window_means(samples, start + shift, period, len(cfg.preamble))
            ones = means[preamble == 1]
            zeros = means[preamble == 0]
            contrast = sign * (ones.mean() - zeros.mean())
            if contrast > best_contrast:
                best_contrast, best_shift = contrast, float(shift)
        if cfg.relock_interval_bits > 0:
            relock = RelockConfig(segment_bits=cfg.relock_interval_bits)
            bits, shifts = relock_decode(
                samples,
                start + best_shift,
                period,
                len(frame),
                high_is_one=self.high_is_one,
                config=relock,
            )
            self.last_shifts = [best_shift + s for s in shifts]
            self.last_drift = estimate_drift(
                shifts, cfg.relock_interval_bits, period
            )
            return bits
        self.last_shifts = [best_shift]
        self.last_drift = 0.0
        return decode_windows(
            samples,
            start + best_shift,
            period,
            len(frame),
            high_is_one=self.high_is_one,
        )
