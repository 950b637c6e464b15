"""The runtime half of the determinism pass.

Static rules (RAG001, RAG100, ...) catch the *sources* of nondeterminism;
this module verifies the *promise* itself: running the same workload
twice from the same seed must produce a bit-identical event trace and
payload.  The auditors here run a workload N times, fingerprint each
run (a canonical SHA-256 over the payload, plus the kernel's event-trace
digest when a :class:`~repro.sim.kernel.Simulator` is involved) and
report the first divergence.

Three entry points, from most to least generic::

    audit_callable(make_run)            # any () -> payload factory
    audit_simulator(drive)              # drive(sim) with a traced kernel
    audit_experiment(table5.run, ...)   # an experiments/ runner

plus :data:`AUDITS`, the canned audits exposed by
``python -m repro.lint --audit <name>``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# Canonical fingerprinting
# ----------------------------------------------------------------------

def canonicalize(obj: Any) -> Any:
    """A JSON-serializable, order-stable form of ``obj``.

    Floats are kept bit-exact through ``repr``; dict keys are sorted;
    dataclasses, enums and numpy values are unwrapped.  Unknown objects
    fall back to ``repr`` — adequate for result payloads, which are
    plain rows/series containers.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: canonicalize(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dataclass__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, dict):
        return {str(key): canonicalize(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(item) for item in obj]
    if isinstance(obj, np.ndarray):
        return [canonicalize(item) for item in obj.tolist()]
    if isinstance(obj, np.generic):
        return canonicalize(obj.item())
    if isinstance(obj, float):
        return repr(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    return repr(obj)


def fingerprint(payload: Any) -> str:
    """Canonical SHA-256 of an arbitrary result payload."""
    text = json.dumps(canonicalize(payload), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Audit records
# ----------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class RunRecord:
    """Digest of one run of the audited workload."""

    payload_hash: str
    trace_digest: Optional[str] = None
    events_fired: Optional[int] = None
    final_time: Optional[float] = None


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Digests of N identical-seed runs, plus the divergence verdict."""

    name: str
    seed: int
    runs: tuple[RunRecord, ...]

    @property
    def deterministic(self) -> bool:
        return not self.mismatches()

    def mismatches(self) -> list[str]:
        """Human-readable description of every diverging field."""
        problems: list[str] = []
        if len(self.runs) < 2:
            return problems
        first = self.runs[0]
        for index, run in enumerate(self.runs[1:], start=2):
            if run.payload_hash != first.payload_hash:
                problems.append(
                    f"run {index} payload hash {run.payload_hash[:12]} != "
                    f"run 1 {first.payload_hash[:12]}")
            if run.trace_digest != first.trace_digest:
                problems.append(
                    f"run {index} event-trace digest {run.trace_digest} != "
                    f"run 1 {first.trace_digest}")
            if run.events_fired != first.events_fired:
                problems.append(
                    f"run {index} fired {run.events_fired} events, "
                    f"run 1 fired {first.events_fired}")
            if run.final_time != first.final_time:  # ragnar-lint: disable=RAG003 — divergence check must be bit-exact
                problems.append(
                    f"run {index} ended at t={run.final_time!r}, "
                    f"run 1 at t={first.final_time!r}")
        return problems

    def summary(self) -> str:
        verdict = "deterministic" if self.deterministic else "DIVERGED"
        lines = [f"audit {self.name!r} (seed={self.seed}, "
                 f"{len(self.runs)} runs): {verdict}"]
        lines.extend(f"  - {problem}" for problem in self.mismatches())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Auditors
# ----------------------------------------------------------------------

def audit_callable(make_run: Callable[[], Any], *, name: str = "callable",
                   seed: int = 0, runs: int = 2) -> AuditReport:
    """Run ``make_run()`` N times and compare payload fingerprints.

    ``make_run`` must build a *fresh* world on every call (simulator,
    hosts, channels) so that each run is an independent replay.
    """
    if runs < 2:
        raise ValueError(f"need at least two runs to compare, got {runs}")
    records = tuple(RunRecord(payload_hash=fingerprint(make_run()))
                    for _ in range(runs))
    return AuditReport(name=name, seed=seed, runs=records)


def audit_simulator(drive: Callable[[Simulator], Any], *, seed: int = 0,
                    runs: int = 2, name: str = "simulator") -> AuditReport:
    """Replay ``drive(sim)`` on fresh traced kernels and compare the
    event-trace digests as well as the returned payloads."""
    if runs < 2:
        raise ValueError(f"need at least two runs to compare, got {runs}")
    records = []
    for _ in range(runs):
        sim = Simulator(seed=seed, trace=True)
        payload = drive(sim)
        records.append(RunRecord(
            payload_hash=fingerprint(payload),
            trace_digest=sim.trace_digest,
            events_fired=sim.events_fired,
            final_time=sim.now,
        ))
    return AuditReport(name=name, seed=seed, runs=tuple(records))


def audit_experiment(runner: Callable[..., Any], *, seed: int = 0,
                     runs: int = 2, name: Optional[str] = None,
                     **kwargs: Any) -> AuditReport:
    """Audit an ``experiments/`` runner: call it N times with the same
    seed and fingerprint the :class:`ExperimentResult` payloads."""
    label = name or getattr(runner, "__module__", "experiment")
    return audit_callable(lambda: runner(seed=seed, **kwargs),
                          name=label, seed=seed, runs=runs)


# ----------------------------------------------------------------------
# Canned audits (CLI: python -m repro.lint --audit <name>)
# ----------------------------------------------------------------------

def _audit_inter_mr(seed: int, runs: int) -> AuditReport:
    """Grain-III inter-MR covert channel: the paper's Section V-C setup
    transmitting a short payload end to end."""
    from repro.covert import InterMRChannel, random_bits
    from repro.covert.inter_mr import InterMRConfig
    from repro.rnic.spec import cx4

    def make_run():
        channel = InterMRChannel(cx4(), InterMRConfig.best_for("CX-4"))
        bits = random_bits(16, seed=seed + 1)
        return channel.transmit(bits, seed=seed)

    return audit_callable(make_run, name="inter-mr", seed=seed, runs=runs)


def _audit_table1(seed: int, runs: int) -> AuditReport:
    """Table I defense matrix (fast, exercises defense + covert layers)."""
    from repro.experiments import table1
    return audit_experiment(table1.run, seed=seed, runs=runs, name="table1")


def _audit_faults(seed: int, runs: int) -> AuditReport:
    """Fault-injected covert channels (smoke scale): the entire
    fault-injection subsystem — Gilbert–Elliott loss, pause storms,
    RNR pressure, ARQ retransmissions — must replay bit-identically."""
    from repro.experiments import faults
    return audit_experiment(faults.run, seed=seed, runs=runs,
                            name="faults", smoke=True)


AUDITS: dict[str, Callable[[int, int], AuditReport]] = {
    "inter-mr": _audit_inter_mr,
    "table1": _audit_table1,
    "faults": _audit_faults,
}


def run_audit(name: str, *, seed: int = 0, runs: int = 2) -> AuditReport:
    """Run one canned audit by name (see :data:`AUDITS`)."""
    try:
        audit = AUDITS[name]
    except KeyError:
        raise KeyError(
            f"unknown audit {name!r}; available: {sorted(AUDITS)}") from None
    return audit(seed, runs)
