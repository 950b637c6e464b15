#!/usr/bin/env bash
# The single local/CI gate for this repository.
#
#   tools/check.sh            # everything
#   tools/check.sh --fast     # skip the pytest tier (lint + audit only)
#
# Stages:
#   1. ruff / mypy   — ADVISORY: run only if installed, never fail the gate
#                      (they live in the `dev` extra: pip install -e '.[dev]')
#   2. repro.lint    — BLOCKING: the repo's own determinism/invariant rules
#                      (docs/LINT.md); fixture corpus is intentionally dirty
#                      and excluded
#   3. lint-flow     — BLOCKING: the whole-program pass (RAG100, RAG101,
#                      RAG104-RAG106) over src/repro; any finding not
#                      suppressed inline fails it
#   4. replay audit  — BLOCKING: one Grain-III experiment, two identical
#                      seeds, bit-identical or bust
#   5. faults smoke  — BLOCKING: the fault-injection experiment end to
#                      end at CI scale (docs/FAULTS.md)
#   6. obs smoke     — BLOCKING: one experiment under --trace
#                      --metrics, artifacts schema-validated with
#                      `python -m repro.obs validate` (docs/OBSERVABILITY.md)
#   7. insight       — BLOCKING: a sampled-trace table5 run rendered
#                      with `python -m repro.obs report` and diffed
#                      byte-for-byte against the committed golden
#                      (tests/obs/golden/table5.report.md)
#   8. speedups      — ADVISORY: build the C event-kernel accelerator
#                      (repro.sim falls back to pure Python without it);
#                      a .so this script built is removed on exit
#   9. sanitizers    — BLOCKING when cc+libasan are available (skipped
#                      with a notice otherwise, and under --fast): the
#                      accelerator is rebuilt with ASan+UBSan
#                      (tools/build_speedups.sh --sanitize), the
#                      cross-engine equivalence suite, the batched
#                      fast-path equivalence suite, the cohort-planner
#                      oracle (random cohorts through the C EventCore),
#                      the closed-loop oracle
#                      (the C EventCore firing the probe reads resumed
#                      after a planned run) and the flight-lifetime
#                      test (every scalar stage) run under it, then the
#                      optimized .so is restored before the bench gate
#  10. bench gate    — BLOCKING: simulator throughput vs the committed
#                      baseline (docs/PERF.md); fails on a >20 %
#                      event-dispatch regression (skips on engine
#                      mismatch) or a >2 % tracing-disabled
#                      observability overhead; each run is archived to
#                      benchmarks/history/ for report trend lines
#  11. pytest tier-1 — BLOCKING: the full unit/integration suite
set -u
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# stage 8 builds the C accelerator in place; unless one was there
# already, remove it on exit, so later runs in the tree keep the
# pure-Python engine they had before
if ! compgen -G "src/repro/sim/_speedups.*.so" >/dev/null; then
    trap 'rm -f src/repro/sim/_speedups.*.so' EXIT
fi

fast=0
[ "${1:-}" = "--fast" ] && fast=1

fail=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff (advisory) =="
    ruff check src tests || echo "-- ruff reported issues (advisory, not failing the gate)"
else
    echo "== ruff not installed: skipping (pip install -e '.[dev]') =="
fi

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy (advisory) =="
    mypy || echo "-- mypy reported issues (advisory, not failing the gate)"
else
    echo "== mypy not installed: skipping (pip install -e '.[dev]') =="
fi

echo "== repro.lint (blocking) =="
python -m repro.lint src/repro tests --exclude tests/lint/fixtures || fail=1

echo "== lint-flow whole-program pass (blocking) =="
python -m repro.lint --flow src/repro || fail=1

echo "== determinism replay audit (blocking) =="
python -m repro.lint --audit inter-mr || fail=1

echo "== faults experiment smoke (blocking) =="
python -m repro.experiments faults --smoke --out "$(mktemp -d)" || fail=1

echo "== observability smoke (blocking) =="
obs_out="$(mktemp -d)"
python -m repro.experiments table1 --trace --metrics --out "$obs_out" || fail=1
python -m repro.obs validate "$obs_out/table1.trace.jsonl" \
    "$obs_out/table1.trace.json" "$obs_out/table1.metrics.json" || fail=1

echo "== run-report insight stage (blocking) =="
insight_out="$(mktemp -d)"
python -m repro.experiments table5 --smoke --trace-sample 100 --metrics \
    --out "$insight_out" || fail=1
python -m repro.obs report "$insight_out" --out "$insight_out/run.report.md" || fail=1
diff -u tests/obs/golden/table5.report.md "$insight_out/run.report.md" \
    || { echo "-- run report drifted from the committed golden (regenerate via docs/OBSERVABILITY.md)"; fail=1; }

echo "== C event-kernel build (advisory) =="
tools/build_speedups.sh || echo "-- C accelerator unavailable; pure-Python kernel in use"

asan_rt="$(cc -print-file-name=libasan.so 2>/dev/null || true)"
if [ "$fast" -eq 1 ]; then
    echo "== sanitizer smoke: skipped (--fast) =="
elif [ -n "$asan_rt" ] && [ -e "$asan_rt" ] \
        && tools/build_speedups.sh --check >/dev/null 2>&1; then
    echo "== sanitizer smoke: ASan+UBSan engine equivalence (blocking) =="
    tools/build_speedups.sh --sanitize || fail=1
    # each suite drives the C EventCore where a planner hands it work:
    # - test_engines: both cores side by side, event for event;
    # - the batch-equivalence suite and the cohort-planner oracle:
    #   planned cohorts (the oracle random ones) and their drainer;
    # - the closed-loop oracle: the reads a planned probe run resumes;
    # - the lockstep oracle: the reads a planned two-reader session
    #   leaves in flight, sessions that decline after warm-up and
    #   replay on the scalar pipeline, and probes under fault plans
    #   (retries, pause stalls, RNR NAKs);
    # - the flight-lifetime test: every scalar stage (retries, RNR
    #   NAKs, flushes)
    LD_PRELOAD="$asan_rt" ASAN_OPTIONS=detect_leaks=0 \
        python -m pytest -q tests/sim/test_engines.py \
        tests/rnic/test_batch_equivalence.py \
        tests/properties/test_cohort_planner.py \
        tests/properties/test_closed_loop.py \
        tests/properties/test_lockstep.py \
        tests/rnic/test_flight_lifetime.py || fail=1
    # restore the optimized accelerator before anything times it
    tools/build_speedups.sh || fail=1
else
    echo "== sanitizer smoke: skipped (no cc/libasan or no accelerator) =="
fi

echo "== simulator benchmark gate (blocking) =="
python tools/bench_gate.py --run-id "$(date -u +%Y%m%dT%H%M%SZ)" || fail=1

if [ "$fast" -eq 0 ]; then
    echo "== pytest tier-1 (blocking) =="
    python -m pytest -x -q || fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "CHECK FAILED"
else
    echo "CHECK OK"
fi
exit "$fail"
