"""Every flow rule has a dirty fixture it flags and a clean twin it
does not — the pass is judged on both halves."""

import pathlib

import pytest

from repro.lint.flow import run_flow

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures" / "flow"

RULES = ("rag100", "rag101", "rag102", "rag103", "rag104", "rag105",
         "rag106")


def rule_ids(report):
    return sorted({ff.finding.rule_id for ff in report.findings
                   if not ff.finding.suppressed})


@pytest.mark.parametrize("rule", RULES)
def test_dirty_fixture_is_flagged(rule):
    report = run_flow([str(FIXTURES / rule / "dirty")])
    assert rule_ids(report) == [rule.upper()], (
        f"{rule} dirty fixture should trip exactly {rule.upper()}, "
        f"got {rule_ids(report)}")


@pytest.mark.parametrize("rule", RULES)
def test_clean_twin_is_not_flagged(rule):
    report = run_flow([str(FIXTURES / rule / "clean")])
    details = "\n".join(ff.finding.format() for ff in report.findings)
    assert report.clean, f"{rule} clean twin tripped:\n{details}"


def test_rag100_message_names_the_cross_file_chain():
    """The finding explains HOW the tainted site is reachable."""
    report = run_flow([str(FIXTURES / "rag100" / "dirty")])
    (finding,) = [ff.finding for ff in report.findings]
    assert "random.random" in finding.message
    assert "reachable via" in finding.message
    assert "repro.util.jitter" in finding.message


def test_rag104_dirty_has_both_escape_shapes():
    """The fixture encodes a dropped returned handle AND an
    unstoppable self-rescheduling chain."""
    report = run_flow([str(FIXTURES / "rag104" / "dirty")])
    messages = [ff.finding.message for ff in report.findings]
    assert len(messages) == 2
    assert any("drops the schedule handle returned by" in m
               for m in messages)
    assert any("self-rescheduling" in m for m in messages)


# ----------------------------------------------------------------------
# RAG100 beyond reachability, RAG104 in classes with stop(): each has a
# dirty tree of cases and a clean twin (``<rule>/<case>/{dirty,clean}``)
# ----------------------------------------------------------------------

UNREACHABLE = FIXTURES / "rag100" / "unreachable"
NESTED = FIXTURES / "rag100" / "nested"
STOP = FIXTURES / "rag104" / "stop"


def hits(path):
    """``(line, rule_id)`` of every active finding in one fixture file."""
    report = run_flow([str(path)])
    return [(ff.finding.line, ff.finding.rule_id) for ff in report.findings
            if not ff.finding.suppressed]


@pytest.mark.parametrize("tree,rule_id", [(UNREACHABLE, "RAG100"),
                                          (NESTED, "RAG100"),
                                          (STOP, "RAG104")],
                         ids=["rag100-unreachable", "rag100-nested",
                              "rag104-stop"])
def test_case_trees_trip_only_their_rule(tree, rule_id):
    assert rule_ids(run_flow([str(tree / "dirty")])) == [rule_id]
    clean = run_flow([str(tree / "clean")])
    details = "\n".join(ff.finding.format() for ff in clean.findings)
    assert clean.clean, f"{tree.name} clean twin tripped:\n{details}"


def test_rag100_flags_stdlib_random():
    path = UNREACHABLE / "dirty" / "repro" / "rnic" / "stdlib_random.py"
    assert hits(path) == [(2, "RAG100")]


def test_rag100_flags_legacy_numpy_random():
    path = UNREACHABLE / "dirty" / "repro" / "rnic" / "legacy_numpy.py"
    assert hits(path) == [(2, "RAG100"), (3, "RAG100")]


def test_rag100_flags_global_rng_in_a_function_nothing_calls():
    path = UNREACHABLE / "dirty" / "repro" / "global_random.py"
    assert hits(path) == [(9, "RAG100"), (10, "RAG100"), (11, "RAG100")]


def test_rag100_flags_rng_in_nested_headers_and_class_bodies():
    """A default value, a decorator argument and a class body inside a
    function run with that function."""
    path = NESTED / "dirty" / "repro" / "rnic" / "nested_headers.py"
    assert hits(path) == [(10, "RAG100"), (16, "RAG100"), (24, "RAG100")]


def test_rag100_flags_an_unreachable_helper():
    """Entry points exist, and the helper is not on any of their
    paths: the site is reported all the same, without a chain."""
    report = run_flow([str(UNREACHABLE / "dirty")])
    (finding,) = [ff.finding for ff in report.findings
                  if ff.finding.path.endswith("runner.py")]
    assert finding.line == 11
    assert "_unused_jitter uses process-global RNG random.random()" \
        in finding.message
    assert "reachable via" not in finding.message


def test_rag100_allows_seeded_generators():
    assert hits(UNREACHABLE / "clean" / "repro" / "rnic" / "seeded.py") == []


def test_rag100_allows_the_streams_module():
    assert hits(UNREACHABLE / "clean" / "repro" / "sim" / "random.py") == []


def test_rag104_flags_dropped_handles():
    # both the start() and the _tick() schedule calls drop the handle
    assert hits(STOP / "dirty" / "repro" / "leaky.py") == \
        [(4, "RAG104"), (8, "RAG104")]


def test_rag104_flags_kept_handle_that_stop_never_cancels():
    assert hits(STOP / "dirty" / "repro" / "kept.py") == \
        [(4, "RAG104"), (8, "RAG104")]


def test_rag104_flags_both_monitor_shapes():
    """A flag-clearing stop() over a dropped handle, and over a kept
    handle nothing cancels."""
    assert hits(STOP / "dirty" / "repro" / "monitors.py") == \
        [(18, "RAG104"), (27, "RAG104"), (38, "RAG104"), (44, "RAG104")]


def test_rag104_accepts_cancel_on_stop():
    assert hits(STOP / "clean" / "repro" / "fixed.py") == []


def test_rag104_without_stop_flags_only_the_chain():
    """With no stop() the class promises no cancel path: start() may
    drop the first handle, but the chain that drops its own is still
    unstoppable."""
    assert hits(STOP / "dirty" / "repro" / "stopless.py") == [(6, "RAG104")]


def test_rag104_ignores_schedules_of_foreign_callbacks():
    assert hits(STOP / "clean" / "repro" / "driver.py") == []


def test_fingerprints_are_line_number_free():
    """Inserting a comment above a finding must not invalidate its
    baseline fingerprint."""
    dirty = FIXTURES / "rag105" / "dirty"
    report = run_flow([str(dirty)])
    (before,) = [ff.fingerprint for ff in report.findings]

    runner = dirty / "repro" / "experiments" / "runner.py"
    original = runner.read_text(encoding="utf-8")
    try:
        runner.write_text("# an unrelated leading comment\n" + original,
                          encoding="utf-8")
        report = run_flow([str(dirty)])
        (after,) = [ff.fingerprint for ff in report.findings]
    finally:
        runner.write_text(original, encoding="utf-8")
    assert before == after


def test_inline_suppression_downgrades_the_finding(tmp_path):
    pkg = tmp_path / "repro" / "experiments"
    pkg.mkdir(parents=True)
    (pkg / "runner.py").write_text(
        "def run_task(samples):\n"
        "    rates = set(samples)\n"
        "    return sum(rates)  # ragnar-lint: disable=RAG105\n",
        encoding="utf-8")
    report = run_flow([str(tmp_path)])
    assert report.clean
    assert len(report.suppressed) == 1
    assert report.suppressed[0].rule_id == "RAG105"
