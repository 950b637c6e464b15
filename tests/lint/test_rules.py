"""Per-rule engine tests: positive, negative and suppressed snippets."""

import pathlib

import pytest

from repro.lint import lint_source
from repro.lint.engine import (
    PARSE_ERROR_ID,
    module_path_for,
    parse_suppressions,
)
from repro.lint.rules import default_rules, rule_index

MODEL = "repro/rnic/model.py"          # in-package, model layer
ANALYSIS = "repro/analysis/helpers.py"  # in-package, non-kernel


def ids(source: str, module: str = MODEL, include_suppressed: bool = False):
    findings = lint_source(source, module=module)
    if not include_suppressed:
        findings = [f for f in findings if not f.suppressed]
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# RAG001 — wall clock
# ----------------------------------------------------------------------

def test_rag001_flags_wallclock_calls():
    source = "import time\nstarted = time.time()\n"
    assert ids(source) == ["RAG001"]


def test_rag001_flags_from_import_alias():
    source = "from time import perf_counter as pc\nvalue = pc()\n"
    assert ids(source) == ["RAG001"]


def test_rag001_flags_datetime_now():
    source = "from datetime import datetime\nstamp = datetime.now()\n"
    assert ids(source) == ["RAG001"]


def test_rag001_allows_the_sanctioned_cli_helper():
    source = "import time\n\ndef wallclock():\n    return time.perf_counter()\n"
    assert ids(source, module="repro/experiments/timing.py") == []


def test_rag001_ignores_files_outside_the_package():
    source = "import time\nstarted = time.time()\n"
    assert ids(source, module=None) == []


# ----------------------------------------------------------------------
# RAG003 — float equality
# ----------------------------------------------------------------------

def test_rag003_flags_float_literal_equality():
    assert ids("ok = value == 0.0\n") == ["RAG003"]
    assert ids("ok = value != 1.5\n") == ["RAG003"]


def test_rag003_flags_time_named_comparands():
    assert ids("ok = event_time == target\n") == ["RAG003"]
    assert ids("ok = wc.latency != observed\n") == ["RAG003"]


def test_rag003_allows_int_literals_and_ordering():
    assert ids("ok = count == 0\n") == []
    assert ids("ok = event_time < deadline\n") == []


# ----------------------------------------------------------------------
# RAG004 — broad except
# ----------------------------------------------------------------------

def test_rag004_flags_broad_and_bare_handlers():
    source = ("try:\n    work()\nexcept Exception:\n    pass\n"
              "try:\n    work()\nexcept:\n    pass\n")
    assert ids(source) == ["RAG004", "RAG004"]


def test_rag004_flags_broad_type_inside_tuple():
    source = "try:\n    work()\nexcept (ValueError, Exception):\n    pass\n"
    assert ids(source) == ["RAG004"]


def test_rag004_allows_specific_and_reraising_handlers():
    source = ("try:\n    work()\nexcept KeyError:\n    pass\n"
              "try:\n    work()\nexcept Exception:\n    cleanup()\n    raise\n")
    assert ids(source) == []


# ----------------------------------------------------------------------
# RAG005 — mutable defaults
# ----------------------------------------------------------------------

def test_rag005_flags_literal_and_factory_defaults():
    source = ("def f(xs=[]):\n    return xs\n"
              "def g(*, table=dict()):\n    return table\n")
    assert ids(source) == ["RAG005", "RAG005"]


def test_rag005_allows_none_and_immutable_defaults():
    source = "def f(xs=None, scale=1.0, name='x', pair=()):\n    return xs\n"
    assert ids(source) == []


# ----------------------------------------------------------------------
# RAG006 — kernel state
# ----------------------------------------------------------------------

def test_rag006_flags_clock_and_queue_tampering():
    source = "sim.now = 0.0\nsim.now += 5.0\nsim._queue.clear()\n"
    assert ids(source) == ["RAG006", "RAG006", "RAG006"]


def test_rag006_allows_the_kernel_itself_and_reads():
    source = "self.now = event.time\n"
    assert ids(source, module="repro/sim/kernel.py") == []
    assert ids("t = sim.now\nself._queue = []\n") == []


# ----------------------------------------------------------------------
# RAG007 — raw unit literals
# ----------------------------------------------------------------------

def test_rag007_flags_both_spellings():
    assert ids("seconds = duration_ns / 1e9\n") == ["RAG007"]
    assert ids("millis = duration_ns / 1_000_000\n") == ["RAG007"]


def test_rag007_allows_other_magnitudes_and_units_module():
    assert ids("window = 1024\nrate = 40e9\n") == []
    assert ids("SECONDS = 1_000_000_000.0\n",
               module="repro/sim/units.py") == []


# ----------------------------------------------------------------------
# RAG008 — I/O in model layers
# ----------------------------------------------------------------------

def test_rag008_flags_io_in_model_layers():
    source = "def fire(event):\n    print(event)\n    open('x')\n"
    assert ids(source, module="repro/sim/hot_path.py") == \
        ["RAG008", "RAG008"]


def test_rag008_allows_io_outside_model_layers():
    source = "print('table')\n"
    assert ids(source, module="repro/experiments/report.py") == []


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------

def test_inline_suppression_marks_but_keeps_findings():
    source = "import time\nstarted = time.time()  # ragnar-lint: disable=RAG001\n"
    findings = lint_source(source, module=MODEL)
    assert [f.rule_id for f in findings] == ["RAG001"]
    assert findings[0].suppressed


def test_suppression_must_name_the_right_rule():
    source = "import time\nstarted = time.time()  # ragnar-lint: disable=RAG007\n"
    assert ids(source) == ["RAG001"]


def test_disable_all_suppresses_everything_on_the_line():
    source = "value = duration_ns / 1e9 if t == 0.0 else 0  # ragnar-lint: disable=all\n"
    assert ids(source, module=ANALYSIS) == []


def test_parse_suppressions_table():
    lines = ("x = 1", "y = 2  # ragnar-lint: disable=RAG001, RAG007", "z = 3")
    assert parse_suppressions(lines) == {2: {"RAG001", "RAG007"}}


def test_syntax_errors_become_parse_findings():
    findings = lint_source("def broken(:\n", module=MODEL)
    assert [f.rule_id for f in findings] == [PARSE_ERROR_ID]


def test_module_path_anchors_at_last_repro_component():
    path = pathlib.Path("/x/repro/tests/fixtures/repro/sim/mod.py")
    assert module_path_for(path) == "repro/sim/mod.py"
    assert module_path_for(pathlib.Path("/x/other/pkg/mod.py")) is None


def test_rule_pack_is_complete_and_ordered():
    rules = default_rules()
    assert [r.rule_id for r in rules] == [
        "RAG001", "RAG003", "RAG004",
        "RAG005", "RAG006", "RAG007", "RAG008",
    ]
    index = rule_index()
    assert len(index) == 7
    assert all(cls.title for cls in index.values())


@pytest.mark.parametrize("rule_id", sorted(rule_index()))
def test_every_rule_has_a_docstring(rule_id):
    assert rule_index()[rule_id].__doc__
