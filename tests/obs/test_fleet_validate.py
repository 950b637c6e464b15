"""Schema validation for the fleet artifacts: every error must name the
offending line / record index, and ``validate_path`` must dispatch the
three canonical fleet file names."""

import json

from repro.obs.exporters import (
    validate_fleet_jsonl,
    validate_path,
    validate_slo_report,
)

GOOD_METRICS = {"fleet": {"ticks": {"type": "counter", "value": 3.0}}}


def _fleet_line(rev, kind="final", task="alpha", done=1,
                metrics=GOOD_METRICS):
    return json.dumps({"rev": rev, "kind": kind, "task": task,
                       "tasks_done": done, "metrics": metrics},
                      sort_keys=True)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD_REPORT = {
    "spec": "test", "ticks": 2, "compliant": False,
    "objectives": [
        {"name": "wire", "kind": "error_rate", "good": 100.0, "bad": 3.0,
         "alerts": 1, "compliant": False, "value": 0.03, "budget": 0.01,
         "data": True, "budget_consumed": 3.0,
         "windows": [{"ticks": 1, "threshold": 10.0, "severity": "page",
                      "max_burn_rate": 3.0}]},
    ],
    "alerts": [{"tick": 1, "objective": "wire", "window_ticks": 1,
                "burn_rate": 12.0, "threshold": 10.0,
                "severity": "page"}],
}


class TestFleetJsonl:
    def test_clean_stream(self, tmp_path):
        path = _write(tmp_path, "fleet_snapshots.jsonl",
                      _fleet_line(1) + "\n"
                      + _fleet_line(2, task="beta", done=2) + "\n")
        assert validate_fleet_jsonl(path) == []

    def test_delta_record_is_rejected(self, tmp_path):
        # only the post-batch pass writes fleet_snapshots.jsonl, and it
        # writes one "final" line per task; a streamed "delta" is stale
        path = _write(tmp_path, "fleet_snapshots.jsonl",
                      _fleet_line(1) + "\n"
                      + _fleet_line(2, kind="delta", done=1) + "\n")
        assert validate_fleet_jsonl(path) == \
            [f"{path}:2: 'kind' must be 'final', got 'delta'"]

    def test_errors_name_the_line(self, tmp_path):
        path = _write(
            tmp_path, "fleet_snapshots.jsonl",
            _fleet_line(1) + "\n"
            + _fleet_line(1, kind="partial", task="", done=-1) + "\n"
            + "not json\n")
        errors = validate_fleet_jsonl(path)
        line2 = [e for e in errors if f"{path}:2:" in e]
        assert any("'rev' 1 not greater than previous 1" in e
                   for e in line2)
        assert any("'kind' must be 'final'" in e for e in line2)
        assert any("'task' must be a non-empty string" in e
                   for e in line2)
        assert any("'tasks_done'" in e for e in line2)
        assert any(f"{path}:3: invalid JSON" in e for e in errors)

    def test_bad_embedded_metrics_payload(self, tmp_path):
        broken = {"fleet": {"ticks": {"type": "counter"}}}  # no value
        path = _write(tmp_path, "fleet_snapshots.jsonl",
                      _fleet_line(1, metrics=broken) + "\n")
        errors = validate_fleet_jsonl(path)
        assert errors and all(f"{path}:1: metrics" in e for e in errors)

    def test_empty_stream_is_an_error(self, tmp_path):
        path = _write(tmp_path, "fleet_snapshots.jsonl", "")
        assert validate_fleet_jsonl(path) == \
            [f"{path}: empty fleet snapshot stream"]


class TestSloReport:
    def test_clean_report(self, tmp_path):
        path = _write(tmp_path, "slo_report.json",
                      json.dumps(GOOD_REPORT))
        assert validate_slo_report(path) == []

    def test_errors_name_objective_and_alert_index(self, tmp_path):
        payload = json.loads(json.dumps(GOOD_REPORT))
        del payload["objectives"][0]["compliant"]
        payload["objectives"][0]["kind"] = "availability"
        del payload["alerts"][0]["burn_rate"]
        payload["ticks"] = -1
        path = _write(tmp_path, "slo_report.json", json.dumps(payload))
        errors = validate_slo_report(path)
        assert any("objective 0 (wire): missing field 'compliant'" in e
                   for e in errors)
        assert any("objective 0 (wire): 'kind' must be" in e
                   for e in errors)
        assert any("alert 0: missing field 'burn_rate'" in e
                   for e in errors)
        assert any("'ticks' must be a non-negative integer" in e
                   for e in errors)

    def test_top_level_shape(self, tmp_path):
        path = _write(tmp_path, "slo_report.json", "[]")
        assert validate_slo_report(path) == \
            [f"{path}: top level must be an object"]


class TestDispatch:
    def test_fleet_names_route_to_their_validators(self, tmp_path):
        stream = _write(tmp_path, "fleet_snapshots.jsonl",
                        _fleet_line(1) + "\n")
        merged = _write(tmp_path, "fleet_metrics.json",
                        json.dumps(GOOD_METRICS))
        report = _write(tmp_path, "slo_report.json",
                        json.dumps(GOOD_REPORT))
        for path in (stream, merged, report):
            assert validate_path(path) == []

    def test_fleet_metrics_is_not_the_unrecognized_fallthrough(
            self, tmp_path):
        # "fleet_metrics.json" does not end with ".metrics.json" — the
        # dispatcher needs its explicit branch
        path = _write(tmp_path, "fleet_metrics.json", "[]")
        errors = validate_path(path)
        assert errors
        assert not any("unrecognized artifact name" in e for e in errors)
