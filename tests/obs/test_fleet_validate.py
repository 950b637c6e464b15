"""``validate_path`` dispatch for the fleet pass's ``fleet_metrics.json``:
it is checked as a metrics snapshot, and errors name the offending
record."""

import json

from repro.obs.exporters import validate_path

GOOD_METRICS = {"fleet": {"ticks": {"type": "counter", "value": 3.0}}}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestDispatch:
    def test_fleet_names_route_to_their_validators(self, tmp_path):
        merged = _write(tmp_path, "fleet_metrics.json",
                        json.dumps(GOOD_METRICS))
        assert validate_path(merged) == []
        broken = _write(tmp_path, "fleet_metrics.json",
                        json.dumps({"fleet": {"ticks": {"type": "counter"}}}))
        errors = validate_path(broken)
        assert errors and all("record 0 (fleet.ticks)" in e for e in errors)

    def test_fleet_metrics_is_not_the_unrecognized_fallthrough(
            self, tmp_path):
        # "fleet_metrics.json" does not end with ".metrics.json" — the
        # dispatcher needs its explicit branch
        path = _write(tmp_path, "fleet_metrics.json", "[]")
        errors = validate_path(path)
        assert errors == [f"{path}: top level must be an object"]
