"""SweepReport JSON round-trips."""

import json

import pytest

from repro.sim.profiling import Hotspot
from repro.sim.runner import (
    REPORT_SCHEMA,
    JobFailure,
    JobTiming,
    SweepReport,
    telemetry_rows_from_json,
)


def rich_report() -> SweepReport:
    return SweepReport(
        jobs_submitted=5,
        unique_jobs=4,
        cache_hits=1,
        jobs_simulated=3,
        workers=2,
        wall_clock_s=12.5,
        retries=1,
        profiled=True,
        timings=[
            JobTiming(key="GUPS|baseline|1.0", app_name="GUPS", scheme="baseline",
                      duration_s=4.0, cached=False, attempts=2, worker_pid=101),
            JobTiming(key="ATAX|baseline|1.0", app_name="ATAX", scheme="baseline",
                      duration_s=0.0, cached=True, attempts=0, worker_pid=0),
            JobTiming(key="SRAD|baseline|1.0", app_name="SRAD", scheme="baseline",
                      duration_s=2.0, cached=False, attempts=1, worker_pid=102),
        ],
        failures=[
            JobFailure(key="MVT|baseline|1.0", app_name="MVT", scheme="baseline",
                       attempts=3, error="boom", disposition="exception"),
        ],
        hotspots=[Hotspot(function="sim.py:10(step)", calls=900, cumulative_s=3.25)],
    )


class TestRoundTrip:
    def test_to_json_from_json_is_identity(self):
        report = rich_report()
        restored = SweepReport.from_json(report.to_json())
        assert restored == report

    def test_payload_survives_json_encoding(self):
        report = rich_report()
        wire = json.dumps(report.to_json())
        restored = SweepReport.from_json(json.loads(wire))
        assert restored == report
        assert restored.p50_s == report.p50_s
        assert restored.p95_s == report.p95_s

    def test_payload_carries_schema_and_derived_percentiles(self):
        payload = rich_report().to_json()
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["p50_s"] == rich_report().p50_s
        assert payload["p95_s"] == rich_report().p95_s

    def test_empty_report_round_trips(self):
        report = SweepReport()
        assert SweepReport.from_json(report.to_json()) == report

    def test_telemetry_rows_match_payload_rendering(self):
        report = rich_report()
        assert report.telemetry_rows() == telemetry_rows_from_json(report.to_json())
        rows = report.telemetry_rows()
        # Timings first (cache hit shows 0 attempts), failures appended.
        assert [row["app"] for row in rows] == ["GUPS", "ATAX", "SRAD", "MVT"]
        assert rows[1]["cached"] == "hit" and rows[1]["attempts"] == 0
        assert rows[3]["cached"] == "FAILED"

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"schema": "repro-sweepreport-v999"},
            {"schema": REPORT_SCHEMA},  # missing every field
        ],
    )
    def test_malformed_payloads_raise_value_error(self, payload):
        with pytest.raises(ValueError):
            SweepReport.from_json(payload)

    def test_malformed_timing_raises_value_error(self):
        payload = rich_report().to_json()
        payload["timings"][0] = {"key": "only-a-key"}
        with pytest.raises(ValueError, match="malformed"):
            SweepReport.from_json(payload)

