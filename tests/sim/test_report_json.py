"""SweepReport's JSON form."""

import json
from dataclasses import asdict

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
    def test_payload_survives_json_encoding(self):
        payload = rich_report().to_json()
        assert json.loads(json.dumps(payload)) == payload

    def test_rows_are_their_asdict_form(self):
        """Timing, failure and hotspot rows equal ``dataclasses.asdict`` of
        their records, key order included, so the encoded payload is
        byte-identical to the asdict one."""
        report = rich_report()
        payload = report.to_json()
        expected = dict(
            payload,
            timings=[asdict(timing) for timing in report.timings],
            failures=[asdict(failure) for failure in report.failures],
            hotspots=[asdict(hotspot) for hotspot in report.hotspots],
        )
        assert json.dumps(payload) == json.dumps(expected)
        assert all(payload[name] for name in ("timings", "failures", "hotspots"))

    def test_payload_carries_schema_and_derived_percentiles(self):
        payload = rich_report().to_json()
        assert payload["schema"] == REPORT_SCHEMA
        assert payload["p50_s"] == rich_report().p50_s
        assert payload["p95_s"] == rich_report().p95_s

    def test_telemetry_rows_match_payload_rendering(self):
        report = rich_report()
        rows = telemetry_rows_from_json(report.to_json())
        # Timings first (cache hit shows 0 attempts), failures appended.
        assert [row["app"] for row in rows] == ["GUPS", "ATAX", "SRAD", "MVT"]
        assert rows[1]["cached"] == "hit" and rows[1]["attempts"] == 0
        assert rows[3]["cached"] == "FAILED"
