"""Tests for the sweep runner's per-job telemetry and opt-in profiling."""

import gc
import os
import weakref

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.sim.profiling import (
    DEFAULT_TOP,
    Hotspot,
    HotspotProfiler,
    merge_hotspots,
    profile_top,
)
from repro.sim.runner import SweepJob, SweepRunner

SCALE = 0.05


@pytest.fixture(autouse=True)
def _memory_only_cache(monkeypatch):
    """Isolate every test: empty in-process cache, no disk cache."""

    monkeypatch.setattr(common, "_CACHE_DIR", "")
    common.clear_cache()
    yield
    common.clear_cache()


def tiny_jobs(count=2):
    apps = ("GUPS", "ATAX")[:count]
    return [SweepJob(app, table1_config(TxScheme.BASELINE), SCALE) for app in apps]


class TestJobTelemetry:
    def test_serial_timings_record_pid_and_attempts(self):
        runner = SweepRunner(jobs=1)
        _, report = runner.run_with_report(tiny_jobs())
        assert len(report.timings) == 2
        for timing in report.timings:
            assert timing.cached is False
            assert timing.attempts == 1
            assert timing.worker_pid == os.getpid()
            assert timing.duration_s > 0

    def test_cache_hits_record_zero_attempts(self):
        jobs = tiny_jobs()
        SweepRunner(jobs=1).run(jobs)
        _, report = SweepRunner(jobs=1).run_with_report(jobs)
        assert report.cache_hits == 2
        for timing in report.timings:
            assert timing.cached is True
            assert timing.attempts == 0
            assert timing.worker_pid == 0
            assert timing.duration_s == 0.0

    def test_telemetry_rows_shape(self):
        _, report = SweepRunner(jobs=1).run_with_report(tiny_jobs())
        rows = report.telemetry_rows()
        assert len(rows) == 2
        for row in rows:
            assert set(row) == {
                "app", "scheme", "cached", "wall_s", "attempts", "worker",
            }
            assert row["cached"] == "miss"
            assert float(row["wall_s"]) > 0
        # A warm re-run flips the rows to cache hits.
        _, warm = SweepRunner(jobs=1).run_with_report(tiny_jobs())
        assert all(row["cached"] == "hit" for row in warm.telemetry_rows())
        assert all(row["worker"] == "-" for row in warm.telemetry_rows())

    def test_slowest_jobs_excludes_cached(self):
        jobs = tiny_jobs()
        _, report = SweepRunner(jobs=1).run_with_report(jobs)
        slowest = report.slowest_jobs()
        assert slowest
        durations = [t.duration_s for t in slowest]
        assert durations == sorted(durations, reverse=True)
        _, warm = SweepRunner(jobs=1).run_with_report(jobs)
        assert warm.slowest_jobs() == []

    def test_report_is_not_retained_after_the_run(self):
        """A report belongs to its caller: once the runner and the report
        are dropped, nothing in the process keeps it (a long-lived
        service runs a sweep per batch)."""

        runner = SweepRunner(jobs=1)
        _, report = runner.run_with_report(tiny_jobs(1))
        assert report.timings
        ref = weakref.ref(report)
        del runner, report
        gc.collect()
        assert ref() is None

    def test_parallel_timings_record_worker_pids(self):
        runner = SweepRunner(jobs=2)
        _, report = runner.run_with_report(tiny_jobs())
        assert len(report.timings) == 2
        for timing in report.timings:
            assert timing.worker_pid > 0
            assert timing.worker_pid != os.getpid()


class TestProfiling:
    def test_profile_top_parsing(self, monkeypatch):
        for raw, expected in (
            ("", 0), ("0", 0), ("false", 0), ("off", 0), ("-3", 0),
            ("1", DEFAULT_TOP), ("true", DEFAULT_TOP), ("yes", DEFAULT_TOP),
            ("7", 7), ("40", 40),
        ):
            monkeypatch.setenv("REPRO_PROFILE", raw)
            assert profile_top() == expected, raw
        monkeypatch.delenv("REPRO_PROFILE")
        assert profile_top() == 0

    def test_hotspot_profiler_captures_functions(self):
        with HotspotProfiler(top_n=5) as profiler:
            sum(range(10_000))
        hotspots = profiler.hotspots()
        assert hotspots
        assert len(hotspots) <= 5
        assert all(h.cumulative_s >= 0 for h in hotspots)

    def test_merge_hotspots_sums_by_label(self):
        a = [Hotspot("f.py:1(run)", 2, 1.0), Hotspot("g.py:2(step)", 1, 0.5)]
        b = [Hotspot("f.py:1(run)", 3, 2.0)]
        merged = merge_hotspots([a, b])
        assert merged[0] == Hotspot("f.py:1(run)", 5, 3.0)
        assert merged[1] == Hotspot("g.py:2(step)", 1, 0.5)

    def test_serial_sweep_profiles_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "1")
        _, report = SweepRunner(jobs=1).run_with_report(tiny_jobs(1))
        assert report.profiled is True
        assert report.hotspots
        assert report.hotspot_lines()
        assert any("run_app" in h.function or "system" in h.function.lower()
                   or h.cumulative_s > 0 for h in report.hotspots)

    def test_sweep_does_not_profile_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        _, report = SweepRunner(jobs=1).run_with_report(tiny_jobs(1))
        assert report.profiled is False
        assert report.hotspots == []
        assert report.hotspot_lines() == []
