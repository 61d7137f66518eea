"""Determinism and equivalence battery for the parallel sweep runner.

The runner is only safe to ship if a parallel sweep is *indistinguishable*
from the serial path: byte-identical results, submission order preserved,
and no job simulated more than once. These tests pin all three down.
"""

import dataclasses
import os
import time
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.experiments.fig13_main import sweep_jobs_13bc
from repro.sim.runner import (
    JobTiming,
    SweepJob,
    SweepReport,
    SweepRunner,
    default_workers,
    run_attempt,
    run_sweep,
)
from repro.sim.stats import _percentile as stats_percentile
from repro.sim.store import ResultStore

SCALE = 0.05

APPS = ("ATAX", "SRAD", "GUPS")
SCHEMES = (TxScheme.BASELINE, TxScheme.ICACHE_LDS)


@pytest.fixture(autouse=True)
def _memory_only_cache(monkeypatch):
    """Isolate every test: empty in-process cache, no disk cache."""

    monkeypatch.setattr(common, "_CACHE_DIR", "")
    common.clear_cache()
    yield
    common.clear_cache()


def small_grid():
    return [
        SweepJob(app, table1_config(scheme), SCALE)
        for app in APPS
        for scheme in SCHEMES
    ]


class TestEquivalence:
    def test_parallel_matches_serial_byte_identical(self):
        jobs = small_grid()
        serial = [
            common.run_app(job.app_name, job.config, job.scale) for job in jobs
        ]
        serial_prints = [common.result_fingerprint(r) for r in serial]

        common.clear_cache()  # force the parallel run to actually simulate
        parallel = SweepRunner(jobs=4).run(jobs)
        parallel_prints = [common.result_fingerprint(r) for r in parallel]

        assert parallel_prints == serial_prints

    def test_fig13_grid_parallel_matches_serial(self):
        # The acceptance grid: every Figure 13b/c job at a tiny scale.
        jobs = sweep_jobs_13bc(0.02)
        serial = [
            common.run_app(job.app_name, job.config, job.scale) for job in jobs
        ]
        serial_prints = [common.result_fingerprint(r) for r in serial]

        common.clear_cache()
        parallel = SweepRunner(jobs=4).run(jobs)
        parallel_prints = [common.result_fingerprint(r) for r in parallel]

        assert parallel_prints == serial_prints

    def test_serial_fallback_matches_run_app(self):
        jobs = small_grid()
        direct = [
            common.result_fingerprint(
                common.run_app(job.app_name, job.config, job.scale)
            )
            for job in jobs
        ]
        common.clear_cache()
        via_runner = [
            common.result_fingerprint(r) for r in SweepRunner(jobs=1).run(jobs)
        ]
        assert via_runner == direct


class TestOrderingAndDedup:
    def test_results_in_submission_order(self):
        jobs = small_grid()
        results = SweepRunner(jobs=4).run(jobs)
        assert [r.app_name for r in results] == [j.app_name for j in jobs]
        assert [r.scheme for r in results] == [
            j.config.scheme.value for j in jobs
        ]

    def test_duplicate_jobs_simulated_once(self):
        base = small_grid()
        jobs = base + base + base  # every job submitted three times
        runner = SweepRunner(jobs=4)
        results, report = runner.run_with_report(jobs)

        assert report.jobs_submitted == 3 * len(base)
        assert report.unique_jobs == len(base)
        assert report.duplicate_jobs == 2 * len(base)
        assert report.jobs_simulated == len(base)
        assert report.cache_hits == 0
        # Duplicates resolve to the very same object, not a re-simulation.
        for index in range(len(base)):
            assert results[index] is results[index + len(base)]
            assert results[index] is results[index + 2 * len(base)]

    def test_warm_cache_counts_as_hits(self):
        jobs = small_grid()
        runner = SweepRunner(jobs=1)
        runner.run(jobs)
        _, report = runner.run_with_report(jobs)
        assert report.cache_hits == len(jobs)
        assert report.jobs_simulated == 0

    def test_tuple_jobs_and_defaults_accepted(self):
        results = run_sweep([("SRAD", None, SCALE)], workers=1)
        assert results[0].app_name == "SRAD"
        assert results[0].scheme == "baseline"


class TestCacheIsolation:
    def test_use_cache_false_ignores_inherited_parent_cache(self):
        """Regression: under the fork start method a worker inherits the
        parent's populated in-process ``_CACHE``; with ``use_cache=False``
        it must never serve from it (it used to, returning stale results
        for a runner explicitly built to re-simulate)."""

        jobs = small_grid()[:2]
        genuine = common.run_app(
            jobs[0].app_name, jobs[0].config, jobs[0].scale, use_cache=False
        )
        poisoned = dataclasses.replace(genuine, cycles=genuine.cycles + 987_654)
        common._CACHE[jobs[0].key()] = poisoned

        results = SweepRunner(jobs=2, use_cache=False).run(jobs)

        assert results[0].cycles == genuine.cycles
        assert results[0].cycles != poisoned.cycles
        # And the no-cache run did not overwrite the parent's entry.
        assert common._CACHE[jobs[0].key()] is poisoned

    def test_use_cache_false_serial_ignores_parent_cache(self):
        job = small_grid()[0]
        genuine = common.run_app(job.app_name, job.config, job.scale, use_cache=False)
        poisoned = dataclasses.replace(genuine, cycles=genuine.cycles + 987_654)
        common._CACHE[job.key()] = poisoned

        results = SweepRunner(jobs=1, use_cache=False).run([job])
        assert results[0].cycles == genuine.cycles


def _memo_state():
    """The executing process's memo size and cache-dir knob."""

    return len(common._CACHE), common._CACHE_DIR


class TestAttempt:
    def test_attempt_leaves_memo_and_cache_dir_unchanged(self, tmp_path, monkeypatch):
        """The attempt simulates against the store it is handed: it must
        neither memoize the result nor re-point the process-default
        store, so long-lived workers keep nothing between jobs."""

        default_dir = str(tmp_path / "default")
        monkeypatch.setattr(common, "_CACHE_DIR", default_dir)
        marker = object()
        common._CACHE["unrelated"] = marker
        store = ResultStore(str(tmp_path / "runner"))
        job = small_grid()[0]

        first = run_attempt(job, store, 1, None)
        assert common._CACHE == {"unrelated": marker}
        assert common._CACHE_DIR == default_dir
        assert not os.path.exists(default_dir)
        assert store.load(job.key()) is not None

        # A second attempt is served from the store, still memo-free.
        second = run_attempt(job, store, 2, None)
        assert common.result_fingerprint(second.result) == (
            common.result_fingerprint(first.result)
        )
        assert common._CACHE == {"unrelated": marker}
        assert common._CACHE_DIR == default_dir

    def test_long_lived_pool_worker_keeps_no_results(self, tmp_path):
        job = small_grid()[0]
        store = ResultStore(str(tmp_path))
        with ProcessPoolExecutor(max_workers=1) as pool:
            before = pool.submit(_memo_state).result()
            pool.submit(run_attempt, job, store, 1, None).result()
            pool.submit(run_attempt, job, None, 1, None).result()
            assert pool.submit(_memo_state).result() == before


class TestReport:
    def test_report_timings_and_percentiles(self):
        jobs = small_grid()
        runner = SweepRunner(jobs=1)
        _, report = runner.run_with_report(jobs)
        simulated = [t for t in report.timings if not t.cached]
        assert len(simulated) == len(jobs)
        assert all(t.duration_s > 0 for t in simulated)
        durations = sorted(t.duration_s for t in simulated)
        assert durations[0] <= report.p50_s <= report.p95_s <= durations[-1]
        assert report.wall_clock_s >= sum(durations) * 0.5

    def test_progress_lines_emitted(self):
        lines = []
        SweepRunner(jobs=1, progress=lines.append).run(small_grid()[:2])
        assert any("[sweep]" in line for line in lines)
        assert any("jobs" in line for line in lines)

    def test_summary_mentions_cache_hits(self):
        runner = SweepRunner(jobs=1)
        runner.run(small_grid()[:1])
        _, report = runner.run_with_report(small_grid()[:1])
        assert "1 cache hits" in report.summary()

    def test_percentiles_use_shared_linear_interpolation(self):
        """Regression: the report used nearest-rank while every other
        percentile in the repo interpolates linearly — p50 of
        [1,2,3,4] must be 2.5, not 3.0."""

        report = SweepReport()
        durations = [1.0, 2.0, 3.0, 4.0]
        for index, duration in enumerate(durations):
            report.timings.append(
                JobTiming(
                    key=str(index),
                    app_name="A",
                    scheme="baseline",
                    duration_s=duration,
                    cached=False,
                )
            )
        assert report.p50_s == stats_percentile(durations, 0.50) == 2.5
        assert report.p95_s == stats_percentile(durations, 0.95)
        assert SweepReport().p50_s == 0.0  # empty report stays well-defined


class TestWorkerConfiguration:
    def test_repro_jobs_env_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_workers() == 3
        assert SweepRunner().workers == 3

    def test_repro_jobs_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ValueError):
            default_workers()
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            default_workers()

    def test_default_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_workers() == (os.cpu_count() or 1)

    def test_explicit_jobs_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert SweepRunner(jobs=2).workers == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="wall-clock speedup needs a multicore machine",
)
class TestParallelSpeedup:
    def test_fig13_grid_faster_with_four_workers(self):
        jobs = sweep_jobs_13bc(0.02)

        def timed(workers: int) -> float:
            common.clear_cache()
            started = time.perf_counter()
            SweepRunner(jobs=workers).run(jobs)
            return time.perf_counter() - started

        # ABBA order: serial, parallel, parallel, serial. Host load that
        # drifts linearly over the test weighs both sums alike.
        serial_s = timed(1)
        parallel_s = timed(4) + timed(4)
        serial_s += timed(1)

        # Loose bound: any real pool on >=2 cores clears 0.8x easily.
        assert parallel_s < 0.8 * serial_s, (
            f"parallel {parallel_s:.2f}s not faster than serial {serial_s:.2f}s "
            "(sums of two runs each)"
        )
