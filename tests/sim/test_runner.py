"""Determinism and equivalence battery for the parallel sweep runner.

The runner is only safe to ship if a parallel sweep is *indistinguishable*
from the serial path: byte-identical results, submission order preserved,
and no job simulated more than once. These tests pin all three down.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.experiments.fig13_main import sweep_jobs_13bc
from repro.sim.executors.local import SerialExecutor
from repro.sim.runner import (
    JobTiming,
    SweepJob,
    SweepReport,
    SweepRunner,
    default_workers,
    run_attempt,
)
from repro.sim.stats import _percentile as stats_percentile
from repro.sim.store import COUNTER_NAMES, counters_delta, counters_snapshot

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
        assert report.jobs_submitted - report.unique_jobs == 2 * len(base)
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


def _memo_state():
    """The executing process's memo size and cache-dir knob."""

    return len(common._CACHE), common._CACHE_DIR


class TestAttempt:
    def test_attempt_leaves_memo_and_cache_dir_unchanged(self, tmp_path, monkeypatch):
        """An attempt only simulates: it neither memoizes its result nor
        touches the process-default store, even when one is configured,
        so long-lived workers keep nothing and need no store."""

        default_dir = str(tmp_path / "default")
        monkeypatch.setattr(common, "_CACHE_DIR", default_dir)
        marker = object()
        common._CACHE["unrelated"] = marker
        job = small_grid()[0]
        before = counters_snapshot()

        first = run_attempt(job, 1, None)
        second = run_attempt(job, 2, None)

        assert second.result is not first.result  # simulated twice
        assert common.result_fingerprint(second.result) == (
            common.result_fingerprint(first.result)
        )
        assert common._CACHE == {"unrelated": marker}
        assert not os.path.exists(default_dir)
        assert counters_delta(before) == dict.fromkeys(COUNTER_NAMES, 0)

    def test_long_lived_pool_worker_keeps_no_results(self):
        job = small_grid()[0]
        with ProcessPoolExecutor(max_workers=1) as pool:
            before = pool.submit(_memo_state).result()
            pool.submit(run_attempt, job, 1, None).result()
            pool.submit(run_attempt, job, 2, None).result()
            assert pool.submit(_memo_state).result() == before


class BreaksOnFirstSubmit(SerialExecutor):
    """A serial executor whose first ``submit`` finds it broken."""

    def __init__(self):
        self.submits = 0
        self.recycles = []

    def submit(self, job, attempt, fault):
        self.submits += 1
        if self.submits == 1:
            raise BrokenProcessPool("broken before the first submit")
        return super().submit(job, attempt, fault)

    def recycle(self, reason):
        self.recycles.append(reason)


class TestSubmitFailure:
    def test_broken_submit_is_recycled_and_resubmitted(self):
        # A job the executor never accepted spent no attempt.
        executor = BreaksOnFirstSubmit()
        results, report = SweepRunner(executor=executor).run_with_report(
            small_grid()[:2]
        )
        assert all(r is not None for r in results)
        assert [t.attempts for t in report.timings] == [1, 1]
        assert report.retries == 0
        assert executor.recycles == ["executor broke on submit"]


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

    @pytest.mark.parametrize(
        "executor, jobs, pending, warm, width",
        [
            ("serial", 2, 3, False, 1),
            ("pool", 4, 2, False, 2),
            ("pool", 2, 2, True, 0),
        ],
        ids=["serial-executor", "pool-wider-than-pending", "warm-rerun"],
    )
    def test_workers_is_the_width_that_ran(self, executor, jobs, pending, warm, width):
        """The report records the width the executor granted, not the
        width asked for, and 0 when every job was a cache hit."""

        grid = small_grid()[:pending]
        runner = SweepRunner(jobs=jobs, executor=executor)
        if warm:
            runner.run(grid)
        _, report = runner.run_with_report(grid)
        assert report.workers == width
        assert f"on {width} worker(s)" in report.summary()

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
