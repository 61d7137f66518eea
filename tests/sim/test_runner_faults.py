"""Fault-injection battery for the sweep runner's robustness layer.

A production sweep must survive what multi-hour grids actually hit:
transient worker exceptions, hung jobs, and hard worker crashes
(``BrokenProcessPool``). These tests drive every recovery path with a
deterministic ``REPRO_FAULT_SPEC``, set before the runner is built —
injected exceptions are retried and succeed, persistent failures become
terminal :class:`JobFailure` records instead of sweep aborts, a crashed
pool is rebuilt and the lost jobs re-submitted, and everything completed
before a crash survives via the disk cache.
"""

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.experiments.fig13_main import sweep_jobs_13bc
from repro.sim.runner import (
    FaultInjection,
    SweepAbort,
    SweepJob,
    SweepRunner,
    parse_fault_spec,
)

SCALE = 0.05
APPS = ("ATAX", "SRAD", "GUPS")


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Memory-only cache, no inherited fault env."""

    monkeypatch.setattr(common, "_CACHE_DIR", "")
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    common.clear_cache()
    yield
    common.clear_cache()


def grid(apps=APPS, scheme=TxScheme.BASELINE, scale=SCALE):
    return [SweepJob(app, table1_config(scheme), scale) for app in apps]


class TestFaultSpecParsing:
    def test_single_rule(self):
        fault = parse_fault_spec("ATAX:*:exc")
        (rule,) = fault.rules
        assert (rule.app, rule.scheme, rule.kind) == ("ATAX", "*", "exc")
        assert rule.max_attempt is None

    def test_max_attempt_suffix(self):
        fault = parse_fault_spec("ATAX:baseline:exc@2")
        assert fault.rules[0].max_attempt == 2

    def test_hang_seconds(self):
        fault = parse_fault_spec("*:*:hang:1.5")
        assert fault.rules[0].kind == "hang"
        assert fault.rules[0].arg == 1.5

    def test_multiple_rules(self):
        fault = parse_fault_spec("ATAX:*:exc@1;GUPS:lds:crash")
        assert [r.kind for r in fault.rules] == ["exc", "crash"]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault_spec("ATAX:exc")
        with pytest.raises(ValueError):
            parse_fault_spec("ATAX:*:explode")
        with pytest.raises(ValueError):
            parse_fault_spec("  ;  ")

    def test_exc_rule_raises_on_matching_attempt_only(self):
        fault = parse_fault_spec("ATAX:*:exc@1")
        job = SweepJob("ATAX", table1_config(), SCALE)
        with pytest.raises(FaultInjection):
            fault(job, 1)
        fault(job, 2)  # retry attempt: no fault
        fault(SweepJob("SRAD", table1_config(), SCALE), 1)  # other app: no fault


class TestRetries:
    def test_transient_exception_retried_then_succeeds_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc@1")
        runner = SweepRunner(jobs=2, max_retries=2)
        results, report = runner.run_with_report(grid())
        assert all(r is not None for r in results)
        assert [r.app_name for r in results] == list(APPS)
        assert report.failures == []
        assert report.retries >= 1
        assert "retr" in report.summary()

    def test_transient_exception_retried_then_succeeds_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc@1")
        runner = SweepRunner(jobs=1, max_retries=2)
        results, report = runner.run_with_report(grid())
        assert all(r is not None for r in results)
        assert report.failures == []
        assert report.retries == 1

    def test_persistent_failure_recorded_not_fatal(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        runner = SweepRunner(jobs=2, max_retries=1, keep_going=True)
        results, report = runner.run_with_report(grid())
        assert results[0] is None  # ATAX slot
        assert results[1] is not None and results[2] is not None
        (failure,) = report.failures
        assert failure.app_name == "ATAX"
        assert failure.disposition == "exception"
        assert failure.attempts == 2  # first try + one retry
        assert "injected exception" in failure.error
        assert "1 FAILED" in report.summary()
        assert any("ATAX" in line for line in report.failure_lines())

    def test_abort_without_keep_going_preserves_completed_work(self, monkeypatch):
        # Serial keeps the order deterministic: SRAD completes, ATAX aborts.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        runner = SweepRunner(jobs=1, max_retries=0, keep_going=False)
        jobs = grid(apps=("SRAD", "ATAX", "GUPS"))
        with pytest.raises(SweepAbort) as excinfo:
            runner.run_with_report(jobs)
        assert excinfo.value.failure.app_name == "ATAX"
        assert excinfo.value.report.failures == [excinfo.value.failure]
        # SRAD finished before the abort and was absorbed into the cache.
        assert jobs[0].key() in common._CACHE
        assert "ATAX" in str(excinfo.value)

    def test_abort_counts_only_the_jobs_that_ran(self, monkeypatch):
        # An ``exc`` fault on the second of three serial jobs: the first
        # ran, the second failed and the third never started.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        runner = SweepRunner(jobs=1, max_retries=0, keep_going=False)
        with pytest.raises(SweepAbort) as excinfo:
            runner.run_with_report(grid(apps=("SRAD", "ATAX", "GUPS")))
        assert excinfo.value.report.jobs_simulated == 1

    def test_keep_going_does_not_count_failed_jobs_as_simulated(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        runner = SweepRunner(jobs=1, max_retries=0, keep_going=True)
        _, report = runner.run_with_report(grid())
        assert len(report.failures) == 1
        assert report.jobs_simulated == 2

    def test_failure_log_drained_for_report_module(self, monkeypatch):
        """The report module reads terminal failures off each sweep's own
        report (carried on ``ExperimentResult.sweep_report``): every run's
        report lists exactly that run's failures, none from earlier runs."""

        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        runner = SweepRunner(jobs=1, max_retries=0, keep_going=True)
        for _ in range(2):
            _, report = runner.run_with_report(grid())
            assert [f.app_name for f in report.failures] == ["ATAX"]


class TestCrashRecovery:
    def test_broken_pool_mid_sweep_completes_remaining(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash@1")
        runner = SweepRunner(jobs=2, max_retries=2, keep_going=True)
        results, report = runner.run_with_report(grid())
        assert all(r is not None for r in results)
        assert report.failures == []
        assert report.retries >= 1

    def test_persistent_crash_is_one_terminal_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash")
        runner = SweepRunner(jobs=2, max_retries=1, keep_going=True)
        results, report = runner.run_with_report(grid())
        assert results[0] is None
        assert results[1] is not None and results[2] is not None
        (failure,) = report.failures
        assert failure.app_name == "ATAX"
        assert failure.disposition == "crash"

    def test_completed_results_survive_crash_via_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash")
        crashed = SweepRunner(jobs=2, max_retries=0, keep_going=True)
        _, first = crashed.run_with_report(grid())
        assert len(first.failures) == 1
        monkeypatch.delenv("REPRO_FAULT_SPEC")

        # A fresh process would start with an empty in-process cache: the
        # two completed jobs must come back from disk, only ATAX re-runs.
        common.clear_cache()
        results, second = SweepRunner(jobs=2).run_with_report(grid())
        assert all(r is not None for r in results)
        assert second.cache_hits == 2
        assert second.jobs_simulated == 1


class TestTimeout:
    def test_hung_job_times_out_with_terminal_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:hang:4")
        runner = SweepRunner(jobs=2, timeout=1.5, max_retries=0, keep_going=True)
        results, report = runner.run_with_report(grid(scale=0.02))
        assert results[0] is None
        assert results[1] is not None and results[2] is not None
        (failure,) = report.failures
        assert failure.app_name == "ATAX"
        assert failure.disposition == "timeout"
        assert "timeout" in failure.error

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=1, timeout=0)
        with pytest.raises(ValueError):
            SweepRunner(jobs=1, max_retries=-1)


class TestEnvConfiguration:
    def test_fault_spec_env_is_picked_up(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc@1")
        runner = SweepRunner(jobs=2, max_retries=1)
        results, report = runner.run_with_report(grid())
        assert all(r is not None for r in results)
        assert report.retries >= 1
        assert report.failures == []

    def test_spec_crash_demoted_in_serial_parent(self, monkeypatch):
        # A crash rule must never kill the parent process: the serial
        # path demotes it to an exception (and therefore to a failure
        # record), keeping pytest — and real sweeps — alive.
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash")
        runner = SweepRunner(jobs=1, max_retries=0, keep_going=True)
        results, report = runner.run_with_report(grid())
        assert results[0] is None
        (failure,) = report.failures
        assert failure.disposition == "exception"
        assert "demoted" in failure.error


class TestFig13GridAcceptance:
    def test_one_persistent_crasher_leaves_exactly_one_gap(self, monkeypatch):
        # The acceptance grid: every Figure 13b/c job, with the
        # ATAX/icache+lds cell crashing its worker on every attempt.
        jobs = sweep_jobs_13bc(0.02)
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:icache+lds:crash")
        runner = SweepRunner(jobs=2, max_retries=1, keep_going=True)
        results, report = runner.run_with_report(jobs)

        failed_key = common.cache_key(
            "ATAX", table1_config(TxScheme.ICACHE_LDS), 0.02
        )
        (failure,) = report.failures
        assert failure.key == failed_key
        assert failure.disposition == "crash"

        assert len(results) == len(jobs)
        for job, result in zip(jobs, results):
            if job.key() == failed_key:
                assert result is None
            else:
                # Submission order is preserved around the gap.
                assert result is not None
                assert result.app_name == job.app_name
                assert result.scheme == job.config.scheme.value
