"""SharedProcessPool as the runner's pool executor: the lease after
shutdown, and the manager handing its pool to every runner explicitly."""

import os

import pytest

from repro.config import table1_config
from repro.service.executor import SharedProcessPool
from repro.service.manager import DONE, JobManager
from repro.sim.runner import SweepJob, SweepRunner

SCALE = 0.05


def grid(*apps):
    return [SweepJob(app, table1_config(), SCALE) for app in apps]


class TestShutdown:
    def test_lease_operations_raise_after_shutdown(self):
        pool = SharedProcessPool(max_workers=2)
        assert pool.acquire(2) == 2
        pool.shutdown()
        (job,) = grid("SRAD")
        for operation in (
            lambda: pool.submit(job, None, 1, None),
            lambda: pool.recycle("after shutdown"),
            lambda: pool.run_isolated(job, None, 1, None, 5.0),
            lambda: pool.acquire(2),
        ):
            with pytest.raises(RuntimeError, match="closed"):
                operation()
        pool.close()  # releasing never raises and never builds a pool
        stats = pool.stats()
        assert stats["alive"] is False
        assert (stats["pools_created"], stats["recycles"]) == (1, 0)

    def test_batch_running_at_shutdown_fails_without_a_new_pool(self):
        """``JobManager.close()`` may give up waiting for a running batch
        and shut the pool down under it. The runner's next submit then
        fails; the recycle that follows must raise, not build a fresh
        pool that nothing would ever shut down."""

        pool = SharedProcessPool(max_workers=2)

        def progress(line):
            # The first job is done, the lease is held, one job is queued.
            if "] 1/3 " in line:
                pool.shutdown()

        runner = SweepRunner(jobs=2, progress=progress, executor=pool)
        with pytest.raises(RuntimeError, match="closed"):
            runner.run(grid("SRAD", "ATAX", "GUPS"))
        stats = pool.stats()
        assert stats["alive"] is False
        assert (stats["pools_created"], stats["recycles"]) == (1, 0)


class TestManagerPool:
    def test_repro_executor_cannot_redirect_the_shared_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        with JobManager(workers=2) as manager:
            spec = {"apps": ["GUPS", "ATAX"], "schemes": ["baseline"],
                    "scale": SCALE}
            record, _ = manager.submit(spec)
            assert manager.wait(record.job_id, timeout=300) == DONE
            assert manager.pool.stats()["leases"] == 1
            pids = {timing.worker_pid for timing in record.report.timings}
            assert os.getpid() not in pids
