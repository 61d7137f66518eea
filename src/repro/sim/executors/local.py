"""Local executor backends: in-process serial and process pool.

:class:`SerialExecutor` runs every attempt inline in the runner's own
process — no pool, no pickling, pdb/coverage/profiling-friendly — and
:class:`PoolExecutor` runs them on a private ``ProcessPoolExecutor``
built for one sweep and torn down after it (the service's
:class:`~repro.service.executor.SharedProcessPool` is the same backend
with a pool that outlives sweeps). Both run the one attempt function,
:func:`~repro.sim.runner.run_attempt`, so they produce byte-identical
results to each other and to the remote backend.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Optional

from repro.sim.executors.base import FaultHook, SweepExecutor
from repro.sim.runner import SweepJob, WorkerOutcome, run_attempt
from repro.sim.store import ResultStore


class SerialExecutor(SweepExecutor):
    """Everything inline, width 1. ``submit`` runs the attempt before
    returning, so the returned future is always already resolved; the
    runner's collection loop degenerates to one attempt at a time, and a
    per-job timeout cannot preempt it.

    An injected ``crash`` fault is demoted to an exception by
    :class:`~repro.sim.runner.SpecFault`'s parent-pid guard rather than
    killing the sweep (there is no worker process to sacrifice), and the
    isolation fallback is one more inline attempt.
    """

    name = "serial"

    def acquire(self, workers: int) -> int:
        return 1

    def submit(
        self,
        job: SweepJob,
        store: Optional[ResultStore],
        attempt: int,
        fault: FaultHook,
    ) -> "Future[WorkerOutcome]":
        future: "Future[WorkerOutcome]" = Future()
        try:
            future.set_result(run_attempt(job, store, attempt, fault))
        except Exception as error:
            future.set_exception(error)
        return future


class PoolExecutor(SweepExecutor):
    """A local process pool: by default a private one, built by
    :meth:`acquire` at the sweep's width and shut down by :meth:`close`."""

    name = "pool"

    def __init__(self) -> None:
        self.max_workers = 0
        self._pool: Optional[ProcessPoolExecutor] = None

    def acquire(self, workers: int) -> int:
        self.max_workers = workers
        self._pool = ProcessPoolExecutor(max_workers=workers)
        return workers

    def submit(
        self,
        job: SweepJob,
        store: Optional[ResultStore],
        attempt: int,
        fault: FaultHook,
    ) -> "Future[WorkerOutcome]":
        pool = self._pool
        if pool is None:
            raise RuntimeError("the pool executor is closed")
        return pool.submit(run_attempt, job, store, attempt, fault)

    def recycle(self, reason: str) -> None:
        self._discard()
        self._pool = ProcessPoolExecutor(max_workers=self.max_workers)

    def close(self, dirty: bool = False) -> None:
        self._discard()

    def _discard(self) -> None:
        # Abandon, never join: a crashed or wedged pool cannot be reclaimed.
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def run_isolated(
        self,
        job: SweepJob,
        store: Optional[ResultStore],
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        # A fresh single-worker pool, independent of the sweep's: if the
        # job kills even its private pool it is the culprit.
        solo = ProcessPoolExecutor(max_workers=1)
        try:
            future = solo.submit(run_attempt, job, store, attempt, fault)
            return future.result(timeout=timeout)
        finally:
            solo.shutdown(wait=False, cancel_futures=True)
