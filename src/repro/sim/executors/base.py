"""The pluggable executor contract :class:`~repro.sim.runner.SweepRunner`
drives.

An executor owns *where* simulation attempts run — in-process, on a local
process pool (private per sweep, or the service's shared one), or on
remote worker processes — while the runner keeps owning *what* runs:
dedup, immediate retries, per-job timeouts, crash attribution, report
assembly, and every read and write of the result store. Every backend
runs the same attempt, :func:`~repro.sim.runner.run_attempt`, which only
simulates, and one collection loop drives them all:

- :meth:`acquire` prepares the backend for one sweep (a shared pool takes
  its lease here) and :meth:`close` ends it (releasing the lease).
- :meth:`submit` returns a ``concurrent.futures.Future``; the runner
  collects with ``wait(FIRST_COMPLETED)`` regardless of backend.
- A dead execution context — crashed pool worker, disconnected remote
  worker — surfaces as ``BrokenProcessPool`` (raised by ``submit`` or set
  on the in-flight future), so crash handling is identical everywhere.
- :meth:`recycle` discards the broken context and any stale in-flight
  work; the runner re-queues what it had in flight and re-submits.
- :meth:`run_isolated` is the crash-attribution fallback: run one job in
  the most isolated context the backend can offer and let the exception
  type name the disposition.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Optional

from repro.sim.runner import SpecFault, SweepJob, WorkerOutcome

#: The ``REPRO_FAULT_SPEC`` hook the runner sends with every attempt.
FaultHook = Optional[SpecFault]


class SweepExecutor:
    """Abstract backend executing simulation attempts for one sweep."""

    def acquire(self, workers: int) -> int:
        """Prepare the backend for a sweep that wants up to ``workers``
        concurrent attempts; returns the width the runner may actually
        keep in flight. A backend may cap below the ask, or exceed it
        when the ask reflects local capacity that does not apply (the
        remote backend uses its connected worker count)."""

        raise NotImplementedError

    def submit(
        self, job: SweepJob, attempt: int, fault: FaultHook
    ) -> "Future[WorkerOutcome]":
        """Start one :func:`~repro.sim.runner.run_attempt` of ``job``;
        the future resolves to its
        :class:`~repro.sim.runner.WorkerOutcome` or raises. May raise
        ``BrokenProcessPool``/``RuntimeError`` when the backend is broken
        at submission time (the runner recycles and re-submits)."""

        raise NotImplementedError

    def recycle(self, reason: str) -> None:
        """The execution context broke (crash, hang): replace it. Work
        still in flight is stale — late results must be dropped, not
        delivered against re-submitted attempts. Nothing to replace by
        default."""

    def close(self, dirty: bool = False) -> None:
        """The sweep is over. ``dirty=True`` means futures may still be
        in flight (the sweep aborted mid-run); a backend that reuses
        contexts across sweeps must not lease that context again."""

    def run_isolated(
        self,
        job: SweepJob,
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        """Crash-attribution fallback: run ``job`` in the most isolated
        context available and block for the outcome. Raises
        ``BrokenProcessPool`` (the job really does kill its executor —
        disposition ``"crash"``), ``concurrent.futures.TimeoutError``
        (disposition ``"timeout"``), or the job's own exception. By
        default one plain attempt through :meth:`submit`."""

        return self.submit(job, attempt, fault).result(timeout=timeout)
