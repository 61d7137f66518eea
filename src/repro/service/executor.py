"""Shared process pool: one pool for every request, evicted when idle.

The service must not spawn a fresh :class:`ProcessPoolExecutor` per HTTP
request — pool start-up costs dominate small jobs and concurrent requests
would multiply resident worker processes. :class:`SharedProcessPool` is
the runner's ``pool`` executor backend with a single long-lived pool; the
manager hands it to every :class:`~repro.sim.runner.SweepRunner` as
``executor=``:

- **acquire** takes the lease: one sweep at a time (a second acquirer
  blocks until the lease is released), creating the pool lazily on first
  use. The effective in-flight cap is ``min(ask, max_workers)``.
- **recycle** replaces a broken pool (worker crash / hung job) without
  giving up the lease.
- **close** releases the lease and keeps the pool for the next sweep; a
  *dirty* close (the sweep aborted with futures still in flight) discards
  the pool instead, so the next lease starts clean.
- **evict_if_idle** shuts the pool down after ``idle_timeout_s`` seconds
  without a lease — the service stops holding worker processes (and their
  memory) across quiet periods, and transparently recreates the pool on
  the next request.
- **shutdown** is final: afterwards every lease operation raises and no
  pool is ever built again, so a batch still running when the service
  stops cannot carry on in fresh worker processes.

Like a private pool, the shared one follows the runner's width-1 rule: a
sweep that one worker or one pending job would use runs in-process and
never takes the lease.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Optional

from repro.sim.executors.base import FaultHook
from repro.sim.executors.local import PoolExecutor
from repro.sim.runner import SweepJob, WorkerOutcome, default_workers
from repro.sim.store import ResultStore

DEFAULT_IDLE_TIMEOUT_S = 60.0


class SharedProcessPool(PoolExecutor):
    """A pool executor whose pool outlives individual sweeps."""

    def __init__(
        self,
        max_workers: Optional[int] = None,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
    ) -> None:
        super().__init__()
        resolved = max_workers if max_workers is not None else default_workers()
        if resolved < 1:
            raise ValueError(f"max_workers must be >= 1, got {resolved}")
        if idle_timeout_s <= 0:
            raise ValueError(f"idle_timeout_s must be > 0, got {idle_timeout_s}")
        self.max_workers = resolved
        self.idle_timeout_s = idle_timeout_s
        self._cond = threading.Condition()
        self._leased = False
        self._last_release = time.monotonic()
        self._closed = False
        # Telemetry for /healthz.
        self._pools_created = 0
        self._leases = 0
        self._recycles = 0
        self._evictions = 0

    def _check_open(self) -> None:
        # Caller holds self._cond.
        if self._closed:
            raise RuntimeError("SharedProcessPool is closed")

    # -- SweepExecutor contract ----------------------------------------------

    def acquire(self, workers: int) -> int:
        with self._cond:
            while self._leased and not self._closed:
                self._cond.wait()
            self._check_open()
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
                self._pools_created += 1
            self._leased = True
            self._leases += 1
            return min(workers, self.max_workers)

    def recycle(self, reason: str) -> None:
        with self._cond:
            self._check_open()
            super().recycle(reason)
            self._recycles += 1

    def close(self, dirty: bool = False) -> None:
        # Never raises, even after shutdown: it runs in the runner's
        # ``finally`` and must not mask the error that ended the sweep.
        with self._cond:
            if dirty:
                # Futures may still be running in there; never lease a
                # polluted pool to the next sweep.
                self._discard()
            self._leased = False
            self._last_release = time.monotonic()
            self._cond.notify_all()

    def run_isolated(
        self,
        job: SweepJob,
        store: Optional[ResultStore],
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        with self._cond:
            self._check_open()
        return super().run_isolated(job, store, attempt, fault, timeout)

    # -- idle eviction / lifecycle -----------------------------------------

    def evict_if_idle(self, now: Optional[float] = None) -> bool:
        """Shut the pool down if it has been un-leased for the idle window.

        Returns ``True`` when an eviction happened. Cheap to call often —
        the manager's executor loop polls it between queue waits.
        """

        with self._cond:
            if self._pool is None or self._leased:
                return False
            now = time.monotonic() if now is None else now
            if now - self._last_release < self.idle_timeout_s:
                return False
            self._discard()
            self._evictions += 1
            return True

    def shutdown(self) -> None:
        """Tear everything down for good: every later :meth:`acquire`,
        :meth:`submit`, :meth:`recycle` and :meth:`run_isolated` raises
        ``RuntimeError`` and no pool is ever created again."""

        with self._cond:
            self._closed = True
            self._discard()
            self._cond.notify_all()

    def stats(self) -> Dict:
        """Pool telemetry for ``GET /healthz``."""

        with self._cond:
            return {
                "alive": self._pool is not None,
                "leased": self._leased,
                "max_workers": self.max_workers,
                "idle_timeout_s": self.idle_timeout_s,
                "pools_created": self._pools_created,
                "leases": self._leases,
                "recycles": self._recycles,
                "evictions": self._evictions,
            }
