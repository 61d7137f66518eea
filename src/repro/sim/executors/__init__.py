"""Pluggable sweep-executor backends.

:class:`~repro.sim.runner.SweepRunner` drives one
:class:`~repro.sim.executors.base.SweepExecutor` per sweep through one
collection loop; the backend decides where attempts execute, the runner
keeps dedup, retries, timeouts, crash attribution, reporting, and every
read and write of the result store. Every backend runs the same attempt
function, :func:`~repro.sim.runner.run_attempt`, which only simulates:

- ``serial`` (:class:`SerialExecutor`) — inline in the runner's process.
- ``pool`` (:class:`PoolExecutor`) — a private local ``ProcessPoolExecutor``
  per sweep; the service's
  :class:`~repro.service.executor.SharedProcessPool` is the same backend
  with one leased, long-lived pool. A pool that one worker or one pending
  job would use runs in-process instead.
- ``remote`` (:class:`RemoteExecutor`) — ``repro worker`` processes
  pulling jobs from a :class:`Coordinator` over stdlib sockets.

All of them produce byte-identical results for the same grid
(``tests/sim/test_executors.py`` enforces this on the fig13 smoke grid)
and share the runner's failure semantics.
"""

from repro.sim.executors.base import SweepExecutor
from repro.sim.executors.local import PoolExecutor, SerialExecutor
from repro.sim.executors.remote import (
    Coordinator,
    RemoteExecutor,
    WorkerFleet,
    worker_main,
)

__all__ = [
    "SweepExecutor",
    "SerialExecutor",
    "PoolExecutor",
    "RemoteExecutor",
    "Coordinator",
    "WorkerFleet",
    "worker_main",
]
