"""Remote executor backend: stdlib-socket workers pulling from a coordinator.

Topology — one :class:`Coordinator` in the sweep process, N ``repro
worker --connect HOST:PORT`` processes (any host that can reach the
coordinator):

    SweepRunner ── RemoteExecutor ── Coordinator ══socket══ worker pull loop
                                                            └─ run_attempt(...)

Protocol: length-prefixed pickles (4-byte big-endian size, then a
pickled tuple) over one long-lived TCP connection per worker:

    worker → ("hello", PROTOCOL_VERSION, {"pid": ..., "host": ...})
    coord  → ("refused", PROTOCOL_VERSION, reason)   (a bad hello; then closes)
    coord  → ("job", task_id, job, attempt, fault)
    worker → ("ok", task_id, WorkerOutcome) | ("err", task_id, exception)
    coord  → ("shutdown",)

Workers *pull*: each connection's handler thread hands out the next
queued task only when that worker is idle, so a slow host never queues
work a fast host could take.

Fault semantics match the local pool byte-for-byte at the runner level:

- A worker that disconnects mid-job surfaces as ``BrokenProcessPool`` on
  the in-flight future — exactly what a crashed pool worker raises — so
  the runner's crash retry / isolation / attribution machinery is
  unchanged.
- :meth:`RemoteExecutor.recycle` drops all queued and in-flight tasks
  (matching the pool's recycle, which abandons the whole pool): the
  runner re-queues what it had in flight, and any late result from a
  worker that was still computing a dropped task is discarded by
  ``task_id`` (``stale_results`` counter), never delivered twice.
- Per-job timeouts are enforced by the runner from submission time, so
  the executor caps in-flight width at the number of *connected* workers
  — a task never burns its timeout budget sitting in the coordinator
  queue behind other tasks.

Results and the store: workers run the one attempt function,
:func:`~repro.sim.runner.run_attempt`, like every other backend, and it
only simulates. The runner looks each job up in the store before it
submits it and writes each result when it arrives, in its own process,
so a worker host needs no access to the store, and the sweep's store
counters are all the runner's. A result that a worker finishes after its
runner has died or raised is not written. Workers keep no results in
memory between jobs.
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from itertools import count as _counter
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.executors.base import FaultHook, SweepExecutor
from repro.sim.runner import SweepJob, WorkerOutcome, run_attempt

#: Bump whenever a message or a type it pickles changes shape, so a worker
#: running other code is refused at hello instead of unpacking a job wrongly.
PROTOCOL_VERSION = 4

#: Worker exit codes (the ``--respawn`` supervisor keys off these).
EXIT_CLEAN = 0          # shutdown message / coordinator gone: do not respawn
EXIT_PROTOCOL = 2       # coordinator spoke a different protocol
EXIT_CONNECT_FAILED = 3  # could not connect within the retry window

_LEN = struct.Struct(">I")
_MAX_MSG_BYTES = 256 * 1024 * 1024


class ProtocolError(RuntimeError):
    """The peer sent something that is not a valid protocol message."""


def _send_msg(sock: socket.socket, message: Tuple) -> None:
    try:
        blob = pickle.dumps(message)
    except Exception as error:
        # Unpicklable payload (exotic exception object, say): degrade to
        # a picklable stand-in rather than wedging the connection.
        kind = message[0] if message else "?"
        task_id = message[1] if len(message) > 1 else None
        blob = pickle.dumps(
            ("err", task_id, RuntimeError(f"unpicklable {kind} payload: {error!r}"))
        )
    sock.sendall(_LEN.pack(len(blob)) + blob)


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_msg(sock: socket.socket) -> Tuple:
    (size,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if size > _MAX_MSG_BYTES:
        raise ProtocolError(f"message of {size} bytes exceeds the protocol limit")
    message = pickle.loads(_recv_exact(sock, size))
    if not isinstance(message, tuple) or not message:
        raise ProtocolError(f"expected a non-empty tuple, got {type(message).__name__}")
    return message


def parse_address(address: str) -> Tuple[str, int]:
    """``"HOST:PORT"`` → ``(host, port)`` (host defaults to 127.0.0.1). An
    IPv6 host may come bracketed (``[::1]:PORT``) or bare (``::1:PORT``)."""

    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(f"bad address {address!r}: want HOST:PORT")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    return host or "127.0.0.1", int(port)


class _RemoteTask:
    """One queued/in-flight attempt with the future the runner holds."""

    __slots__ = ("task_id", "payload", "future")

    def __init__(self, task_id: int, payload: Tuple) -> None:
        self.task_id = task_id
        self.payload = payload
        self.future: "Future[WorkerOutcome]" = Future()


class Coordinator:
    """Listens for workers, queues tasks, routes results back to futures.

    Threads: one accept loop plus one handler per connected worker, all
    daemons. All shared state (task queue, live-task table, worker
    registry, counters) is guarded by one condition variable.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self._sock = socket.create_server((host, port), family=family)
        self._sock.settimeout(0.2)  # lets the accept loop observe close()
        bound = self._sock.getsockname()
        self.host, self.port = bound[0], bound[1]
        # An IPv6 literal goes in brackets, so that parse_address reads it.
        bracketed = f"[{self.host}]" if ":" in self.host else self.host
        self.address = f"{bracketed}:{self.port}"
        self._cond = threading.Condition()
        self._queue: Deque[_RemoteTask] = deque()
        self._live: Dict[int, _RemoteTask] = {}
        self._workers: Dict[int, Dict] = {}
        self._closed = False
        self._task_ids = _counter(1)
        self._worker_ids = _counter(1)
        self.counters = {
            "workers_connected": 0,
            "workers_refused": 0,
            "workers_disconnected": 0,
            "tasks_dispatched": 0,
            "results_delivered": 0,
            "stale_results": 0,
            "recycles": 0,
        }
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- the executor-facing side ------------------------------------------

    def worker_count(self) -> int:
        with self._cond:
            return len(self._workers)

    def wait_for_workers(self, minimum: int, timeout_s: float) -> int:
        """Block until ``minimum`` workers are connected; returns the
        count, raising ``RuntimeError`` past ``timeout_s``."""

        deadline = time.monotonic() + timeout_s
        with self._cond:
            while len(self._workers) < minimum:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"only {len(self._workers)} of {minimum} remote worker(s) "
                        f"connected to {self.address} within {timeout_s:.0f}s; "
                        f"start workers with: repro worker --connect {self.address}"
                    )
                self._cond.wait(timeout=min(remaining, 0.5))
            return len(self._workers)

    def submit_task(
        self, job: SweepJob, attempt: int, fault: FaultHook
    ) -> _RemoteTask:
        with self._cond:
            if self._closed:
                raise RuntimeError("coordinator is closed")
            task = _RemoteTask(next(self._task_ids), (job, attempt, fault))
            self._live[task.task_id] = task
            self._queue.append(task)
            self._cond.notify_all()
        return task

    def drop_task(self, task: _RemoteTask) -> None:
        """Forget one task (timeout in ``run_isolated``): a late result
        for it is discarded as stale."""

        with self._cond:
            self._live.pop(task.task_id, None)
            try:
                self._queue.remove(task)
            except ValueError:
                pass

    def recycle(self, reason: str) -> None:
        """Drop every queued and in-flight task. The runner re-queues its
        in-flight entries and re-submits; results for dropped task ids
        that later arrive from still-healthy workers are discarded."""

        with self._cond:
            self._queue.clear()
            self._live.clear()
            self.counters["recycles"] += 1

    def close(self) -> None:
        """Stop accepting, tell idle workers to shut down, drop tasks."""

        with self._cond:
            self._closed = True
            self._queue.clear()
            self._live.clear()
            self._cond.notify_all()
        try:
            self._sock.close()
        except OSError:
            pass

    def stats(self) -> Dict:
        with self._cond:
            return {
                "address": self.address,
                "workers": len(self._workers),
                "queued": len(self._queue),
                "in_flight": len(self._live) - len(self._queue),
                **self.counters,
            }

    # -- socket side -------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._sock.accept()
            except socket.timeout:
                with self._cond:
                    if self._closed:
                        return
                continue
            except OSError:
                return  # socket closed
            threading.Thread(
                target=self._serve_worker,
                args=(conn,),
                name="repro-coordinator-worker",
                daemon=True,
            ).start()

    def _take_task(self) -> Optional[_RemoteTask]:
        with self._cond:
            while True:
                if self._closed:
                    return None
                while self._queue:
                    task = self._queue.popleft()
                    if self._live.get(task.task_id) is task:
                        return task
                    # Dropped (recycle) while queued: skip silently.
                self._cond.wait(timeout=0.5)

    def _serve_worker(self, conn: socket.socket) -> None:
        worker_id = None
        try:
            conn.settimeout(None)
            try:
                hello = _recv_msg(conn)
            except (OSError, EOFError, pickle.UnpicklingError, ProtocolError):
                return
            if hello[:2] != ("hello", PROTOCOL_VERSION):
                # Say why before hanging up, so a worker of another version
                # exits as a protocol failure instead of a finished one.
                with self._cond:
                    self.counters["workers_refused"] += 1
                try:
                    _send_msg(conn, (
                        "refused", PROTOCOL_VERSION,
                        f"expected ('hello', {PROTOCOL_VERSION}), got {hello[:2]!r}",
                    ))
                except OSError:
                    pass
                return
            with self._cond:
                worker_id = next(self._worker_ids)
                self._workers[worker_id] = dict(hello[2]) if len(hello) > 2 else {}
                self.counters["workers_connected"] += 1
                self._cond.notify_all()
            while True:
                task = self._take_task()
                if task is None:
                    try:
                        _send_msg(conn, ("shutdown",))
                    except OSError:
                        pass
                    return
                try:
                    _send_msg(conn, ("job", task.task_id) + task.payload)
                    with self._cond:
                        self.counters["tasks_dispatched"] += 1
                    reply = _recv_msg(conn)
                except (OSError, EOFError, pickle.UnpicklingError,
                        ProtocolError) as error:
                    self._worker_died(task, error)
                    return
                self._deliver(reply)
        finally:
            if worker_id is not None:
                with self._cond:
                    self._workers.pop(worker_id, None)
                    self.counters["workers_disconnected"] += 1
                    self._cond.notify_all()
            try:
                conn.close()
            except OSError:
                pass

    def _worker_died(self, task: _RemoteTask, error: Exception) -> None:
        """A worker vanished mid-job: the remote analogue of a crashed
        pool worker, surfaced as the same ``BrokenProcessPool``."""

        with self._cond:
            live = self._live.pop(task.task_id, None)
        if live is task:
            task.future.set_exception(
                BrokenProcessPool(
                    f"remote worker disconnected mid-job ({error!r})"
                )
            )
        else:
            with self._cond:
                self.counters["stale_results"] += 1

    def _deliver(self, reply: Tuple) -> None:
        if reply[0] not in ("ok", "err") or len(reply) < 3:
            raise ProtocolError(f"bad reply {reply[:1]!r}")
        task_id, payload = reply[1], reply[2]
        with self._cond:
            task = self._live.pop(task_id, None)
            if task is None:
                self.counters["stale_results"] += 1
                return
            self.counters["results_delivered"] += 1
        if reply[0] == "ok":
            task.future.set_result(payload)
        else:
            error = (
                payload
                if isinstance(payload, BaseException)
                else RuntimeError(str(payload))
            )
            task.future.set_exception(error)


class RemoteExecutor(SweepExecutor):
    """The remote backend the runner drives; owns one coordinator.

    ``close()`` closes the coordinator (which tells idle workers to shut
    down — under ``repro worker --respawn`` that ends the supervisor
    too), so one executor serves one sweep, mirroring the private pool's
    lifecycle.
    """

    def __init__(
        self,
        coordinator: Optional[Coordinator] = None,
        *,
        bind: str = "127.0.0.1:0",
        min_workers: int = 1,
        start_timeout_s: float = 120.0,
        width: Optional[int] = None,
    ) -> None:
        if min_workers < 1:
            raise ValueError(f"min_workers must be >= 1, got {min_workers}")
        if width is not None and width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        if not start_timeout_s > 0:  # NaN too
            raise ValueError(f"start_timeout_s must be > 0, got {start_timeout_s}")
        if coordinator is None:
            host, port = parse_address(bind)
            coordinator = Coordinator(host, port)
        self.coordinator = coordinator
        self.min_workers = min_workers
        self.start_timeout_s = start_timeout_s
        self.width = width

    def acquire(self, workers: int) -> int:
        connected = self.coordinator.wait_for_workers(
            self.min_workers, self.start_timeout_s
        )
        # The runner's ask is derived from the *local* core count, which
        # says nothing about remote capacity — the natural width is the
        # connected worker count (or the explicit ``width`` override),
        # capped at connected either way: per-job timeouts are measured
        # from submission, so work must never sit queued behind other
        # tasks burning its budget.
        width = self.width if self.width is not None else connected
        return max(1, min(width, connected))

    def submit(
        self, job: SweepJob, attempt: int, fault: FaultHook
    ) -> "Future[WorkerOutcome]":
        return self.coordinator.submit_task(job, attempt, fault).future

    def recycle(self, reason: str) -> None:
        self.coordinator.recycle(reason)

    def close(self, dirty: bool = False) -> None:
        self.coordinator.close()

    def run_isolated(
        self,
        job: SweepJob,
        attempt: int,
        fault: FaultHook,
        timeout: Optional[float],
    ) -> WorkerOutcome:
        # The strongest isolation the backend offers: the task runs alone
        # on whichever worker takes it; a disconnect during it raises
        # BrokenProcessPool here, naming the job the crash culprit.
        task = self.coordinator.submit_task(job, attempt, fault)
        try:
            return task.future.result(timeout=timeout)
        except BaseException:
            self.coordinator.drop_task(task)
            raise


# -- worker side (repro worker) ----------------------------------------------


def connect_with_retry(
    address: str, retry_s: float = 15.0
) -> Optional[socket.socket]:
    """Dial ``HOST:PORT``, retrying within ``retry_s`` (the coordinator
    may still be booting); ``None`` when the window closes."""

    host, port = parse_address(address)
    deadline = time.monotonic() + retry_s
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.2)


def worker_main(
    address: str,
    retry_s: float = 15.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """The ``repro worker --connect`` pull loop; returns an exit code.

    Runs jobs with the one attempt function (:func:`run_attempt`), which
    needs no store. An injected ``crash`` fault kills this process
    mid-job — the coordinator sees the disconnect and raises
    ``BrokenProcessPool``, same as a pool crash.
    """

    def _log(message: str) -> None:
        if log is not None:
            log(message)

    sock = connect_with_retry(address, retry_s)
    if sock is None:
        _log(f"[worker] could not connect to {address} within {retry_s:.0f}s")
        return EXIT_CONNECT_FAILED
    try:
        _send_msg(
            sock,
            ("hello", PROTOCOL_VERSION,
             {"pid": os.getpid(), "host": socket.gethostname()}),
        )
        _log(f"[worker] pid {os.getpid()} connected to {address}")
        while True:
            try:
                message = _recv_msg(sock)
            except (OSError, EOFError):
                _log("[worker] coordinator closed the connection; exiting")
                return EXIT_CLEAN
            except (pickle.UnpicklingError, ProtocolError) as error:
                _log(f"[worker] protocol error: {error!r}")
                return EXIT_PROTOCOL
            if message[0] == "shutdown":
                _log("[worker] shutdown requested; exiting")
                return EXIT_CLEAN
            if message[0] == "refused" and len(message) == 3:
                _log(
                    f"[worker] refused by a coordinator of protocol {message[1]!r} "
                    f"(this worker speaks {PROTOCOL_VERSION}): {message[2]}; exiting"
                )
                return EXIT_PROTOCOL
            if message[0] != "job" or len(message) != 5:
                _log(f"[worker] unexpected message {message[:1]!r}")
                return EXIT_PROTOCOL
            _kind, task_id, job, attempt, fault = message
            try:
                outcome = run_attempt(job, attempt, fault)
                reply: Tuple = ("ok", task_id, outcome)
            except BaseException as error:
                reply = ("err", task_id, error)
            try:
                _send_msg(sock, reply)
            except OSError:
                _log("[worker] coordinator went away mid-reply; exiting")
                return EXIT_CLEAN
            _log(
                f"[worker] {job.app_name} {job.config.scheme.value} "
                f"-> {reply[0]} (task {task_id})"
            )
    finally:
        try:
            sock.close()
        except OSError:
            pass


def supervise_worker(
    address: str,
    retry_s: float = 15.0,
    log: Optional[Callable[[str], None]] = None,
) -> int:
    """``repro worker --respawn``: re-exec the worker until it exits
    cleanly, so a crash fault (or a real simulator crash) costs one job,
    not the whole worker slot."""

    command = [
        sys.executable, "-m", "repro", "worker",
        "--connect", address, "--retry-s", str(retry_s),
    ]
    while True:
        returncode = subprocess.call(command)
        if returncode in (EXIT_CLEAN, EXIT_CONNECT_FAILED, EXIT_PROTOCOL):
            return returncode
        if log is not None:
            log(f"[worker] worker exited with {returncode}; respawning")


class WorkerFleet:
    """N local ``repro worker`` subprocesses (tests and the CI smoke).

    Workers connect to ``address`` and exit when the coordinator closes;
    :meth:`stop` reaps them (terminating stragglers). ``respawn=True``
    runs each worker under the supervisor so crash-fault tests keep their
    worker count.
    """

    def __init__(self, address: str, count: int = 2, respawn: bool = True) -> None:
        self.address = address
        self.count = count
        self.respawn = respawn
        self._procs: List[subprocess.Popen] = []

    def start(self) -> "WorkerFleet":
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        command = [sys.executable, "-m", "repro", "worker", "--connect", self.address]
        if self.respawn:
            command.append("--respawn")
        for _ in range(self.count):
            self._procs.append(
                subprocess.Popen(
                    command,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                    start_new_session=True,
                )
            )
        return self

    def stop(self, timeout_s: float = 20.0) -> None:
        deadline = time.monotonic() + timeout_s
        for proc in self._procs:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=5.0)
        self._procs.clear()

    def __enter__(self) -> "WorkerFleet":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
