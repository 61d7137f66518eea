"""Cross-backend battery for the pluggable sweep executors.

The runner promises identical semantics regardless of where attempts
execute — in-process (``serial``), on a local process pool (``pool``),
or on ``repro worker`` processes pulling from a coordinator (``remote``).
These tests pin that promise: byte-identical results on the fig13 smoke
grid with all backends sharing one content-addressed store (the PR's
acceptance criterion), identical ``JobFailure`` records and
``--keep-going`` placeholders under injected faults, and the remote
protocol's failure edges (worker disconnect == ``BrokenProcessPool``,
stale-result discard after recycle, clean shutdown codes).

Remote integration tests spawn real ``python -m repro worker``
subprocesses via :class:`WorkerFleet`; protocol unit tests drive the
coordinator with a fake in-test worker socket instead, so every edge is
exercised without process-start latency.
"""

import contextlib
import socket
import threading
import time
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config import table1_config
from repro.experiments import common
from repro.experiments.fig13_main import sweep_jobs_13bc
from repro.sim.executors import (
    Coordinator,
    PoolExecutor,
    RemoteExecutor,
    SerialExecutor,
    WorkerFleet,
)
from repro.sim.executors.remote import (
    EXIT_CLEAN,
    EXIT_CONNECT_FAILED,
    EXIT_PROTOCOL,
    PROTOCOL_VERSION,
    _recv_msg,
    _send_msg,
    parse_address,
    worker_main,
)
from repro.sim.runner import EXECUTOR_NAMES, SweepJob, SweepRunner
from repro.sim.store import COUNTER_NAMES, ResultStore

SCALE = 0.05
APPS = ("ATAX", "SRAD", "GUPS")
BACKENDS = ("serial", "pool", "remote")


@pytest.fixture(autouse=True)
def _isolated(monkeypatch):
    """Memory-only cache, no inherited fault env."""

    monkeypatch.setattr(common, "_CACHE_DIR", "")
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    common.clear_cache()
    yield
    common.clear_cache()


def grid(apps=APPS, scale=SCALE):
    return [SweepJob(app, table1_config(), scale) for app in apps]


@contextlib.contextmanager
def backend_executor(backend, workers=2, respawn=True, host="127.0.0.1"):
    """The ``executor=`` argument for one sweep on ``backend``.

    ``serial``/``pool`` are plain selector strings; ``remote`` boots a
    coordinator plus a real worker fleet and tears both down afterwards.
    """

    if backend != "remote":
        yield backend
        return
    coordinator = Coordinator(host, 0)
    fleet = WorkerFleet(coordinator.address, count=workers, respawn=respawn)
    fleet.start()
    try:
        yield RemoteExecutor(
            coordinator, min_workers=workers, start_timeout_s=90.0
        )
    finally:
        coordinator.close()
        fleet.stop()


class TestExecutorSelection:
    def test_names(self):
        assert EXECUTOR_NAMES == ("serial", "pool", "remote")

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="serial/pool/remote"):
            SweepRunner(executor="threads")

    def test_remote_string_needs_coordinator(self):
        with pytest.raises(ValueError, match="coordinator"):
            SweepRunner(executor="remote")

    def test_default_is_pool(self):
        assert SweepRunner().executor == "pool"

    def test_serial_name_and_one_worker_pool_bypass_executors(self):
        # The historical fast paths survive: the "serial" selector, a
        # one-worker pool and a one-job pool all run in-process, with no
        # pool built.
        assert isinstance(
            SweepRunner(executor="serial")._executor_for(5), SerialExecutor
        )
        assert isinstance(SweepRunner(jobs=1)._executor_for(5), SerialExecutor)
        assert isinstance(SweepRunner(jobs=2)._executor_for(1), SerialExecutor)
        resolved = SweepRunner(jobs=2)._executor_for(5)
        assert isinstance(resolved, PoolExecutor)

    def test_explicit_instance_used_verbatim(self):
        instance = SerialExecutor()
        assert SweepRunner(executor=instance)._executor_for(5) is instance

    def test_serial_instance_matches_serial_name(self):
        # The SerialExecutor instance and the "serial" name select the
        # same backend through different doors — results must be
        # byte-identical.
        jobs = grid(apps=("ATAX", "GUPS"))
        by_name, _ = SweepRunner(executor="serial").run_with_report(jobs)
        common.clear_cache()
        by_instance, _ = SweepRunner(executor=SerialExecutor()).run_with_report(
            jobs
        )
        assert [common.result_fingerprint(r) for r in by_name] == [
            common.result_fingerprint(r) for r in by_instance
        ]


class TestCrossBackendFaults:
    def test_exception_fault_identical_records_and_placeholders(self, monkeypatch):
        """The same persistent exception fault must leave identical
        ``JobFailure`` records and identical ``--keep-going`` ``None``
        placeholders on every backend."""

        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc")
        observed = {}
        for backend in BACKENDS:
            common.clear_cache()
            with backend_executor(backend) as executor:
                runner = SweepRunner(
                    jobs=2, executor=executor, max_retries=1, keep_going=True
                )
                results, report = runner.run_with_report(grid())
            observed[backend] = {
                "placeholders": [r is None for r in results],
                "failures": [
                    (f.key, f.app_name, f.scheme, f.attempts, f.disposition,
                     f.error)
                    for f in report.failures
                ],
            }

        assert observed["serial"] == observed["pool"] == observed["remote"]
        assert observed["serial"]["placeholders"] == [True, False, False]
        ((key, app, scheme, attempts, disposition, error),) = observed[
            "serial"
        ]["failures"]
        assert app == "ATAX" and scheme == "baseline"
        assert disposition == "exception"
        assert attempts == 2  # first try + one retry, on every backend
        assert "injected exception" in error

    def test_crash_fault_identical_on_pool_and_remote(self, monkeypatch):
        """A worker-killing fault must resolve to the same terminal
        ``"crash"`` record on both process-backed backends (serial demotes
        crashes to exceptions by design — there is no worker to kill)."""

        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:crash")
        observed = {}
        for backend in ("pool", "remote"):
            common.clear_cache()
            with backend_executor(backend) as executor:
                runner = SweepRunner(
                    jobs=2, executor=executor, max_retries=1, keep_going=True
                )
                results, report = runner.run_with_report(grid())
            observed[backend] = {
                "placeholders": [r is None for r in results],
                "failures": [
                    (f.key, f.app_name, f.scheme, f.attempts, f.disposition)
                    for f in report.failures
                ],
            }

        assert observed["pool"] == observed["remote"]
        assert observed["pool"]["placeholders"] == [True, False, False]
        ((_key, app, _scheme, _attempts, disposition),) = observed["pool"][
            "failures"
        ]
        assert app == "ATAX" and disposition == "crash"

    def test_transient_exception_retried_on_remote(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "ATAX:*:exc@1")
        with backend_executor("remote") as executor:
            runner = SweepRunner(jobs=2, executor=executor, max_retries=2)
            results, report = runner.run_with_report(grid())
        assert all(r is not None for r in results)
        assert report.failures == []
        assert report.retries >= 1


class TestByteIdentityAcceptance:
    def test_fig13_smoke_grid_identical_across_backends_sharing_store(
        self, tmp_path, monkeypatch
    ):
        """The acceptance criterion: the fig13 smoke grid produces
        byte-identical result fingerprints on serial, pool, and remote,
        with all three sharing one content-addressed store."""

        store_dir = str(tmp_path / "store")
        monkeypatch.setattr(common, "_CACHE_DIR", store_dir)
        jobs = sweep_jobs_13bc(SCALE)

        # Cold store, remote backend: two worker processes populate it.
        with backend_executor("remote") as executor:
            remote_results, remote_report = SweepRunner(
                jobs=2, executor=executor
            ).run_with_report(jobs)
        assert remote_report.failures == []
        store = ResultStore(store_dir)
        fingerprints = store.verify(fingerprints=True)
        assert fingerprints["checked"] == len(jobs)
        assert fingerprints["ok"] == len(jobs)

        # Warm store, pool backend: every job is a disk hit — the remote
        # workers' entries are readable verbatim by the local pool path.
        common.clear_cache()
        pool_results, pool_report = SweepRunner(jobs=2).run_with_report(jobs)
        assert pool_report.cache_hits == len(jobs)
        assert pool_report.store["hits"] == len(jobs)

        # Fresh compute, serial backend, no store and an empty memo: the
        # ground truth the stored entries must match byte-for-byte.
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        common.clear_cache()
        serial_results, serial_report = SweepRunner(
            executor="serial"
        ).run_with_report(jobs)
        assert serial_report.cache_hits == 0

        remote_fps = [common.result_fingerprint(r) for r in remote_results]
        pool_fps = [common.result_fingerprint(r) for r in pool_results]
        serial_fps = [common.result_fingerprint(r) for r in serial_results]
        assert remote_fps == pool_fps == serial_fps

        # And the shared store itself is clean.
        outcome = store.verify()
        assert outcome["corrupt"] == [] and outcome["stale"] == []


class TestOneReaderOneWriter:
    """Only the runner's process reads or writes the store, so a sweep's
    store counters count each lookup and each write once, on every
    backend."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_then_warm_store_counters(self, backend, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path / "store"))
        jobs = grid() + grid()  # a duplicate is looked up once
        unique = len(APPS)
        none = dict.fromkeys(COUNTER_NAMES, 0)

        with backend_executor(backend) as executor:
            runner = SweepRunner(jobs=2, executor=executor)
            _, cold = runner.run_with_report(jobs)
            common.clear_cache()  # the warm run must read the store
            _, warm = runner.run_with_report(jobs)

        assert cold.jobs_simulated == unique
        assert cold.store == {**none, "misses": unique, "stores": unique}
        assert warm.cache_hits == unique
        assert warm.store == {**none, "hits": unique}
        assert ResultStore(str(tmp_path / "store")).verify()["ok"] == unique


def _fake_worker(coordinator, hello=None):
    """A raw in-test worker connection (no subprocess)."""

    sock = socket.create_connection(
        (coordinator.host, coordinator.port), timeout=10.0
    )
    if hello is None:
        hello = ("hello", PROTOCOL_VERSION, {"pid": 0, "host": "test"})
    _send_msg(sock, hello)
    return sock


def _wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("condition not met in time")
        time.sleep(0.02)


class TestRemoteProtocol:
    def test_parse_address(self):
        assert parse_address("example.org:80") == ("example.org", 80)
        assert parse_address(":8000") == ("127.0.0.1", 8000)
        for bad in ("no-port", "host:", "host:abc", "host:99999"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_round_trip_over_ipv6_loopback(self, ipv6_loopback):
        with backend_executor("remote", workers=1, host=ipv6_loopback) as executor:
            # Workers dial the printed address, so the host is bracketed.
            assert executor.coordinator.address.startswith("[::1]:")
            (result,) = SweepRunner(executor=executor).run(grid(apps=("SRAD",)))
        assert result is not None and result.app_name == "SRAD"

    def test_wait_for_workers_timeout_names_the_fix(self):
        coordinator = Coordinator()
        try:
            with pytest.raises(RuntimeError, match="repro worker --connect"):
                coordinator.wait_for_workers(1, timeout_s=0.2)
        finally:
            coordinator.close()

    def test_submit_after_close_raises(self):
        coordinator = Coordinator()
        coordinator.close()
        with pytest.raises(RuntimeError, match="closed"):
            coordinator.submit_task(grid()[0], 1, None)

    def test_bad_hello_never_registers(self):
        # A version-3 worker cannot unpickle TxScheme.SUBREGION_COALESCING.
        for version in (999, 3):
            coordinator = Coordinator()
            try:
                sock = _fake_worker(coordinator, hello=("hello", version, {}))
                # The coordinator says why and hangs up on a protocol
                # mismatch...
                assert _recv_msg(sock)[:2] == ("refused", PROTOCOL_VERSION)
                assert sock.recv(1) == b""
                sock.close()
                # ...counts the refusal, and the worker never counted as
                # connected.
                assert coordinator.stats()["workers_refused"] == 1
                assert coordinator.stats()["workers_connected"] == 0
                assert coordinator.worker_count() == 0
            finally:
                coordinator.close()

    def test_refused_worker_exits_protocol_naming_both_versions(self):
        listener = socket.create_server(("127.0.0.1", 0))
        hellos = []

        def newer_coordinator():
            conn, _addr = listener.accept()
            with conn:
                hellos.append(_recv_msg(conn))
                _send_msg(conn, ("refused", PROTOCOL_VERSION + 1, "a reason"))

        thread = threading.Thread(target=newer_coordinator, daemon=True)
        thread.start()
        lines = []
        try:
            code = worker_main(f"127.0.0.1:{listener.getsockname()[1]}",
                               retry_s=5.0, log=lines.append)
        finally:
            thread.join(timeout=10.0)
            listener.close()
        assert not thread.is_alive()
        assert hellos[0][:2] == ("hello", PROTOCOL_VERSION)
        assert code == EXIT_PROTOCOL
        assert f"protocol {PROTOCOL_VERSION + 1}" in lines[-1], lines
        assert f"speaks {PROTOCOL_VERSION}" in lines[-1], lines

    def test_worker_disconnect_mid_job_is_broken_process_pool(self):
        coordinator = Coordinator()
        try:
            sock = _fake_worker(coordinator)
            _wait_until(lambda: coordinator.worker_count() == 1)
            task = coordinator.submit_task(grid()[0], 1, None)
            message = _recv_msg(sock)
            assert message[0] == "job" and message[1] == task.task_id
            sock.close()  # the "worker" dies holding the job
            with pytest.raises(BrokenProcessPool, match="disconnected mid-job"):
                task.future.result(timeout=10.0)
        finally:
            coordinator.close()

    def test_stale_result_after_recycle_is_discarded(self):
        coordinator = Coordinator()
        try:
            sock = _fake_worker(coordinator)
            _wait_until(lambda: coordinator.worker_count() == 1)
            task = coordinator.submit_task(grid()[0], 1, None)
            _recv_msg(sock)  # the fake worker now "runs" the job
            coordinator.recycle("test recycle")
            _send_msg(sock, ("ok", task.task_id, "late result"))
            _wait_until(lambda: coordinator.stats()["stale_results"] == 1)
            assert not task.future.done()  # never delivered against it
        finally:
            coordinator.close()

    def test_round_trip_through_in_process_worker(self):
        """Full protocol round trip with ``worker_main`` running in a
        thread: submit → job → run_attempt → ok → future resolves."""

        coordinator = Coordinator()
        exit_code = []
        thread = threading.Thread(
            target=lambda: exit_code.append(
                worker_main(coordinator.address, retry_s=5.0)
            ),
            daemon=True,
        )
        thread.start()
        try:
            _wait_until(lambda: coordinator.worker_count() == 1)
            task = coordinator.submit_task(grid()[0], 1, None)
            outcome = task.future.result(timeout=120.0)
            assert outcome.result.app_name == "ATAX"
            assert outcome.worker_pid > 0
        finally:
            coordinator.close()
        thread.join(timeout=10.0)
        assert exit_code == [EXIT_CLEAN]  # shutdown message honored

    def test_worker_connect_failure_exit_code(self):
        # Nothing listens on the discard port; the retry window closes.
        assert worker_main("127.0.0.1:9", retry_s=0.3) == EXIT_CONNECT_FAILED

    def test_run_isolated_timeout_drops_the_task(self):
        coordinator = Coordinator()
        executor = RemoteExecutor(coordinator, min_workers=1)
        try:
            with pytest.raises(FuturesTimeoutError):
                executor.run_isolated(grid()[0], 1, None, 0.2)
            assert coordinator.stats()["queued"] == 0  # dropped, not leaked
        finally:
            coordinator.close()

    def test_acquire_caps_at_connected_not_local_ask(self):
        coordinator = Coordinator()
        try:
            sock = _fake_worker(coordinator)
            _wait_until(lambda: coordinator.worker_count() == 1)
            # A 1-core runner asking for width 1 must not throttle a
            # remote fleet, and the width never exceeds connected workers.
            assert RemoteExecutor(coordinator).acquire(1) == 1
            second = _fake_worker(coordinator)
            _wait_until(lambda: coordinator.worker_count() == 2)
            assert RemoteExecutor(coordinator).acquire(1) == 2
            assert RemoteExecutor(coordinator, width=1).acquire(8) == 1
            sock.close()
            second.close()
        finally:
            coordinator.close()
