"""End-to-end HTTP API tests: BackgroundServer + ServiceClient, and the
``repro serve`` process's shutdown on signals."""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import warnings

import pytest

from repro.experiments.common import (
    CACHE_SCHEMA,
    result_fingerprint,
    serialize_result,
)
from repro.service import http as service_http
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import BackgroundServer
from repro.service.jobs import expand_spec, validate_spec
from repro.service.manager import JobManager
from repro.sim.results import SimResult
from repro.sim.runner import REPORT_SCHEMA, SweepRunner

SCALE = 0.05
SPEC = {"apps": ["GUPS", "ATAX"], "schemes": ["baseline", "lds"], "scale": SCALE}


@pytest.fixture()
def live():
    """A running manager + server + client, torn down afterwards."""
    with JobManager(workers=1) as manager:
        with BackgroundServer(manager) as server:
            with ServiceClient(server.url) as client:
                yield manager, server, client


@pytest.fixture()
def idle():
    """Server whose manager never executes — jobs stay queued."""
    with JobManager(workers=1, autostart=False) as manager:
        with BackgroundServer(manager) as server:
            with ServiceClient(server.url) as client:
                yield manager, server, client


def _raw(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _raw_body(url):
    """``(status, body bytes)`` of a GET, error statuses included."""
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _exchange(port, data):
    """Everything the server sends back on a fresh connection that carries
    ``data``, up to its close; a server that keeps the connection open
    fails the read with a timeout."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(data)
        response = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return response
            response += chunk


def _reference_body(record):
    """The result body encoded whole: the record's status fields, plus
    each slot's serialized result and fingerprint once it has results."""
    payload = {
        "job_id": record.job_id,
        "state": record.state,
        "spec": record.spec,
        "jobs": len(record.jobs),
        "submissions": record.submissions,
        "created_s": record.created_s,
        "started_s": record.started_s,
        "finished_s": record.finished_s,
    }
    if record.error is not None:
        payload["error"] = record.error
    if record.report is not None:
        payload["report"] = record.report.to_json()
    if record.results is not None:
        payload["results"] = [
            serialize_result(r) if r is not None else None for r in record.results
        ]
        payload["fingerprints"] = [
            result_fingerprint(r) if r is not None else None for r in record.results
        ]
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


class TestEndpoints:
    def test_healthz_and_version(self, live):
        _, server, client = live
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert "queued" in health["jobs"] and "done" in health["jobs"]
        assert "alive" in health["pool"]
        assert "cache_dir" in health["store"]
        assert {"hits", "misses", "stores"} <= set(health["store"])
        version = client.version()
        assert version["cache_schema"] == CACHE_SCHEMA
        assert version["report_schema"] == REPORT_SCHEMA
        assert "fig13" in version["figures"]
        assert "GUPS" in version["apps"]
        assert "engines" not in version

    def test_unknown_route_404(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client._checked("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.status("feedfacecafe")
        assert excinfo.value.status == 404

    def test_bad_spec_400_with_choices(self, live):
        _, _, client = live
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"apps": ["NOPE"], "scale": SCALE})
        assert excinfo.value.status == 400
        payload = excinfo.value.payload
        assert payload["field"] == "apps"
        assert "GUPS" in payload["choices"]

    def test_malformed_json_400(self, live):
        _, server, _ = live
        request = urllib.request.Request(
            server.url + "/jobs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestRequestReads:
    def test_stalled_body_times_out_with_400(self, live, monkeypatch):
        """A client that announces more body than it sends is answered
        400 once the read timeout passes, not held forever."""
        monkeypatch.setattr(service_http, "_READ_TIMEOUT_S", 0.2)
        _, server, _ = live
        start = time.monotonic()
        response = _exchange(
            server.port,
            b"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 100\r\n\r\n" + b"{" * 10,
        )
        assert response.startswith(b"HTTP/1.1 400 ")
        assert time.monotonic() - start < 5


class TestConnections:
    def test_calls_share_one_connection(self, live):
        _, _, client = live
        for _ in range(5):
            client.version()
        health = client.healthz()
        assert (health["connections"], health["requests"]) == (1, 6)
        assert health["client_disconnects"] == 0

    @pytest.mark.parametrize("head", [
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.0\r\n\r\n",
    ], ids=["connection-close", "http-1.0"])
    def test_one_response_then_close(self, live, head):
        _, server, _ = live
        response = _exchange(server.port, head + head)
        assert response.startswith(b"HTTP/1.1 200 OK\r\n")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in response

    def test_urllib_gets_connection_close(self, live):
        # urllib asks for ``Connection: close`` on every request.
        _, server, _ = live
        with urllib.request.urlopen(server.url + "/healthz", timeout=10) as resp:
            assert resp.headers["Connection"] == "close"
            assert json.loads(resp.read())["connections"] == 1

    def test_malformed_request_gets_400_then_close(self, live):
        _, server, _ = live
        response = _exchange(server.port, b"NONSENSE\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"\r\nConnection: close\r\n" in response
        assert response.endswith(b'{"error": "malformed request"}\n')

    def test_idle_connection_closes_silently_then_client_reconnects(
        self, live, monkeypatch
    ):
        monkeypatch.setattr(service_http, "_READ_TIMEOUT_S", 0.2)
        _, server, client = live
        start = time.monotonic()
        response = _exchange(server.port, b"GET /version HTTP/1.1\r\nHost: x\r\n\r\n")
        # One kept response, then the close and nothing more.
        assert 0.15 < time.monotonic() - start < 5
        assert response.count(b"HTTP/1.1 ") == 1
        assert b"Connection: close" not in response
        client.version()
        time.sleep(0.5)
        health = client.healthz()  # sent once more, on a new connection
        assert (health["connections"], health["requests"]) == (3, 3)

    def test_stop_returns_at_once_with_an_idle_connection_open(self, capsys):
        threads = set(threading.enumerate())
        with JobManager(workers=1, autostart=False) as manager:
            server = BackgroundServer(manager).start()
            with ServiceClient(server.url) as client:
                client.healthz()
                start = time.monotonic()
                server.stop()
                elapsed = time.monotonic() - start
                assert not server._thread.is_alive()
                assert elapsed < service_http._READ_TIMEOUT_S / 2
                # No handler thread is left, and the server closed its end
                # of the connection.
                assert set(threading.enumerate()) <= threads
                client._connection.sock.settimeout(5)
                assert client._connection.sock.recv(1) == b""
        # Nor did a handler print a traceback.
        assert capsys.readouterr().err == ""

    def test_threads_share_one_client(self, idle):
        _, _, client = idle
        apps = ["ATAX", "GEV", "MVT", "BICG", "GUPS", "NW", "BFS", "SRAD"]
        errors, done = [], []

        def one_thread(app):
            try:
                spec = {"apps": [app], "schemes": ["baseline"], "scale": SCALE}
                for _ in range(10):
                    job_id = client.submit(spec)["job_id"]
                    assert client.status(job_id)["spec"]["apps"] == [app]
                    assert client.healthz()["status"] == "ok"
                done.append(app)
            except Exception as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=one_thread, args=(app,))
                       for app in apps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(done) == sorted(apps)
        assert len(client.jobs()) == len(apps)
        assert client.healthz()["connections"] == 1


class TestHandler:
    """What the server changes in the standard library's defaults."""

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz\r\n\r\n",
        b"\r\n\r\n",
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\n"
        + b"".join(b"X-%d: y\r\n" % i for i in range(101)) + b"\r\n",
        b"GET /healthz HTTP/one\r\n\r\n",
        b"GET /healthz HTTP/2.0\r\n\r\n",
    ], ids=["http-0.9", "blank", "long-line", "101-headers", "bad-version",
            "http-2"])
    def test_unparsable_request_gets_the_json_400_and_a_close(
        self, live, capsys, request_bytes
    ):
        _, server, _ = live
        response = _exchange(server.port, request_bytes)
        assert response.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"\r\nConnection: close\r\n" in response
        assert response.endswith(b'{"error": "malformed request"}\n')
        assert capsys.readouterr().err == ""  # nor does it log the request

    def test_unrouted_method_gets_404_and_keeps_the_connection(self, live):
        _, server, _ = live
        response = _exchange(
            server.port,
            b"PUT /jobs HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        first, second = response.split(b"HTTP/1.1 ")[1:]
        assert first.startswith(b"404 Not Found\r\n")
        assert first.endswith(b'{"error": "no route for PUT /jobs"}\n')
        assert b"Connection" not in first
        assert second.startswith(b"200 OK\r\n")

    def test_idle_close_prints_nothing(self, live, capsys, monkeypatch):
        monkeypatch.setattr(service_http, "_READ_TIMEOUT_S", 0.2)
        _, server, _ = live
        assert _exchange(server.port, b"GET /version HTTP/1.1\r\n\r\n")
        assert capsys.readouterr().err == ""

    def test_serves_an_ipv6_host(self):
        try:
            with socket.socket(socket.AF_INET6) as probe:
                probe.bind(("::1", 0))
        except OSError:
            pytest.skip("no IPv6 loopback")
        with JobManager(workers=1, autostart=False) as manager:
            with BackgroundServer(manager, host="::1") as server:
                with socket.create_connection(("::1", server.port), timeout=5) as sock:
                    sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
                    assert sock.recv(17) == b"HTTP/1.1 200 OK\r\n"

    def test_ipv6_server_url_reaches_the_server(self, ipv6_loopback):
        with JobManager(workers=1, autostart=False) as manager:
            with BackgroundServer(manager, host=ipv6_loopback) as server:
                assert server.url == f"http://[::1]:{server.port}"
                with ServiceClient(server.url) as client:
                    assert client.healthz()["status"] == "ok"

    def test_connections_send_without_nagle(self, live):
        _, server, client = live
        client.healthz()
        (connection,) = server._server._open
        assert connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)

    def test_client_disconnect_is_counted_and_other_errors_keep_a_traceback(
        self, live, capsys, monkeypatch
    ):
        manager, server, client = live

        def vanish():
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(manager, "summaries", vanish)
        assert _exchange(server.port, b"GET /jobs HTTP/1.1\r\n\r\n") == b""
        assert client.healthz()["client_disconnects"] == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err

        def fail():
            raise RuntimeError("route bug")

        monkeypatch.setattr(manager, "summaries", fail)
        assert _exchange(server.port, b"GET /jobs HTTP/1.1\r\n\r\n") == b""
        assert client.healthz()["client_disconnects"] == 1
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: route bug" in err

    def test_counters_take_a_lock(self, live):
        _, server, _ = live
        clients = [ServiceClient(server.url) for _ in range(8)]
        errors = []

        def hammer(client):
            try:
                for _ in range(25):
                    client.version()
            except Exception as error:  # reported by the main thread
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=hammer, args=(client,))
                       for client in clients]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            for client in clients:
                client.close()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        health = ServiceClient(server.url).healthz()
        assert (health["connections"], health["requests"]) == (9, 8 * 25 + 1)

    def test_fork_hook_takes_no_lock(self, live):
        # A pool worker is forked from the manager's thread while a handler
        # thread may hold the server's lock, which no thread of the child
        # can ever release.
        _, server, client = live
        client.healthz()
        service = server._server
        with service.lock, warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork + threads
            pid = os.fork()
            if pid == 0:  # the child: report by exit code only
                try:
                    service_http._detach_worker(service)
                    closed = [service.socket, *service._open]
                    os._exit(0 if all(s.fileno() == -1 for s in closed) else 1)
                finally:
                    os._exit(2)
        deadline = time.monotonic() + 10
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the fork hook blocked")
            time.sleep(0.01)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        # The parent's sockets are untouched.
        assert client.healthz()["status"] == "ok"


class TestResultBody:
    def test_body_bytes_match_the_whole_payload_encoded(self, monkeypatch):
        """The served bytes equal ``json.dumps(payload, sort_keys=True)``
        of the whole payload for queued, cancelled, done (sharing a result
        object with another record) and failed (a ``null`` slot) jobs."""
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0, autostart=False) as manager:
            with BackgroundServer(manager) as server:
                client = ServiceClient(server.url)
                ids = {}
                ids["queued"] = client.submit(
                    {"apps": ["SRAD"], "schemes": ["lds"], "scale": SCALE}
                )["job_id"]
                ids["cancelled"] = client.submit(
                    {"apps": ["SRAD"], "schemes": ["icache"], "scale": SCALE}
                )["job_id"]
                client.cancel(ids["cancelled"])
                served = {
                    name: (_raw_body(f"{server.url}/jobs/{ids[name]}/result"),
                           _reference_body(manager.get(ids[name])))
                    for name in ("queued", "cancelled")
                }
                ids["one"] = client.submit(
                    {"apps": ["SRAD", "ATAX"], "schemes": ["baseline"], "scale": SCALE}
                )["job_id"]
                ids["two"] = client.submit(
                    {"apps": ["ATAX"], "schemes": ["baseline", "lds"], "scale": SCALE}
                )["job_id"]
                ids["failed"] = client.submit(
                    {"apps": ["GUPS", "SRAD"], "schemes": ["baseline"], "scale": SCALE}
                )["job_id"]
                manager.start()
                for name in ("one", "two", "failed"):
                    manager.wait(ids[name], timeout=300)
                records = {name: manager.get(job_id) for name, job_id in ids.items()}
                assert records["one"].results[1] is records["two"].results[0]
                assert records["failed"].results[0] is None
                for name in ("one", "two", "failed"):
                    served[name] = (
                        _raw_body(f"{server.url}/jobs/{ids[name]}/result"),
                        _reference_body(records[name]),
                    )
        statuses = {"queued": 202, "cancelled": 409, "one": 200, "two": 200,
                    "failed": 200}
        for name, ((status, body), reference) in served.items():
            assert status == statuses[name], name
            assert body == reference, name
        assert json.loads(served["failed"][0][1])["results"][0] is None


class TestJobFlow:
    def test_submitted_result_matches_direct_runner(self, live):
        _, _, client = live
        submitted = client.submit(SPEC)
        assert submitted["deduplicated"] is False
        job_id = submitted["job_id"]
        status = client.wait(job_id, timeout=300)
        assert status["state"] == "done"
        assert status["report"]["schema"] == REPORT_SCHEMA
        assert status["report"]["jobs_submitted"] == 4

        result = client.result(job_id)
        direct = SweepRunner(jobs=1).run(expand_spec(validate_spec(SPEC)))
        assert result["fingerprints"] == [result_fingerprint(r) for r in direct]
        assert len(result["results"]) == 4
        assert all(r["app_name"] in ("GUPS", "ATAX") for r in result["results"])

    def test_dedup_resubmit_same_job_without_resim(self, live):
        _, _, client = live
        first = client.submit(SPEC)
        client.wait(first["job_id"], timeout=300)
        again = client.submit(dict(SPEC, apps=["gups", "atax"]))
        assert again["deduplicated"] is True
        assert again["job_id"] == first["job_id"]
        assert again["state"] == "done"

    def test_queued_result_202(self, idle):
        _, server, client = idle
        job_id = client.submit(SPEC)["job_id"]
        status, payload = _raw(f"{server.url}/jobs/{job_id}/result")
        assert status == 202
        assert payload["state"] == "queued"

    def test_jobs_listing(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        listing = client.jobs()
        assert [job["job_id"] for job in listing] == [job_id]

    def test_delete_cancels_queued_then_404s_unknown(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        cancelled = client.cancel(job_id)
        assert cancelled["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("feedfacecafe")
        assert excinfo.value.status == 404

    def test_delete_terminal_409(self, live):
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id, timeout=300)
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        # The conflict body reports the job's actual state, so a client
        # can tell "too late, already done" from a malformed request.
        assert excinfo.value.payload["state"] == "done"
        assert "done" in excinfo.value.payload["error"]

    def test_delete_cancelled_409_reports_state(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        assert client.cancel(job_id)["state"] == "cancelled"
        with pytest.raises(ServiceError) as excinfo:
            client.cancel(job_id)
        assert excinfo.value.status == 409
        assert excinfo.value.payload["state"] == "cancelled"

    def test_cancelled_result_409(self, idle):
        _, server, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)
        with pytest.raises(ServiceError) as excinfo:
            client.result(job_id)
        assert excinfo.value.status == 409


class TestEvents:
    def test_ndjson_stream_follows_to_terminal(self, live):
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        events = list(client.events(job_id))
        assert events, "stream produced no events"
        states = [e["state"] for e in events if e["type"] == "state"]
        assert states[0] == "queued"
        assert states[-1] == "done"
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)

    def test_stream_after_terminal_replays_and_closes(self, live):
        # Regression: the job reaches a terminal state BEFORE the stream
        # connects. The server must replay the full event log (ending
        # with the terminal state event) and close, not leave the client
        # hanging on a silent stream.
        _, _, client = live
        job_id = client.submit(SPEC)["job_id"]
        client.wait(job_id, timeout=300)
        events = list(client.events(job_id))
        assert events, "post-terminal stream replayed nothing"
        assert events[-1]["type"] == "state"
        assert events[-1]["state"] == "done"
        assert not events[-1].get("synthetic")

    def test_live_stream_is_woken_by_the_manager_not_a_poll(self, monkeypatch):
        """A stream that opens on a queued job follows it to its end as the
        manager records events: with the stream's poll stretched to 30 s,
        it still ends within 0.3 s of the manager starting."""
        from repro.experiments import common

        monkeypatch.setattr(
            common, "simulate",
            lambda app, config, scale: SimResult(app_name=app, scheme="baseline", cycles=1),
        )
        monkeypatch.setattr(service_http, "_STREAM_POLL_S", 30.0)
        started = []

        def start(manager):
            started.append(time.monotonic())
            manager.start()

        with JobManager(workers=1, autostart=False) as manager:
            with BackgroundServer(manager) as server:
                client = ServiceClient(server.url)
                job_id = client.submit(
                    {"apps": ["SRAD"], "schemes": ["baseline"], "scale": SCALE}
                )["job_id"]
                timer = threading.Timer(1.1, start, args=(manager,))
                timer.start()
                events = list(client.events(job_id))
                ended = time.monotonic()
                timer.join(timeout=10)
                client.close()
        assert events[-1]["state"] == "done" and not events[-1].get("synthetic")
        assert ended - started[0] < 0.3

    def test_stream_after_cancel_replays_terminal(self, idle):
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)
        events = list(client.events(job_id))
        assert [e["state"] for e in events if e["type"] == "state"] == [
            "queued", "cancelled"
        ]

    def test_dropped_stream_falls_back_to_status_poll(self, idle):
        # A stream that dies before delivering a terminal event must not
        # strand the consumer: the client polls status and yields a
        # synthetic terminal event instead.
        _, _, client = idle
        job_id = client.submit(SPEC)["job_id"]
        client.cancel(job_id)

        def broken_stream(_job_id):
            yield {"seq": 0, "type": "state", "state": "queued"}
            raise OSError("connection reset mid-stream")

        client._event_stream = broken_stream
        events = list(client.events(job_id))
        assert events[-1] == {
            "type": "state", "state": "cancelled", "seq": -1, "synthetic": True,
        }

    def test_failure_event_streamed(self, live, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        _, _, client = live
        job_id = client.submit(
            {"apps": ["GUPS"], "schemes": ["baseline"], "scale": SCALE,
             "max_retries": 0}
        )["job_id"]
        events = list(client.events(job_id))
        failures = [e for e in events if e["type"] == "failure"]
        assert failures and failures[0]["app"] == "GUPS"
        assert failures[0]["disposition"] == "exception"
        assert events[-1]["state"] == "failed"
        # The status payload carries the structured failure record too.
        status = client.status(job_id)
        assert status["state"] == "failed"
        assert status["report"]["failures"][0]["disposition"] == "exception"


# ---------------------------------------------------------------------------
# `repro serve` as a process: signals
# ---------------------------------------------------------------------------

#: Four jobs, so the server runs them on its shared pool of two workers.
POOL_SPEC = {"apps": ["SRAD", "SSSP"], "schemes": ["baseline", "lds"],
             "scale": 0.01}


def _start_serve(tmp_path):
    """``repro serve --port 0 --jobs 2`` in its own process group; returns
    the process and the port from its ``listening on`` line."""
    log = tmp_path / "serve.log"
    env = dict(os.environ, PYTHONUNBUFFERED="1",
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    with open(log, "wb") as out:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2"],
            stdout=out, stderr=subprocess.STDOUT, env=env,
            start_new_session=True,
        )
    deadline = time.monotonic() + 60
    while True:
        match = re.search(r"listening on http://127\.0\.0\.1:(\d+)",
                          log.read_text())
        if match:
            return proc, int(match.group(1))
        assert proc.poll() is None, log.read_text()
        assert time.monotonic() < deadline, log.read_text()
        time.sleep(0.1)


def _run_on_pool(port):
    client = ServiceClient(f"http://127.0.0.1:{port}")
    job = client.submit(POOL_SPEC)
    assert client.wait(job["job_id"], timeout=120)["state"] == "done"
    assert client.healthz()["pool"]["alive"]
    return client


def _live_children(pid):
    """Pids of ``pid``'s children that have not exited, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _group_gone(pgid, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.1)
    return False


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


class TestServeSignals:
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_stops_server_and_pool(self, tmp_path, signum):
        proc, port = _start_serve(tmp_path)
        try:
            _run_on_pool(port)
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == 0
            # No pool worker outlives the server, so none holds the port.
            assert _group_gone(proc.pid)
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
                sock.listen()
        finally:
            _kill_group(proc)

    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM],
                             ids=["SIGINT", "SIGTERM"])
    def test_signal_with_an_idle_client_connection_open(self, tmp_path, signum):
        proc, port = _start_serve(tmp_path)
        try:
            with ServiceClient(f"http://127.0.0.1:{port}") as client:
                assert client.healthz()["connections"] == 1
                start = time.monotonic()
                proc.send_signal(signum)
                assert proc.wait(timeout=30) == 0
                # The server did not wait for the connection's read timeout.
                assert time.monotonic() - start < service_http._READ_TIMEOUT_S / 2
        finally:
            _kill_group(proc)

    def test_sigint_right_after_a_response_prints_no_traceback(self, tmp_path):
        # The signal lands while the request's handler may still be
        # finishing; the server must stop as cleanly as from idle.
        proc, port = _start_serve(tmp_path)
        try:
            with ServiceClient(f"http://127.0.0.1:{port}") as client:
                assert client.healthz()["status"] == "ok"
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=30) == 0
            output = (tmp_path / "serve.log").read_text()
            assert "Traceback" not in output, output
            assert "never retrieved" not in output, output
        finally:
            _kill_group(proc)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigkilled_server_leaves_its_port_free(self, tmp_path):
        # SIGKILL gives the server no chance to close its pool: the
        # orphaned workers live on, blocked on the pool's queue, but none
        # of them may hold the listening socket, nor the connection of the
        # client that was open while they were forked.
        proc, port = _start_serve(tmp_path)
        workers = []
        try:
            client = _run_on_pool(port)
            workers = _live_children(proc.pid)
            assert workers
            proc.kill()
            proc.wait(timeout=10)
            with socket.socket() as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind(("127.0.0.1", port))
                sock.listen()
            connection = client._connection.sock
            connection.settimeout(10)
            assert connection.recv(1) == b""
            client.close()
        finally:
            for worker in workers:
                try:
                    os.kill(worker, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _kill_group(proc)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_sigterm_to_a_pool_worker_ends_only_that_worker(self, tmp_path):
        # A worker forked under the server's SIGTERM handler must still die
        # on SIGTERM (the pool terminates workers that way), and the signal
        # must not reach the server.
        proc, port = _start_serve(tmp_path)
        try:
            client = _run_on_pool(port)
            worker = _live_children(proc.pid)[0]
            os.kill(worker, signal.SIGTERM)
            deadline = time.monotonic() + 10
            while worker in _live_children(proc.pid):
                assert time.monotonic() < deadline, "worker ignored SIGTERM"
                time.sleep(0.1)
            time.sleep(0.5)
            assert proc.poll() is None
            assert client.healthz()["status"] == "ok"
            job = client.submit(dict(POOL_SPEC, scale=0.02))
            assert client.wait(job["job_id"], timeout=120)["state"] == "done"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            _kill_group(proc)
