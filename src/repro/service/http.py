"""Dependency-free HTTP front-end for the job manager.

Endpoints (all JSON unless noted):

- ``POST   /jobs``            — submit a job spec; 201 with the job id,
  200 when the spec deduplicated onto an existing job, 400 with the
  valid choices on a bad spec.
- ``GET    /jobs``            — job summaries.
- ``GET    /jobs/<id>``       — status: state, spec, structured
  :meth:`~repro.sim.runner.SweepReport.to_json` report (telemetry rows,
  failures) once available.
- ``GET    /jobs/<id>/result``— serialized sim results + fingerprints;
  202 while the job is still queued/running, 409 for cancelled jobs. The
  manager builds this body and the server writes its bytes as they are.
- ``GET    /jobs/<id>/events``— NDJSON progress stream (one JSON object
  per line: state transitions, runner progress, failures), following the
  job live until it reaches a terminal state.
- ``DELETE /jobs/<id>``       — cancel a queued job (409 otherwise).
- ``GET    /healthz``         — liveness + job counts + pool stats.
- ``GET    /version``         — package version, cache/report schemas,
  and the valid vocabulary (figures, apps, schemes).

The server is the standard library's :class:`http.server.ThreadingHTTPServer`
with one request handler, so the service adds no dependencies. Each
connection has a thread that parses one request after another and hands
its method, path and ``Content-Length`` body to the routes. A connection
stays open until the client closes it, asks for ``Connection: close`` or
speaks HTTP/1.0, sends a ``Transfer-Encoding`` body or a malformed
request, or sends nothing for ``_READ_TIMEOUT_S``; an event stream is
delimited by its close, so it ends its connection too. Result encoding
does not run under the manager's lock: the manager holds it only to
snapshot a record and look up each result's text, which it encodes once
per result object. Simulations run on the manager's executor thread.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Set, Tuple

import repro
from repro.experiments.common import CACHE_SCHEMA
from repro.sim.runner import REPORT_SCHEMA
from repro.service.jobs import SpecError, valid_figures, valid_schemes
from repro.service.manager import (
    CANCELLED,
    JobManager,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
)
from repro.workloads.registry import app_names

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]{12})(/result|/events)?$")
_MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds each read from a connection may wait. A connection whose next
#: request does not begin in time is closed without a response; a body
#: that stalls this long between two reads is answered 400.
_READ_TIMEOUT_S = 10.0
#: Longest a live event stream waits for its job's next event before it
#: checks whether the server is stopping.
_STREAM_POLL_S = 0.05
#: How often BackgroundServer's accept loop checks whether stop() was called.
_ACCEPT_POLL_S = 0.05

#: A response: its status and its JSON body bytes.
_Response = Tuple[HTTPStatus, bytes]


def _json(status: HTTPStatus, payload: Dict) -> _Response:
    return status, (json.dumps(payload, sort_keys=True) + "\n").encode()


class _Handler(BaseHTTPRequestHandler):
    """One connection's requests, one after another, on its own thread."""

    protocol_version = "HTTP/1.1"
    # A response is one send, but an event stream writes its head and its
    # events apart; with Nagle's algorithm on, the second send would wait
    # for the client's delayed ACK.
    disable_nagle_algorithm = True
    server: "ServiceServer"

    def setup(self) -> None:
        # Read per connection, not at import, so tests can shorten it.
        self.timeout = _READ_TIMEOUT_S
        super().setup()
        self.manager = self.server.manager

    def __getattr__(self, name: str):
        # Every method takes the one path through _dispatch: its body is
        # read, and an unrouted one gets the JSON 404 (the stdlib answers a
        # method with no ``do_`` attribute 501).
        if name.startswith("do_"):
            return self._dispatch
        raise AttributeError(name)

    def log_message(self, format: str, *args) -> None:
        # The stdlib would write every error and idle close to stderr.
        pass

    def parse_request(self) -> bool:
        # The stdlib closes without a word on a blank request line, and
        # answers "GET /path" (HTTP/0.9) without a status line.
        if not self.raw_requestline.strip():
            self.send_error(HTTPStatus.BAD_REQUEST)
            return False
        if not super().parse_request():
            return False
        if self.request_version == "HTTP/0.9":
            self.send_error(HTTPStatus.BAD_REQUEST)
            return False
        return True

    def send_error(self, code: int, message=None, explain=None) -> None:
        # Every request that does not parse (an over-long line, too many
        # headers, a bad version) gets the same answer, then the close.
        self.close_connection = True
        self._send(*_json(HTTPStatus.BAD_REQUEST, {"error": "malformed request"}))

    def _send(self, status: HTTPStatus, body: bytes) -> None:
        connection = "Connection: close\r\n" if self.close_connection else ""
        self.wfile.write(
            (
                f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{connection}\r\n"
            ).encode()
            + body
        )

    def _dispatch(self) -> None:
        # Only a Content-Length body is read, so a request framed any other
        # way leaves bytes that must not be taken for the next request.
        self.close_connection = (
            self.request_version != "HTTP/1.1"
            or "Transfer-Encoding" in self.headers
            or "close" in {
                token.strip().lower()
                for token in self.headers.get("Connection", "").split(",")
            }
        )
        try:
            length = int(self.headers.get("Content-Length") or 0)
            if not 0 <= length <= _MAX_BODY_BYTES:
                raise ValueError(f"bad content length {length}")
            body = self.rfile.read(length)
            if len(body) < length:
                raise ValueError("body cut short")
        except (ValueError, socket.timeout):
            self.send_error(HTTPStatus.BAD_REQUEST)
            return
        with self.server.lock:
            self.server.requests += 1
        response = self._route(self.command.upper(), self.path, body)
        if response is not None:
            self._send(*response)

    # -- routing -----------------------------------------------------------

    def _route(self, method: str, path: str, body: bytes) -> Optional[_Response]:
        """The response to one request, or ``None`` when the route has
        streamed its own response."""

        if path == "/healthz" and method == "GET":
            return _json(HTTPStatus.OK, self._healthz())
        if path == "/version" and method == "GET":
            return _json(HTTPStatus.OK, self._version())
        if path == "/jobs":
            if method == "POST":
                return self._post_job(body)
            if method == "GET":
                return _json(HTTPStatus.OK, {"jobs": self.manager.summaries()})
        match = _JOB_PATH.match(path)
        if match:
            job_id, tail = match.group(1), match.group(2)
            if tail is None and method == "GET":
                return self._get_status(job_id)
            if tail is None and method == "DELETE":
                return self._delete_job(job_id)
            if tail == "/result" and method == "GET":
                return self._get_result(job_id)
            if tail == "/events" and method == "GET":
                return self._stream_events(job_id)
        return _json(
            HTTPStatus.NOT_FOUND, {"error": f"no route for {method} {path}"}
        )

    def _healthz(self) -> Dict:
        from repro.experiments import common
        from repro.sim import store as result_store

        server = self.server
        with server.lock:
            counters = {
                "client_disconnects": server.client_disconnects,
                "connections": server.connections,
                "requests": server.requests,
            }
        return {
            "status": "ok",
            "uptime_s": time.time() - self.manager.started_at,
            "jobs": self.manager.counts(),
            "pool": self.manager.pool.stats(),
            **counters,
            "store": {
                "cache_dir": common._CACHE_DIR,
                **result_store.counters_snapshot(),
            },
        }

    def _version(self) -> Dict:
        return {
            "version": repro.__version__,
            "cache_schema": CACHE_SCHEMA,
            "report_schema": REPORT_SCHEMA,
            "figures": valid_figures(),
            "apps": app_names(),
            "schemes": valid_schemes(),
        }

    def _post_job(self, body: bytes) -> _Response:
        try:
            raw = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            return _json(
                HTTPStatus.BAD_REQUEST,
                {"error": "request body must be a JSON object"},
            )
        try:
            record, deduplicated = self.manager.submit(raw)
        except SpecError as error:
            return _json(HTTPStatus.BAD_REQUEST, error.to_json())
        return _json(
            HTTPStatus.OK if deduplicated else HTTPStatus.CREATED,
            {
                "job_id": record.job_id,
                "state": record.state,
                "deduplicated": deduplicated,
                "jobs": len(record.jobs),
            },
        )

    def _get_status(self, job_id: str) -> _Response:
        payload = self.manager.status_payload(job_id)
        if payload is None:
            return _json(HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"})
        return _json(HTTPStatus.OK, payload)

    def _get_result(self, job_id: str) -> _Response:
        found = self.manager.result_body(job_id)
        if found is None:
            return _json(HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"})
        state, body = found
        if state in (QUEUED, RUNNING):
            status = HTTPStatus.ACCEPTED
        elif state == CANCELLED:
            status = HTTPStatus.CONFLICT
        else:
            status = HTTPStatus.OK
        return status, body

    def _delete_job(self, job_id: str) -> _Response:
        ok, state, reason = self.manager.cancel(job_id)
        if ok:
            return _json(HTTPStatus.OK, {"job_id": job_id, "state": CANCELLED})
        if state is None:
            return _json(HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"})
        # 409 carries the job's actual state so clients can tell a lost
        # race (already running/done) from a bad request.
        return _json(
            HTTPStatus.CONFLICT, {"job_id": job_id, "state": state, "error": reason}
        )

    def _stream_events(self, job_id: str) -> Optional[_Response]:
        if self.manager.events_since(job_id, 0) is None:
            return _json(HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"})
        self.close_connection = True
        self.wfile.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        seq, state = 0, None
        while state not in TERMINAL_STATES and not self.server.stopping:
            events, state = self.manager.events_since(job_id, seq, _STREAM_POLL_S)
            if events:
                self.wfile.write("".join(
                    json.dumps(event, sort_keys=True) + "\n" for event in events
                ).encode())
                seq += len(events)
        return None


class ServiceServer(ThreadingHTTPServer):
    """One manager behind one listening socket, a thread per connection."""

    # Not daemons, so server_close() joins every handler thread.
    daemon_threads = False
    # Room for a burst of connects while the accept loop starts threads;
    # past the stdlib's 5, the kernel would drop them for a resend.
    request_queue_size = 100

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.manager = manager
        self._log_sink = log
        #: Guards the counters and ``_open``.
        self.lock = threading.Lock()
        #: Clients that vanished mid-response (reset/broken pipe). Benign
        #: for the server, but surfaced in /healthz and the log so a flaky
        #: client or proxy is visible instead of silently swallowed.
        self.client_disconnects = 0
        #: Connections accepted and requests answered, for /healthz: fewer
        #: connections than requests shows that clients reuse them.
        self.connections = 0
        self.requests = 0
        #: Each open connection, so server_close() can end them and a
        #: forked pool worker can close them.
        self._open: Set[socket.socket] = set()
        #: Set by server_close(); a live event stream then ends.
        self.stopping = False
        self.address_family = socket.AF_INET6 if ":" in host else socket.AF_INET
        super().__init__((host, port), _Handler)
        self.host, self.port = host, self.server_address[1]
        self._log(
            f"[service] listening on http://{self.host}:{self.port} "
            f"({manager.workers} worker(s))"
        )

    def _log(self, message: str) -> None:
        if self._log_sink is not None:
            self._log_sink(message)

    def server_bind(self) -> None:
        # Not HTTPServer's, which also looks up the host's domain name: a
        # reverse DNS query at start-up for a name nothing here uses.
        socketserver.TCPServer.server_bind(self)

    def process_request(self, request: socket.socket, client_address) -> None:
        with self.lock:
            self.connections += 1
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: socket.socket) -> None:
        super().shutdown_request(request)
        # Only now, with the socket closed, may a worker forked from here
        # on skip it.
        with self.lock:
            self._open.discard(request)

    def handle_error(self, request: socket.socket, client_address) -> None:
        error = sys.exc_info()[1]
        if not isinstance(error, (ConnectionResetError, BrokenPipeError)):
            super().handle_error(request, client_address)  # the traceback
            return
        # The client went away mid-response; nothing to send back, but
        # record it rather than dropping the event on the floor.
        with self.lock:
            self.client_disconnects += 1
        self._log(
            f"[service] client disconnected mid-response ({type(error).__name__})"
        )

    def server_close(self) -> None:
        """Stop listening and end every open connection, idle or not, then
        wait for each handler thread to return."""

        self.stopping = True
        with self.lock:
            for connection in self._open:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # the peer or its handler closed it first
                    pass
        super().server_close()


def _detach_worker(server: ServiceServer) -> None:
    # Runs in each forked pool worker, where only the forking thread goes
    # on: a handler thread may have held server.lock, so take no lock.
    # With the server's handler inherited, a worker would answer the pool's
    # terminate() with a KeyboardInterrupt instead of dying.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Nor may a worker hold the listening socket: orphaned by a SIGKILL of
    # the server, it would keep the port bound. Nor a client's connection:
    # the server's close would not end it while the worker held a copy.
    # Detached, the worker's socket objects can never close a reused fd.
    for sock in (server.socket, *server._open):
        fd = sock.detach()
        if fd >= 0:  # -1 once the server has closed it
            os.close(fd)


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8000,
    log: Optional[Callable[[str], None]] = print,
) -> None:
    """Run the service in the foreground until SIGINT or SIGTERM (the
    ``python -m repro serve`` entry point). Either one, or an ``OSError``
    from binding ``host:port``, closes the manager and its pool."""

    with manager, ServiceServer(manager, host=host, port=port, log=log) as server:
        os.register_at_fork(after_in_child=lambda: _detach_worker(server))
        # SIGTERM takes the Ctrl-C path: a KeyboardInterrupt on this, the
        # main thread, where the accept loop runs.
        previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            if log is not None:
                log("[service] interrupted; shutting down")
        finally:
            # A second SIGTERM while the pool closes kills at once.
            signal.signal(signal.SIGTERM, previous)


class BackgroundServer:
    """The server's accept loop on a daemon thread.

    For tests, examples, and anything that wants to drive the HTTP API
    from the same process::

        with BackgroundServer(manager) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
    """

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._server = ServiceServer(manager, host=host, port=port)
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_ACCEPT_POLL_S,),
            name="repro-service-http",
            daemon=True,
        )

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self._server.host}:{self._server.port}"

    def start(self) -> "BackgroundServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self._server.shutdown()
            self._thread.join()
        self._server.server_close()

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
