"""Dependency-light asyncio HTTP front-end for the job manager.

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

The server is intentionally minimal — ``asyncio.start_server`` plus a
hand-rolled HTTP/1.1 exchange — so the service adds no dependencies beyond
the standard library. A connection serves one request after another and
stays open until the client closes it, asks for ``Connection: close`` or
speaks HTTP/1.0, sends a malformed request, or sends no next request head
within ``_READ_TIMEOUT_S``; an event stream is delimited by its close, so
it ends its connection too. Blocking
manager calls (submit validation, payload building) are short. Result
encoding does not run under the manager's lock: the manager holds it
only to snapshot a record and look up each result's text, which it
encodes once per result object. Simulations themselves run on the
manager's executor thread, never on the event loop.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import threading
import time
from http import HTTPStatus
from typing import Callable, Dict, Optional, Tuple

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
_MAX_HEAD_BYTES = 64 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
#: Seconds a client may take to send a request head, and again its body. A
#: connection whose next request head does not arrive in time is closed
#: without a response; a body that does not is answered 400.
_READ_TIMEOUT_S = 10.0
#: A live NDJSON stream re-checks its record after 1 ms, doubling the wait
#: while nothing new arrives up to this cap, and starts again at 1 ms after
#: new events: a batch that ends just after the stream opens is not
#: answered 50 ms late, and an idle stream still polls 20 times a second.
_STREAM_POLL_S = 0.05

#: A response: its status and its JSON body bytes.
_Response = Tuple[HTTPStatus, bytes]


def _json(status: HTTPStatus, payload: Dict) -> _Response:
    return status, (json.dumps(payload, sort_keys=True) + "\n").encode()


class ServiceServer:
    """One manager behind one listening socket."""

    def __init__(
        self,
        manager: JobManager,
        host: str = "127.0.0.1",
        port: int = 0,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._log_sink = log
        self._server: Optional[asyncio.AbstractServer] = None
        #: Clients that vanished mid-response (reset/broken pipe). Benign
        #: for the server, but surfaced in /healthz and the log so a flaky
        #: client or proxy is visible instead of silently swallowed.
        self.client_disconnects = 0
        #: Connections accepted and requests answered, for /healthz: fewer
        #: connections than requests shows that clients reuse them.
        self.connections = 0
        self.requests = 0
        #: Each open connection's writer and the task that serves it, so
        #: stop() can end them and a forked pool worker can close them.
        self._open: Dict[asyncio.StreamWriter, asyncio.Task] = {}

    def _log(self, message: str) -> None:
        if self._log_sink is not None:
            self._log_sink(message)

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._log(
            f"[service] listening on http://{self.host}:{self.port} "
            f"({self.manager.workers} worker(s))"
        )
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled; the caller then awaits :meth:`stop`."""

        assert self._server is not None, "call start() first"
        # Not asyncio's serve_forever(): once cancelled, it waits (since
        # 3.12.1) for every open connection to close before stop() could
        # end the idle ones. The server has been serving since start().
        await asyncio.get_running_loop().create_future()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # End every open connection, so that its handler returns rather
            # than wait out its read timeout: since 3.12.1 wait_closed()
            # waits for every connection, and a handler still pending would
            # be destroyed with the loop. A handler that ended cancelled
            # would make 3.11 and 3.12.1 log a CancelledError traceback.
            for writer in list(self._open):
                writer.transport.abort()
            await asyncio.gather(*self._open.values(), return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    # -- request plumbing --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        self._open[writer] = asyncio.current_task()
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                        ValueError, asyncio.TimeoutError):
                    await self._write_body(
                        writer,
                        *_json(HTTPStatus.BAD_REQUEST, {"error": "malformed request"}),
                        keep=False,
                    )
                    return
                if request is None:
                    return
                method, path, body, keep = request
                self.requests += 1
                response = await self._route(method, path, body, writer)
                if response is None:  # an event stream, ended by the close
                    return
                await self._write_body(writer, *response, keep=keep)
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError) as error:
            # The client went away mid-response; nothing to send back, but
            # record it rather than dropping the event on the floor.
            self.client_disconnects += 1
            self._log(
                f"[service] client disconnected mid-response "
                f"({type(error).__name__})"
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError) as error:
                # Closing an already-dead socket: harmless, but log which
                # errno so transport-level problems stay diagnosable.
                self._log(
                    f"[service] error closing client socket: {error!r}"
                )
            # Only now, with the socket closed, may a worker forked from
            # here on skip it.
            del self._open[writer]

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """The connection's next request as ``(method, path, body, keep)``,
        ``keep`` false when the connection must close after the response;
        ``None`` when the client closed the connection, or sent no request
        head within ``_READ_TIMEOUT_S``, before this request began."""

        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            return None
        except asyncio.IncompleteReadError as error:
            if error.partial:
                raise
            return None
        if len(head) > _MAX_HEAD_BYTES:
            raise ValueError("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        method, path, version = lines[0].split(" ", 2)
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > _MAX_BODY_BYTES:
            raise ValueError("bad content length")
        body = b""
        if length:
            body = await asyncio.wait_for(
                reader.readexactly(length), timeout=_READ_TIMEOUT_S
            )
        # Only a Content-Length body is read, so a request framed any other
        # way leaves bytes that must not be taken for the next request.
        keep = (
            version == "HTTP/1.1"
            and "transfer-encoding" not in headers
            and "close" not in {
                token.strip().lower()
                for token in headers.get("connection", "").split(",")
            }
        )
        return method.upper(), path, body, keep

    async def _write_body(
        self,
        writer: asyncio.StreamWriter,
        status: HTTPStatus,
        body: bytes,
        keep: bool,
    ) -> None:
        connection = "" if keep else "Connection: close\r\n"
        writer.write(
            (
                f"HTTP/1.1 {status.value} {status.phrase}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{connection}\r\n"
            ).encode()
        )
        writer.write(body)
        await writer.drain()

    # -- routing -----------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> Optional[_Response]:
        """The response to one request, or ``None`` when the route has
        streamed its own response to ``writer``."""

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
                return await self._stream_events(job_id, writer)
        return _json(
            HTTPStatus.NOT_FOUND, {"error": f"no route for {method} {path}"}
        )

    def _healthz(self) -> Dict:
        from repro.experiments import common
        from repro.sim import store as result_store

        return {
            "status": "ok",
            "uptime_s": time.time() - self.manager.started_at,
            "jobs": self.manager.counts(),
            "pool": self.manager.pool.stats(),
            "client_disconnects": self.client_disconnects,
            "connections": self.connections,
            "requests": self.requests,
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

    async def _stream_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> Optional[_Response]:
        snapshot = self.manager.events_since(job_id, 0)
        if snapshot is None:
            return _json(HTTPStatus.NOT_FOUND, {"error": f"unknown job {job_id}"})
        writer.write(
            (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        seq, delay = 0, 0.001
        while True:
            snapshot = self.manager.events_since(job_id, seq)
            if snapshot is None:  # record vanished (cannot happen today)
                break
            events, state = snapshot
            for event in events:
                writer.write((json.dumps(event, sort_keys=True) + "\n").encode())
                seq = event["seq"] + 1
            await writer.drain()
            if events:
                delay = 0.001
            elif state in TERMINAL_STATES:
                break
            else:
                await asyncio.sleep(delay)
                delay = min(2 * delay, _STREAM_POLL_S)
        return None


async def _serve_async(server: ServiceServer) -> None:
    # SIGTERM takes the Ctrl-C path: it cancels this task, so the server
    # stops and serve() closes the pool. Closing the loop restores the
    # default action, so a second SIGTERM during that close kills at once.
    asyncio.get_running_loop().add_signal_handler(
        signal.SIGTERM, asyncio.current_task().cancel
    )
    await server.start()
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        # Normal shutdown path (Ctrl-C or SIGTERM cancels the main task);
        # announce it instead of exiting silently.
        server._log("[service] shutdown requested; stopping")
    finally:
        await server.stop()


def _detach_worker(server: ServiceServer) -> None:
    # Runs in each forked pool worker. With the loop's handler inherited,
    # a worker would ignore the pool's terminate() and pass the signal
    # through the inherited wakeup fd to the server's loop, stopping it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    # Nor may a worker hold the listening socket: orphaned by a SIGKILL of
    # the server, it would keep the port bound. Nor a client's connection:
    # the server's close would not end it while the worker held a copy.
    if server._server is not None:
        for sock in server._server.sockets:
            os.close(sock.fileno())
    for writer in list(server._open):
        fd = writer.get_extra_info("socket").fileno()
        if fd >= 0:  # -1 once the transport has closed it
            os.close(fd)


def serve(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 8000,
    log: Optional[Callable[[str], None]] = print,
) -> None:
    """Run the service in the foreground until SIGINT or SIGTERM (the
    ``python -m repro serve`` entry point); either one closes the pool."""

    server = ServiceServer(manager, host=host, port=port, log=log)
    os.register_at_fork(after_in_child=lambda: _detach_worker(server))
    try:
        asyncio.run(_serve_async(server))
    except KeyboardInterrupt:
        if log is not None:
            log("[service] interrupted; shutting down")
    finally:
        manager.close()


class BackgroundServer:
    """The server on a daemon thread with its own event loop.

    For tests, examples, and anything that wants to drive the HTTP API
    from the same process::

        with BackgroundServer(manager) as server:
            client = ServiceClient(f"http://127.0.0.1:{server.port}")
    """

    def __init__(
        self, manager: JobManager, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._server = ServiceServer(manager, host=host, port=port)
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-service-http", daemon=True
        )

    @property
    def port(self) -> int:
        return self._server.port

    @property
    def url(self) -> str:
        return f"http://{self._server.host}:{self._server.port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_until_complete(self._server.start())
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(self._server.stop())
        self._loop.close()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        if not self._started.wait(timeout=10.0):
            raise RuntimeError("service HTTP server failed to start")
        return self

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
