"""Tiny stdlib client for the simulation service.

Used by the test suite, the examples, CI's service smoke job, and the
``python -m repro submit`` command — one class, ``http.client`` under the
hood, no dependencies::

    with ServiceClient("http://127.0.0.1:8000") as client:
        job = client.submit({"figure": "fig13", "scale": 0.05})
        status = client.wait(job["job_id"])
        result = client.result(job["job_id"])

Every call but :meth:`ServiceClient.events` goes over one persistent
HTTP/1.1 connection, one exchange at a time, so threads may share a
client; an event stream opens a connection of its own, because the server
ends a stream by closing its connection.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.service.manager import TERMINAL_STATES

DEFAULT_TIMEOUT_S = 30.0


class ServiceError(RuntimeError):
    """A non-2xx response. Carries the HTTP status and decoded payload —
    for 400s that payload includes the valid choices the server offered."""

    def __init__(self, status: int, payload: Dict) -> None:
        super().__init__(
            f"service returned {status}: {payload.get('error', payload)}"
        )
        self.status = status
        self.payload = payload


class ServiceClient:
    """Blocking client over one persistent HTTP/1.1 connection, which
    :meth:`close` (or leaving a ``with`` block) closes."""

    def __init__(
        self, base_url: str = "http://127.0.0.1:8000",
        timeout: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        try:
            parts = urlsplit(base_url)
            scheme = parts.scheme
            if not parts.netloc:  # tolerate "host:port" sans scheme
                parts = urlsplit(f"//{parts.path}")
        except ValueError as error:  # e.g. an IPv6 host without its "]"
            raise ValueError(f"bad URL {base_url!r}: {error}") from None
        if scheme not in ("", "http"):
            raise ValueError(f"only http:// URLs are supported, got {base_url!r}")
        try:
            port = 8000 if parts.port is None else parts.port
        except ValueError:  # not an integer, or outside 0-65535
            port = 0
        if not 1 <= port <= 65535:
            raise ValueError(
                f"bad port in {base_url!r}: want an integer in 1-65535"
            )
        # An IPv6 literal comes without its brackets.
        self.host = parts.hostname or "127.0.0.1"
        self.port = port
        self.timeout = timeout
        # Opens its socket on the first request, and again on the next
        # request after a close.
        self._connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plumbing ----------------------------------------------------------

    def _request(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        body = json.dumps(payload).encode() if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        with self._lock:
            connection = self._connection
            reused = connection.sock is not None
            try:
                try:
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                except (BrokenPipeError, ConnectionResetError):
                    # The server closes a connection it finds idle without
                    # reading what arrives after, so a request that fails on
                    # a reused connection before any response byte (this
                    # includes http.client.RemoteDisconnected, a
                    # ConnectionResetError) was never served: send it once
                    # more, on a new connection.
                    if not reused:
                        raise
                    connection.close()
                    connection.request(method, path, body=body, headers=headers)
                    response = connection.getresponse()
                raw = response.read()
            except BaseException:
                # A half-done exchange leaves the connection unusable.
                connection.close()
                raise
        decoded = json.loads(raw.decode()) if raw.strip() else {}
        return response.status, decoded

    def _checked(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict:
        status, decoded = self._request(method, path, payload)
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> Dict:
        return self._checked("GET", "/healthz")

    def version(self) -> Dict:
        return self._checked("GET", "/version")

    def submit(self, spec: Dict) -> Dict:
        """Submit a job spec; raises :class:`ServiceError` (status 400,
        payload listing the valid choices) on an invalid spec."""

        return self._checked("POST", "/jobs", spec)

    def jobs(self) -> List[Dict]:
        return self._checked("GET", "/jobs")["jobs"]

    def status(self, job_id: str) -> Dict:
        return self._checked("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> Dict:
        """The result payload. For a still-running job the server answers
        202 and this returns the status-shaped payload (no ``results``
        key); poll :meth:`wait` first for a blocking fetch."""

        status, decoded = self._request("GET", f"/jobs/{job_id}/result")
        if status in (200, 202):
            return decoded
        raise ServiceError(status, decoded)

    def cancel(self, job_id: str) -> Dict:
        return self._checked("DELETE", f"/jobs/{job_id}")

    def wait(
        self, job_id: str, timeout: float = 600.0, poll_s: float = 0.2
    ) -> Dict:
        """Poll until the job reaches a terminal state; returns the final
        status payload. Raises ``TimeoutError`` past ``timeout``."""

        deadline = time.monotonic() + timeout
        while True:
            payload = self.status(job_id)
            if payload["state"] in TERMINAL_STATES:
                return payload
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {payload['state']} after {timeout}s"
                )
            time.sleep(poll_s)

    def _event_stream(self, job_id: str) -> Iterator[Dict]:
        """One NDJSON stream connection, yielding decoded events until
        the server closes it. Raises ``ServiceError`` for 4xx/5xx."""

        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=max(self.timeout, 600.0)
        )
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status >= 400:
                raw = response.read()
                decoded = json.loads(raw.decode()) if raw.strip() else {}
                raise ServiceError(response.status, decoded)
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        finally:
            connection.close()

    def events(self, job_id: str) -> Iterator[Dict]:
        """Stream the job's NDJSON progress events, following live until
        the job reaches a terminal state.

        Guaranteed to end with a terminal ``state`` event: if the stream
        drops (or the server closes it) before one arrives — a broken
        connection mid-run, or a race where the job went terminal while
        the stream connect was in flight — the client falls back to
        polling the status endpoint and yields a synthetic terminal event
        (``"synthetic": True``, ``"seq": -1``) so consumers waiting for
        the end never hang on a silent stream."""

        terminal_seen = False
        try:
            for event in self._event_stream(job_id):
                if (
                    event.get("type") == "state"
                    and event.get("state") in TERMINAL_STATES
                ):
                    terminal_seen = True
                yield event
        except (OSError, http.client.HTTPException):
            if terminal_seen:
                return  # the drop happened after the job ended; all done
        if not terminal_seen:
            payload = self.wait(job_id)
            yield {
                "type": "state",
                "state": payload["state"],
                "seq": -1,
                "synthetic": True,
            }
