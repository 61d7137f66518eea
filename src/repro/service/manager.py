"""The service's job queue: submission, dedup, batching, lifecycle.

A submitted spec becomes a :class:`JobRecord` that moves through

    queued -> running -> done | failed
    queued -> cancelled

- **Dedup**: specs are canonicalized and hashed (:func:`~repro.service.jobs.spec_key`);
  a resubmission of a spec that is queued, running, or already done
  returns the existing record instead of creating a new one. Individual
  simulations inside a job additionally deduplicate against the on-disk
  result cache (``SweepJob.key``) inside the runner, so even a *new* spec
  whose grid overlaps past work only simulates the genuinely novel jobs.
- **Batching**: one executor thread drains everything queued at once and
  pushes it through a single :class:`~repro.sim.runner.SweepRunner` call
  per knob group (timeout / max_retries), passing the one
  :class:`~repro.service.executor.SharedProcessPool` as its executor —
  concurrent requests share a pool instead of each spawning their own,
  and overlapping grids collapse inside the runner's own dedup.
- **Fault tolerance**: batches always run ``keep_going=True``; a job that
  crashes a worker surfaces as a :class:`~repro.sim.runner.JobFailure` in
  that record's report (state ``failed``, results ``None`` at the failed
  slots) while every other record in the batch completes normally.
- **Observability**: every record accumulates ordered events (state
  transitions, runner progress lines, failures) that ``GET
  /jobs/<id>/events`` streams as NDJSON; the per-record
  :class:`~repro.sim.runner.SweepReport` is rebuilt from the batch report
  by filtering on the record's job keys.
"""

from __future__ import annotations

import copy
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.results import SimResult
from repro.sim.runner import (
    JobFailure,
    JobTiming,
    SweepJob,
    SweepReport,
    SweepRunner,
    default_workers,
)
from repro.service.executor import DEFAULT_IDLE_TIMEOUT_S, SharedProcessPool
from repro.service.jobs import expand_spec, spec_key, validate_spec

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a record can never leave.
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})

#: States a resubmission deduplicates against (a cancelled or failed job
#: may be legitimately resubmitted to run again).
_DEDUP_STATES = frozenset({QUEUED, RUNNING, DONE})


@dataclass
class JobRecord:
    """One submitted job spec and everything that happened to it."""

    job_id: str
    spec: Dict
    spec_key: str
    jobs: List[SweepJob]
    state: str = QUEUED
    created_s: float = field(default_factory=time.time)
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: How many times this spec was submitted (1 + dedup hits).
    submissions: int = 1
    error: Optional[str] = None
    results: Optional[List[Optional[SimResult]]] = None
    report: Optional[SweepReport] = None
    events: List[Dict] = field(default_factory=list)


class JobManager:
    """Owns the job table, the queue, and the batch-executor thread.

    Parameters
    ----------
    workers:
        Process-pool width for batches (``None``: ``REPRO_JOBS`` /
        ``os.cpu_count()``). ``1`` keeps every batch on the in-process
        serial path (no pool at all) — handy for tests.
    idle_timeout_s:
        Quiet period after which the shared pool is evicted.
    timeout / max_retries:
        Service-wide defaults for specs that do not set their own.
    log:
        Optional sink for one-line progress messages (the serve CLI
        passes ``print``).
    autostart:
        Start the executor thread immediately. Pass ``False`` to stage
        submissions first (tests use this to pin down queue semantics),
        then call :meth:`start`.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        log: Optional[Callable[[str], None]] = None,
        autostart: bool = True,
    ) -> None:
        self.workers = workers if workers is not None else default_workers()
        self.default_timeout = timeout
        self.default_max_retries = max_retries
        self.pool = SharedProcessPool(
            max_workers=self.workers, idle_timeout_s=idle_timeout_s
        )
        self._log_sink = log
        self.started_at = time.time()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._records: Dict[str, JobRecord] = {}
        self._by_spec: Dict[str, str] = {}
        self._queue: List[str] = []
        #: ``id(result)`` -> ``(result, text, fingerprint)``, under ``_lock``.
        self._encoded: Dict[int, Tuple[SimResult, str, str]] = {}
        self._stop = False
        self._thread: Optional[threading.Thread] = None
        # Poll often enough to evict a short-idle pool promptly, but
        # never spin: a quarter of the idle window, clamped to [50ms, 1s].
        self._poll_s = min(1.0, max(0.05, idle_timeout_s / 4.0))
        if autostart:
            self.start()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "JobManager":
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._loop, name="repro-service-executor", daemon=True
                )
                self._thread.start()
        return self

    def close(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        self.pool.shutdown()

    def __enter__(self) -> "JobManager":
        # __init__ already honoured ``autostart``; entering the context
        # must not override a deliberately staged (autostart=False) manager.
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _log(self, message: str) -> None:
        if self._log_sink is not None:
            self._log_sink(message)

    # -- submission / queries ----------------------------------------------

    def submit(self, raw_spec: Dict) -> Tuple[JobRecord, bool]:
        """Validate and enqueue ``raw_spec``.

        Returns ``(record, deduplicated)``; raises
        :class:`~repro.service.jobs.SpecError` on an invalid spec. A spec
        identical to a queued/running/done record returns that record
        with ``deduplicated=True`` — completed specs answer instantly.
        """

        spec = validate_spec(raw_spec)
        key = spec_key(spec)
        jobs = expand_spec(spec)
        with self._cond:
            existing_id = self._by_spec.get(key)
            if existing_id is not None:
                existing = self._records[existing_id]
                if existing.state in _DEDUP_STATES:
                    existing.submissions += 1
                    return existing, True
            record = JobRecord(
                job_id=uuid.uuid4().hex[:12],
                spec=spec,
                spec_key=key,
                jobs=jobs,
            )
            self._records[record.job_id] = record
            self._by_spec[key] = record.job_id
            self._queue.append(record.job_id)
            self._event(record, "state", state=QUEUED)
            self._cond.notify_all()
        self._log(f"[service] job {record.job_id} queued ({len(jobs)} sim jobs)")
        return record, False

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._records.get(job_id)

    def cancel(self, job_id: str) -> Tuple[bool, Optional[str], str]:
        """Cancel a *queued* job. Running and terminal jobs refuse: a
        batch already executing cannot be preempted mid-simulation.

        Returns ``(ok, state, message)`` — ``state`` is the job's actual
        state after the call (``None`` for an unknown id), so the HTTP
        layer can report *why* a cancel was refused rather than a bare
        conflict."""

        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                return False, None, "not found"
            if record.state != QUEUED:
                return (
                    False,
                    record.state,
                    f"job is {record.state}, only queued jobs cancel",
                )
            self._queue.remove(job_id)
            self._finish(record, CANCELLED)
            return True, CANCELLED, "cancelled"

    def wait(self, job_id: str, timeout: float = 600.0) -> str:
        """Block until ``job_id`` reaches a terminal state; returns it."""

        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise KeyError(f"unknown job {job_id!r}")
                if record.state in TERMINAL_STATES:
                    return record.state
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {record.state} after {timeout}s"
                    )
                self._cond.wait(timeout=remaining)

    def counts(self) -> Dict[str, int]:
        with self._lock:
            counts = {
                state: 0
                for state in (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
            }
            for record in self._records.values():
                counts[record.state] += 1
            return counts

    # -- payloads (what the HTTP layer serves) -------------------------------

    def status_payload(self, job_id: str) -> Optional[Dict]:
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            record = copy.copy(record)
        return self._status_payload(record)

    @staticmethod
    def _status_payload(record: JobRecord) -> Dict:
        # ``record`` is a snapshot taken under the lock: its report and
        # results are never mutated once set, so it is read without it.
        payload: Dict = {
            "job_id": record.job_id,
            "state": record.state,
            "spec": dict(record.spec),
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
        return payload

    def summaries(self) -> List[Dict]:
        with self._lock:
            return [
                {
                    "job_id": record.job_id,
                    "state": record.state,
                    "jobs": len(record.jobs),
                    "created_s": record.created_s,
                }
                for record in self._records.values()
            ]

    def result_body(self, job_id: str) -> Optional[Tuple[str, bytes]]:
        """The result endpoint's ``(state, body)``; ``None`` for unknown jobs.

        The body is ``json.dumps(payload, sort_keys=True) + "\\n"`` of the
        status payload plus, once the job has results, the serialized
        results and their fingerprints (``null`` at failed slots). Each
        result's text is spliced in as :meth:`_encode` memoized it; the
        lock is held only to snapshot the record and read the memo.
        """

        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            record = copy.copy(record)
            slots = None if record.results is None else [
                self._encode(result) if result is not None else ("null", None)
                for result in record.results
            ]
        payload = self._status_payload(record)
        items = []
        if slots is not None:
            payload["fingerprints"] = [fingerprint for _, fingerprint in slots]
            items.append(("results", "[" + ", ".join(text for text, _ in slots) + "]"))
        # What json.dumps(sort_keys=True) writes for the whole payload:
        # each top-level value encoded, in key order, default separators.
        items += [(key, json.dumps(value, sort_keys=True))
                  for key, value in payload.items()]
        items.sort()
        body = "{" + ", ".join(
            f"{json.dumps(key)}: {text}" for key, text in items
        ) + "}\n"
        return record.state, body.encode()

    def result_payload(self, job_id: str) -> Optional[Dict]:
        """:meth:`result_body` decoded; ``None`` for unknown jobs."""

        found = self.result_body(job_id)
        return None if found is None else json.loads(found[1])

    def _encode(self, result: SimResult) -> Tuple[str, str]:
        """``result``'s JSON text
        (``json.dumps(serialize_result(result), sort_keys=True)``) and its
        fingerprint, computed once per result object.

        Keyed by the object, not its job key, so the text and fingerprint
        served for a slot are always those of the result in it (a job
        re-simulated after ``clear_cache`` is a new object). The entry
        holds its result, so no other object can take its id while it
        lives.
        """

        # Caller holds self._lock.
        from repro.experiments import common

        entry = self._encoded.get(id(result))
        if entry is None:
            text = json.dumps(common.serialize_result(result), sort_keys=True)
            entry = (result, text, common.result_fingerprint(result))
            self._encoded[id(result)] = entry
        return entry[1], entry[2]

    def events_since(
        self, job_id: str, seq: int
    ) -> Optional[Tuple[List[Dict], str]]:
        """Events with ``seq >= seq`` plus the current state (for NDJSON
        streaming); ``None`` for unknown jobs."""

        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            return [dict(e) for e in record.events[seq:]], record.state

    # -- executor loop -------------------------------------------------------

    def _event(self, record: JobRecord, kind: str, **data) -> None:
        # Caller holds self._lock.
        record.events.append(
            {"seq": len(record.events), "t": time.time(), "type": kind, **data}
        )

    def _finish(self, record: JobRecord, state: str, error: Optional[str] = None) -> None:
        # Caller holds self._lock.
        record.state = state
        record.finished_s = time.time()
        record.error = error
        self._event(record, "state", state=state, **({"error": error} if error else {}))
        self._cond.notify_all()

    def _loop(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stop:
                    self._cond.wait(timeout=self._poll_s)
                    if not self._queue:
                        self.pool.evict_if_idle()
                if self._stop:
                    return
                batch = [self._records[job_id] for job_id in self._queue]
                self._queue.clear()
                now = time.time()
                for record in batch:
                    record.state = RUNNING
                    record.started_s = now
                    self._event(record, "state", state=RUNNING)
                self._cond.notify_all()
            for group in self._group_by_knobs(batch):
                self._run_group(group)

    def _group_by_knobs(self, batch: List[JobRecord]) -> List[List[JobRecord]]:
        """Split a batch by runner knobs: jobs sharing (timeout,
        max_retries) run through one SweepRunner call."""

        groups: Dict[Tuple, List[JobRecord]] = {}
        for record in batch:
            knobs = (
                record.spec.get("timeout", self.default_timeout),
                record.spec.get("max_retries", self.default_max_retries),
            )
            groups.setdefault(knobs, []).append(record)
        return list(groups.values())

    def _run_group(self, records: List[JobRecord]) -> None:
        all_jobs: List[SweepJob] = []
        slices: List[Tuple[JobRecord, int, int]] = []
        for record in records:
            start = len(all_jobs)
            all_jobs.extend(record.jobs)
            slices.append((record, start, len(all_jobs)))
        timeout = records[0].spec.get("timeout", self.default_timeout)
        max_retries = records[0].spec.get("max_retries", self.default_max_retries)

        def progress(line: str) -> None:
            self._log(line)
            with self._lock:
                for record in records:
                    self._event(record, "progress", line=line)

        runner = SweepRunner(
            jobs=self.workers,
            progress=progress,
            timeout=timeout,
            max_retries=max_retries,
            keep_going=True,
            executor=self.pool,
        )
        try:
            results, report = runner.run_with_report(all_jobs)
        except Exception as error:  # infra failure, not a job failure
            with self._lock:
                for record in records:
                    self._finish(record, FAILED, error=repr(error))
            self._log(f"[service] batch failed: {error!r}")
            return

        with self._lock:
            for record, start, end in slices:
                record.results = results[start:end]
                record.report = self._sub_report(record, report)
                for failure in record.report.failures:
                    self._event(
                        record,
                        "failure",
                        app=failure.app_name,
                        scheme=failure.scheme,
                        disposition=failure.disposition,
                        error=failure.error,
                    )
                state = FAILED if record.report.failures else DONE
                self._finish(record, state)
        for record in records:
            self._log(
                f"[service] job {record.job_id} {record.state} "
                f"({record.report.summary() if record.report else 'no report'})"
            )

    @staticmethod
    def _sub_report(record: JobRecord, batch_report: SweepReport) -> SweepReport:
        """This record's slice of a batch report.

        Timings and failures are attributed by the record's job keys; a
        job shared by two records in one batch ran once but is reported
        to both (each asked for it). ``retries`` is recomputed from the
        per-job attempt counts, which *are* attributable.
        """

        keys = {job.key() for job in record.jobs}
        timings: List[JobTiming] = [
            timing for timing in batch_report.timings if timing.key in keys
        ]
        failures: List[JobFailure] = [
            failure for failure in batch_report.failures if failure.key in keys
        ]
        return SweepReport(
            jobs_submitted=len(record.jobs),
            unique_jobs=len(keys),
            cache_hits=sum(1 for timing in timings if timing.cached),
            jobs_simulated=sum(1 for timing in timings if not timing.cached),
            workers=batch_report.workers,
            wall_clock_s=batch_report.wall_clock_s,
            retries=(
                sum(max(0, t.attempts - 1) for t in timings if not t.cached)
                + sum(max(0, f.attempts - 1) for f in failures)
            ),
            timings=timings,
            failures=failures,
            profiled=batch_report.profiled,
            hotspots=list(batch_report.hotspots),
        )
