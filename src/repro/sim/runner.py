"""Sweep runner: one collection loop over pluggable executor backends.

Every reproduced figure is a grid of independent ``(app, config, scale)``
simulations — the embarrassingly-parallel shape of TLB-sweep
characterization (Figures 2–3), the main-results grid (Figure 13), and the
DUCATI-style sensitivity sweeps (Figure 16). :class:`SweepRunner` executes
such a grid:

- **Deduplicated**: jobs are identified by the experiment cache key
  (:func:`repro.experiments.common.cache_key`); duplicate submissions and
  already-cached results are never simulated twice.
- **One attempt, one loop, any backend**: every attempt runs
  :func:`run_attempt` — fault hook, optional profiler, the simulation —
  wherever it executes, and one collection loop drives every
  :class:`~repro.sim.executors.base.SweepExecutor` (serial in-process, a
  private or the service's shared process pool, remote workers). Worker
  count comes from the ``jobs`` argument, else ``REPRO_JOBS``, else
  ``os.cpu_count()``; a pool that one worker or one pending job would use
  runs in-process, so ``REPRO_JOBS=1`` keeps pdb/coverage/profiling
  usable.
- **Deterministic**: the simulator itself is deterministic, workers share
  nothing mutable, and results are reassembled by submission index — a
  parallel sweep returns byte-identical results to a serial one, in
  submission order (``tests/sim/test_runner.py`` enforces this).
- **Fault-tolerant**: a failed attempt is resubmitted at once while
  retries remain (``max_retries``) — the simulation is deterministic, so
  a delay would not change its outcome — hung jobs are bounded by a
  per-job ``timeout``, and a crashed worker (``BrokenProcessPool``) does
  not abort the sweep: the executor is recycled and the lost jobs
  re-submitted. Jobs that repeatedly coincide with crashes are re-run
  one at a time in the backend's most isolated context, so an innocent
  bystander of a crashing neighbour still completes and the true culprit
  is attributed precisely. A job that still fails after all of that becomes a terminal
  :class:`JobFailure` record; with ``keep_going=True`` the sweep finishes
  every other job and returns ``None`` at the failed slots, otherwise
  :class:`SweepAbort` is raised (completed results survive in the caches
  either way).
- **Observable**: each run produces a :class:`SweepReport` (jobs run,
  cache hits, retries, failures, wall clock, per-job p50/p95) and optional
  ``log``-style progress lines. Every job carries per-job telemetry — wall
  time, cache hit/miss, attempts, executing worker pid — rendered by
  ``python -m repro sweep --telemetry`` and the report module's warm-up
  section. With ``REPRO_PROFILE`` set (see :mod:`repro.sim.profiling`),
  each simulated job additionally contributes cProfile hotspots that are
  merged across workers into ``SweepReport.hotspots``.

Fault injection (tests / CI): set the ``REPRO_FAULT_SPEC`` environment
variable (see :func:`parse_fault_spec`) before building a
:class:`SweepRunner` to inject exceptions, hangs, and hard crashes
deterministically. The runner parses it once and sends the resulting
:class:`SpecFault` with every attempt, which calls it as
``fault(job, attempt)`` in the executing process right before the
simulation, so every backend sees the same faults.

Caches: the runner's process is the only place a sweep reads or writes
them. It resolves one store per run from
:func:`repro.experiments.common.default_store` (``REPRO_CACHE_DIR`` /
``--cache-dir``), looks each unique job up once (memo, then store), and
writes each finished result to both from its own process. Attempts only
simulate, so workers need no access to the store and keep no results,
and every store counter of a run is counted in the process that reports
it. A result that a worker finishes after its runner has died or raised
is not written. Experiment harnesses declare their grid once
(:class:`repro.experiments.common.Grid`), run it through the runner, and
assemble rows from the returned results. Each :class:`SweepReport` goes
to its caller and is held nowhere else, so a long-lived process keeps no
report it has dropped.
"""

from __future__ import annotations

import contextlib
import fnmatch
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.config import SystemConfig
from repro.sim.profiling import (
    DEFAULT_TOP as DEFAULT_PROFILE_TOP,
    Hotspot,
    HotspotProfiler,
    merge_hotspots,
    profile_top,
)
from repro.sim.results import SimResult
from repro.sim.stats import _percentile as _linear_percentile
from repro.sim.store import counters_delta, counters_snapshot

#: Environment variable controlling the default worker count.
JOBS_ENV = "REPRO_JOBS"
#: Deterministic fault-injection spec (see :func:`parse_fault_spec`).
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

#: The executor selector names (``SweepRunner(executor=...)``,
#: ``repro sweep --executor``).
EXECUTOR_NAMES = ("serial", "pool", "remote")

DEFAULT_MAX_RETRIES = 2

#: Version tag of :meth:`SweepReport.to_json` payloads. Bump whenever the
#: serialized shape of the report (or of its timing/failure/hotspot rows)
#: changes, so service clients and archived telemetry never misparse.
REPORT_SCHEMA = "repro-sweepreport-v1"


@dataclass(frozen=True)
class SweepJob:
    """One simulation of ``app_name`` under ``config`` at ``scale``."""

    app_name: str
    config: SystemConfig
    scale: float

    def key(self) -> str:
        from repro.experiments.common import cache_key

        return cache_key(self.app_name, self.config, self.scale)


@dataclass
class JobTiming:
    """Per-job telemetry record of one unique job within a sweep.

    ``attempts`` counts executions including the successful one (0 for a
    cache hit); ``worker_pid`` is the pid of the process that ran the
    winning attempt (the parent's own pid on the serial path, 0 for a
    cache hit).
    """

    key: str
    app_name: str
    scheme: str
    duration_s: float
    cached: bool
    attempts: int = 1
    worker_pid: int = 0


@dataclass
class JobFailure:
    """Terminal record of one job the sweep could not complete.

    ``disposition`` says how the last attempt died: ``"exception"`` (the
    worker raised), ``"timeout"`` (exceeded the per-job timeout), or
    ``"crash"`` (the worker process died, confirmed in isolation).
    """

    key: str
    app_name: str
    scheme: str
    attempts: int
    error: str
    disposition: str

    def describe(self) -> str:
        return (
            f"{self.app_name} {self.scheme} failed after "
            f"{self.attempts} attempt(s) [{self.disposition}]: {self.error}"
        )


class SweepAbort(RuntimeError):
    """A job failed terminally and the runner was not ``keep_going``.

    Carries the offending :class:`JobFailure` and the partial
    :class:`SweepReport`; everything completed before the abort has
    already been absorbed into the in-process and on-disk caches.
    """

    def __init__(self, failure: JobFailure, report: "SweepReport") -> None:
        super().__init__(f"sweep aborted: {failure.describe()}")
        self.failure = failure
        self.report = report


class FaultInjection(RuntimeError):
    """Raised by an injected ``exc`` fault (and by ``crash`` faults that
    would otherwise kill the parent process in the serial path)."""


def _row(record) -> Dict:
    """``dataclasses.asdict`` of a timing, failure or hotspot record,
    whose fields hold only scalars, without asdict's recursive copy."""

    return {name: getattr(record, name) for name in record.__dataclass_fields__}


@dataclass
class SweepReport:
    """What one :meth:`SweepRunner.run` did, and how long it took."""

    jobs_submitted: int = 0
    unique_jobs: int = 0
    cache_hits: int = 0
    jobs_simulated: int = 0
    #: The width the executor granted (0 when every job was a cache hit).
    workers: int = 0
    wall_clock_s: float = 0.0
    retries: int = 0
    timings: List[JobTiming] = field(default_factory=list)
    failures: List[JobFailure] = field(default_factory=list)
    #: True when ``REPRO_PROFILE`` was active for this sweep.
    profiled: bool = False
    #: Cross-worker cProfile top-N (empty unless ``profiled``).
    hotspots: List[Hotspot] = field(default_factory=list)
    #: Disk-store counter increments during this sweep (hits, misses,
    #: stores, quarantined, ...; see :mod:`repro.sim.store`), all counted
    #: in the runner's process, the only one that touches the store; empty
    #: when no disk cache is configured.
    store: Dict[str, int] = field(default_factory=dict)

    def _simulated_durations(self) -> List[float]:
        return sorted(t.duration_s for t in self.timings if not t.cached)

    @staticmethod
    def _percentile(sorted_values: List[float], fraction: float) -> float:
        # Shared linear-interpolation percentile (repro.sim.stats), so
        # sweep p50/p95 agree with every other percentile in the repo.
        if not sorted_values:
            return 0.0
        return _linear_percentile(sorted_values, fraction)

    @property
    def p50_s(self) -> float:
        return self._percentile(self._simulated_durations(), 0.50)

    @property
    def p95_s(self) -> float:
        return self._percentile(self._simulated_durations(), 0.95)

    def failure_lines(self) -> List[str]:
        """One ``log``-style line per terminal failure."""

        return [f"[sweep] FAILED {failure.describe()}" for failure in self.failures]

    def to_json(self) -> Dict:
        """The versioned, JSON-ready form of this report.

        Everything downstream consumers need is structured here — counts,
        wall clock, per-job timings, terminal failures, merged hotspots —
        and both the service's result endpoint and ``repro sweep``'s
        ``--telemetry``/``--json`` output are rendered from this one form
        (see :func:`telemetry_rows_from_json`).
        """

        return {
            "schema": REPORT_SCHEMA,
            "jobs_submitted": self.jobs_submitted,
            "unique_jobs": self.unique_jobs,
            "cache_hits": self.cache_hits,
            "jobs_simulated": self.jobs_simulated,
            "workers": self.workers,
            "wall_clock_s": self.wall_clock_s,
            "retries": self.retries,
            "profiled": self.profiled,
            # Derived, included for consumers that only see the payload.
            "p50_s": self.p50_s,
            "p95_s": self.p95_s,
            "timings": [_row(timing) for timing in self.timings],
            "failures": [_row(failure) for failure in self.failures],
            "hotspots": [_row(hotspot) for hotspot in self.hotspots],
            "store": dict(self.store),
        }

    def hotspot_lines(self) -> List[str]:
        """One line per merged cProfile hotspot (empty unless profiled)."""

        return [hotspot.describe() for hotspot in self.hotspots]

    def summary(self) -> str:
        """One ``log``-style line describing the whole sweep."""

        line = (
            f"[sweep] {self.jobs_submitted} jobs "
            f"({self.unique_jobs} unique, {self.cache_hits} cache hits, "
            f"{self.jobs_simulated} simulated) on {self.workers} worker(s) "
            f"in {self.wall_clock_s:.2f}s "
            f"(per-job p50 {self.p50_s:.2f}s, p95 {self.p95_s:.2f}s)"
        )
        if self.retries:
            line += f", {self.retries} retr{'y' if self.retries == 1 else 'ies'}"
        if self.failures:
            line += f", {len(self.failures)} FAILED"
        return line


def telemetry_rows_from_json(payload: Dict) -> List[Dict]:
    """Table rows (the ``--telemetry`` format) from a :meth:`SweepReport.to_json`
    payload — shared by the CLI and service clients that only hold the
    serialized report."""

    rows: List[Dict] = []
    for timing in payload.get("timings", []):
        rows.append(
            {
                "app": timing["app_name"],
                "scheme": timing["scheme"],
                "cached": "hit" if timing["cached"] else "miss",
                "wall_s": f"{timing['duration_s']:.3f}",
                "attempts": timing["attempts"] if not timing["cached"] else 0,
                "worker": timing["worker_pid"] if timing["worker_pid"] else "-",
            }
        )
    for failure in payload.get("failures", []):
        rows.append(
            {
                "app": failure["app_name"],
                "scheme": failure["scheme"],
                "cached": "FAILED",
                "wall_s": "-",
                "attempts": failure["attempts"],
                "worker": "-",
            }
        )
    return rows


def default_workers() -> int:
    """Worker count from ``REPRO_JOBS``, else ``os.cpu_count()``."""

    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{JOBS_ENV} must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"{JOBS_ENV} must be >= 1, got {value}")
        return value
    return os.cpu_count() or 1


# -- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class _FaultRule:
    app: str
    scheme: str
    kind: str  # "exc" | "hang" | "crash"
    arg: float
    max_attempt: Optional[int]


class SpecFault:
    """Picklable fault hook built from a ``REPRO_FAULT_SPEC`` string.

    Invoked as ``fault(job, attempt)`` in the executing process. ``crash``
    rules hard-kill that process with ``os._exit`` — but never the process
    that parsed the spec, the runner's (the serial path degrades them to
    :class:`FaultInjection` so a misconfigured spec cannot take down the
    whole sweep, let alone pytest).
    """

    def __init__(self, rules: Sequence[_FaultRule]) -> None:
        self.rules = list(rules)
        self.parent_pid = os.getpid()

    def __call__(self, job: SweepJob, attempt: int) -> None:
        for rule in self.rules:
            if not fnmatch.fnmatchcase(job.app_name, rule.app):
                continue
            if not fnmatch.fnmatchcase(job.config.scheme.value, rule.scheme):
                continue
            if rule.max_attempt is not None and attempt > rule.max_attempt:
                continue
            if rule.kind == "exc":
                raise FaultInjection(
                    f"injected exception for {job.app_name} "
                    f"{job.config.scheme.value} (attempt {attempt})"
                )
            if rule.kind == "hang":
                time.sleep(rule.arg)
                return
            if rule.kind == "crash":
                if os.getpid() == self.parent_pid:
                    raise FaultInjection(
                        f"injected crash for {job.app_name} demoted to an "
                        "exception (would have killed the parent process)"
                    )
                os._exit(42)


def parse_fault_spec(text: str) -> SpecFault:
    """Parse a deterministic fault-injection spec into a fault callable.

    Grammar (rules separated by ``;``)::

        rule := APP ":" SCHEME ":" KIND [":" SECONDS] ["@" MAX_ATTEMPT]
        KIND := "exc" | "crash" | "hang"

    ``APP`` and ``SCHEME`` are ``fnmatch`` patterns (``*`` matches all).
    ``SECONDS`` only applies to ``hang`` (default 30). ``@N`` fires the
    rule only while the job's attempt number is <= N, so
    ``"ATAX:*:exc@1"`` fails ATAX's first attempt and lets the retry
    succeed — deterministic across processes with no shared state.
    """

    rules: List[_FaultRule] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 3:
            raise ValueError(f"bad fault rule {chunk!r}: want APP:SCHEME:KIND")
        app, scheme, tail = parts[0], parts[1], ":".join(parts[2:])
        max_attempt: Optional[int] = None
        if "@" in tail:
            tail, raw = tail.rsplit("@", 1)
            max_attempt = int(raw)
        kind_parts = tail.split(":")
        kind = kind_parts[0]
        if kind not in ("exc", "crash", "hang"):
            raise ValueError(f"bad fault kind {kind!r} in {chunk!r}")
        if len(kind_parts) > 1:
            arg = float(kind_parts[1])
        else:
            arg = 30.0 if kind == "hang" else 0.0
        rules.append(
            _FaultRule(
                app=app, scheme=scheme, kind=kind, arg=arg, max_attempt=max_attempt
            )
        )
    if not rules:
        raise ValueError(f"empty fault spec {text!r}")
    return SpecFault(rules)


# -- job plumbing ------------------------------------------------------------


@dataclass
class WorkerOutcome:
    """Everything a successful simulation attempt reports back.

    Picklable: crosses the process boundary on the pool and remote
    backends and stays in-process on the serial one, so every backend
    feeds identical telemetry into :class:`JobTiming` / :class:`SweepReport`.
    """

    result: SimResult
    duration_s: float
    worker_pid: int
    hotspots: Optional[List[Hotspot]] = None


def run_attempt(
    job: SweepJob, attempt: int, fault: Optional[SpecFault]
) -> WorkerOutcome:
    """One attempt, the body every backend runs wherever it executes:
    fault hook, optional profiler, then
    :func:`repro.experiments.common.simulate`.

    It reads and writes no memo and no store — the runner does both, in
    its own process — so long-lived pool workers, service workers and
    ``repro worker`` processes need no store and keep no results.
    """

    from repro.experiments import common

    started = time.perf_counter()
    if fault is not None:
        fault(job, attempt)
    top_n = profile_top()
    profiler = HotspotProfiler(top_n) if top_n else None
    with profiler or contextlib.nullcontext():
        result = common.simulate(job.app_name, job.config, job.scale)
    return WorkerOutcome(
        result=result,
        duration_s=time.perf_counter() - started,
        worker_pid=os.getpid(),
        hotspots=profiler.hotspots() if profiler else None,
    )


@dataclass
class _Pending:
    """Mutable retry state of one unique job awaiting execution."""

    job: SweepJob
    key: str
    attempt: int = 1
    submitted: float = 0.0  # monotonic submission time of the live attempt

    @property
    def label(self) -> str:
        return f"{self.job.app_name} {self.job.config.scheme.value}"


class SweepRunner:
    """Execute a job grid, deduplicated and (optionally) in parallel.

    Parameters
    ----------
    jobs:
        Worker count. ``None`` defers to ``REPRO_JOBS`` /
        ``os.cpu_count()``; ``1`` forces the serial in-process path.
    progress:
        Optional callable receiving human-readable progress lines
        (e.g. ``print``). ``None`` silences progress output.
    timeout:
        Per-job wall-clock budget in seconds (``None`` = unbounded).
        Enforced on process-backed executors only — a single in-process
        simulation cannot be preempted.
    max_retries:
        Extra attempts granted to a failing job beyond the first
        (``None`` = 2), each resubmitted as soon as its attempt fails.
    keep_going:
        When ``True``, a terminally failed job becomes a
        :class:`JobFailure` record plus a ``None`` result placeholder and
        the sweep continues; when ``False`` (default) the first terminal
        failure raises :class:`SweepAbort`.
    executor:
        Which backend executes attempts (see :mod:`repro.sim.executors`):
        ``"pool"`` (default) fans across a
        private local process pool; ``"serial"`` runs in-process
        regardless of worker count; or a
        :class:`~repro.sim.executors.base.SweepExecutor` *instance* — the
        service's shared :class:`~repro.service.executor.SharedProcessPool`,
        or a remote executor (the only way to select ``"remote"``, which
        needs a live coordinator; ``repro sweep --executor remote`` builds
        one). A pool, private or shared, runs in-process when only one
        worker or one pending job would use it.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        keep_going: bool = False,
        executor: Union[str, "SweepExecutor"] = "pool",
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.workers = jobs if jobs is not None else default_workers()
        self.progress = progress
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        self.max_retries = DEFAULT_MAX_RETRIES if max_retries is None else max_retries
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        self.keep_going = keep_going
        spec = os.environ.get(FAULT_SPEC_ENV, "").strip()
        self.fault = parse_fault_spec(spec) if spec else None
        if isinstance(executor, str):
            if executor not in EXECUTOR_NAMES:
                raise ValueError(
                    f"executor must be one of {'/'.join(EXECUTOR_NAMES)} (or a "
                    f"SweepExecutor instance), got {executor!r}"
                )
            if executor == "remote":
                raise ValueError(
                    "the remote executor needs a live coordinator: pass "
                    "executor=repro.sim.executors.remote.RemoteExecutor(...) "
                    "(repro sweep --executor remote builds one)"
                )
        self.executor = executor
        self._hotspot_groups: List[List[Hotspot]] = []

    def _log(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def run(self, jobs: Sequence[SweepJob]) -> List[Optional[SimResult]]:
        """Run ``jobs``; returns results in submission order.

        Failed jobs (only possible with ``keep_going=True``) appear as
        ``None`` placeholders at their submission slots. Use
        :meth:`run_with_report` for the detailed :class:`SweepReport`.
        """

        results, _ = self.run_with_report(jobs)
        return results

    def run_with_report(
        self, jobs: Sequence[SweepJob]
    ) -> Tuple[List[Optional[SimResult]], SweepReport]:
        from repro.experiments import common

        started = time.perf_counter()
        store_before = counters_snapshot()
        # One store per run, read and written only by this process.
        store = common.default_store()
        report = SweepReport(
            jobs_submitted=len(jobs), profiled=bool(profile_top())
        )
        self._hotspot_groups = []

        # Deduplicate by cache key, keeping first-submission order.
        keys = [job.key() for job in jobs]
        unique: Dict[str, SweepJob] = {}
        for key, job in zip(keys, jobs):
            unique.setdefault(key, job)
        report.unique_jobs = len(unique)

        resolved: Dict[str, Optional[SimResult]] = {}
        pending: List[_Pending] = []
        for key, job in unique.items():
            cached = common.lookup(key, store)
            if cached is None:
                pending.append(_Pending(job, key))
                continue
            resolved[key] = cached
            report.cache_hits += 1
            report.timings.append(
                JobTiming(
                    key=key,
                    app_name=job.app_name,
                    scheme=job.config.scheme.value,
                    duration_s=0.0,
                    cached=True,
                    attempts=0,
                    worker_pid=0,
                )
            )

        try:
            if pending:
                self._collect(common, store, pending, resolved, report)
        finally:
            # Only jobs that finished: an abort or a lost pool leaves some
            # pending jobs unrun, and a failed job simulated nothing.
            report.jobs_simulated = sum(1 for t in report.timings if not t.cached)
            report.wall_clock_s = time.perf_counter() - started
            if store is not None:
                report.store = counters_delta(store_before)
            if self._hotspot_groups:
                report.hotspots = merge_hotspots(
                    self._hotspot_groups, profile_top() or DEFAULT_PROFILE_TOP
                )
            self._log(report.summary())
        return [resolved[key] for key in keys], report

    def _executor_for(self, pending_count: int) -> "SweepExecutor":
        """The backend for one run.

        The width-1 rule: a pool — private or shared — that only one
        worker or one pending job would use runs in-process instead, so
        ``REPRO_JOBS=1`` stays free of any pool (pdb, coverage and
        profiling keep working).
        """

        from repro.sim.executors.local import PoolExecutor, SerialExecutor

        executor = PoolExecutor() if self.executor == "pool" else self.executor
        if executor == "serial" or (
            isinstance(executor, PoolExecutor)
            and min(self.workers, pending_count) == 1
        ):
            return SerialExecutor()
        return executor

    # -- the collection loop -----------------------------------------------

    def _collect(self, common, store, pending, resolved, report) -> None:
        """Drive ``pending`` through one executor until every job has
        succeeded or failed terminally — the one loop for every backend.

        Each finished result is written (memo and store) after the loop's
        next round of submissions, so the store's fsync overlaps the
        workers' next jobs, and before this returns or raises.
        """

        executor = self._executor_for(len(pending))
        total, done = len(pending), 0
        queue: deque = deque(pending)
        suspects: List[_Pending] = []
        in_flight: Dict[Future, _Pending] = {}
        unwritten: Deque[Tuple[str, SimResult]] = deque()
        workers = report.workers = executor.acquire(min(self.workers, total))
        self._log(
            f"[sweep] {total} job(s) to simulate "
            f"({report.cache_hits} cache hit(s)) on {workers} worker(s)"
        )

        def write_finished() -> None:
            while unwritten:
                key, result = unwritten.popleft()
                common.remember(key, result, store)

        def succeed(entry: _Pending, outcome: WorkerOutcome) -> None:
            nonlocal done
            done += 1
            resolved[entry.key] = outcome.result
            unwritten.append((entry.key, outcome.result))
            if outcome.hotspots:
                self._hotspot_groups.append(outcome.hotspots)
            report.timings.append(
                JobTiming(
                    key=entry.key,
                    app_name=entry.job.app_name,
                    scheme=entry.job.config.scheme.value,
                    duration_s=outcome.duration_s,
                    cached=False,
                    attempts=entry.attempt,
                    worker_pid=outcome.worker_pid,
                )
            )
            self._log(
                f"[sweep] {done}/{total} {entry.label} {outcome.duration_s:.2f}s"
            )

        def fail(entry: _Pending, error: BaseException, disposition: str) -> None:
            failure = JobFailure(
                key=entry.key,
                app_name=entry.job.app_name,
                scheme=entry.job.config.scheme.value,
                attempts=entry.attempt,
                error=repr(error),
                disposition=disposition,
            )
            report.failures.append(failure)
            resolved[entry.key] = None
            self._log(f"[sweep] FAILED {failure.describe()}")
            if not self.keep_going:
                raise SweepAbort(failure, report)

        def retry(entry: _Pending, error: BaseException, disposition: str) -> None:
            # Every failed attempt is re-queued at once while retries
            # remain. Past that, a crash goes to the isolation pass (every
            # in-flight future reports the same BrokenProcessPool, so the
            # culprit is unknown) and anything else fails terminally.
            if entry.attempt <= self.max_retries:
                report.retries += 1
                self._log(
                    f"[sweep] retrying {entry.label} "
                    f"(attempt {entry.attempt} failed: {error!r})"
                )
                entry.attempt += 1
                queue.append(entry)
            elif disposition == "crash":
                suspects.append(entry)
            else:
                fail(entry, error, disposition)

        def recycle(reason: str) -> None:
            # A wedged or crashed execution context cannot be reclaimed:
            # have the backend replace it. In-flight jobs are re-queued as
            # innocent collateral with their attempt counts untouched, so
            # only genuinely failing jobs burn retries.
            queue.extend(in_flight.values())
            in_flight.clear()
            executor.recycle(reason)
            self._log(f"[sweep] {reason}; executor recycled, lost jobs re-queued")

        try:
            while queue or in_flight:
                while queue and len(in_flight) < workers:
                    entry = queue.popleft()
                    try:
                        future = executor.submit(entry.job, entry.attempt, self.fault)
                    except (BrokenProcessPool, RuntimeError):
                        queue.appendleft(entry)
                        recycle("executor broke on submit")
                        break
                    entry.submitted = time.monotonic()
                    in_flight[future] = entry
                write_finished()
                if not in_flight:  # the executor broke on submit
                    continue

                wait_timeout = None
                if self.timeout is not None:
                    nearest = min(e.submitted for e in in_flight.values())
                    wait_timeout = (
                        max(0.0, nearest + self.timeout - time.monotonic()) + 0.01
                    )
                finished, _ = wait(
                    set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )

                crashed = False
                for future in finished:
                    entry = in_flight.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as error:
                        crashed = True
                        retry(entry, error, "crash")
                    except Exception as error:
                        retry(entry, error, "exception")
                    else:
                        succeed(entry, outcome)
                if crashed:
                    recycle("worker process crashed")
                    continue

                if self.timeout is not None:
                    now = time.monotonic()
                    hung = [
                        future for future, entry in in_flight.items()
                        if now - entry.submitted >= self.timeout
                        and not future.done()
                    ]
                    for future in hung:
                        retry(
                            in_flight.pop(future),
                            FuturesTimeoutError(
                                f"job exceeded the per-job timeout "
                                f"({self.timeout:.2f}s)"
                            ),
                            "timeout",
                        )
                    if hung:
                        recycle(f"{len(hung)} job(s) timed out")

            # Crash attribution, still inside the try so the executor (and
            # a remote coordinator) is alive: one suspect at a time in the
            # backend's most isolated context. An innocent bystander
            # completes; a job that kills even that context is the culprit.
            for entry in suspects:
                self._log(f"[sweep] isolating {entry.label} for crash attribution")
                try:
                    outcome = executor.run_isolated(
                        entry.job, entry.attempt, self.fault, self.timeout
                    )
                except BrokenProcessPool as error:
                    fail(entry, error, "crash")
                except FuturesTimeoutError as error:
                    fail(entry, error, "timeout")
                except Exception as error:
                    fail(entry, error, "exception")
                else:
                    succeed(entry, outcome)
        finally:
            # dirty: an exception (e.g. SweepAbort) left futures in
            # flight — a backend that reuses contexts must not lease
            # that context again.
            executor.close(dirty=bool(in_flight))
            write_finished()

