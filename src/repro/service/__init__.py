"""Simulation-as-a-service: a job-queue HTTP API over the sweep runner.

The CLI research tool becomes a long-running service in four small,
dependency-free pieces (stdlib only — ``http.server``, ``http.client``,
``threading`` and ``json``):

- :mod:`repro.service.jobs` — job *specs*: validation with actionable
  errors, canonicalization (so equivalent specs share one identity), and
  expansion into :class:`repro.sim.runner.SweepJob` grids.
- :mod:`repro.service.executor` — :class:`SharedProcessPool`, the
  runner's ``pool`` executor backend with one leased process pool kept
  alive across requests and evicted after an idle quiet period.
- :mod:`repro.service.manager` — :class:`JobManager`, the job queue:
  submissions are deduplicated against in-flight and completed jobs (and,
  transitively, against the on-disk result cache inside the runner), and
  an executor thread batches everything queued into single
  :class:`~repro.sim.runner.SweepRunner` calls on the shared pool.
- :mod:`repro.service.http` / :mod:`repro.service.client` — the HTTP
  front-end on ``http.server.ThreadingHTTPServer``, a thread per
  connection (``POST /jobs``, ``GET /jobs/<id>``, NDJSON progress
  streaming, ``/healthz``, ``/version``), and the tiny stdlib client used
  by tests, examples, and ``python -m repro submit``.

Start it with ``python -m repro serve``; see docs/SERVICE.md for the API
reference and lifecycle semantics.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.executor import SharedProcessPool
from repro.service.jobs import SpecError, expand_spec, spec_key, validate_spec
from repro.service.manager import JobManager, JobRecord

__all__ = [
    "JobManager",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "SharedProcessPool",
    "SpecError",
    "expand_spec",
    "spec_key",
    "validate_spec",
]
