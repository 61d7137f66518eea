"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``     — available applications and translation schemes.
- ``run``      — simulate one application on one configuration.
- ``compare``  — run several schemes on one application, show speedups.
- ``config``   — print (or save) a configuration as JSON.
- ``report``   — regenerate EXPERIMENTS.md (all tables and figures).
- ``sweep``    — run a named figure's job grid through the parallel
  sweep runner (``--jobs``, ``--scale``, ``--cache-dir``, plus the
  fault-tolerance knobs ``--timeout``, ``--max-retries``,
  ``--keep-going``; ``--telemetry`` prints the per-job table and, with
  ``REPRO_PROFILE`` set, the merged cProfile hotspots).
- ``trace``    — simulate one application with the execution tracer and
  port timelines attached and export Chrome trace-event JSON (one track
  per CU/SIMD, per shared port, per page-table walker) for Perfetto /
  ``chrome://tracing``.
- ``worker``   — remote sweep worker: connect to the coordinator printed
  by ``sweep --executor remote`` and pull jobs until shutdown
  (``--respawn`` supervises and restarts after crashes).
- ``cache``    — inspect and maintain the content-addressed result store
  (``stats``, ``gc``, ``verify``; ``verify --fingerprints`` emits
  diffable digest/fingerprint lines for cross-backend byte comparison).
- ``serve``    — run the simulation service (:mod:`repro.service`): an
  HTTP API on the standard library's threading server that accepts job
  specs, deduplicates them against in-flight jobs and the disk cache,
  batches concurrent requests onto one shared worker pool, and streams
  NDJSON progress.
- ``submit``   — client for a running service: validate a job spec
  locally (same checks the server applies), POST it, optionally wait
  for completion and print the result/telemetry.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.charts import bar_chart
from repro.analysis.tables import format_plain
from repro.config import SystemConfig, table1_config
from repro.config_io import config_to_json, load_config
from repro.pagetable.page_table import SUPPORTED_PAGE_SIZES
from repro.schemes import DESCRIPTIONS, apply_scheme, scheme_names
from repro.system import GPUSystem
from repro.workloads.registry import CATEGORIES, app_names, make_app

_SUMMARY_COUNTERS = (
    ("page walks", "iommu.walks"),
    ("L1 TLB hits", "l1_tlb.hits"),
    ("L1 TLB misses", "l1_tlb.misses"),
    ("LDS Tx hits", "tx_serviced_by.lds"),
    ("I-cache Tx hits", "tx_serviced_by.icache"),
    ("L2 TLB hits", "tx_serviced_by.l2_tlb"),
    ("DRAM reads", "dram.reads"),
)


def _build_config(args) -> SystemConfig:
    if getattr(args, "config", None):
        config = load_config(args.config)
    else:
        config = table1_config()
    if getattr(args, "scheme", None):
        # perfect-l2-tlb also sets tlb.perfect_l2; a typo raises a
        # ValueError listing the valid names.
        config = apply_scheme(config, args.scheme)
    if getattr(args, "page_size", None) is not None:
        config = config.with_page_size(args.page_size)
    if getattr(args, "l2_tlb_entries", None) is not None:
        config = config.with_l2_tlb_entries(args.l2_tlb_entries)
    return config


def cmd_list(args) -> int:
    print("Applications (Table 2):")
    for name in app_names():
        print(f"  {name:6s} category {CATEGORIES[name]}")
    print("\nSchemes:")
    for scheme, description in DESCRIPTIONS.items():
        print(f"  {scheme.value:22s} {description}")
    return 0


def cmd_run(args) -> int:
    from repro.experiments.common import simulate

    try:
        config = _build_config(args)
    except ValueError as error:
        print(f"repro run: error: {error}", file=sys.stderr)
        return 2
    result = simulate(args.app, config, args.scale)
    if args.json:
        print(
            json.dumps(
                {
                    "app": result.app_name,
                    "scheme": result.scheme,
                    "cycles": result.cycles,
                    "ptw_pki": result.ptw_pki,
                    "counters": result.counters,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"{result.app_name} on scheme '{result.scheme}' (scale {args.scale}):")
    print(f"  cycles        {result.cycles:>14,}")
    print(f"  instructions  {result.instructions:>14,.0f}")
    print(f"  PTW-PKI       {result.ptw_pki:>14.2f}")
    print(f"  L1 TLB HR     {100 * result.hit_ratio('l1_tlb'):>13.1f}%")
    print()
    rows = [
        {"counter": label, "value": int(result.counter(name))}
        for label, name in _SUMMARY_COUNTERS
        if result.counter(name)
    ]
    print(format_plain(rows))
    return 0


def cmd_compare(args) -> int:
    from repro.experiments.common import simulate

    try:
        # Build every configuration up front (actionable error, not a bare
        # ValueError deep in the loop).
        baseline_cfg = _build_config(args)
        configs = [apply_scheme(baseline_cfg, name) for name in args.schemes]
    except ValueError as error:
        print(f"repro compare: error: {error}", file=sys.stderr)
        return 2
    baseline = simulate(args.app, baseline_cfg, args.scale)
    print(
        f"{args.app}: baseline {baseline.cycles:,} cycles "
        f"(PTW-PKI {baseline.ptw_pki:.2f})\n"
    )
    speedups = {}
    rows = []
    for name, config in zip(args.schemes, configs):
        result = simulate(args.app, config, args.scale)
        speedup = baseline.cycles / result.cycles
        speedups[name] = speedup
        walk_ratio = (
            result.page_walks / baseline.page_walks if baseline.page_walks else 1.0
        )
        rows.append(
            {
                "scheme": name,
                "speedup": speedup,
                "walks_vs_baseline": walk_ratio,
                "cycles": result.cycles,
            }
        )
    print(format_plain(rows))
    print()
    print(bar_chart(speedups, baseline=1.0, title="speedup vs baseline"))
    return 0


def cmd_config(args) -> int:
    try:
        config = _build_config(args)
    except ValueError as error:
        print(f"repro config: error: {error}", file=sys.stderr)
        return 2
    text = config_to_json(config)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_report(args) -> int:
    from repro.experiments.report import main as report_main

    return report_main([args.output])


def cmd_trace(args) -> int:
    from repro.sim.trace import ExecutionTracer, write_chrome_trace

    try:
        config = _build_config(args)
    except ValueError as error:
        print(f"repro trace: error: {error}", file=sys.stderr)
        return 2
    app = make_app(args.app, scale=args.scale, page_size=config.page_size)
    system = GPUSystem(config)
    tracer = ExecutionTracer(max_events=args.max_events)
    system.attach_tracer(tracer)
    timelines = system.attach_timelines(max_intervals=args.max_intervals)
    result = system.run(app)
    summary = write_chrome_trace(
        args.out,
        tracer=tracer,
        timelines=timelines,
        metadata={
            "app": result.app_name,
            "scheme": result.scheme,
            "scale": args.scale,
            "cycles": result.cycles,
        },
    )
    print(f"{result.app_name} on scheme '{result.scheme}' (scale {args.scale}):")
    print(f"  cycles            {result.cycles:>14,}")
    print(f"  op events         {len(tracer):>14,}  (dropped {tracer.dropped:,})")
    intervals = sum(len(sampler) for sampler in timelines.values())
    print(f"  port intervals    {intervals:>14,}")
    print(f"  exported          {summary['events']:>14,}  events on "
          f"{summary['tracks']:,} tracks")
    by_kind = sorted(tracer.by_kind().items(), key=lambda item: -item[1])
    for kind, cycles in by_kind[:5]:
        print(f"    {kind:6s} {cycles:>14,} cycles")
    print(f"wrote {args.out} (open in https://ui.perfetto.dev)")
    return 0


def cmd_sweep(args) -> int:
    from repro.experiments import common
    from repro.experiments.report import SWEEP_GRIDS
    from repro.sim.runner import SweepAbort, SweepRunner, telemetry_rows_from_json

    if args.cache_dir:
        common._CACHE_DIR = args.cache_dir

    jobs = SWEEP_GRIDS[args.figure](args.scale)
    executor = args.executor
    remote_executor = None
    if executor == "remote":
        from repro.sim.executors.remote import RemoteExecutor

        try:
            # Checks every flag before its coordinator starts listening.
            remote_executor = RemoteExecutor(
                bind=args.bind,
                min_workers=args.min_workers,
                start_timeout_s=args.start_timeout,
                width=args.jobs,
            )
        except ValueError as error:
            print(f"repro sweep: error: {error}", file=sys.stderr)
            return 2
        except OSError as error:  # e.g. the port is in use
            print(f"repro sweep: error: {args.bind}: {error}", file=sys.stderr)
            return 1
        address = remote_executor.coordinator.address
        print(f"[sweep] coordinator listening on {address}")
        print(f"[sweep] start workers with: repro worker --connect {address}")
        executor = remote_executor
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            progress=print,
            timeout=args.timeout,
            max_retries=args.max_retries,
            keep_going=args.keep_going,
            executor=executor,
        )
    except ValueError as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2
    try:
        _, report = runner.run_with_report(jobs)
    except SweepAbort as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        print("repro sweep: completed results were kept in the cache; "
              "re-run with --keep-going to record failures and continue",
              file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as error:
        # e.g. the remote coordinator timed out waiting for workers, or
        # the runner could not write a result to the store.
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 1
    finally:
        if remote_executor is not None:
            remote_executor.close()
    print(
        f"{args.figure}: {report.jobs_submitted} jobs, "
        f"{report.unique_jobs} unique, {report.cache_hits} cache hits, "
        f"{report.jobs_simulated} simulated in {report.wall_clock_s:.2f}s"
    )
    if report.store:
        counters = ", ".join(
            f"{name} {count}" for name, count in sorted(report.store.items())
        )
        print(f"{args.figure}: result store: {counters}")
    if report.failures:
        print(f"{args.figure}: {len(report.failures)} job(s) failed terminally:")
        for line in report.failure_lines():
            print(f"  {line}")
    if args.telemetry:
        print()
        print("Per-job telemetry:")
        print(format_plain(telemetry_rows_from_json(report.to_json())))
        if report.hotspots:
            print()
            print("Hotspots (cProfile cumulative, merged across workers):")
            for line in report.hotspot_lines():
                print(f"  {line}")
        elif report.profiled:
            print()
            print("REPRO_PROFILE set but no jobs were simulated "
                  "(all cache hits) — no hotspots to report.")
    if getattr(args, "report_json", None):
        with open(args.report_json, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        print(f"wrote {args.report_json}")
    return 0


def cmd_worker(args) -> int:
    from repro.sim.executors.remote import supervise_worker, worker_main

    run = supervise_worker if args.respawn else worker_main
    return run(args.connect, retry_s=args.retry_s, log=print)


def _cache_store(args):
    from repro.experiments import common
    from repro.sim.store import ResultStore

    cache_dir = args.cache_dir or common._CACHE_DIR
    if not cache_dir:
        print("repro cache: error: no cache directory (pass --cache-dir or "
              "set REPRO_CACHE_DIR)", file=sys.stderr)
        return None
    return ResultStore(cache_dir)


def cmd_cache_stats(args) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def cmd_cache_gc(args) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    removed = store.gc(
        max_age_s=args.max_age_s,
        tmp_grace_s=args.tmp_grace_s,
        dry_run=args.dry_run,
    )
    verb = "would remove" if args.dry_run else "removed"
    total = sum(
        count for bucket, count in removed.items() if bucket != "dry_run"
    )
    detail = ", ".join(
        f"{count} {bucket}"
        for bucket, count in sorted(removed.items())
        if bucket != "dry_run" and count
    )
    print(f"repro cache gc: {verb} {total} file(s)"
          + (f" ({detail})" if detail else ""))
    return 0


def cmd_cache_verify(args) -> int:
    store = _cache_store(args)
    if store is None:
        return 2
    outcome = store.verify(fingerprints=args.fingerprints)
    if args.fingerprints:
        for digest, fingerprint in outcome["fingerprints"]:
            print(f"{digest} {fingerprint}")
    print(
        f"repro cache verify: {outcome['checked']} checked, "
        f"{outcome['ok']} ok, {len(outcome['stale'])} stale, "
        f"{len(outcome['corrupt'])} corrupt",
        file=sys.stderr if args.fingerprints else sys.stdout,
    )
    for path in outcome["corrupt"]:
        print(f"  corrupt: {path}", file=sys.stderr)
    for path in outcome["stale"]:
        print(f"  stale: {path}", file=sys.stderr)
    return 1 if outcome["corrupt"] else 0


def cmd_serve(args) -> int:
    from repro.experiments import common
    from repro.service.http import serve
    from repro.service.manager import JobManager

    if not 0 <= args.port <= 65535:
        print(f"repro serve: error: --port must be in 0-65535, got {args.port}",
              file=sys.stderr)
        return 2
    if args.cache_dir:
        common._CACHE_DIR = args.cache_dir
    try:
        manager = JobManager(
            workers=args.jobs,
            idle_timeout_s=args.idle_timeout,
            timeout=args.timeout,
            max_retries=args.max_retries,
            log=print,
        )
    except ValueError as error:
        print(f"repro serve: error: {error}", file=sys.stderr)
        return 2
    if common._CACHE_DIR:
        print(f"[service] disk cache: {common._CACHE_DIR}")
    else:
        print("[service] no disk cache configured (set --cache-dir or "
              "REPRO_CACHE_DIR to persist and share results)")
    try:
        serve(manager, host=args.host, port=args.port, log=print)
    except OSError as error:  # e.g. the port is in use; serve closed the pool
        print(f"repro serve: error: {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 1
    return 0


def _submit_spec(args) -> dict:
    spec: dict = {}
    if args.figure:
        spec["figure"] = args.figure
    if args.apps:
        spec["apps"] = args.apps
    if args.schemes:
        spec["schemes"] = args.schemes
    if args.scale is not None:
        spec["scale"] = args.scale
    if args.timeout is not None:
        spec["timeout"] = args.timeout
    if args.max_retries is not None:
        spec["max_retries"] = args.max_retries
    return spec


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.jobs import validate_spec
    from repro.sim.runner import telemetry_rows_from_json

    if args.status:
        return cmd_submit_status(args)
    spec = _submit_spec(args)
    try:
        # The same validation the server applies, run before any network
        # round-trip, so typos fail here with the valid choices listed.
        validate_spec(spec)
        client = ServiceClient(args.url)
    except ValueError as error:  # a SpecError, or a URL it cannot use
        print(f"repro submit: error: {error}", file=sys.stderr)
        return 2
    with client:
        try:
            submitted = client.submit(spec)
        except (ServiceError, OSError) as error:
            print(f"repro submit: error: {error}", file=sys.stderr)
            return 2
        job_id = submitted["job_id"]
        dedup = " (deduplicated onto an existing job)" if submitted["deduplicated"] else ""
        print(f"job {job_id}: {submitted['state']}, "
              f"{submitted['jobs']} sim job(s){dedup}")
        if not args.wait:
            print(f"poll with: repro submit --url {args.url} --status {job_id}")
            return 0
        try:
            status = client.wait(job_id, timeout=args.wait_timeout)
        except (ServiceError, OSError, TimeoutError) as error:
            print(f"repro submit: error: {error}", file=sys.stderr)
            return 2
        report = status.get("report")
        print(f"job {job_id}: {status['state']}")
        if report:
            print(
                f"  {report['jobs_submitted']} jobs, {report['unique_jobs']} unique, "
                f"{report['cache_hits']} cache hits, {report['jobs_simulated']} "
                f"simulated in {report['wall_clock_s']:.2f}s"
            )
            if args.telemetry:
                print()
                print("Per-job telemetry:")
                print(format_plain(telemetry_rows_from_json(report)))
            for failure in report.get("failures", []):
                print(f"  FAILED {failure['app_name']} {failure['scheme']} "
                      f"[{failure['disposition']}]: {failure['error']}")
        return 0 if status["state"] == "done" else 1


def cmd_submit_status(args) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        with ServiceClient(args.url) as client:
            payload = client.status(args.status)
    except (ServiceError, OSError, ValueError) as error:
        print(f"repro submit: error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Increasing GPU Translation Reach by Leveraging "
            "Under-Utilized On-Chip Resources' (MICRO 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list applications and schemes").set_defaults(
        func=cmd_list
    )

    def add_common(p):
        p.add_argument("--scale", type=float, default=1.0,
                       help="workload scale factor (default 1.0)")
        p.add_argument("--scheme", choices=scheme_names(),
                       help="translation scheme")
        p.add_argument("--page-size", type=int, dest="page_size",
                       help="page size in bytes, one of "
                            f"{', '.join(map(str, SUPPORTED_PAGE_SIZES))} "
                            "(default 4096)")
        p.add_argument("--l2-tlb-entries", type=int, dest="l2_tlb_entries",
                       help="override the shared L2 TLB size")
        p.add_argument("--config", help="JSON configuration file to start from")

    run_parser = sub.add_parser("run", help="simulate one application")
    run_parser.add_argument("app", choices=app_names())
    add_common(run_parser)
    run_parser.add_argument("--json", action="store_true",
                            help="machine-readable output")
    run_parser.set_defaults(func=cmd_run)

    compare_parser = sub.add_parser(
        "compare", help="compare schemes on one application"
    )
    compare_parser.add_argument("app", choices=app_names())
    add_common(compare_parser)
    compare_parser.add_argument(
        "--schemes",
        nargs="+",
        default=["lds", "icache", "icache+lds"],
        choices=scheme_names(),
    )
    compare_parser.set_defaults(func=cmd_compare)

    config_parser = sub.add_parser("config", help="print a configuration as JSON")
    add_common(config_parser)
    config_parser.add_argument("--output", help="write to a file instead")
    config_parser.set_defaults(func=cmd_config)

    report_parser = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report_parser.add_argument("--output", default="EXPERIMENTS.md")
    report_parser.set_defaults(func=cmd_report)

    trace_parser = sub.add_parser(
        "trace",
        help="simulate one application and export a Chrome/Perfetto trace",
    )
    trace_parser.add_argument("app", type=str.upper, choices=app_names())
    add_common(trace_parser)
    trace_parser.add_argument(
        "--out", default="trace.json",
        help="output path for the Chrome trace-event JSON (default trace.json)",
    )
    trace_parser.add_argument(
        "--max-events", type=int, dest="max_events", default=1_000_000,
        help="execution-tracer event capacity (default 1,000,000)",
    )
    trace_parser.add_argument(
        "--max-intervals", type=int, dest="max_intervals", default=100_000,
        help="per-port timeline interval capacity (default 100,000)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    from repro.experiments.report import SWEEP_GRIDS
    from repro.sim.runner import EXECUTOR_NAMES

    sweep_parser = sub.add_parser(
        "sweep", help="run a figure's job grid through the parallel runner"
    )
    sweep_parser.add_argument("figure", choices=sorted(SWEEP_GRIDS))
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores; 1 = serial)",
    )
    sweep_parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale factor (default: REPRO_SCALE or 1.0)",
    )
    sweep_parser.add_argument(
        "--cache-dir", dest="cache_dir",
        help="on-disk result cache directory (default: REPRO_CACHE_DIR)",
    )
    sweep_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-job timeout in seconds, parallel sweeps only "
             "(default: unbounded)",
    )
    sweep_parser.add_argument(
        "--max-retries", type=int, dest="max_retries", default=None,
        help="extra attempts for a failing job beyond the first (default: 2)",
    )
    sweep_parser.add_argument(
        "--keep-going", dest="keep_going", action="store_true",
        help="record terminal job failures and keep sweeping instead of "
             "aborting (failed slots resolve to None)",
    )
    sweep_parser.add_argument(
        "--telemetry", action="store_true",
        help="print the per-job telemetry table (wall time, cache hit/miss, "
             "attempts, worker pid) and, with REPRO_PROFILE set, the merged "
             "cProfile hotspots",
    )
    sweep_parser.add_argument(
        "--json", dest="report_json", metavar="PATH",
        help="also write the structured SweepReport (timings, failures, "
             "hotspots) to PATH — the same payload the service's result "
             "endpoint returns",
    )
    sweep_parser.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default="pool",
        help="execution backend (default: pool). serial runs in-process; "
             "pool uses local worker processes; remote starts a "
             "coordinator that repro worker processes connect to",
    )
    sweep_parser.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="remote executor only: coordinator listen address "
             "(default: 127.0.0.1:0 — an ephemeral port, printed at start; "
             "an IPv6 host as [::1]:PORT or ::1:PORT)",
    )
    sweep_parser.add_argument(
        "--min-workers", dest="min_workers", type=int, default=1,
        help="remote executor only: wait for this many connected workers "
             "before dispatching (default: 1)",
    )
    sweep_parser.add_argument(
        "--start-timeout", dest="start_timeout", type=float, default=120.0,
        help="remote executor only: seconds to wait for --min-workers "
             "connections before giving up (default: 120)",
    )
    sweep_parser.set_defaults(func=cmd_sweep)

    worker_parser = sub.add_parser(
        "worker",
        help="remote sweep worker: connect to a coordinator and pull jobs",
    )
    worker_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address printed by repro sweep --executor remote",
    )
    worker_parser.add_argument(
        "--retry-s", dest="retry_s", type=float, default=15.0,
        help="seconds to keep retrying the initial connection (default: 15)",
    )
    worker_parser.add_argument(
        "--respawn", action="store_true",
        help="supervise the worker and respawn it after a crash (a crash "
             "then costs one job, not the worker slot)",
    )
    worker_parser.set_defaults(func=cmd_worker)

    cache_parser = sub.add_parser(
        "cache", help="inspect and maintain the content-addressed result store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    for name, func, help_text in (
        ("stats", cmd_cache_stats,
         "entry, byte and debris counts (a sweep's hit/miss/store counters "
         "are on its report and the service's /healthz)"),
        ("gc", cmd_cache_gc,
         "remove debris (orphan temp files, quarantined corrupt files, "
         "stale and corrupt entries) and optionally age-expired results"),
        ("verify", cmd_cache_verify,
         "parse every stored result; exit 1 if any is corrupt"),
    ):
        cache_cmd = cache_sub.add_parser(name, help=help_text)
        cache_cmd.add_argument(
            "--cache-dir", dest="cache_dir", default=None,
            help="store directory (default: REPRO_CACHE_DIR)",
        )
        cache_cmd.set_defaults(func=func)
        if name == "gc":
            cache_cmd.add_argument(
                "--max-age-s", dest="max_age_s", type=float, default=None,
                help="also evict results older than this many seconds",
            )
            cache_cmd.add_argument(
                "--tmp-grace-s", dest="tmp_grace_s", type=float, default=3600.0,
                help="age before an orphan temp file counts as debris "
                     "(default: 3600)",
            )
            cache_cmd.add_argument(
                "--dry-run", dest="dry_run", action="store_true",
                help="report what would be removed without removing it",
            )
        elif name == "verify":
            cache_cmd.add_argument(
                "--fingerprints", action="store_true",
                help="print one 'digest fingerprint' line per entry (sorted) "
                     "for diffing two stores byte-for-byte",
            )

    serve_parser = sub.add_parser(
        "serve",
        help="run the simulation service (job-queue HTTP API over the "
             "sweep runner)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8000,
        help="listen port (default 8000; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the shared pool "
             "(default: REPRO_JOBS or all cores; 1 = serial, no pool)",
    )
    serve_parser.add_argument(
        "--cache-dir", dest="cache_dir",
        help="on-disk result cache directory (default: REPRO_CACHE_DIR); "
             "completed specs resubmitted later are served from here",
    )
    serve_parser.add_argument(
        "--idle-timeout", dest="idle_timeout", type=float, default=60.0,
        help="seconds of quiet after which the shared worker pool is "
             "evicted (default 60; it is recreated on the next job)",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-sim-job timeout for specs that do not set one",
    )
    serve_parser.add_argument(
        "--max-retries", type=int, dest="max_retries", default=None,
        help="default retry budget for specs that do not set one",
    )
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit",
        help="submit a job spec to a running service (client side)",
    )
    submit_parser.add_argument(
        "figure", nargs="?", choices=sorted(SWEEP_GRIDS),
        help="named grid to run (or use --apps/--schemes for a custom grid)",
    )
    submit_parser.add_argument(
        "--apps", nargs="+", metavar="APP", type=str.upper,
        help="custom grid: application names",
    )
    submit_parser.add_argument(
        "--schemes", nargs="+", metavar="SCHEME",
        help="custom grid: translation schemes (default: all)",
    )
    submit_parser.add_argument(
        "--scale", type=float, default=None,
        help="workload scale factor (default: server-side REPRO_SCALE)",
    )
    submit_parser.add_argument(
        "--timeout", type=float, default=None,
        help="per-sim-job timeout in seconds for this spec",
    )
    submit_parser.add_argument(
        "--max-retries", type=int, dest="max_retries", default=None,
        help="retry budget for this spec",
    )
    submit_parser.add_argument(
        "--url", default="http://127.0.0.1:8000",
        help="service base URL (default http://127.0.0.1:8000)",
    )
    submit_parser.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its report",
    )
    submit_parser.add_argument(
        "--wait-timeout", dest="wait_timeout", type=float, default=600.0,
        help="give up waiting after this many seconds (default 600)",
    )
    submit_parser.add_argument(
        "--telemetry", action="store_true",
        help="with --wait: print the per-job telemetry table",
    )
    submit_parser.add_argument(
        "--status", metavar="JOB_ID",
        help="instead of submitting, print the status payload of JOB_ID",
    )
    submit_parser.set_defaults(func=cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
