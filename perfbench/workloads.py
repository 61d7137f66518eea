"""The benchmark's four workloads.

``run.py`` drives each workload in the same order:

- ``load()`` imports the parts of ``repro`` it needs, and ``setup()`` builds
  inputs, prefills, starts servers and runs one untimed, checked warm-up
  job; both count as set-up time;
- ``run(cal, seconds)`` is the timed phase, tracing off;
- ``trace(cal, seconds, tracer)`` is the traced phase, which alternates an
  untraced and a traced copy of the same work;
- ``close()`` stops what ``setup()`` started.

Every simulated result is checked; a mismatch or an exception counts as
one failed operation. Every job starts from empty modelled TLBs and
caches, as ``repro run`` does: each job builds a fresh ``GPUSystem``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import json
import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple

import calib
import layers

#: Table 2's high page-walk apps at a small scale (walk-storm).
WALK_APPS = ("ATAX", "GEV", "MVT", "BICG", "GUPS")
WALK_SCALE = 0.05
#: Apps whose pages stay inside TLB reach at this scale (tlb-resident).
RESIDENT_APPS = ("SSSP", "PRK")
RESIDENT_SCALE = 0.5
#: The Figure 13 victim-cache arms; the seed picks one per app.
VICTIM_ARMS = ("lds", "icache", "icache+lds")
#: Snapshots under tests/goldens/: every scheme of these apps at this scale.
GOLDEN_SCHEMES = ("baseline", "lds", "icache", "icache+lds")
GOLDEN_SCALE = 0.05

#: sweep-store: a registered grid with duplicate submissions (90 -> 70).
SWEEP_GRID = "fig13"
SWEEP_SCALE = 0.01
#: Cold sweeps per run; the rest of the run re-serves warm rounds.
COLD_SWEEPS = 2
#: Apps whose grid jobs the traced run simulates serially, to attribute
#: the layers that run inside pool workers (store writes, serialization).
SERIAL_APPS = ("NW", "SSSP", "PRK")
TRACE_WARM_ROUNDS = 20

#: service-rt: each request is all of these apps, in one of their 120
#: orders, under an ordered pair of schemes: 1440 distinct specs of ten
#: jobs each.
SERVICE_APPS = ("NW", "SSSP", "PRK", "GEV", "SRAD")
SERVICE_SCHEMES = ("baseline", "lds", "icache", "icache+lds")
SERVICE_SCALE = 0.01
#: Requests per second of --seconds. The count is fixed rather than timed
#: because the service keeps every finished job, so memory grows with it.
REQUESTS_PER_SECOND = 30
TRACE_REQUESTS = 50

#: Samples needed for a p90 with ten samples beyond it.
MIN_TAIL_SAMPLES = 100


class Tally:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def record(self, label: str, problems: List[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(problems)}")
        return not problems


def wipe(directory: str) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory, exist_ok=True)


@dataclasses.dataclass
class Measurement:
    """What a timed or traced phase produced: metric values by name, and
    human-readable lines printed before the JSON line."""

    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    lines: List[str] = dataclasses.field(default_factory=list)


def busy_fraction(report, width: int) -> float:
    """Job seconds over pool-seconds available: sum of job durations
    divided by (wall clock x pool width)."""

    busy = sum(t.duration_s for t in report.timings if not t.cached)
    return busy / (report.wall_clock_s * width)


def model_counts(results) -> Dict[str, float]:
    """Exact modelled-machine counters summed over ``results``."""

    counts = {"model.translations": 0.0, "model.walks": 0.0, "model.victim_hits": 0.0}
    for result in results:
        counters = result.counters
        counts["model.translations"] += counters.get("translations", 0)
        counts["model.walks"] += counters.get("iommu.walks", 0)
        counts["model.victim_hits"] += (counters.get("tx_serviced_by.lds", 0)
                                        + counters.get("tx_serviced_by.icache", 0))
    return counts


def tail_text(name: str, cal_ms: List[float], raw_ms: List[float]) -> str:
    """``<name>_p90_ms=… (raw …) ``, or the highest percentile with ten
    samples beyond it; empty when there are too few samples."""

    fraction = calib.tail_fraction(len(cal_ms))
    if fraction is None:
        return ""
    return (f"{name}_p{100 * fraction:.0f}_ms={calib.percentile(cal_ms, fraction):.4f} "
            f"(raw {calib.percentile(raw_ms, fraction):.4f}) ")


def span(tracer, name: str, **attrs):
    """A coarse span when tracing, else nothing."""

    return contextlib.nullcontext() if tracer is None else tracer.span(name, **attrs)


def suspended(tracer):
    """The benchmark's own checks run unwrapped."""

    return contextlib.nullcontext() if tracer is None else tracer.suspended()


@contextlib.contextmanager
def traced(tracer, hooks, make_app: bool = False):
    """Wrap ``hooks`` (and ``make_app``) for the body, then unwrap."""

    layers.install(tracer, hooks)
    if make_app:
        layers.install_make_app(tracer)
    try:
        yield
    finally:
        tracer.uninstall()


class Workload:
    name = ""

    def __init__(self, root: str, seed: int, store_dir: str, width: int) -> None:
        self.root = root
        self.seed = seed
        self.store_dir = store_dir
        self.width = width
        self.tally = Tally()
        self.fingerprints: Dict[str, str] = {}

    def load(self) -> None:
        from repro.experiments.common import result_fingerprint, serialize_result
        from repro.schemes import config_for

        self.result_fingerprint = result_fingerprint
        self.serialize_result = serialize_result
        self.config_for = config_for

    def close(self) -> None:
        pass

    def golden(self, app: str, scheme: str) -> Dict:
        path = os.path.join(self.root, "tests", "goldens", f"{app}-{scheme}.json")
        with open(path) as handle:
            return json.load(handle)

    def note(self, label: str, result) -> List[str]:
        """Record ``result``'s fingerprint under ``label``; a result that
        differs from an earlier one under the same label is a mismatch."""

        fingerprint = self.result_fingerprint(result)
        known = self.fingerprints.setdefault(label, fingerprint)
        if known != fingerprint:
            return [f"fingerprint {fingerprint[:12]} != {known[:12]}"]
        return []

    def digest(self) -> str:
        """A digest of every simulated result this run recorded."""

        text = "\n".join(f"{label} {fp}" for label, fp in sorted(self.fingerprints.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- walk-storm and tlb-resident ----------------------------------------------


class SimWorkload(Workload):
    """Jobs simulated one at a time in-process, as ``repro run`` does."""

    apps: Tuple[str, ...] = ()
    scale = 0.0
    golden_app = ""

    def load(self) -> None:
        super().load()
        from repro.system import GPUSystem
        from repro.workloads import registry

        self.GPUSystem = GPUSystem
        # Called through the module so the traced run's wrapper applies.
        self.registry = registry

    def setup(self) -> None:
        rng = random.Random(self.seed)
        jobs = []
        for app in self.apps:
            arm = rng.choice(VICTIM_ARMS)
            jobs.append((app, "baseline"))
            jobs.append((app, arm))
        rng.shuffle(jobs)
        self.jobs = [(app, scheme, self.config_for(scheme)) for app, scheme in jobs]
        # Warm-up op: one golden job, compared exactly with its snapshot.
        scheme = rng.choice(GOLDEN_SCHEMES)
        expected = self.golden(self.golden_app, scheme)
        try:
            result = self.simulate(self.golden_app, self.config_for(scheme), GOLDEN_SCALE)
            got = self.serialize_result(result)
            problems = [] if got == expected else ["differs from tests/goldens"]
            problems += self.note(f"{self.golden_app}/{scheme}/golden", result)
        except Exception as error:
            problems = [repr(error)]
        self.tally.record(f"golden {self.golden_app}/{scheme}", problems)

    def simulate(self, app: str, config, scale: Optional[float] = None):
        scale = self.scale if scale is None else scale
        spec = self.registry.make_app(app, scale=scale, page_size=config.page_size)
        return self.GPUSystem(config).run(spec)

    def run_pass(self, cal: calib.Calibrator, tracer=None) -> Dict:
        """Every job once: per-job raw and calibrated seconds, simulated
        instructions and modelled counts. Results are not kept, so memory
        does not grow with the number of passes."""

        raw_s, cal_s, instructions = [], [], 0
        results = []
        for app, scheme, config in self.jobs:
            label = f"{app}/{scheme}"
            try:
                with cal.window() as window, span(tracer, "job", app=app, scheme=scheme):
                    start = time.perf_counter()
                    result = self.simulate(app, config)
                    window.add(time.perf_counter() - start)
            except Exception as error:
                self.tally.record(label, [repr(error)])
                cal.invalidate()
                continue
            if self.tally.record(label, self.note(label, result)):
                raw_s.append(window.raw[0])
                cal_s.append(window.calibrated[0])
                instructions += result.counters["instructions"]
                results.append(result)
            # A job's systems hold reference cycles. Collect them between
            # jobs, untimed, so each job runs on a clean heap as it does
            # under `repro run`, and peak RSS does not depend on when the
            # collector last ran.
            gc.collect()
            cal.invalidate()
        # Each app simulates the same instructions under every scheme.
        counts: Dict[str, set] = {}
        for result in results:
            counts.setdefault(result.app_name, set()).add(result.counters["instructions"])
        self.tally.record("scheme invariant", [
            f"{app} instruction counts differ across schemes"
            for app, seen in counts.items() if len(seen) > 1])
        return {"raw_s": raw_s, "cal_s": cal_s, "instructions": instructions,
                "model": model_counts(results)}

    def run(self, cal: calib.Calibrator, seconds: float) -> Measurement:
        passes = []
        started = time.perf_counter()
        cal.invalidate()
        while True:
            passes.append(self.run_pass(cal))
            elapsed = time.perf_counter() - started
            if len(passes) >= 2 and elapsed * (1 + 1 / len(passes)) > seconds:
                break
        instructions = sum(p["instructions"] for p in passes)
        cal_total = sum(sum(p["cal_s"]) for p in passes)
        raw_total = sum(sum(p["raw_s"]) for p in passes)
        jobs = sum(len(p["cal_s"]) for p in passes)
        out = Measurement()
        out.metrics["throughput"] = instructions / 1e3 / cal_total
        out.metrics["op_ms"] = 1e3 * cal_total / jobs
        out.lines.append(
            f"sim_kips={out.metrics['throughput']:.1f} kinstr/s "
            f"(raw {instructions / 1e3 / raw_total:.1f}) over {jobs} jobs, "
            f"{len(passes)} passes of {len(self.jobs)}"
        )
        out.lines.append(
            f"job_ms={out.metrics['op_ms']:.2f} (raw {1e3 * raw_total / jobs:.2f}) "
            f"mean over the same jobs"
        )
        return out

    def trace(self, cal: calib.Calibrator, seconds: float, tracer) -> Measurement:
        tracer.measure_overhead()
        started = time.perf_counter()
        untraced_s = traced_s = traced_raw_s = 0.0
        model: Dict[str, float] = {}
        pairs = 0
        while True:
            cal.invalidate()
            plain = self.run_pass(cal)
            # Wrapped before the pass builds its systems: a GPUSystem binds
            # its victim-cache lookups when it is constructed.
            with traced(tracer, layers.SIM_HOOKS, make_app=True), \
                    tracer.span("pass", workload=self.name, index=pairs):
                cal.invalidate()
                traced_pass = self.run_pass(cal, tracer)
            untraced_s += sum(plain["cal_s"])
            traced_s += sum(traced_pass["cal_s"])
            traced_raw_s += sum(traced_pass["raw_s"])
            for name, value in traced_pass["model"].items():
                model[name] = model.get(name, 0.0) + value
            pairs += 1
            if (time.perf_counter() - started) * (1 + 1 / pairs) > seconds:
                break
        out = Measurement()
        out.metrics.update(layers.layer_metrics(tracer, pairs, traced_s / traced_raw_s))
        out.metrics.update({name: value / pairs for name, value in model.items()})
        out.metrics["trace.overhead"] = traced_s / untraced_s
        out.lines.append(f"traced {pairs} pass(es) of {len(self.jobs)} jobs; per-layer "
                         f"values are per pass; overhead {traced_s / untraced_s:.2f}x "
                         f"vs untraced")
        return out


class WalkStorm(SimWorkload):
    name = "walk-storm"
    apps = WALK_APPS
    scale = WALK_SCALE
    golden_app = "NW"


class TLBResident(SimWorkload):
    name = "tlb-resident"
    apps = RESIDENT_APPS
    scale = RESIDENT_SCALE
    golden_app = "SSSP"


# -- sweep-store ----------------------------------------------------------------


class SweepStore(Workload):
    """A registered figure grid through SweepRunner's pool, cold then warm."""

    name = "sweep-store"

    def load(self) -> None:
        super().load()
        from repro.experiments.common import clear_cache
        from repro.experiments.report import SWEEP_GRIDS
        from repro.sim import store
        from repro.sim.runner import SweepJob, SweepRunner

        self.clear_cache = clear_cache
        self.grid_factory = SWEEP_GRIDS[SWEEP_GRID]
        self.store_counters = store
        self.SweepJob = SweepJob
        self.SweepRunner = SweepRunner

    def setup(self) -> None:
        self.grid = self.grid_factory(SWEEP_SCALE)
        self.keys = [job.key() for job in self.grid]
        self.unique = len(set(self.keys))
        scheme = random.Random(self.seed).choice(GOLDEN_SCHEMES)
        wipe(self.store_dir)
        self.clear_cache()
        # Warm-up op: a golden job through the runner's serial path.
        job = self.SweepJob("NW", self.config_for(scheme), GOLDEN_SCALE)
        try:
            results = self.SweepRunner(jobs=1, executor="serial").run([job])
            got = self.serialize_result(results[0])
            problems = [] if got == self.golden("NW", scheme) else ["differs from tests/goldens"]
        except Exception as error:
            problems = [repr(error)]
        self.tally.record(f"golden NW/{scheme}", problems)
        wipe(self.store_dir)
        self.clear_cache()

    def check_results(self, results, report, cold: bool) -> List[str]:
        problems = []
        if report.failures:
            problems.append(f"{len(report.failures)} job failures")
        if report.unique_jobs != self.unique:
            problems.append(f"{report.unique_jobs} unique jobs, want {self.unique}")
        want_hits = 0 if cold else self.unique
        if report.cache_hits != want_hits:
            problems.append(f"{report.cache_hits} cache hits, want {want_hits}")
        seen = set()
        for key, result in zip(self.keys, results):
            if key in seen:
                continue
            seen.add(key)
            if result is None:
                problems.append("missing result")
            else:
                problems += self.note(key, result)
        return problems

    def cold_sweep(self, tracer=None):
        """Wipe the store, then run the grid cold on the pool; returns
        (raw seconds, calibrated seconds, report) or None on failure.

        The pool keeps every core busy and this process idle, so the sweep
        is calibrated by probes sampled all through it.
        """

        wipe(self.store_dir)
        self.clear_cache()
        try:
            with calib.Sampler() as sampler, span(tracer, "sweep", kind="cold-pool"):
                start = time.perf_counter()
                runner = self.SweepRunner(jobs=self.width, executor="pool")
                results, report = runner.run_with_report(self.grid)
                raw = time.perf_counter() - start
        except Exception as error:
            self.tally.record("cold sweep", [repr(error)])
            return None
        if not self.tally.record("cold sweep", self.check_results(results, report, True)):
            return None
        self.cold_results = results
        return raw, calib.calibrate(raw, sampler.samples or [calib.probe()]), report

    def warm_rounds(self, cal: calib.Calibrator, rounds: int, seconds: float,
                    tracer=None) -> Tuple[List[float], List[float]]:
        """Re-serve the grid from the store until ``rounds`` rounds and
        ``seconds`` have passed; per-job raw and calibrated milliseconds
        of each round."""

        raw_ms, cal_ms = [], []
        started = time.perf_counter()
        cal.invalidate()
        for _ in range(2 * rounds + 10):
            if len(raw_ms) >= rounds and time.perf_counter() - started >= seconds:
                break
            results = None
            self.clear_cache()
            try:
                with cal.window() as window, span(tracer, "sweep", kind="warm"):
                    start = time.perf_counter()
                    runner = self.SweepRunner(jobs=self.width, executor="pool")
                    results, report = runner.run_with_report(self.grid)
                    window.add(time.perf_counter() - start)
            except Exception as error:
                self.tally.record("warm round", [repr(error)])
                cal.invalidate()
                continue
            with suspended(tracer):
                problems = self.check_results(results, report, False)
            if self.tally.record("warm round", problems):
                raw_ms.append(1e3 * window.raw[0] / self.unique)
                cal_ms.append(1e3 * window.calibrated[0] / self.unique)
        return raw_ms, cal_ms

    def run(self, cal: calib.Calibrator, seconds: float) -> Measurement:
        # Cold sweeps alternate with warm rounds, so each kind samples the
        # machine at more than one time.
        started = time.perf_counter()
        colds, raw_ms, cal_ms = [], [], []
        for index in range(COLD_SWEEPS):
            cold = self.cold_sweep()
            if cold is None:
                continue
            colds.append(cold)
            share = (index + 1) / COLD_SWEEPS
            warm = self.warm_rounds(
                cal, int(MIN_TAIL_SAMPLES * share) - len(raw_ms),
                seconds * share - (time.perf_counter() - started))
            raw_ms += warm[0]
            cal_ms += warm[1]
        if not colds or not cal_ms:
            raise RuntimeError("no cold sweep or warm round succeeded")
        out = Measurement()
        out.metrics["throughput"] = statistics.median(self.unique / c for _, c, _ in colds)
        out.metrics["op_ms"] = statistics.median(cal_ms)
        out.lines.append(
            f"sweep_jps={out.metrics['throughput']:.3f} jobs/s (raw "
            f"{statistics.median(self.unique / r for r, _, _ in colds):.3f}) over "
            f"{len(colds)} cold sweeps of {len(self.grid)} submitted / {self.unique} "
            f"unique jobs, busy "
            f"{statistics.median(busy_fraction(rep, self.width) for _, _, rep in colds):.2f}"
        )
        out.lines.append(
            f"warm_ms={out.metrics['op_ms']:.4f} (raw {statistics.median(raw_ms):.4f}) "
            f"{tail_text('warm', cal_ms, raw_ms)}per job over {len(cal_ms)} rounds"
        )
        return out

    def serial_pass(self, cal: calib.Calibrator, tracer=None) -> Tuple[float, Dict]:
        """The grid's jobs of SERIAL_APPS simulated cold in-process;
        returns calibrated seconds and the store counters it moved."""

        jobs = [job for job in self.grid if job.app_name in SERIAL_APPS]
        wipe(self.store_dir)
        self.clear_cache()
        cal.invalidate()
        before = self.store_counters.counters_snapshot()
        try:
            with cal.window() as window, span(tracer, "sweep", kind="cold-serial"):
                start = time.perf_counter()
                runner = self.SweepRunner(jobs=1, executor="serial")
                results, report = runner.run_with_report(jobs)
                window.add(time.perf_counter() - start)
        except Exception as error:
            self.tally.record("serial pass", [repr(error)])
            raise
        problems = [] if not report.failures and None not in results else ["failures"]
        self.tally.record("serial pass", problems)
        return window.calibrated[0], self.store_counters.counters_delta(before)

    def trace(self, cal: calib.Calibrator, seconds: float, tracer) -> Measurement:
        """One fixed unit of work: the serial pass and 20 warm rounds,
        each untraced then traced, around one cold pool sweep."""

        tracer.measure_overhead()
        plain_s = self.serial_pass(cal)[0]
        # The system hooks keep simulation time out of the runner's self
        # time; the simulator's inner layers are traced on walk-storm and
        # tlb-resident.
        with traced(tracer, layers.SWEEP_HOOKS + layers.SYSTEM_HOOKS, make_app=True):
            serial_s, serial_counts = self.serial_pass(cal, tracer)
        # Pool workers are forked from this process, so nothing is wrapped
        # while they run: their layers are attributed by the serial pass
        # and by the report's job timings.
        cold = self.cold_sweep(tracer)
        if cold is None:
            raise RuntimeError("the cold sweep failed")
        plain_s += sum(self.warm_rounds(cal, TRACE_WARM_ROUNDS, 0.0)[1]) * self.unique / 1e3
        before = self.store_counters.counters_snapshot()
        with traced(tracer, layers.SWEEP_HOOKS):
            warm_raw, warm_cal = self.warm_rounds(cal, TRACE_WARM_ROUNDS, 0.0, tracer)
        warm_counts = self.store_counters.counters_delta(before)
        traced_s = serial_s + sum(warm_cal) * self.unique / 1e3
        out = Measurement()
        out.metrics.update(layers.layer_metrics(tracer, 1, sum(warm_cal) / sum(warm_raw)))
        unique = {key: result for key, result in zip(self.keys, self.cold_results)}
        out.metrics.update(model_counts(unique.values()))
        hits = serial_counts["hits"] + warm_counts["hits"]
        looked_up = hits + serial_counts["misses"] + warm_counts["misses"]
        out.metrics["store.hit_frac"] = hits / looked_up if looked_up else 0.0
        out.metrics["executors.busy_frac"] = busy_fraction(cold[2], self.width)
        out.metrics["trace.overhead"] = traced_s / plain_s
        out.lines.append(
            f"traced one unit: serial pass over the {', '.join(SERIAL_APPS)} jobs, "
            f"cold pool sweep (untraced), {len(warm_cal)} warm rounds; "
            f"overhead {traced_s / plain_s:.2f}x vs untraced"
        )
        return out


# -- service-rt -------------------------------------------------------------------


class ServiceRT(Workload):
    """One closed-loop client against an in-process service."""

    name = "service-rt"

    def load(self) -> None:
        super().load()
        from repro.experiments.common import clear_cache
        from repro.service.client import ServiceClient
        from repro.service.http import BackgroundServer
        from repro.service.manager import JobManager, TERMINAL_STATES
        from repro.sim.runner import SweepJob, SweepRunner

        self.clear_cache = clear_cache
        self.ServiceClient = ServiceClient
        self.BackgroundServer = BackgroundServer
        self.JobManager = JobManager
        self.terminal = TERMINAL_STATES
        self.SweepJob = SweepJob
        self.SweepRunner = SweepRunner
        self.server = None
        self.manager = None

    def setup(self) -> None:
        rng = random.Random(self.seed)
        specs = [
            {"apps": list(apps), "schemes": list(schemes), "scale": SERVICE_SCALE}
            for apps in itertools.permutations(SERVICE_APPS)
            for schemes in itertools.permutations(SERVICE_SCHEMES, 2)
        ]
        rng.shuffle(specs)
        self.specs = specs
        golden_scheme = rng.choice(GOLDEN_SCHEMES)
        # Prefill: every job any request asks for, simulated now.
        wipe(self.store_dir)
        self.clear_cache()
        pairs = [(app, scheme) for app in SERVICE_APPS for scheme in SERVICE_SCHEMES]
        jobs = [self.SweepJob(app, self.config_for(scheme), SERVICE_SCALE)
                for app, scheme in pairs]
        results = self.SweepRunner(jobs=1, executor="serial").run(jobs)
        self.expected = {}
        for (app, scheme), result in zip(pairs, results):
            fingerprint = self.result_fingerprint(result)
            self.expected[(app, scheme)] = self.fingerprints[f"{app}/{scheme}"] = fingerprint
        self.manager = self.JobManager(workers=1)
        self.server = self.BackgroundServer(self.manager).start()
        self.client = self.ServiceClient(self.server.url)
        # Warm-up op: a golden job simulated by the service itself.
        spec = {"apps": ["NW"], "schemes": [golden_scheme], "scale": GOLDEN_SCALE}
        try:
            payload, _ = self.round_trip(spec)
            ok = (payload.get("state") == "done"
                  and payload["results"][0] == self.golden("NW", golden_scheme))
            problems = [] if ok else ["differs from tests/goldens"]
        except Exception as error:
            problems = [repr(error)]
        self.tally.record(f"golden NW/{golden_scheme}", problems)
        self.next_spec = 0

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.manager is not None:
            self.manager.close()
            self.manager = None

    def round_trip(self, spec: Dict) -> Tuple[Dict, Tuple[float, float, float]]:
        """Submit, follow events to the terminal one, fetch the result;
        returns the payload and the three phases' raw seconds."""

        start = time.perf_counter()
        job_id = self.client.submit(spec)["job_id"]
        submitted = time.perf_counter()
        for event in self.client.events(job_id):
            if event.get("type") == "state" and event.get("state") in self.terminal:
                break
        streamed = time.perf_counter()
        payload = self.client.result(job_id)
        done = time.perf_counter()
        return payload, (submitted - start, streamed - submitted, done - streamed)

    def check(self, spec: Dict, payload: Dict) -> List[str]:
        if payload.get("state") != "done":
            return [f"state {payload.get('state')}"]
        want = [self.expected[(app, scheme)]
                for app in spec["apps"] for scheme in spec["schemes"]]
        if payload.get("fingerprints") != want:
            return ["fingerprints differ from set-up"]
        return []

    def requests(self, cal: calib.Calibrator, count: int, tracer=None) -> List[Dict]:
        """``count`` closed-loop requests, each with a spec not sent before."""

        samples = []
        cal.invalidate()
        for spec in self.specs[self.next_spec:self.next_spec + count]:
            self.next_spec += 1
            try:
                with cal.window() as window, span(tracer, "request"):
                    payload, phases = self.round_trip(spec)
                    window.add(sum(phases))
            except Exception as error:
                self.tally.record("request", [repr(error)])
                cal.invalidate()
                continue
            if self.tally.record("request", self.check(spec, payload)):
                factor = calib.calibrate(1.0, window.probes)
                samples.append({
                    "raw": sum(phases), "cal": sum(phases) * factor,
                    "phases": [p * factor for p in phases],
                    "queue": (payload["started_s"] - payload["created_s"]) * factor,
                    "run": (payload["finished_s"] - payload["started_s"]) * factor,
                })
        if not samples:
            raise RuntimeError("no request succeeded")
        return samples

    def run(self, cal: calib.Calibrator, seconds: float) -> Measurement:
        samples = self.requests(
            cal, max(MIN_TAIL_SAMPLES, round(REQUESTS_PER_SECOND * seconds)))
        cal_ms = [1e3 * s["cal"] for s in samples]
        raw_ms = [1e3 * s["raw"] for s in samples]
        out = Measurement()
        out.metrics["throughput"] = len(samples) / (sum(cal_ms) / 1e3)
        out.metrics["op_ms"] = statistics.median(cal_ms)
        out.lines.append(
            f"rt_ms={out.metrics['op_ms']:.3f} (raw {statistics.median(raw_ms):.3f}) "
            f"{tail_text('rt', cal_ms, raw_ms)}over {len(samples)} "
            f"requests of {2 * len(SERVICE_APPS)} jobs; "
            f"{out.metrics['throughput']:.2f} requests/s"
        )
        return out

    def trace(self, cal: calib.Calibrator, seconds: float, tracer) -> Measurement:
        tracer.measure_overhead()
        plain = self.requests(cal, TRACE_REQUESTS)
        with traced(tracer, layers.SWEEP_HOOKS):
            samples = self.requests(cal, TRACE_REQUESTS, tracer)
        scale = sum(s["cal"] for s in samples) / sum(s["raw"] for s in samples)
        out = Measurement()
        out.metrics.update(layers.layer_metrics(tracer, len(samples), scale))
        for index, name in enumerate(("submit", "events", "result")):
            out.metrics[f"service.{name}_ms"] = 1e3 * statistics.median(
                s["phases"][index] for s in samples)
        out.metrics["service.queue_ms"] = 1e3 * statistics.median(s["queue"] for s in samples)
        out.metrics["service.run_ms"] = 1e3 * statistics.median(s["run"] for s in samples)
        overhead = (statistics.median(s["cal"] for s in samples)
                    / statistics.median(s["cal"] for s in plain))
        out.metrics["trace.overhead"] = overhead
        out.lines.append(f"traced {len(samples)} requests; per-layer values are per "
                         f"request; overhead {overhead:.2f}x vs untraced")
        return out


WORKLOADS = {cls.name: cls for cls in (WalkStorm, TLBResident, SweepStore, ServiceRT)}
