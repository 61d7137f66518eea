"""Equivalence battery: one result, however it is produced or looked up.

A simulated result is a pure function of its application, scale and
configuration. These tests check that the different ways of producing or
finding a result agree byte for byte:

- a sweep job retried after an injected fault vs a clean run;
- a run with a timeline sampler and an idle tracker on every port vs the
  same run unobserved;
- a concurrent pair run again after the same pair ran in the opposite
  order, in the same process (a system shares no state with the next);
- the reversed lookup order and ``dedup_shared_fills`` on a scheme with
  no LDS or I-cache for them to act on;
- cache keys, pinned to the values they had while ``SystemConfig`` still
  carried an ``engine`` field that the key left out.

The per-arm result pins live in ``test_pins.py``; comparisons here use
:func:`serialize_result` (full structured equality, so a mismatch prints
the differing counters) and :func:`result_fingerprint`.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import List, Optional

import pytest

from repro.config import SystemConfig, TxScheme, table1_config
from repro.experiments import common
from repro.experiments.common import result_fingerprint, serialize_result
from repro.experiments.fig13_main import sweep_jobs as fig13_sweep_jobs
from repro.sim.engine import Port
from repro.sim.runner import SweepJob, SweepRunner
from repro.sim.stats import PortIdleTracker
from repro.sim.trace import TimelineSampler
from repro.system import GPUSystem
from repro.workloads.registry import make_app

SCALE = 0.02

# sha256 over the newline-joined SweepJob.key() values of the Figure 13
# grid at SCALE, in grid order (90 jobs, 70 unique keys).
FIG13_KEYS_SHA256 = "e7e162a3b38dd2b1ca0ab80e761ed99b7153b40bc070a48f19f2ec3aeb8f6489"


@pytest.fixture(autouse=True)
def _memory_only_cache(monkeypatch):
    """No disk cache, no inherited sweep env, clean in-process cache."""

    monkeypatch.setattr(common, "_CACHE_DIR", "")
    for name in (
        "REPRO_FAULT_SPEC",
        "REPRO_TIMEOUT",
        "REPRO_MAX_RETRIES",
        "REPRO_KEEP_GOING",
        "REPRO_JOBS",
    ):
        monkeypatch.delenv(name, raising=False)
    common.clear_cache()
    yield
    common.clear_cache()


def run_app(app_name: str, config: SystemConfig, system: Optional[GPUSystem] = None):
    app = make_app(app_name, scale=SCALE, page_size=config.page_size)
    return (system or GPUSystem(config)).run(app)


def run_pair(app_names: List[str], config: SystemConfig):
    apps = [make_app(name, scale=SCALE, page_size=config.page_size) for name in app_names]
    cus = config.gpu.num_cus
    partitions = [list(range(cus // 2)), list(range(cus // 2, cus))]
    return GPUSystem(config).run_concurrent(apps, partitions)


def assert_byte_identical(expected, actual) -> None:
    """Full structured equality first (readable diffs), then the digest."""

    assert serialize_result(actual) == serialize_result(expected)
    assert result_fingerprint(actual) == result_fingerprint(expected)


def _ports(root) -> List[Port]:
    """Every Port reachable from ``root`` through attributes and containers."""

    found: List[Port] = []
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (str, bytes, int, float, bool, type(None))):
            continue
        seen.add(id(obj))
        if isinstance(obj, Port):
            found.append(obj)
            continue
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        else:
            stack.extend(getattr(obj, "__dict__", {}).values())
            for name in getattr(type(obj), "__slots__", ()):
                stack.append(getattr(obj, name, None))
    return found


class TestSchemes:
    def test_ablation_orders_and_dedup(self):
        """Both ablation knobs act only through the LDS and the I-cache:
        on the baseline they change nothing, while on icache+lds they
        change the same GUPS job."""

        baseline = table1_config(TxScheme.BASELINE)
        combined = table1_config(TxScheme.ICACHE_LDS)
        baseline_result = run_app("GUPS", baseline)
        combined_print = result_fingerprint(run_app("GUPS", combined))
        for knob in ({"lds_before_icache": False}, {"dedup_shared_fills": True}):
            assert_byte_identical(baseline_result, run_app("GUPS", replace(baseline, **knob)))
            knob_print = result_fingerprint(run_app("GUPS", replace(combined, **knob)))
            assert knob_print != combined_print, knob


class TestConcurrentMode:
    """run_concurrent: a system shares no state with the systems before it."""

    @pytest.mark.parametrize(
        "scheme", [TxScheme.BASELINE, TxScheme.ICACHE_LDS], ids=lambda s: s.value
    )
    def test_concurrent_equivalence(self, scheme):
        config = table1_config(scheme)
        first = run_pair(["NW", "SSSP"], config)
        # In between, the reversed pair runs each application under the
        # other's address space id; state a system left behind (a shared
        # frame allocator, a shared memo) would show in the third run.
        run_pair(["SSSP", "NW"], config)
        again = run_pair(["NW", "SSSP"], config)
        assert len(first) == len(again) == 2
        for expected, actual in zip(first, again):
            assert_byte_identical(expected, actual)


# -- fault-injected execution ------------------------------------------------

# Module-level so the hook pickles across any multiprocessing start method.
def _fail_first_attempt(job, attempt):
    if attempt <= 1:
        raise RuntimeError("injected transient fault")


class TestFaultRetries:
    """A retried (fault-injected) sweep yields the same bytes as a clean run."""

    def test_retry_equivalence(self):
        reference = run_app("NW", table1_config())
        runner = SweepRunner(
            jobs=1, use_cache=False, fault=_fail_first_attempt, max_retries=2,
            retry_backoff_s=0,
        )
        (result,) = runner.run([SweepJob("NW", table1_config(), SCALE)])
        assert result is not None
        assert_byte_identical(reference, result)


class TestObservabilityFallback:
    """Attached telemetry only records: it must not perturb results."""

    def test_timelines_preserve_identity(self):
        config = table1_config(TxScheme.ICACHE_LDS)
        unobserved = run_app("GUPS", config)

        system = GPUSystem(config)
        ports = _ports(system)
        assert {port.name for port in ports} >= {
            "l2_tlb.port", "iommu.walkers", "l2_port", "icache.port", "icache.tx_port",
            "lds.port", "lds_tx.tx_port", "cu0.l1_tlb_port", "cu0.simd0.issue",
        }
        samplers = []
        for port in ports:
            samplers.append(TimelineSampler(port.name, lanes=port.units))
            port.attach_timeline(samplers[-1])
            if port.idle_tracker is None:
                port.idle_tracker = PortIdleTracker()
        observed = run_app("GUPS", config, system)

        assert_byte_identical(unobserved, observed)
        # Every port the job used was observed (GUPS makes no LDS accesses).
        used = [(port, sampler) for port, sampler in zip(ports, samplers) if port.busy_cycles]
        assert {port.name for port, _ in used} >= {
            "l2_tlb.port", "iommu.walkers", "lds_tx.tx_port", "icache.tx_port",
        }
        for port, sampler in used:
            assert len(sampler) and port.idle_tracker.accesses, port.name


class TestCacheIdentity:
    def test_cache_key_ignores_engine(self):
        """The keys were recorded while configs had an ``engine`` field the
        key left out; deleting the field must not re-key the result store."""

        keys = [job.key() for job in fig13_sweep_jobs(SCALE)]
        assert len(keys) == 90 and len(set(keys)) == 70
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() == FIG13_KEYS_SHA256
        assert common.cache_key("NW", table1_config(), SCALE) == "NW|0.02|26dedf985b22459e"
