"""A deterministic synthetic simulator for harness-level tests.

``synthetic`` replaces :func:`repro.experiments.common.simulate` — the one
function every harness cell reaches, through the sweep runner or the
in-process memo — with :func:`synthetic_simulate`, whose cycles,
counters, kernels and distributions are drawn from the job's cache key.
A harness then renders its whole table in milliseconds, and any change
to which configuration feeds which cell changes the table.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments import common
from repro.sim.results import KernelResult, SimResult
from repro.sim.stats import BoxStats

#: Every other counter a harness reads, each drawn in [1, 10000);
#: ``instructions`` is drawn wider so PTW-PKI spans the H/M/L categories.
SYNTHETIC_COUNTERS = (
    "iommu.walks",
    "l1_tlb.hits",
    "l1_tlb.misses",
    "l2_tlb.hits",
    "l2_tlb.misses",
    "energy.total_nj",
    "tx_sharing.total_pages",
    "tx_sharing.shared_pages",
    "tx_entries.lds_peak",
    "tx_entries.icache_peak",
    "fill_flow.lds_skipped_shared",
    "icache.total_lines",
)

#: Distributions the Figures 4 + 5 harness reads (``None`` one time in four).
SYNTHETIC_DISTRIBUTIONS = ("lds_bytes_per_wg", "lds_port_idle", "icache_port_idle")


def _box(rng: random.Random) -> BoxStats:
    q1, median, q3 = sorted(rng.uniform(0, 500) for _ in range(3))
    return BoxStats(
        count=rng.randint(1, 50),
        minimum=q1 / 2,
        q1=q1,
        median=median,
        q3=q3,
        maximum=q3 * 2,
        mean=(q1 + q3) / 2,
    )


def synthetic_simulate(app_name, config, scale, store=None) -> SimResult:
    """A result drawn from the job's cache key (``random.Random`` seeds a
    ``str`` through sha512, so the draw is the same in every process)."""

    rng = random.Random(common.cache_key(app_name, config, scale))
    counters = {name: float(rng.randint(1, 9999)) for name in SYNTHETIC_COUNTERS}
    counters["instructions"] = float(rng.randint(100_000, 10_000_000))
    kernels = []
    start = 0
    for invocation in range(rng.randint(1, 4)):
        end = start + rng.randint(100, 5000)
        kernels.append(
            KernelResult(
                kernel_name=f"k{invocation % 2}",
                invocation=invocation,
                start_cycle=start,
                end_cycle=end,
                counters={"icache.fills": float(rng.randint(0, 12000))},
            )
        )
        start = end
    distributions = {
        name: _box(rng) if rng.random() < 0.75 else None
        for name in SYNTHETIC_DISTRIBUTIONS
    }
    return SimResult(
        app_name=app_name,
        scheme=config.scheme.value,
        cycles=rng.randint(10_000, 1_000_000),
        counters=counters,
        kernels=kernels,
        distributions=distributions,
    )


@pytest.fixture(scope="module")
def synthetic():
    """Harness cells come from :func:`synthetic_simulate`, sweeps run
    serially in-process, no disk store, and the memo starts and ends
    empty so no synthetic result leaks into another module."""

    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_JOBS", "1")
        patch.setattr(common, "_CACHE_DIR", "")
        patch.setattr(common, "simulate", synthetic_simulate)
        common.clear_cache()
        try:
            yield
        finally:
            common.clear_cache()
