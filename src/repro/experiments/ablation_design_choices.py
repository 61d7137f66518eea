"""Additional design-choice ablations beyond Section 6.3.1.

DESIGN.md calls out two further choices the paper motivates but does not
sweep, both reproducible here:

- **Lookup/fill ordering** (Section 4.4): the CU-private, 2-cycle-probe
  LDS is consulted before the shared I-cache. Reversing the order probes
  the farther, shared structure first — hits migrate to the I-cache and
  the low-latency private capacity is wasted on leftovers.
- **I-cache packing density** (Figures 8b/8c): the paper jumps from one
  translation per 64-byte line to eight; sweeping the intermediate points
  shows where the reach (and the widened-tag overhead) starts paying off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    gmean_speedup,
    run_app,
)
from repro.sim.runner import SweepJob, run_sweep
from repro.workloads.registry import HIGH_APPS, app_names

PACKING_DENSITIES = (1, 2, 4, 8, 16)


def _lookup_order_configs():
    return [
        replace(table1_config(TxScheme.ICACHE_LDS), lds_before_icache=lds_first)
        for lds_first in (True, False)
    ]


def _packing_density_configs():
    configs = []
    for density in PACKING_DENSITIES:
        config = table1_config(TxScheme.ICACHE_ONLY)
        configs.append(
            replace(config, icache_tx=replace(config.icache_tx, tx_per_line=density))
        )
    return configs


def sweep_jobs_lookup_order(scale=None, apps=None) -> List[SweepJob]:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    configs = [table1_config()] + _lookup_order_configs()
    return [SweepJob(app, config, scale) for config in configs for app in apps]


def sweep_jobs_packing(scale=None, apps=None) -> List[SweepJob]:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = list(HIGH_APPS)
    configs = [table1_config()] + _packing_density_configs()
    return [SweepJob(app, config, scale) for config in configs for app in apps]


def sweep_jobs(scale=None) -> List[SweepJob]:
    """The full design-choice ablation grid (lookup order + packing)."""

    return sweep_jobs_lookup_order(scale) + sweep_jobs_packing(scale)


def run_lookup_order(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    result = ExperimentResult(
        experiment_id="Ablation: lookup order",
        title="LDS-first vs I-cache-first probe/fill ordering (Section 4.4)",
        paper_notes=(
            "The paper orders LDS first because it is CU-private and its "
            "probe costs 2 cycles; reversing sends victims to the shared "
            "structure first."
        ),
    )
    run_sweep(sweep_jobs_lookup_order(scale, apps), keep_going=True)
    for lds_first in (True, False):
        config = replace(
            table1_config(TxScheme.ICACHE_LDS), lds_before_icache=lds_first
        )
        speedups = []
        for app in apps:
            baseline = run_app(app, table1_config(), scale)
            sim = run_app(app, config, scale)
            speedups.append(baseline.cycles / sim.cycles)
        result.rows.append(
            {
                "order": "lds-first" if lds_first else "icache-first",
                "gmean_speedup": gmean_speedup(speedups),
            }
        )
    return result


def run_packing_density(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = list(HIGH_APPS)
    result = ExperimentResult(
        experiment_id="Ablation: I-cache packing",
        title="Translations packed per I-cache line (Figures 8b/8c sweep)",
        paper_notes=(
            "Paper endpoints: 1/line gains ~nothing, 8/line (+widened "
            "compressed tags) delivers the IC-only result. High apps only."
        ),
    )
    run_sweep(sweep_jobs_packing(scale, apps), keep_going=True)
    for density in PACKING_DENSITIES:
        config = table1_config(TxScheme.ICACHE_ONLY)
        config = replace(
            config, icache_tx=replace(config.icache_tx, tx_per_line=density)
        )
        speedups = []
        for app in apps:
            baseline = run_app(app, table1_config(), scale)
            sim = run_app(app, config, scale)
            speedups.append(baseline.cycles / sim.cycles)
        result.rows.append(
            {
                "tx_per_line": density,
                "total_ic_entries": density * 256 * 2,  # 2 I-caches
                "gmean_speedup": gmean_speedup(speedups),
            }
        )
    return result
