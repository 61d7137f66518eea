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
from repro.experiments.common import ExperimentResult, Grid
from repro.sim.runner import SweepJob
from repro.workloads.registry import HIGH_APPS, app_names

PACKING_DENSITIES = (1, 2, 4, 8, 16)


def grid_lookup_order(apps: Optional[List[str]] = None) -> Grid:
    combined = table1_config(TxScheme.ICACHE_LDS)
    arms = {
        "baseline": table1_config(),
        "lds-first": replace(combined, lds_before_icache=True),
        "icache-first": replace(combined, lds_before_icache=False),
    }
    return Grid(app_names() if apps is None else apps, arms, arm_major=True)


def grid_packing(apps: Optional[List[str]] = None) -> Grid:
    """Baseline, then IC-only at each packing density (High apps by default)."""

    icache = table1_config(TxScheme.ICACHE_ONLY)
    arms = {"baseline": table1_config()}
    for density in PACKING_DENSITIES:
        arms[density] = replace(
            icache, icache_tx=replace(icache.icache_tx, tx_per_line=density)
        )
    return Grid(list(HIGH_APPS) if apps is None else apps, arms, arm_major=True)


def sweep_jobs_lookup_order(scale=None, apps=None) -> List[SweepJob]:
    return grid_lookup_order(apps).jobs(scale)


def sweep_jobs_packing(scale=None, apps=None) -> List[SweepJob]:
    return grid_packing(apps).jobs(scale)


def sweep_jobs(scale=None) -> List[SweepJob]:
    """The full design-choice ablation grid (lookup order + packing)."""

    return sweep_jobs_lookup_order(scale) + sweep_jobs_packing(scale)


def run_lookup_order(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    cells, report = grid_lookup_order(apps).sweep(scale)
    result = ExperimentResult(
        experiment_id="Ablation: lookup order",
        title="LDS-first vs I-cache-first probe/fill ordering (Section 4.4)",
        paper_notes=(
            "The paper orders LDS first because it is CU-private and its "
            "probe costs 2 cycles; reversing sends victims to the shared "
            "structure first."
        ),
        sweep_report=report,
    )
    for order in cells.arms:
        result.rows.append({"order": order, "gmean_speedup": cells.gmean(order)})
    return result


def run_packing_density(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    cells, report = grid_packing(apps).sweep(scale)
    result = ExperimentResult(
        experiment_id="Ablation: I-cache packing",
        title="Translations packed per I-cache line (Figures 8b/8c sweep)",
        paper_notes=(
            "Paper endpoints: 1/line gains ~nothing, 8/line (+widened "
            "compressed tags) delivers the IC-only result. High apps only."
        ),
        sweep_report=report,
    )
    for density in cells.arms:
        result.rows.append(
            {
                "tx_per_line": density,
                "total_ic_entries": density * 256 * 2,  # 2 I-caches
                "gmean_speedup": cells.gmean(density),
            }
        )
    return result
