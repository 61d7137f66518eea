"""Figures 2 and 3: L2 TLB size sweep (motivation study, Section 3.1).

Figure 2: page-table walks, normalized to the 512-entry baseline, as the
L2 TLB grows from 512 entries towards 2M, plus the Perfect-L2-TLB bound.
Figure 3: relative performance over the same sweep.

Paper headlines: walks drop ~85% on average at the largest size; 512→8K
gives +14.7% gmean performance; 2M gives up to +50.1%; SRAD/PRK/SSSP are
insensitive.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import table1_config
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    gmean_speedup,
    run_app,
)
from repro.sim.runner import SweepJob, run_sweep
from repro.workloads.registry import app_names

#: Default sweep; the full-paper sweep (…→2M) saturates on our scaled
#: footprints beyond 64K entries.
DEFAULT_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 65536, 2 * 1024 * 1024)


def sweep_jobs(
    scale: Optional[float] = None,
    sizes: Optional[List[int]] = None,
) -> List[SweepJob]:
    """The full Figures 2+3 job grid, enumerated up front."""

    if scale is None:
        scale = DEFAULT_SCALE
    if sizes is None:
        sizes = list(DEFAULT_SIZES)
    configs = [table1_config()]
    configs += [table1_config().with_l2_tlb_entries(entries) for entries in sizes]
    configs.append(table1_config().with_perfect_l2_tlb())
    return [SweepJob(app, config, scale) for config in configs for app in app_names()]


def run(
    scale: Optional[float] = None, sizes: Optional[List[int]] = None
) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    if sizes is None:
        sizes = list(DEFAULT_SIZES)
    run_sweep(sweep_jobs(scale, sizes), keep_going=True)
    result = ExperimentResult(
        experiment_id="Figures 2 + 3",
        title="Page walks and performance vs L2 TLB size",
        paper_notes=(
            "Paper: ~85% fewer walks at 2M entries; +14.7% gmean at 8K; "
            "+50.1% at 2M; SRAD/PRK/SSSP insensitive."
        ),
    )
    baselines = {name: run_app(name, table1_config(), scale) for name in app_names()}
    for entries in sizes:
        config = table1_config().with_l2_tlb_entries(entries)
        row = {"l2_entries": entries}
        speedups = []
        walk_ratios = []
        for name in app_names():
            sim = run_app(name, config, scale)
            base = baselines[name]
            speedup = base.cycles / sim.cycles
            walk_ratio = (
                sim.page_walks / base.page_walks if base.page_walks else 1.0
            )
            row[f"{name}_speedup"] = speedup
            row[f"{name}_walks"] = walk_ratio
            speedups.append(speedup)
            walk_ratios.append(walk_ratio)
        row["gmean_speedup"] = gmean_speedup(speedups)
        row["mean_walk_ratio"] = sum(walk_ratios) / len(walk_ratios)
        result.rows.append(row)

    # Perfect-L2-TLB upper bound.
    perfect = table1_config().with_perfect_l2_tlb()
    row = {"l2_entries": "perfect"}
    speedups = []
    for name in app_names():
        sim = run_app(name, perfect, scale)
        base = baselines[name]
        row[f"{name}_speedup"] = base.cycles / sim.cycles
        row[f"{name}_walks"] = 0.0
        speedups.append(base.cycles / sim.cycles)
    row["gmean_speedup"] = gmean_speedup(speedups)
    row["mean_walk_ratio"] = 0.0
    result.rows.append(row)
    return result
