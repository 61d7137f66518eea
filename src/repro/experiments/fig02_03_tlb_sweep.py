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
from repro.experiments.common import ExperimentResult, Grid
from repro.sim.runner import SweepJob
from repro.workloads.registry import app_names

#: Default sweep; the full-paper sweep (…→2M) saturates on our scaled
#: footprints beyond 64K entries.
DEFAULT_SIZES = (512, 1024, 2048, 4096, 8192, 16384, 65536, 2 * 1024 * 1024)


def grid(sizes: Optional[List[int]] = None) -> Grid:
    """The Figures 2+3 grid: baseline, each L2 TLB size, then the
    Perfect-L2-TLB bound, each across every app."""

    arms = {"baseline": table1_config()}
    for entries in DEFAULT_SIZES if sizes is None else sizes:
        arms[entries] = table1_config().with_l2_tlb_entries(entries)
    arms["perfect"] = table1_config().with_perfect_l2_tlb()
    return Grid(app_names(), arms, arm_major=True)


def sweep_jobs(
    scale: Optional[float] = None,
    sizes: Optional[List[int]] = None,
) -> List[SweepJob]:
    return grid(sizes).jobs(scale)


def run(
    scale: Optional[float] = None, sizes: Optional[List[int]] = None
) -> ExperimentResult:
    cells, report = grid(sizes).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figures 2 + 3",
        title="Page walks and performance vs L2 TLB size",
        paper_notes=(
            "Paper: ~85% fewer walks at 2M entries; +14.7% gmean at 8K; "
            "+50.1% at 2M; SRAD/PRK/SSSP insensitive."
        ),
        sweep_report=report,
    )
    # One row per L2 TLB size, then the Perfect-L2-TLB upper bound.
    for label in cells.arms:
        row = {"l2_entries": label}
        walk_ratios = []
        for name in cells.grid.apps:
            sim = cells(name, label)
            base = cells(name, "baseline")
            if label == "perfect":
                walk_ratio = 0.0
            else:
                walk_ratio = (
                    sim.page_walks / base.page_walks if base.page_walks else 1.0
                )
            row[f"{name}_speedup"] = cells.speedup(name, label)
            row[f"{name}_walks"] = walk_ratio
            walk_ratios.append(walk_ratio)
        row["gmean_speedup"] = cells.gmean(label)
        row["mean_walk_ratio"] = sum(walk_ratios) / len(walk_ratios)
        result.rows.append(row)
    return result
