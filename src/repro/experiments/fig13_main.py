"""Figure 13: the paper's main results.

- 13a: reconfigurable I-cache design variants — one translation per way,
  naive replacement, instruction-aware packing (8/way), and the kernel-
  boundary flush. Paper gmeans: ~0%, −1.65%, +12.4%, +13.6% (flush adds
  +1.2%; +35.4% extra for ATAX).
- 13b: reconfigurable LDS, and LDS + I-cache. Paper gmeans: LDS +8.6%
  (ATAX max +128.4%), IC+LDS +30.1% (ATAX +443.3%, BICG +442.3%, GUPS
  +9.14%); High+Medium-only gmeans 25.9% / 36.5% / 147.2%.
- 13c: normalized DRAM energy. Paper: −4.1% (LDS), −5.2% (IC), −9.2%
  (IC+LDS); GEV best at −27.3%.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from repro.config import ICacheReplacement, SystemConfig, TxScheme, table1_config
from repro.experiments.common import (
    ExperimentResult,
    Grid,
    gmean_row,
    mean_row,
    scheme_arms,
)
from repro.schemes import schemes_for_tag
from repro.sim.runner import SweepJob
from repro.workloads.registry import CATEGORIES, app_names

#: Figure 13b/13c scheme arms, derived from the scheme registry (the
#: ``fig13-victim`` tag); registration order matches the paper's bars.
SCHEMES = tuple(spec.scheme for spec in schemes_for_tag("fig13-victim"))


def icache_variant_configs() -> Dict[str, SystemConfig]:
    """The four Figure 13a experiment arms, in the paper's bar order."""

    base = table1_config(TxScheme.ICACHE_ONLY)
    return {
        "one_tx_per_way": replace(
            base, icache_tx=replace(base.icache_tx, tx_per_line=1)
        ),
        "naive_replacement": replace(
            base,
            icache_tx=replace(
                base.icache_tx, replacement=ICacheReplacement.NAIVE
            ),
        ),
        "instruction_aware": base,
        "instruction_aware_flush": replace(
            base, icache_tx=replace(base.icache_tx, flush_on_kernel_boundary=True)
        ),
    }


def grid_13a() -> Grid:
    return Grid(app_names(), {"baseline": table1_config(), **icache_variant_configs()})


def grid_13bc() -> Grid:
    return Grid(app_names(), scheme_arms(SCHEMES))


def sweep_jobs_13a(scale: Optional[float] = None) -> List[SweepJob]:
    return grid_13a().jobs(scale)


def sweep_jobs_13bc(scale: Optional[float] = None) -> List[SweepJob]:
    return grid_13bc().jobs(scale)


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The full Figure 13 job grid (13a variants + 13b/c schemes)."""

    return sweep_jobs_13a(scale) + sweep_jobs_13bc(scale)


def run_fig13a(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_13a().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 13a",
        title="Reconfigurable I-cache design variants",
        paper_notes=(
            "Paper gmeans: 1-tx/way ~0%, naive −1.65%, instr-aware +12.4%, "
            "+flush +13.6%; flush gives no gain for GEV/SRAD (single "
            "kernel) and NW (back-to-back)."
        ),
        sweep_report=report,
    )
    result.rows = cells.speedup_rows()
    result.rows.append(gmean_row(result.rows, cells.arms, app="GMEAN"))
    return result


def run_fig13b(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_13bc().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 13b",
        title="Overall performance: LDS / I-cache / combined victim caches",
        paper_notes=(
            "Paper gmeans (all apps): LDS +8.6%, IC +13.6%, IC+LDS +30.1%; "
            "High+Medium only: +25.9% / +36.5% / +147.2%; ATAX/BICG are "
            "the largest winners and the Low apps are unharmed."
        ),
        sweep_report=report,
    )
    rows = cells.speedup_rows(category=CATEGORIES.get)
    high_medium = [row for row in rows if row["category"] in ("H", "M")]
    result.rows = rows + [
        gmean_row(rows, cells.arms, app="GMEAN", category="all"),
        gmean_row(high_medium, cells.arms, app="GMEAN-H+M", category="H+M"),
    ]
    return result


def run_fig13c(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_13bc().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 13c",
        title="Normalized DRAM energy",
        paper_notes=(
            "Paper means: LDS −4.1%, IC −5.2%, IC+LDS −9.2%; GEV largest "
            "reduction (−27.3%). Savings come from avoided page-walk DRAM "
            "traffic and shorter runtime (background energy)."
        ),
        sweep_report=report,
    )
    columns = [f"{label}_energy" for label in cells.arms]
    for app in cells.grid.apps:
        base_energy = cells(app, "baseline").counter("energy.total_nj")
        row = {"app": app}
        for label, column in zip(cells.arms, columns):
            energy = cells(app, label).counter("energy.total_nj")
            row[column] = energy / base_energy if base_energy else 1.0
        result.rows.append(row)
    result.rows.append(mean_row(result.rows, columns, app="MEAN"))
    return result
