"""Figure 14: translation sharing, normalized page walks, page sizes.

- 14a: fraction of translated pages touched by more than one CU. Paper:
  high for most apps; low for GEV, NW and SRAD — this duplication is what
  limits the private LDS's cumulative capacity.
- 14b: page walks under each scheme, normalized to baseline. Paper means:
  LDS −33.5%, IC −40.6%, IC+LDS −72.9%; SRAD unchanged (~0 baseline walks).
- 14c: IC+LDS speedup at 4KB / 64KB / 2MB pages. Paper: +30.1% / +18.4% /
  +5.6% — the scheme keeps helping under larger pages, less so.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import ExperimentResult, Grid, mean_row, scheme_arms
from repro.schemes import schemes_for_tag
from repro.sim.runner import SweepJob
from repro.workloads.registry import app_names

PAGE_SIZES = (4096, 64 * 1024, 2 * 1024 * 1024)

# Figure 14b compares the same victim-cache arms as Figure 13b, so the
# grid derives from the registry's ``fig13-victim`` tag.
_SCHEMES_14B = tuple(spec.scheme for spec in schemes_for_tag("fig13-victim"))


def grid_14ab() -> Grid:
    return Grid(app_names(), scheme_arms(_SCHEMES_14B))


def grid_14c() -> Grid:
    """Baseline and IC+LDS at each page size, labelled ``(page_size, arm)``."""

    arms = {}
    for page_size in PAGE_SIZES:
        arms[page_size, "baseline"] = table1_config().with_page_size(page_size)
        arms[page_size, "icache+lds"] = table1_config(
            TxScheme.ICACHE_LDS
        ).with_page_size(page_size)
    return Grid(app_names(), arms, arm_major=True)


def sweep_jobs_14ab(scale: Optional[float] = None) -> List[SweepJob]:
    return grid_14ab().jobs(scale)


def sweep_jobs_14c(scale: Optional[float] = None) -> List[SweepJob]:
    return grid_14c().jobs(scale)


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The full Figure 14 job grid (14a/b schemes + 14c page sizes)."""

    return sweep_jobs_14ab(scale) + sweep_jobs_14c(scale)


def run_fig14a(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = Grid(app_names(), {"baseline": table1_config()}).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 14a",
        title="Translations shared across CUs",
        paper_notes="Paper: sharing high except for GEV, NW and SRAD.",
        sweep_report=report,
    )
    for app in cells.grid.apps:
        sim = cells(app, "baseline")
        total = sim.counter("tx_sharing.total_pages")
        shared = sim.counter("tx_sharing.shared_pages")
        result.rows.append(
            {
                "app": app,
                "pages": int(total),
                "shared_pct": 100.0 * shared / total if total else 0.0,
            }
        )
    return result


def run_fig14b(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_14ab().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 14b",
        title="Page walks normalized to baseline",
        paper_notes=(
            "Paper means: LDS 0.665, IC 0.594, IC+LDS 0.271 of baseline "
            "walks; SRAD unchanged (~zero baseline walks)."
        ),
        sweep_report=report,
    )
    columns = [f"{label}_walks" for label in cells.arms]
    for app in cells.grid.apps:
        baseline = cells(app, "baseline")
        row = {"app": app, "baseline_walks": int(baseline.page_walks)}
        for label, column in zip(cells.arms, columns):
            walks = cells(app, label).page_walks
            row[column] = walks / baseline.page_walks if baseline.page_walks else 1.0
        result.rows.append(row)
    result.rows.append(mean_row(result.rows, columns, app="MEAN", baseline_walks=""))
    return result


def run_fig14c(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_14c().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 14c",
        title="IC+LDS speedup vs page size",
        paper_notes=(
            "Paper gmeans: +30.1% at 4KB, +18.4% at 64KB, +5.6% at 2MB. "
            "At 2MB our scaled footprints leave almost no walks, so the "
            "measured effect is ~neutral (see EXPERIMENTS.md)."
        ),
        sweep_report=report,
    )
    for page_size in PAGE_SIZES:
        row = {"page_size": page_size}
        for app in cells.grid.apps:
            row[f"{app}_speedup"] = cells.speedup(
                app, (page_size, "icache+lds"), (page_size, "baseline")
            )
        row["gmean_speedup"] = cells.gmean(
            (page_size, "icache+lds"), (page_size, "baseline")
        )
        result.rows.append(row)
    return result
