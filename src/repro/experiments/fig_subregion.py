"""Subregion-contiguity coalescing arm (registry plugin scheme).

A Figure-13-style grid for the first out-of-enum scheme,
``subregion-coalescing`` (after the compendium-TLB idea of arXiv
2110.08613): the walker path learns uniform-stride contiguity inside an
aligned subregion of the address space and installs one coalesced entry
covering the whole run, which later misses can resolve without a walk.

The grid compares baseline, IC+LDS (the paper's best victim-cache arm)
and subregion coalescing on PTW-PKI and speedup; arms derive from the
scheme registry's ``subregion-grid`` tag, so registering another scheme
with that tag automatically adds a column.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.common import ExperimentResult, Grid, gmean_row
from repro.schemes import config_for, schemes_for_tag
from repro.sim.runner import SweepJob
from repro.workloads.registry import CATEGORIES, app_names

#: Grid arms (includes the baseline column), in registry order.
GRID_SPECS = tuple(schemes_for_tag("subregion-grid"))


def grid() -> Grid:
    return Grid(app_names(), {spec.name: config_for(spec.name) for spec in GRID_SPECS})


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The subregion-coalescing comparison grid."""

    return grid().jobs(scale)


def run(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid().sweep(scale)
    result = ExperimentResult(
        experiment_id="Subregion coalescing",
        title="Subregion-contiguity coalesced L2-TLB entries vs victim caches",
        paper_notes=(
            "Plugin-scheme arm (not a figure of the source paper): coalesced "
            "entries learned in the walker path cut page walks wherever the "
            "allocator lays pages out at a uniform stride; IC+LDS shown for "
            "context against the paper's best victim-cache arm."
        ),
        sweep_report=report,
    )
    for app in cells.grid.apps:
        row = {
            "app": app,
            "category": CATEGORIES[app],
            "baseline_ptw_pki": cells(app, "baseline").ptw_pki,
        }
        for name in cells.arms:
            row[f"{name}_ptw_pki"] = cells(app, name).ptw_pki
            row[f"{name}_speedup"] = cells.speedup(app, name)
        result.rows.append(row)
    speedups = [f"{name}_speedup" for name in cells.arms]
    result.rows.append(
        gmean_row(
            result.rows, speedups, app="GMEAN", category="all", baseline_ptw_pki=""
        )
    )
    return result
