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

from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    gmean_speedup,
    run_app,
)
from repro.schemes import config_for, schemes_for_tag
from repro.sim.runner import SweepJob, run_sweep
from repro.workloads.registry import CATEGORIES, app_names

#: Grid arms (includes the baseline column), in registry order.
GRID_SPECS = tuple(schemes_for_tag("subregion-grid"))


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The subregion-coalescing comparison grid."""

    if scale is None:
        scale = DEFAULT_SCALE
    configs = [config_for(spec.name) for spec in GRID_SPECS]
    return [SweepJob(app, config, scale) for app in app_names() for config in configs]


def run(scale: Optional[float] = None) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    run_sweep(sweep_jobs(scale), keep_going=True)
    result = ExperimentResult(
        experiment_id="Subregion coalescing",
        title="Subregion-contiguity coalesced L2-TLB entries vs victim caches",
        paper_notes=(
            "Plugin-scheme arm (not a figure of the source paper): coalesced "
            "entries learned in the walker path cut page walks wherever the "
            "allocator lays pages out at a uniform stride; IC+LDS shown for "
            "context against the paper's best victim-cache arm."
        ),
    )
    arms = [spec for spec in GRID_SPECS if spec.name != "baseline"]
    speedups = {spec.name: [] for spec in arms}
    for app in app_names():
        baseline = run_app(app, config_for("baseline"), scale)
        row = {
            "app": app,
            "category": CATEGORIES[app],
            "baseline_ptw_pki": baseline.ptw_pki,
        }
        for spec in arms:
            sim = run_app(app, config_for(spec.name), scale)
            speedup = baseline.cycles / sim.cycles
            row[f"{spec.name}_ptw_pki"] = sim.ptw_pki
            row[f"{spec.name}_speedup"] = speedup
            speedups[spec.name].append(speedup)
        result.rows.append(row)
    result.rows.append(
        {"app": "GMEAN", "category": "all", "baseline_ptw_pki": ""}
        | {
            f"{name}_speedup": gmean_speedup(values)
            for name, values in speedups.items()
        }
    )
    return result
