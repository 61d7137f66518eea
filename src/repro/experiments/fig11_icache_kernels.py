"""Figure 11: I-cache utilization across kernel launches over time.

The paper plots per-kernel-launch I-cache utilization for the multi-kernel
applications to show that consecutive launches run *different* kernels
(except NW), which is what makes the kernel-boundary flush optimization
(Section 4.3.3) applicable. GEV and SRAD have a single kernel and are
omitted, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional

from repro.config import table1_config
from repro.experiments.common import ExperimentResult, Grid
from repro.experiments.fig04_05_utilization import kernel_icache_utilization
from repro.workloads.registry import make_app

#: Apps shown in Figure 11 (all multi-kernel apps).
FIGURE11_APPS = ("ATAX", "MVT", "BICG", "NW", "BFS", "SSSP", "PRK", "GUPS")

#: Cap on launches listed per app (SSSP alone has hundreds).
MAX_POINTS = 40


def run(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = Grid(FIGURE11_APPS, {"baseline": table1_config()}).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 11",
        title="Per-kernel I-cache utilization over time",
        paper_notes=(
            "Paper: no app here launches the same kernel back-to-back "
            "except NW (nw_kernel1), so the runtime flush applies to all "
            "but NW; GEV and SRAD are single-kernel and omitted."
        ),
        sweep_report=report,
    )
    for name in FIGURE11_APPS:
        sim = cells(name, "baseline")
        app = make_app(name, scale=cells.scale)
        utilization = kernel_icache_utilization(sim)
        series = [round(value, 4) for value in utilization[:MAX_POINTS]]
        result.rows.append(
            {
                "app": name,
                "launches": len(sim.kernels),
                "b2b": app.has_back_to_back_kernels,
                "util_series_head": series,
                "util_mean": (
                    sum(utilization) / len(utilization) if utilization else 0.0
                ),
            }
        )
    return result
