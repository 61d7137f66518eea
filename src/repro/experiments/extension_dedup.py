"""Extension study: limiting cross-CU translation duplication.

Section 6.1.1 observes that translations shared across CUs are replicated
in every CU's private LDS, limiting the cumulative capacity the design
gains, and explicitly leaves "optimizations to limit the translation
duplication for future investigations". This experiment implements and
evaluates one such optimization: a *shared-fill filter* that steers victims
for pages already touched by 2+ CUs past the private LDS into the shared
(deduplicating) I-cache, keeping the LDS for CU-local reuse.

Enabled by ``SystemConfig.dedup_shared_fills``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import ExperimentResult, Grid, gmean_row
from repro.workloads.registry import app_names


def grid(apps: Optional[List[str]] = None) -> Grid:
    """Baseline, IC+LDS, and IC+LDS with the shared-fill filter."""

    combined = table1_config(TxScheme.ICACHE_LDS)
    arms = {
        "baseline": table1_config(),
        "icache_lds": combined,
        "icache_lds_dedup": replace(combined, dedup_shared_fills=True),
    }
    return Grid(app_names() if apps is None else apps, arms)


def run(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    cells, report = grid(apps).sweep(scale)
    result = ExperimentResult(
        experiment_id="Extension: dedup filter",
        title="Shared-fill filter vs baseline IC+LDS (paper future work)",
        paper_notes=(
            "Not a paper experiment: implements Section 6.1.1's suggested "
            "future work. Shared-heavy apps should benefit; CU-partitioned "
            "apps (GEV) should be unaffected."
        ),
        sweep_report=report,
    )
    rows = cells.speedup_rows()
    for row in rows:
        dedup = cells(row["app"], "icache_lds_dedup")
        row["lds_fills_skipped"] = int(dedup.counter("fill_flow.lds_skipped_shared"))
    result.rows = rows + [gmean_row(rows, cells.arms, app="GMEAN")]
    return result
