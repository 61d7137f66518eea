"""Section 6.3.1 ablation: LDS segment size 32B vs 64B.

Doubling the segment to 64 bytes doubles translation associativity (3 → 6
ways) while halving the number of segments; capacity is unchanged. The
paper found no performance change — translation misses are capacity
misses, not conflict misses — and this ablation verifies the same holds
in the reproduction.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import ExperimentResult, Grid
from repro.workloads.registry import app_names

SEGMENT_SIZES = (32, 64)


def grid() -> Grid:
    """Baseline, then IC+LDS at each LDS segment size."""

    combined = table1_config(TxScheme.ICACHE_LDS)
    arms = {"baseline": table1_config()}
    for segment_bytes in SEGMENT_SIZES:
        arms[segment_bytes] = replace(
            combined, lds_tx=replace(combined.lds_tx, segment_bytes=segment_bytes)
        )
    return Grid(app_names(), arms)


def run(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid().sweep(scale)
    result = ExperimentResult(
        experiment_id="Section 6.3.1",
        title="LDS segment size ablation (32B / 3-way vs 64B / 6-way)",
        paper_notes=(
            "Paper: no improvement from 64B segments — higher associativity "
            "without more capacity does not help capacity misses."
        ),
        sweep_report=report,
    )
    for segment_bytes in cells.arms:
        result.rows.append(
            {
                "segment_bytes": segment_bytes,
                "tx_ways": cells.grid.arms[segment_bytes].lds_tx.ways_per_segment,
                "gmean_speedup": cells.gmean(segment_bytes),
            }
        )
    return result
