"""Figure 15: additional translation entries gained per application.

The paper reports the extra entries the reconfigurable structures provide:
at most 16K in the Table 1 configuration — 12K from the LDS (8 CUs × 512
segments × 3 ways) and 4K from the I-caches (2 I-caches × 256 lines × 8).
Applications that allocate LDS or keep instructions resident gain fewer.
"""

from __future__ import annotations

from typing import Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import ExperimentResult, Grid
from repro.workloads.registry import app_names


def theoretical_max_entries(config=None) -> dict:
    if config is None:
        config = table1_config(TxScheme.ICACHE_LDS)
    lds_segments = config.lds.size_bytes // config.lds_tx.segment_bytes
    lds_max = config.gpu.num_cus * lds_segments * config.lds_tx.ways_per_segment
    num_icaches = config.gpu.num_cus // config.icache.cus_per_icache
    icache_max = num_icaches * config.icache.num_lines * config.icache_tx.tx_per_line
    return {"lds": lds_max, "icache": icache_max, "total": lds_max + icache_max}


def run(scale: Optional[float] = None) -> ExperimentResult:
    combined = {"icache+lds": table1_config(TxScheme.ICACHE_LDS)}
    cells, report = Grid(app_names(), combined).sweep(scale)
    limits = theoretical_max_entries()
    result = ExperimentResult(
        experiment_id="Figure 15",
        title="Additional translation entries gained (peak)",
        paper_notes=(
            f"Config maximum: {limits['total']} entries "
            f"({limits['lds']} LDS + {limits['icache']} I-cache); the paper "
            "reports the same 16K bound (12K + 4K)."
        ),
        sweep_report=report,
    )
    for app in cells.grid.apps:
        sim = cells(app, "icache+lds")
        lds_peak = sim.counter("tx_entries.lds_peak")
        icache_peak = sim.counter("tx_entries.icache_peak")
        result.rows.append(
            {
                "app": app,
                "lds_entries": int(lds_peak),
                "icache_entries": int(icache_peak),
                "total_entries": int(lds_peak + icache_peak),
                "pct_of_max": 100.0 * (lds_peak + icache_peak) / limits["total"],
            }
        )
    return result
