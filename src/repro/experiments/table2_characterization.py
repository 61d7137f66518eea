"""Table 2: benchmark characterization under the baseline configuration.

For every application: kernels per app, whether the same kernel launches
back-to-back, baseline L1/L2 TLB hit ratios, page-table walks per kilo
instruction (PTW-PKI), and the derived High/Medium/Low category.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import table1_config
from repro.experiments.common import DEFAULT_SCALE, ExperimentResult, run_app
from repro.sim.runner import SweepJob, run_sweep
from repro.workloads.registry import app_names, make_app

#: The paper's Table 2 values: (kernels, b2b, l1_hr, l2_hr, ptw_pki, cat).
PAPER_TABLE2 = {
    "ATAX": (2, False, 63.1, 83.7, 37.68, "H"),
    "GEV": (1, None, 27.8, 75.1, 90.737, "H"),
    "MVT": (2, False, 29.1, 83.2, 38.76, "H"),
    "BICG": (2, False, 59.1, 83.5, 38.05, "H"),
    "NW": (255, True, 34.6, 94.7, 4.92, "M"),
    "SRAD": (1, None, 20.9, 99.9, 0.04, "L"),
    "BFS": (24, False, 54.8, 85.4, 17.23, "M"),
    "SSSP": (10504, False, 78.8, 99.8, 0.17, "L"),
    "PRK": (41, False, 81.3, 99.9, 0.16, "L"),
    "GUPS": (3, False, 25.1, 46.8, 36.65, "H"),
}


def categorize(ptw_pki: float) -> str:
    """The paper's categorization rule (Section 5)."""

    if ptw_pki >= 20:
        return "H"
    if ptw_pki > 1:
        return "M"
    return "L"


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The Table 2 job grid: every app under the baseline configuration."""

    if scale is None:
        scale = DEFAULT_SCALE
    return [SweepJob(app, table1_config(), scale) for app in app_names()]


def run(scale: Optional[float] = None) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    result = ExperimentResult(
        experiment_id="Table 2",
        title="Benchmark characterization (baseline)",
        paper_notes=(
            "Paper PTW-PKI / category per app: "
            + ", ".join(
                f"{name}={values[4]:g}/{values[5]}"
                for name, values in PAPER_TABLE2.items()
            )
        ),
    )
    run_sweep(sweep_jobs(scale), keep_going=True)
    for name in app_names():
        app = make_app(name, scale=scale)
        sim = run_app(name, table1_config(), scale)
        paper = PAPER_TABLE2[name]
        result.rows.append(
            {
                "app": name,
                "kernels": len(app.kernels),
                "b2b": app.has_back_to_back_kernels,
                "l1_hr_pct": 100.0 * sim.hit_ratio("l1_tlb"),
                "l2_hr_pct": 100.0 * sim.hit_ratio("l2_tlb"),
                "ptw_pki": sim.ptw_pki,
                "category": categorize(sim.ptw_pki),
                "paper_ptw_pki": paper[4],
                "paper_category": paper[5],
            }
        )
    return result
