"""Figures 4 and 5: the under-utilization motivation study (Section 3.2).

- Figure 4a: LDS bytes requested per work-group, per application (box
  stats). Paper: ~70% of surveyed apps request no LDS; none use the full
  per-CU capacity.
- Figure 4b: idle-cycle gaps between LDS port accesses for LDS-using apps.
- Figure 5a: I-cache utilization per kernel launch, Equation 1:
  (misses + prefetches) / lines, capped at 100%.
- Figure 5b: idle-cycle gaps between I-cache port accesses.

The paper collected 4a/5a on a real RX 580 over 54 applications; we run the
ten main benchmarks plus the synthetic survey suite (DESIGN.md Section 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import table1_config
from repro.experiments.common import ExperimentResult, Grid, cache_key, lookup, remember
from repro.sim.results import SimResult
from repro.system import GPUSystem
from repro.workloads.registry import app_names
from repro.workloads.survey import make_survey_suite


def _survey_results(scale: float) -> Dict[str, SimResult]:
    """The survey suite on the Table 1 baseline, memoized in the process
    memo (no store). Survey apps are not in the app registry, so they
    cannot be sweep jobs."""

    config = table1_config()
    results = {}
    for app in make_survey_suite(scale=scale):
        key = cache_key(app.name, config, scale)
        result = lookup(key, None)
        if result is None:
            result = GPUSystem(config).run(app)
            remember(key, result, None)
        results[app.name] = result
    return results


def kernel_icache_utilization(sim: SimResult) -> List[float]:
    """Per-kernel Equation 1 utilization, capped at 1.0."""

    total_lines = sim.counter("icache.total_lines")
    if not total_lines:
        return []
    utilization = []
    for kernel in sim.kernels:
        fills = kernel.counters.get("icache.fills", 0.0)
        utilization.append(min(1.0, fills / total_lines))
    return utilization


def _box(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"min": 0.0, "median": 0.0, "max": 0.0, "mean": 0.0}
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "median": ordered[len(ordered) // 2],
        "max": ordered[-1],
        "mean": sum(values) / len(values),
    }


def run(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = Grid(app_names(), {"baseline": table1_config()}).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figures 4 + 5",
        title="LDS and I-cache capacity / port-bandwidth under-utilization",
        paper_notes=(
            "Paper (54 real apps): ~70% request no LDS, none use the full "
            "LDS; ~24% always fill the I-cache; typical port idle gaps are "
            "tens of cycles."
        ),
        sweep_report=report,
    )
    sims: Dict[str, SimResult] = {
        name: cells(name, "baseline") for name in cells.grid.apps
    }
    sims.update(_survey_results(cells.scale))

    for name, sim in sims.items():
        lds_req = sim.distributions.get("lds_bytes_per_wg")
        lds_idle = sim.distributions.get("lds_port_idle")
        ic_idle = sim.distributions.get("icache_port_idle")
        ic_util = _box(kernel_icache_utilization(sim))
        result.rows.append(
            {
                "app": name,
                "lds_bytes_per_wg_max": lds_req.maximum if lds_req else 0.0,
                "lds_bytes_per_wg_median": lds_req.median if lds_req else 0.0,
                "uses_lds": bool(lds_req and lds_req.maximum > 0),
                "lds_idle_median": lds_idle.median if lds_idle else 0.0,
                "icache_util_min": ic_util["min"],
                "icache_util_median": ic_util["median"],
                "icache_util_max": ic_util["max"],
                "icache_idle_median": ic_idle.median if ic_idle else 0.0,
            }
        )
    return result


def summarize(result: ExperimentResult) -> Dict[str, float]:
    """Suite-level summary comparable to the paper's prose claims."""

    total = len(result.rows)
    no_lds = sum(1 for row in result.rows if not row["uses_lds"])
    always_full_ic = sum(
        1 for row in result.rows if row["icache_util_min"] >= 0.999
    )
    never_full_ic = sum(
        1 for row in result.rows if row["icache_util_max"] < 0.999
    )
    return {
        "apps": total,
        "fraction_no_lds": no_lds / total if total else 0.0,
        "fraction_always_full_icache": always_full_ic / total if total else 0.0,
        "fraction_never_full_icache": never_full_ic / total if total else 0.0,
    }
