"""Figure 16: sensitivity studies (Section 6.3).

- 16a: number of CUs sharing one I-cache (total capacity constant). Paper:
  +17.3% (private) rising to +38.4% (fully shared) as duplication falls.
- 16b: extra wire latency to the reconfigurable structures (10/50/100
  cycles, IC-only / LDS-only / both). Paper: +9.4% remains at the
  worst-case 100-cycle point — GPUs are latency-tolerant.
- 16c: DUCATI. Paper: DUCATI alone +4.9%; DUCATI + IC+LDS +40.7% vs the
  +30.1% of IC+LDS alone (the schemes are complementary).
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import TxScheme, table1_config
from repro.experiments.common import ExperimentResult, Grid, gmean_row, scheme_arms
from repro.schemes import schemes_for_tag
from repro.sim.runner import SweepJob
from repro.workloads.registry import app_names

SHARER_COUNTS = (1, 2, 4, 8)
WIRE_LATENCIES = (10, 50, 100)


def _fig16c_schemes():
    # Membership derives from the registry's ``fig16-ducati`` tag; the
    # paper's bar order (DUCATI, IC+LDS, combined) is kept for the arms
    # it names, with any future tag members appended.
    specs = {spec.name: spec.scheme for spec in schemes_for_tag("fig16-ducati")}
    preferred = ("ducati", "icache+lds", "ducati+icache+lds")
    ordered = [specs.pop(name) for name in preferred if name in specs]
    return tuple(ordered) + tuple(specs.values())


_FIG16C_SCHEMES = _fig16c_schemes()


def grid_16a(apps: Optional[List[str]] = None) -> Grid:
    """Baseline and IC-only at each sharer count, labelled ``(sharers, arm)``."""

    arms = {}
    for sharers in SHARER_COUNTS:
        arms[sharers, "baseline"] = table1_config().with_icache_sharers(sharers)
        arms[sharers, "icache"] = table1_config(
            TxScheme.ICACHE_ONLY
        ).with_icache_sharers(sharers)
    return Grid(app_names() if apps is None else apps, arms, arm_major=True)


def grid_16b(apps: Optional[List[str]] = None) -> Grid:
    """Baseline, then IC+LDS with no extra wire latency and with each
    extra latency on the I-cache, the LDS, and both."""

    combined = table1_config(TxScheme.ICACHE_LDS)
    arms = {"baseline": table1_config(), "no_extra": combined.with_extra_wire_latency()}
    for name, icache, lds in (("ic_only", 1, 0), ("lds_only", 0, 1), ("ic_lds", 1, 1)):
        for extra in WIRE_LATENCIES:
            arms[f"{name}_{extra}"] = combined.with_extra_wire_latency(
                icache * extra, lds * extra
            )
    return Grid(app_names() if apps is None else apps, arms, arm_major=True)


def grid_16c() -> Grid:
    """Baseline, then every ``fig16-ducati`` scheme, labelled by its name
    with ``+`` spelled ``_``."""

    arms = scheme_arms(_FIG16C_SCHEMES, label=lambda s: s.value.replace("+", "_"))
    return Grid(app_names(), arms, arm_major=True)


def sweep_jobs_16a(scale=None, apps=None):
    return grid_16a(apps).jobs(scale)


def sweep_jobs_16b(scale=None, apps=None):
    return grid_16b(apps).jobs(scale)


def sweep_jobs_16c(scale=None):
    return grid_16c().jobs(scale)


def sweep_jobs(scale=None):
    """The full Figure 16 job grid (sharers + wire latency + DUCATI)."""

    return sweep_jobs_16a(scale) + sweep_jobs_16b(scale) + sweep_jobs_16c(scale)


def run_fig16a(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    cells, report = grid_16a(apps).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 16a",
        title="I-cache sharers sensitivity (IC-only, capacity constant)",
        paper_notes="Paper: +17.3% at 1 sharer rising to +38.4% at 8.",
        sweep_report=report,
    )
    for sharers in SHARER_COUNTS:
        speedup = cells.gmean((sharers, "icache"), (sharers, "baseline"))
        result.rows.append({"cus_per_icache": sharers, "gmean_speedup": speedup})
    return result


def run_fig16b(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    cells, report = grid_16b(apps).sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 16b",
        title="Extra translation wire latency sensitivity (IC+LDS)",
        paper_notes=(
            "Paper: even +100 cycles on both structures retains +9.4% "
            "gmean — latency hiding across wavefronts absorbs the wires."
        ),
        sweep_report=report,
    )
    for label in cells.arms:
        config = cells.grid.arms[label]
        result.rows.append(
            {
                "arm": label,
                "icache_extra": config.icache_tx.extra_wire_latency,
                "lds_extra": config.lds_tx.extra_wire_latency,
                "gmean_speedup": cells.gmean(label),
            }
        )
    return result


def run_fig16c(scale: Optional[float] = None) -> ExperimentResult:
    cells, report = grid_16c().sweep(scale)
    result = ExperimentResult(
        experiment_id="Figure 16c",
        title="DUCATI comparison",
        paper_notes=(
            "Paper gmeans: DUCATI +4.9%; IC+LDS +30.1%; DUCATI with IC+LDS "
            "+40.7% — the proposals compose."
        ),
        sweep_report=report,
    )
    result.rows = cells.speedup_rows()
    result.rows.append(gmean_row(result.rows, cells.arms, app="GMEAN"))
    return result
