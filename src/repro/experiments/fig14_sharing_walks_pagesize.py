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
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    gmean_speedup,
    run_app,
)
from repro.schemes import schemes_for_tag
from repro.sim.runner import SweepJob, run_sweep
from repro.workloads.registry import app_names

PAGE_SIZES = (4096, 64 * 1024, 2 * 1024 * 1024)

# Figure 14b compares the same victim-cache arms as Figure 13b, so the
# grid derives from the registry's ``fig13-victim`` tag.
_SCHEMES_14B = tuple(spec.scheme for spec in schemes_for_tag("fig13-victim"))


def sweep_jobs_14ab(scale: Optional[float] = None) -> List[SweepJob]:
    if scale is None:
        scale = DEFAULT_SCALE
    configs = [table1_config()] + [table1_config(s) for s in _SCHEMES_14B]
    return [
        SweepJob(app, config, scale) for app in app_names() for config in configs
    ]


def sweep_jobs_14c(scale: Optional[float] = None) -> List[SweepJob]:
    if scale is None:
        scale = DEFAULT_SCALE
    jobs: List[SweepJob] = []
    for page_size in PAGE_SIZES:
        for config in (
            table1_config().with_page_size(page_size),
            table1_config(TxScheme.ICACHE_LDS).with_page_size(page_size),
        ):
            jobs.extend(SweepJob(app, config, scale) for app in app_names())
    return jobs


def sweep_jobs(scale: Optional[float] = None) -> List[SweepJob]:
    """The full Figure 14 job grid (14a/b schemes + 14c page sizes)."""

    return sweep_jobs_14ab(scale) + sweep_jobs_14c(scale)


def run_fig14a(scale: Optional[float] = None) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    result = ExperimentResult(
        experiment_id="Figure 14a",
        title="Translations shared across CUs",
        paper_notes="Paper: sharing high except for GEV, NW and SRAD.",
    )
    run_sweep(
        [SweepJob(app, table1_config(), scale) for app in app_names()],
        keep_going=True,
    )
    for app in app_names():
        sim = run_app(app, table1_config(), scale)
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
    if scale is None:
        scale = DEFAULT_SCALE
    run_sweep(sweep_jobs_14ab(scale), keep_going=True)
    schemes = _SCHEMES_14B
    result = ExperimentResult(
        experiment_id="Figure 14b",
        title="Page walks normalized to baseline",
        paper_notes=(
            "Paper means: LDS 0.665, IC 0.594, IC+LDS 0.271 of baseline "
            "walks; SRAD unchanged (~zero baseline walks)."
        ),
    )
    means = {scheme: [] for scheme in schemes}
    for app in app_names():
        baseline = run_app(app, table1_config(), scale)
        row = {"app": app, "baseline_walks": int(baseline.page_walks)}
        for scheme in schemes:
            sim = run_app(app, table1_config(scheme), scale)
            ratio = (
                sim.page_walks / baseline.page_walks
                if baseline.page_walks
                else 1.0
            )
            row[f"{scheme.value}_walks"] = ratio
            means[scheme].append(ratio)
        result.rows.append(row)
    result.rows.append(
        {"app": "MEAN", "baseline_walks": ""}
        | {
            f"{scheme.value}_walks": sum(values) / len(values)
            for scheme, values in means.items()
        }
    )
    return result


def run_fig14c(scale: Optional[float] = None) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    result = ExperimentResult(
        experiment_id="Figure 14c",
        title="IC+LDS speedup vs page size",
        paper_notes=(
            "Paper gmeans: +30.1% at 4KB, +18.4% at 64KB, +5.6% at 2MB. "
            "At 2MB our scaled footprints leave almost no walks, so the "
            "measured effect is ~neutral (see EXPERIMENTS.md)."
        ),
    )
    run_sweep(sweep_jobs_14c(scale), keep_going=True)
    for page_size in PAGE_SIZES:
        base_cfg = table1_config().with_page_size(page_size)
        cfg = table1_config(TxScheme.ICACHE_LDS).with_page_size(page_size)
        row = {"page_size": page_size}
        speedups = []
        for app in app_names():
            baseline = run_app(app, base_cfg, scale)
            sim = run_app(app, cfg, scale)
            speedup = baseline.cycles / sim.cycles
            row[f"{app}_speedup"] = speedup
            speedups.append(speedup)
        row["gmean_speedup"] = gmean_speedup(speedups)
        result.rows.append(row)
    return result
