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
from repro.experiments.common import (
    DEFAULT_SCALE,
    ExperimentResult,
    gmean_speedup,
    run_app,
)
from repro.schemes import schemes_for_tag
from repro.sim.runner import SweepJob, run_sweep
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


def _wire_latency_arms():
    arms = [(0, 0)]
    arms += [(extra, 0) for extra in WIRE_LATENCIES]
    arms += [(0, extra) for extra in WIRE_LATENCIES]
    arms += [(extra, extra) for extra in WIRE_LATENCIES]
    return arms


def sweep_jobs_16a(scale=None, apps=None):
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    jobs = []
    for sharers in SHARER_COUNTS:
        for config in (
            table1_config().with_icache_sharers(sharers),
            table1_config(TxScheme.ICACHE_ONLY).with_icache_sharers(sharers),
        ):
            jobs.extend(SweepJob(app, config, scale) for app in apps)
    return jobs


def sweep_jobs_16b(scale=None, apps=None):
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    configs = [table1_config()]
    configs += [
        table1_config(TxScheme.ICACHE_LDS).with_extra_wire_latency(ic, lds)
        for ic, lds in _wire_latency_arms()
    ]
    return [SweepJob(app, config, scale) for config in configs for app in apps]


def sweep_jobs_16c(scale=None):
    if scale is None:
        scale = DEFAULT_SCALE
    configs = [table1_config()]
    configs += [table1_config(scheme) for scheme in _FIG16C_SCHEMES]
    return [
        SweepJob(app, config, scale)
        for config in configs
        for app in app_names()
    ]


def sweep_jobs(scale=None):
    """The full Figure 16 job grid (sharers + wire latency + DUCATI)."""

    return sweep_jobs_16a(scale) + sweep_jobs_16b(scale) + sweep_jobs_16c(scale)


def run_fig16a(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    result = ExperimentResult(
        experiment_id="Figure 16a",
        title="I-cache sharers sensitivity (IC-only, capacity constant)",
        paper_notes="Paper: +17.3% at 1 sharer rising to +38.4% at 8.",
    )
    run_sweep(sweep_jobs_16a(scale, apps), keep_going=True)
    for sharers in SHARER_COUNTS:
        base_cfg = table1_config().with_icache_sharers(sharers)
        cfg = table1_config(TxScheme.ICACHE_ONLY).with_icache_sharers(sharers)
        speedups = []
        row = {"cus_per_icache": sharers}
        for app in apps:
            baseline = run_app(app, base_cfg, scale)
            sim = run_app(app, cfg, scale)
            speedups.append(baseline.cycles / sim.cycles)
        row["gmean_speedup"] = gmean_speedup(speedups)
        result.rows.append(row)
    return result


def run_fig16b(
    scale: Optional[float] = None, apps: Optional[List[str]] = None
) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    if apps is None:
        apps = app_names()
    result = ExperimentResult(
        experiment_id="Figure 16b",
        title="Extra translation wire latency sensitivity (IC+LDS)",
        paper_notes=(
            "Paper: even +100 cycles on both structures retains +9.4% "
            "gmean — latency hiding across wavefronts absorbs the wires."
        ),
    )
    run_sweep(sweep_jobs_16b(scale, apps), keep_going=True)

    def sweep(label: str, icache_extra: int, lds_extra: int) -> None:
        cfg = table1_config(TxScheme.ICACHE_LDS).with_extra_wire_latency(
            icache_extra, lds_extra
        )
        speedups = []
        for app in apps:
            baseline = run_app(app, table1_config(), scale)
            sim = run_app(app, cfg, scale)
            speedups.append(baseline.cycles / sim.cycles)
        result.rows.append(
            {
                "arm": label,
                "icache_extra": icache_extra,
                "lds_extra": lds_extra,
                "gmean_speedup": gmean_speedup(speedups),
            }
        )

    sweep("no_extra", 0, 0)
    for extra in WIRE_LATENCIES:
        sweep(f"ic_only_{extra}", extra, 0)
    for extra in WIRE_LATENCIES:
        sweep(f"lds_only_{extra}", 0, extra)
    for extra in WIRE_LATENCIES:
        sweep(f"ic_lds_{extra}", extra, extra)
    return result


def run_fig16c(scale: Optional[float] = None) -> ExperimentResult:
    if scale is None:
        scale = DEFAULT_SCALE
    result = ExperimentResult(
        experiment_id="Figure 16c",
        title="DUCATI comparison",
        paper_notes=(
            "Paper gmeans: DUCATI +4.9%; IC+LDS +30.1%; DUCATI with IC+LDS "
            "+40.7% — the proposals compose."
        ),
    )
    run_sweep(sweep_jobs_16c(scale), keep_going=True)
    arms = {
        "ducati": TxScheme.DUCATI,
        "icache_lds": TxScheme.ICACHE_LDS,
        "ducati_icache_lds": TxScheme.DUCATI_ICACHE_LDS,
    }
    speedups = {label: [] for label in arms}
    for app in app_names():
        baseline = run_app(app, table1_config(), scale)
        row = {"app": app}
        for label, scheme in arms.items():
            sim = run_app(app, table1_config(scheme), scale)
            speedup = baseline.cycles / sim.cycles
            row[label] = speedup
            speedups[label].append(speedup)
        result.rows.append(row)
    result.rows.append(
        {"app": "GMEAN"}
        | {label: gmean_speedup(values) for label, values in speedups.items()}
    )
    return result
