"""Run every experiment and render EXPERIMENTS.md.

Usage::

    python -m repro.experiments.report [output_path]

Honours ``REPRO_SCALE`` (see :mod:`repro.experiments.common`); a full-scale
run takes tens of minutes, ``REPRO_SCALE=0.25`` a few minutes.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Optional, Tuple

from repro.experiments import common
from repro.experiments import (
    ablation_design_choices,
    ablation_lds_segment,
    extension_dedup,
    fig02_03_tlb_sweep,
    fig04_05_utilization,
    fig11_icache_kernels,
    fig13_main,
    fig14_sharing_walks_pagesize,
    fig15_entries,
    fig_subregion,
    table2_characterization,
)
from repro.experiments import fig16_sensitivity
from repro.experiments.common import ExperimentResult

#: All experiments, in paper order.
ALL_EXPERIMENTS: List[Tuple[str, Callable[..., ExperimentResult]]] = [
    ("Table 2", table2_characterization.run),
    ("Figures 2+3", fig02_03_tlb_sweep.run),
    ("Figures 4+5", fig04_05_utilization.run),
    ("Figure 11", fig11_icache_kernels.run),
    ("Figure 13a", fig13_main.run_fig13a),
    ("Figure 13b", fig13_main.run_fig13b),
    ("Figure 13c", fig13_main.run_fig13c),
    ("Figure 14a", fig14_sharing_walks_pagesize.run_fig14a),
    ("Figure 14b", fig14_sharing_walks_pagesize.run_fig14b),
    ("Figure 14c", fig14_sharing_walks_pagesize.run_fig14c),
    ("Figure 15", fig15_entries.run),
    ("Figure 16a", fig16_sensitivity.run_fig16a),
    ("Figure 16b", fig16_sensitivity.run_fig16b),
    ("Figure 16c", fig16_sensitivity.run_fig16c),
    ("Section 6.3.1", ablation_lds_segment.run),
    ("Ablation: lookup order", ablation_design_choices.run_lookup_order),
    ("Ablation: I-cache packing", ablation_design_choices.run_packing_density),
    ("Extension: dedup filter", extension_dedup.run),
    ("Extension: subregion coalescing", fig_subregion.run),
]

#: Named job grids for ``python -m repro sweep <figure>``: each callable
#: takes ``scale`` and returns the figure's full list of
#: :class:`repro.sim.runner.SweepJob`.
SWEEP_GRIDS = {
    "table2": table2_characterization.sweep_jobs,
    "fig02_03": fig02_03_tlb_sweep.sweep_jobs,
    "fig13": fig13_main.sweep_jobs,
    "fig13a": fig13_main.sweep_jobs_13a,
    "fig13bc": fig13_main.sweep_jobs_13bc,
    "fig14": fig14_sharing_walks_pagesize.sweep_jobs,
    "fig16": fig16_sensitivity.sweep_jobs,
    "fig16a": fig16_sensitivity.sweep_jobs_16a,
    "fig16b": fig16_sensitivity.sweep_jobs_16b,
    "fig16c": fig16_sensitivity.sweep_jobs_16c,
    "ablation": ablation_design_choices.sweep_jobs,
    "subregion": fig_subregion.sweep_jobs,
}

_HEADER = """# EXPERIMENTS — measured vs paper

Generated by `python -m repro.experiments.report` at scale {scale}.

Per DESIGN.md, absolute numbers are not expected to match the paper (the
substrate is a Python latency model over synthetic workloads, not the
authors' gem5 + OpenCL setup); the reproduction targets are *shapes*:
orderings, categories, crossovers, and rough factors. Each section carries
the paper's own numbers in its notes line.

Known divergences (see DESIGN.md for rationale):

- The headline combined (IC+LDS) gmean lands close to the paper's +30.1%,
  but per-app maxima are compressed (ATAX ~2.2x here vs the paper's
  5.4x): the synthetic sweeps cannot fully reproduce the extreme
  thrash-then-rescue behaviour of the originals.
- Our LDS-only and IC-only gmeans are closer to each other than the
  paper's (+8.6% vs +13.6%); the per-app ordering (shared-working-set apps
  favour the I-cache, CU-partitioned apps favour the LDS) is reproduced.
- At 2MB pages our scaled footprints leave almost no page walks, so the
  14c arm measures ~neutral rather than the paper's +5.6%.
"""


def _render_failures(failures) -> str:
    """A markdown section for jobs the harness sweeps failed terminally.

    Harness rows are still complete when this section is non-empty: a
    failed job only means the affected cells were re-simulated in-process
    during row assembly (see docs/MODEL.md §6), which hides transient
    faults but costs the parallel speedup for those cells.
    """

    lines = [
        "## Sweep warm-up failures",
        "",
        f"{len(failures)} sweep job(s) failed terminally in the harness "
        "sweeps; the affected cells were re-simulated in-process during row "
        "assembly.",
        "",
    ]
    for failure in failures:
        lines.append(f"- {failure.describe()}")
    return "\n".join(lines)


def _render_telemetry(reports) -> str:
    """A markdown section summarizing the harness sweeps.

    Aggregates the :class:`repro.sim.runner.SweepReport` each experiment
    result carries: job/cache-hit totals, the slowest simulated cells
    (with attempts and worker pid), and — when ``REPRO_PROFILE`` was set —
    the cross-worker cProfile hotspots.
    """

    from repro.sim.runner import merge_hotspots

    total_jobs = sum(r.jobs_submitted for r in reports)
    cache_hits = sum(r.cache_hits for r in reports)
    simulated = sum(r.jobs_simulated for r in reports)
    retries = sum(r.retries for r in reports)
    wall = sum(r.wall_clock_s for r in reports)
    lines = [
        "## Sweep warm-up telemetry",
        "",
        f"{len(reports)} harness sweep(s): {total_jobs} job(s) "
        f"submitted, {cache_hits} cache hit(s), {simulated} simulated, "
        f"{retries} retr{'y' if retries == 1 else 'ies'}, "
        f"{wall:.2f}s total sweep wall clock.",
    ]
    slowest = sorted(
        (t for r in reports for t in r.timings if not t.cached),
        key=lambda t: -t.duration_s,
    )[:5]
    if slowest:
        lines.append("")
        lines.append("Slowest simulated cells:")
        lines.append("")
        for timing in slowest:
            lines.append(
                f"- {timing.app_name} {timing.scheme}: {timing.duration_s:.2f}s "
                f"({timing.attempts} attempt(s), worker {timing.worker_pid})"
            )
    hotspots = merge_hotspots([r.hotspots for r in reports if r.hotspots])
    if hotspots:
        lines.append("")
        lines.append("Hotspots (cProfile cumulative, merged across workers):")
        lines.append("")
        lines.append("```")
        lines.extend(hotspot.describe() for hotspot in hotspots)
        lines.append("```")
    return "\n".join(lines)


def generate(scale: Optional[float] = None) -> str:
    from repro.experiments.validation import render_checklist, validate

    sections = [_HEADER.format(scale=scale if scale is not None else common.DEFAULT_SCALE)]
    results = []
    tables = []
    for name, runner in ALL_EXPERIMENTS:
        started = time.time()
        result = runner(scale)
        elapsed = time.time() - started
        results.append(result)
        tables.append(result.format_table())
        tables.append(f"_(generated in {elapsed:.1f}s)_")
    sections.append(render_checklist(validate(results)))
    reports = [r.sweep_report for r in results if r.sweep_report is not None]
    failures = [failure for report in reports for failure in report.failures]
    if failures:
        sections.append(_render_failures(failures))
    if reports:
        sections.append(_render_telemetry(reports))
    sections.extend(tables)
    return "\n\n".join(sections) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    output = argv[0] if argv else "EXPERIMENTS.md"
    text = generate()
    with open(output, "w") as handle:
        handle.write(text)
    print(f"wrote {output} ({len(text.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
