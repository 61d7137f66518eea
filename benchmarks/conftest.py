"""Benchmark-suite plumbing.

Each benchmark regenerates one of the paper's tables/figures through the
experiment harness, asserts the qualitative shape the paper reports, and
saves the rendered table under ``benchmarks/results/``.

Scale: ``REPRO_SCALE`` (default 1.0 — the calibrated operating point).
Each harness runs its figure's grid through the sweep runner
(``REPRO_JOBS`` workers) and builds its rows from that sweep's results.
Results are shared across benchmarks through the runner's in-process
memo (and ``REPRO_CACHE_DIR`` on disk if set), so the many figures that
share baseline runs serve them as cache hits instead of re-simulating.
"""

import os
import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def save_table(result) -> None:
    """Persist a rendered experiment table and echo it to stdout."""

    RESULTS_DIR.mkdir(exist_ok=True)
    slug = result.experiment_id.lower().replace(" ", "_").replace(".", "_")
    path = RESULTS_DIR / f"{slug}.md"
    text = result.format_table()
    path.write_text(text + "\n")
    print()
    print(text)


def run_once(benchmark, func, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""

    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1)
