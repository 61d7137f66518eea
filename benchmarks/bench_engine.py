"""Record the simulator's wall time as a perf-trajectory artifact.

Runs a reduced Figure 13 grid (one job per application, rotating through
the scheme variants) through the simulator and writes the timings to a
JSON file that CI uploads on every run. Plotting the artifact over
commits shows the simulator's trajectory.

Before timing, the same diagonal is simulated at the scale of the result
pins (tests/pins/fingerprints.json) and every fingerprint is compared with
its pin, so a timing is never reported for a simulator that computes
something else.

Usage: python benchmarks/bench_engine.py [--scale 0.05] [--out BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from repro.experiments.common import result_fingerprint
from repro.experiments.fig13_main import sweep_jobs
from repro.system import GPUSystem
from repro.workloads.registry import make_app

PIN_PATH = Path(__file__).resolve().parent.parent / "tests" / "pins" / "fingerprints.json"
#: The scale the pins were generated at (tests/sim/test_pins.py).
PIN_SCALE = 0.02


def _diagonal(scale):
    jobs = sweep_jobs(scale=scale)
    apps = list(dict.fromkeys(job.app_name for job in jobs))
    per_app = {name: [j for j in jobs if j.app_name == name] for name in apps}
    return [
        variants[index % len(variants)]
        for index, variants in enumerate(per_app[name] for name in apps)
    ]


def _simulate(job):
    app = make_app(job.app_name, scale=job.scale, page_size=job.config.page_size)
    return GPUSystem(job.config).run(app)


def _check_pins() -> int:
    """Simulate the diagonal at the pins' scale; returns the job count.
    Raises on a missing pin or a fingerprint that differs from its pin."""

    pins = json.loads(PIN_PATH.read_text())
    jobs = _diagonal(PIN_SCALE)
    for job in jobs:
        # The label format of tests/sim/test_pins.py.
        label = (f"fig13/{job.app_name}/{job.config.scheme.value}/"
                 f"{job.config.signature}")
        assert label in pins, f"no pin for {label}"
        assert [result_fingerprint(_simulate(job))] == pins[label], (
            f"{label}: result differs from its pin"
        )
    return len(jobs)


def _timed(func):
    start = time.perf_counter()
    value = func()
    return value, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--out", default="BENCH_engine.json")
    args = parser.parse_args()

    checked = _check_pins()
    print(f"pins: {checked} diagonal jobs match at scale {PIN_SCALE}")

    rows = []
    for job in _diagonal(args.scale):
        _, event_s = _timed(lambda: _simulate(job))
        rows.append(
            {
                "app": job.app_name,
                "scheme": job.config.scheme.value,
                "event_s": round(event_s, 4),
            }
        )
        print(f"{job.app_name:5s} {job.config.scheme.value:18s} "
              f"event {event_s:6.3f}s")

    total_event = sum(row["event_s"] for row in rows)
    payload = {
        "scale": args.scale,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "jobs": len(rows),
        "pins_checked": checked,
        "total_event_s": round(total_event, 4),
        "rows": rows,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\n{len(rows)} jobs: event {total_event:.2f}s -> {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
