"""Run one benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload walk-storm --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it give the same results under the names used in
perfbench/README.md, raw values beside calibrated ones, and the digest of
every simulated result. Exits 1 without a result when set-up fails.
"""

import time

_T0 = time.perf_counter()  # set-up time starts at the first statement

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402  (imports repro only when a workload loads)
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Set-ups timed per run, each in a fresh process (imports included);
#: set-up time is reported as their median.
SETUP_SAMPLES = 3
#: End-to-end metrics and their units (BENCHMARK.json lists the same).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s", "op_ms": "ms"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Time one set-up in this process, print it and exit: after its timed
    # phase, a run starts SETUP_SAMPLES - 1 of these beside its own.
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (a pool worker)."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def set_up(workload, cal, first_probe):
    """Imports and one set-up, timed from the first statement; returns
    (calibrated, raw) seconds."""

    workload.load()
    workload.setup()
    raw = time.perf_counter() - _T0 - first_probe
    return calib.calibrate(raw, [first_probe, cal.probe()]), raw


def setup_sample(args):
    """(calibrated, raw) set-up seconds of one fresh process."""

    command = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if done.returncode:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr}")
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["setup_s"], sample["raw_s"]


def timed_run(args, workload, cal, sample):
    """The end-to-end metrics, tracing off."""

    measured = workload.run(cal, args.seconds)
    workload.close()  # reap pool workers and server threads before RSS
    metrics = dict(measured.metrics)
    # Read before the set-up samples start child processes of their own.
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples = [sample] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics["setup_s"] = statistics.median(c for c, _ in samples)
    lines = [
        f"setup_s={metrics['setup_s']:.4f} (raw "
        f"{statistics.median(r for _, r in samples):.4f}): median of {len(samples)} "
        f"set-ups in fresh processes [{', '.join(f'{c:.4f}' for c, _ in samples)}]",
        *measured.lines,
        f"peak_rss_mb={metrics['peak_rss_mb']:.1f}",
    ]
    return lines, metrics, END_TO_END


def traced_run(args, workload, cal):
    """The per-layer metrics of the traced run."""

    tracer = Tracer()
    measured = workload.trace(cal, args.seconds, tracer)
    units = layers.per_layer_units()
    metrics = {name: 0.0 for name in units}
    metrics.update(measured.metrics)
    metrics["probe_ms"] = cal.probe_ms
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write_spans(spans_path)
    lines = measured.lines + [
        f"empty wrapper: {1e9 * tracer.cost_in:.0f} ns in call, "
        f"{1e9 * tracer.cost_out:.0f} ns in caller (subtracted); spans in "
        f"{os.path.relpath(spans_path, ROOT)}"
    ]
    if tracer.absent:
        lines.append("absent layers: " + "; ".join(
            f"{name} ({why})" for name, why in sorted(tracer.absent.items())))
    return lines, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    cal = calib.Calibrator()
    probe_s = cal.probe()
    # The benchmark's settings only: none inherited from the caller.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    store_dir = os.path.join(run_dir, "store")
    os.environ["REPRO_CACHE_DIR"] = store_dir  # read when repro is imported
    sys.path.insert(0, SRC)
    width = min(2, os.cpu_count() or 1)
    workload = None
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, store_dir, width)
        sample = set_up(workload, cal, probe_s)
        if args.setup_only:
            print(json.dumps({"setup_s": sample[0], "raw_s": sample[1]}))
            return 0
        if args.trace:
            lines, metrics, units = traced_run(args, workload, cal)
        else:
            lines, metrics, units = timed_run(args, workload, cal, sample)
        lines.append(f"probe_ms={cal.probe_ms:.4f} (median of {len(cal.log)} probes)")
        lines.append(f"digest={workload.digest()} over {len(workload.fingerprints)} "
                     f"simulated results")
        tally = workload.tally
        lines += [f"FAILED {error}" for error in tally.errors]
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} width={width}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
