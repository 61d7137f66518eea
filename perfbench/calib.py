"""Machine-speed probe, probe calibration and the benchmark's statistics.

The host this benchmark runs on drifts in speed from minute to minute, so
a raw host time says as much about the machine as about the program. Each
timed phase is therefore bracketed by a *probe*: a fixed pure-Python loop
whose duration tracks how fast the interpreter currently runs. A
calibrated time is

    raw seconds x NOMINAL_PROBE_S / mean(probe before, probe after)

i.e. the time the phase would have taken on a machine where one probe
takes exactly ``NOMINAL_PROBE_S``. The probe runs with the cyclic garbage
collector paused: otherwise a change that bloats the heap would slow the
probe as well as the program and flatter itself.

Standard library only.
"""

from __future__ import annotations

import contextlib
import gc
import math
import statistics
import threading
import time
from typing import Callable, Iterator, List, Optional, Sequence

#: Iterations of the probe loop (about 5 ms on an idle 2-core x86 container).
PROBE_ITERS = 35_000
#: The duration one probe is calibrated to. Fixed forever: changing it
#: rescales every calibrated time the benchmark has ever reported.
NOMINAL_PROBE_S = 0.005
#: Seconds between the probes a Sampler takes.
SAMPLE_INTERVAL_S = 0.1
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def _probe_body(iters: int) -> int:
    # Dict reads and writes, integer arithmetic and a method call per
    # iteration: the same interpreter paths the simulator spends its time
    # on, and no allocation of objects the garbage collector tracks.
    table: dict = {}
    get = table.get
    acc = 0
    for i in range(iters):
        key = i & 255
        table[key] = get(key, 0) + i
        acc ^= table[key]
    return acc


def probe(iters: int = PROBE_ITERS) -> float:
    """Seconds one run of the fixed probe loop takes, GC paused."""

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_body(iters)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def calibrate(raw_s: float, probes: Sequence[float]) -> float:
    """``raw_s`` rescaled to a machine whose probe takes NOMINAL_PROBE_S."""

    if not probes:
        raise ValueError("calibration needs at least one probe")
    return raw_s * NOMINAL_PROBE_S / statistics.fmean(probes)


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (numpy's default), ``fraction`` in [0, 1]."""

    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_fraction(count: int, fraction: float = 0.90) -> Optional[float]:
    """``fraction`` if at least TAIL_SAMPLES of ``count`` samples lie beyond
    it, else the highest percentile that has that many, else ``None``."""

    if count < 2 * TAIL_SAMPLES:
        return None
    return min(fraction, 1.0 - TAIL_SAMPLES / count)


class Window:
    """Raw durations of the ops run between two probes."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.probes: List[float] = []

    def add(self, raw_s: float) -> None:
        self.raw.append(raw_s)

    @property
    def calibrated(self) -> List[float]:
        return [calibrate(raw, self.probes) for raw in self.raw]


class Calibrator:
    """Runs probes between timed ops and keeps every probe it ran.

    Consecutive windows share a probe: the probe that closes one window
    opens the next, unless untimed work ran in between
    (:meth:`invalidate`).
    """

    def __init__(self, probe_fn: Callable[[], float] = probe) -> None:
        self._probe_fn = probe_fn
        self.log: List[float] = []
        self._last: Optional[float] = None

    def probe(self) -> float:
        duration = self._probe_fn()
        self.log.append(duration)
        self._last = duration
        return duration

    def invalidate(self) -> None:
        """Untimed work ran since the last probe: the next window opens
        with a fresh probe."""

        self._last = None

    @contextlib.contextmanager
    def window(self) -> Iterator[Window]:
        """Probe (or reuse the last probe), run the body, probe again."""

        window = Window()
        window.probes.append(self._last if self._last is not None else self.probe())
        try:
            yield window
        finally:
            window.probes.append(self.probe())

    @property
    def probe_ms(self) -> float:
        return 1e3 * statistics.median(self.log)


class Sampler:
    """Probes on a background thread while other processes do the work.

    A process-pool sweep keeps every core busy and this process idle, so
    probes taken before and after it miss how the machine's speed moved
    during it. The sampler probes every SAMPLE_INTERVAL_S for the whole
    phase instead; calibrate with :attr:`samples`.
    """

    def __init__(self, interval_s: float = SAMPLE_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="perfbench-sampler",
                                        daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(probe())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
