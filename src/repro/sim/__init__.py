"""Simulation engine primitives: stats, resources, the wave scheduler."""

from repro.sim.engine import Port, WaveScheduler
from repro.sim.profiling import Hotspot, HotspotProfiler, merge_hotspots
from repro.sim.results import KernelResult, SimResult, geomean, speedup
from repro.sim.runner import (
    JobFailure,
    JobTiming,
    SweepAbort,
    SweepJob,
    SweepReport,
    SweepRunner,
    WorkerOutcome,
    parse_fault_spec,
)
from repro.sim.stats import BoxStats, Distribution, PortIdleTracker, Stats
from repro.sim.trace import (
    ExecutionTracer,
    TimelineSampler,
    TraceEvent,
    write_chrome_trace,
)

__all__ = [
    "BoxStats",
    "Distribution",
    "ExecutionTracer",
    "Hotspot",
    "HotspotProfiler",
    "JobFailure",
    "JobTiming",
    "KernelResult",
    "Port",
    "PortIdleTracker",
    "SimResult",
    "Stats",
    "SweepAbort",
    "SweepJob",
    "SweepReport",
    "SweepRunner",
    "TimelineSampler",
    "TraceEvent",
    "WaveScheduler",
    "WorkerOutcome",
    "geomean",
    "merge_hotspots",
    "parse_fault_spec",
    "speedup",
    "write_chrome_trace",
]
