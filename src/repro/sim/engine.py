"""Latency/occupancy simulation engine.

The simulator is trace-driven and latency-based rather than cycle-by-cycle:

- Every shared hardware structure with finite bandwidth (TLB ports, LDS and
  I-cache ports, page table walkers, DRAM banks) is a :class:`Port` — a pool
  of one or more units, each busy for an *occupancy* after accepting a
  request. A request arriving at time ``t`` starts at
  ``max(t, earliest_free_unit)``; queuing delay therefore emerges naturally
  when a structure is oversubscribed, which is the mechanism behind the
  paper's walk-storm slowdowns.
- Wavefronts are independent timelines that interleave through the
  :class:`WaveScheduler`, a min-heap ordered by each wave's local time. The
  scheduler always advances the globally-oldest runnable wave, so shared
  ports are accessed in (approximately) nondecreasing time order and the
  occupancy model stays consistent.

This style of model reproduces throughput and queuing behaviour — who wins
and by what factor — at a tiny fraction of the cost of a cycle-accurate
simulator, which is the appropriate trade-off for this reproduction (see
DESIGN.md Section 2).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush, heapreplace
from typing import Callable, List, Optional, Tuple

from repro.sim.stats import PortIdleTracker


class Port:
    """A pool of ``units`` service units, each with a fixed occupancy.

    ``request`` returns the service *start* time; callers add their own
    access latency on top. The port optionally records idle-gap statistics
    via an attached :class:`PortIdleTracker`, and busy-interval timelines
    via an attached :class:`~repro.sim.trace.TimelineSampler` (see
    :meth:`attach_timeline`). Both sit behind one flag, so a port with
    neither attached pays a single test per request.
    """

    __slots__ = (
        "name", "occupancy", "_free_times", "busy_cycles", "_idle_tracker",
        "_timeline", "_observed",
    )

    def __init__(
        self,
        name: str,
        units: int = 1,
        occupancy: int = 1,
        track_idle: bool = False,
    ) -> None:
        if units < 1:
            raise ValueError(f"port {name!r} needs at least one unit")
        if occupancy < 0:
            raise ValueError(f"port {name!r} occupancy must be non-negative")
        self.name = name
        self.occupancy = occupancy
        # All zeros: already a heap.
        self._free_times: List[int] = [0] * units
        self.busy_cycles = 0
        self._idle_tracker: Optional[PortIdleTracker] = (
            PortIdleTracker() if track_idle else None
        )
        # Optional TimelineSampler (repro.sim.trace).
        self._timeline = None
        self._observed = track_idle

    @property
    def units(self) -> int:
        return len(self._free_times)

    @property
    def idle_tracker(self) -> Optional[PortIdleTracker]:
        return self._idle_tracker

    @idle_tracker.setter
    def idle_tracker(self, tracker: Optional[PortIdleTracker]) -> None:
        self._idle_tracker = tracker
        self._observed = tracker is not None or self._timeline is not None

    @property
    def timeline(self):
        return self._timeline

    @timeline.setter
    def timeline(self, sampler) -> None:
        self._timeline = sampler
        self._observed = sampler is not None or self._idle_tracker is not None

    def request(self, now: int, occupancy: Optional[int] = None) -> int:
        """Claim a unit at or after ``now``; returns the start time.

        A per-call ``occupancy`` overrides the port's default (pools with
        variable service times, e.g. page-table walkers, pass the actual
        latency). It is validated like the constructor's: a negative
        override would free a unit before it started, silently corrupting
        the queuing model.
        """

        if occupancy is None:
            occupancy = self.occupancy
        elif occupancy < 0:
            raise ValueError(
                f"port {self.name!r} occupancy override must be "
                f"non-negative, got {occupancy}"
            )
        free_times = self._free_times
        start = free_times[0]
        if now > start:
            start = now
        heapreplace(free_times, start + occupancy)
        self.busy_cycles += occupancy
        if self._observed:
            self._observe(start, start + occupancy)
        return start

    def _observe(self, start: int, end: int) -> None:
        if self._idle_tracker is not None:
            self._idle_tracker.record_access(start)
        if self._timeline is not None:
            self._timeline.record(start, end)

    def attach_timeline(self, sampler) -> None:
        """Record busy intervals into ``sampler``
        (:class:`repro.sim.trace.TimelineSampler`); pass None to detach."""

        self.timeline = sampler

    def earliest_free(self) -> int:
        return self._free_times[0]

    def reset(self) -> None:
        """Restore the port to its just-constructed state.

        Besides the free-time heap and busy-cycle counter this detaches any
        attached timeline sampler and replaces the idle tracker with a fresh
        one, so a port reused for a second in-process run starts from the
        same state as a new one: a stale sampler or tracker would leak the
        first run's history into the second run's distributions.
        """

        self._free_times = [0] * len(self._free_times)
        self.busy_cycles = 0
        if self._idle_tracker is not None:
            self.idle_tracker = PortIdleTracker()
        self.timeline = None


class WaveScheduler:
    """Min-heap scheduler interleaving wave timelines.

    Each entry is ``(time, sequence, payload, step)`` where ``step`` is a
    callable ``step(payload, time) -> Optional[int]`` returning the wave's
    next ready time, or ``None`` when the wave has retired. The ``sequence``
    tiebreaker keeps scheduling deterministic.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, object, Callable]] = []
        self._sequence = 0
        self.now = 0

    def add(self, time: int, payload: object, step: Callable) -> None:
        heappush(self._heap, (time, self._sequence, payload, step))
        self._sequence += 1

    def __len__(self) -> int:
        return len(self._heap)

    def run(self) -> int:
        """Drive all waves to completion; returns the final time.

        A wave that continues replaces its own heap entry in one sift
        instead of a pop plus a push. That is only valid while the entry
        is still the heap's top: a step that schedules a wave *earlier*
        than itself moves it, and the entry is then taken out where it
        sits. Either way the heap holds the same entries as after a pop
        and a push, and since ``(time, sequence)`` is unique the run order
        is the same.
        """

        heap = self._heap
        final = self.now
        while heap:
            entry = heap[0]
            time, _, payload, step = entry
            if time > self.now:
                self.now = time
            next_time = step(payload, time)
            if heap[0] is not entry:
                heap.remove(entry)
                heapify(heap)
                if next_time is None:
                    if time > final:
                        final = time
                else:
                    self.add(next_time if next_time > time else time, payload, step)
            elif next_time is None:
                heappop(heap)
                if time > final:
                    final = time
            else:
                if next_time < time:
                    next_time = time
                heapreplace(heap, (next_time, self._sequence, payload, step))
                self._sequence += 1
        if self.now > final:
            final = self.now
        return final
