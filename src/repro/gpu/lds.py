"""Local Data Share (LDS) scratchpad (Section 2.2).

The LDS is a per-CU, application-managed scratchpad. The work-group
scheduling unit reserves capacity in one contiguous block per work-group
before dispatch; a work-group's allocation is returned wholesale when it
completes. Contiguous allocation with mixed work-group sizes produces the
fragmentation and under-utilization the paper measures (Figure 4a).

The structure is divided into 32-byte *segments*, each carrying a mode bit
(Section 4.2.4): LDS-mode segments belong to applications; free segments may
be claimed by the reconfigurable translation overlay
(:class:`repro.core.reconfig_lds.LDSTxCache`), which registers a callback so
its entries are dropped when an application allocation overwrites them
(LDS-mode may overwrite Tx-mode, never the reverse).
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import LDSConfig, LDSTxConfig
from repro.sim.engine import Port
from repro.sim.stats import Stats


class SegmentMode(enum.IntEnum):
    FREE = 0
    LDS = 1
    TX = 2


class LocalDataShare:
    """One CU's LDS: segment modes, contiguous allocator, access port."""

    def __init__(
        self,
        config: LDSConfig,
        tx_config: LDSTxConfig,
        stats: Optional[Stats] = None,
        name: str = "lds",
    ) -> None:
        self.config = config
        self.tx_config = tx_config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats.counters
        self._app_accesses_key = f"{name}.app_accesses"
        self.segment_bytes = tx_config.segment_bytes
        self.num_segments = config.size_bytes // self.segment_bytes
        self.mode: List[SegmentMode] = [SegmentMode.FREE] * self.num_segments
        self.port = Port(
            f"{name}.port", units=1, occupancy=config.port_occupancy,
            track_idle=True,
        )
        self._allocations: Dict[int, Tuple[int, int]] = {}
        self._next_alloc_id = 1
        # The Tx overlay installs this to be told when LDS-mode claims its
        # segments (translations silently dropped, per Section 4.2.4).
        self.tx_overwrite_callback: Optional[Callable[[int], None]] = None

    # ------------------------------------------------------------------
    # Allocation (work-group scheduler interface)
    # ------------------------------------------------------------------

    def segments_needed(self, nbytes: int) -> int:
        return -(-nbytes // self.segment_bytes)

    def can_allocate(self, nbytes: int) -> bool:
        if nbytes <= 0:
            return True
        return self._find_run(self.segments_needed(nbytes)) is not None

    def _find_run(self, length: int) -> Optional[int]:
        """First-fit search for ``length`` contiguous non-LDS segments."""

        run_start = None
        run_length = 0
        for index in range(self.num_segments):
            if self.mode[index] != SegmentMode.LDS:
                if run_start is None:
                    run_start = index
                run_length += 1
                if run_length >= length:
                    return run_start
            else:
                run_start = None
                run_length = 0
        return None

    def allocate(self, nbytes: int) -> Optional[int]:
        """Reserve a contiguous block; returns an allocation id, or None."""

        if nbytes <= 0:
            # Work-groups that request no LDS still get an id for symmetry.
            alloc_id = self._next_alloc_id
            self._next_alloc_id += 1
            self._allocations[alloc_id] = (0, 0)
            return alloc_id
        length = self.segments_needed(nbytes)
        start = self._find_run(length)
        if start is None:
            self.stats.add(f"{self.name}.allocation_failures")
            return None
        for index in range(start, start + length):
            if self.mode[index] == SegmentMode.TX and self.tx_overwrite_callback:
                self.tx_overwrite_callback(index)
            self.mode[index] = SegmentMode.LDS
        alloc_id = self._next_alloc_id
        self._next_alloc_id += 1
        self._allocations[alloc_id] = (start, length)
        self.stats.add(f"{self.name}.allocations")
        self.stats.add(f"{self.name}.allocated_bytes", length * self.segment_bytes)
        return alloc_id

    def free(self, alloc_id: int) -> None:
        start, length = self._allocations.pop(alloc_id)
        for index in range(start, start + length):
            self.mode[index] = SegmentMode.FREE

    # ------------------------------------------------------------------
    # Application data path
    # ------------------------------------------------------------------

    def app_access(self, now: int) -> int:
        """One application LDS instruction; returns the completion time."""

        start = self.port.request(now)
        self._counters[self._app_accesses_key] += 1
        return start + self.config.lds_mode_latency

    # ------------------------------------------------------------------
    # Occupancy accounting
    # ------------------------------------------------------------------

    @property
    def allocated_segments(self) -> int:
        return sum(1 for mode in self.mode if mode == SegmentMode.LDS)

    @property
    def allocated_bytes(self) -> int:
        return self.allocated_segments * self.segment_bytes

    @property
    def free_segments(self) -> int:
        return sum(1 for mode in self.mode if mode != SegmentMode.LDS)
