"""Two-level data cache hierarchy in front of DRAM.

Each CU owns a private L1; the L2 is shared GPU-wide (with a port modelling
its finite bandwidth) and backed by the banked DRAM model. Page-table
accesses from the IOMMU walkers enter at the shared L2 (:meth:`SharedL2.access`),
matching the paper's setup where walks are cached but miss the per-CU L1s.
"""

from __future__ import annotations

from typing import Optional

from repro.config import DataCacheConfig
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DRAM
from repro.sim.engine import Port
from repro.sim.stats import Stats


class SharedL2:
    """The GPU-wide shared L2 data cache plus its DRAM backing."""

    def __init__(
        self,
        config: DataCacheConfig,
        dram: DRAM,
        stats: Optional[Stats] = None,
        reserved_ways: int = 0,
        port_units: int = 4,
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.cache = SetAssociativeCache(
            config.l2_size_bytes,
            config.l2_ways,
            config.line_bytes,
            name="l2_cache",
            stats=self.stats,
            reserved_ways=reserved_ways,
        )
        self.port = Port("l2_port", units=port_units, occupancy=1)
        self.dram = dram
        self.latency = config.l2_latency

    def access(self, addr: int, now: int, is_write: bool = False) -> int:
        """Access entering at the L2; returns the completion time."""

        ready = self.port.request(now) + self.latency
        if self.cache.access(addr, is_write):
            return ready
        _, done = self.dram.access(addr, ready, is_write)
        return done


class MemoryHierarchy:
    """A CU's view of the data memory system: private L1 over shared L2."""

    def __init__(
        self,
        config: DataCacheConfig,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
        name: str = "l1_cache",
    ) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.l1 = SetAssociativeCache(
            config.l1_size_bytes,
            config.l1_ways,
            config.line_bytes,
            name=name,
            stats=self.stats,
        )
        self.shared_l2 = shared_l2
        self._l1_latency = config.l1_latency

    def access(self, addr: int, now: int, is_write: bool = False) -> int:
        """Access from a SIMD lane group; returns the completion time."""

        return self.access_ex(addr, now, is_write)[0]

    def access_ex(self, addr: int, now: int, is_write: bool = False):
        """Like :meth:`access` but also reports the servicing level.

        Returns ``(completion_time, level)`` with level in
        ``("l1", "l2", "dram")``.
        """

        now += self._l1_latency
        if self.l1.access(addr, is_write):
            return now, "l1"
        shared = self.shared_l2
        ready = shared.port.request(now) + shared.latency
        if shared.cache.access(addr, is_write):
            return ready, "l2"
        _, done = shared.dram.access(addr, ready, is_write)
        return done, "dram"
