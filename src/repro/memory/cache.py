"""Set-associative data caches (L1 per-CU, L2 shared; Table 1)."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.sim.stats import Stats


class SetAssociativeCache:
    """An LRU set-associative cache tracked at cache-line granularity.

    Only presence is modelled (no data payloads); the timing contribution is
    supplied by the enclosing :class:`~repro.memory.hierarchy.MemoryHierarchy`.
    ``reserved_ways`` models DUCATI-style capacity contention: ways claimed
    by translations are unavailable to data lines (Section 6.3.4).
    """

    def __init__(
        self,
        size_bytes: int,
        ways: int,
        line_bytes: int = 64,
        name: str = "cache",
        stats: Optional[Stats] = None,
        reserved_ways: int = 0,
    ) -> None:
        if size_bytes % (ways * line_bytes):
            raise ValueError("cache size must be a multiple of ways*line size")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (ways * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache has no sets")
        if not 0 <= reserved_ways < ways:
            raise ValueError("reserved_ways must leave at least one data way")
        self.effective_ways = ways - reserved_ways
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats.counters
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._evictions_key = f"{name}.evictions"
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def _index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Access the line containing ``addr``; returns hit/miss and fills."""

        line_addr = addr // self.line_bytes
        cache_set = self._sets[line_addr % self.num_sets]
        counters = self._counters
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            counters[self._hits_key] += 1
            return True
        counters[self._misses_key] += 1
        if len(cache_set) >= self.effective_ways:
            cache_set.popitem(last=False)
            counters[self._evictions_key] += 1
        cache_set[line_addr] = True
        return False

    def fill_low_priority(self, addr: int) -> None:
        """Install a line at the LRU position (non-demand, low-priority fill).

        Used by DUCATI's translation lines: they claim capacity but are the
        first victims when data traffic needs the set.
        """

        line_addr = addr // self.line_bytes
        cache_set = self._sets[self._index(line_addr)]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr, last=False)
            return
        if len(cache_set) >= self.effective_ways:
            cache_set.popitem(last=False)
            self.stats.add(f"{self.name}.evictions")
        cache_set[line_addr] = True
        cache_set.move_to_end(line_addr, last=False)

    def probe(self, addr: int) -> bool:
        return (addr // self.line_bytes) in self._sets[self._index(addr // self.line_bytes)]

    def invalidate_all(self) -> None:
        for cache_set in self._sets:
            cache_set.clear()
