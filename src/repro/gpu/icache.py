"""Baseline L1 instruction cache (Section 2.3).

One I-cache is shared by a group of CUs (four in the Table 1 baseline).
Wavefronts whose next instruction is not in their instruction buffer request
a line through the shared fetch port; misses refill from the GPU L2.

Lines carry a mode flag so the reconfigurable subclass
(:class:`repro.core.reconfig_icache.ReconfigurableICache`) can repurpose
idle lines for translations; in the baseline the flag is always IC-mode.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.config import ICacheConfig
from repro.sim.engine import Port
from repro.sim.stats import Stats


class CacheLine:
    """One I-cache line: either instructions (IC-mode) or translations."""

    __slots__ = ("tag", "valid", "is_tx", "lru", "tx_entries")

    def __init__(self) -> None:
        self.tag: int = -1
        self.valid: bool = False
        self.is_tx: bool = False
        self.lru: int = 0
        # Tx-mode payload: key -> TranslationEntry, LRU-ordered.
        self.tx_entries: Optional[OrderedDict] = None

    def make_instruction(self, tag: int, lru: int) -> None:
        self.tag = tag
        self.valid = True
        self.is_tx = False
        self.lru = lru
        self.tx_entries = None

    def make_invalid(self) -> None:
        self.valid = False
        self.is_tx = False
        self.tx_entries = None


class InstructionCache:
    """Set-associative, LRU I-cache shared by ``cus_per_icache`` CUs."""

    def __init__(
        self,
        config: ICacheConfig,
        stats: Optional[Stats] = None,
        name: str = "icache",
    ) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats.counters
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._fills_key = f"{name}.fills"
        self._prefetches_key = f"{name}.prefetches"
        self._fetch_hit_latency = config.tag_latency
        self._fetch_miss_latency = config.tag_latency + config.fill_latency
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.num_lines = config.num_lines
        self._sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(self.ways)] for _ in range(self.num_sets)
        ]
        self.port = Port(
            f"{name}.port", units=1, occupancy=config.port_occupancy,
            track_idle=True,
        )
        self._lru_seq = 0

    # ------------------------------------------------------------------
    # Instruction path
    # ------------------------------------------------------------------

    def _next_lru(self) -> int:
        self._lru_seq += 1
        return self._lru_seq

    def fetch(self, line_addr: int, now: int) -> int:
        """Fetch one instruction line; returns the completion time."""

        start = self.port.request(now)
        tag, set_index = divmod(line_addr, self.num_sets)
        cache_set = self._sets[set_index]
        counters = self._counters
        for cache_line in cache_set:
            if cache_line.tag == tag and cache_line.valid and not cache_line.is_tx:
                cache_line.lru = self._next_lru()
                counters[self._hits_key] += 1
                return start + self._fetch_hit_latency
        # Miss: pick a victim and refill from the L2.
        counters[self._misses_key] += 1
        counters[self._fills_key] += 1
        victim = self._choose_instruction_victim(cache_set)
        self._on_instruction_claim(victim)
        victim.make_instruction(tag, self._next_lru())
        if self.config.next_line_prefetch:
            self._prefetch(line_addr + 1)
        return start + self._fetch_miss_latency

    def _on_instruction_claim(self, victim: CacheLine) -> None:
        """Hook fired when an instruction fill claims ``victim``.

        The reconfigurable subclass uses it to account for (and spill) any
        translations the claimed line held.
        """

    def _prefetch(self, line_addr: int) -> None:
        """Next-line prefetch issued alongside a demand fill.

        Prefetches happen off the requester's critical path; they count as
        fills for Equation 1's utilization metric.
        """

        set_index = line_addr % self.num_sets
        tag = line_addr // self.num_sets
        cache_set = self._sets[set_index]
        for cache_line in cache_set:
            if cache_line.valid and not cache_line.is_tx and cache_line.tag == tag:
                return  # already resident
        victim = self._choose_instruction_victim(cache_set)
        self._on_instruction_claim(victim)
        victim.make_instruction(tag, self._next_lru())
        self._counters[self._prefetches_key] += 1
        self._counters[self._fills_key] += 1

    def _choose_instruction_victim(self, cache_set: List[CacheLine]) -> CacheLine:
        """Baseline policy: invalid lines first, then global LRU."""

        victim = None
        for cache_line in cache_set:
            if not cache_line.valid:
                return cache_line
            if victim is None or cache_line.lru < victim.lru:
                victim = cache_line
        assert victim is not None
        return victim

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def flush_instructions(self) -> int:
        """Invalidate all IC-mode lines (the Section 4.3.3 runtime flush)."""

        count = 0
        for cache_set in self._sets:
            for cache_line in cache_set:
                if cache_line.valid and not cache_line.is_tx:
                    cache_line.make_invalid()
                    count += 1
        if count:
            self.stats.add(f"{self.name}.instruction_flushes")
            self.stats.add(f"{self.name}.lines_flushed", count)
        return count

    def on_kernel_boundary(self, next_kernel_same: bool) -> None:
        """Hook for the kernel-boundary flush; no-op in the baseline."""

    def valid_instruction_lines(self) -> int:
        return sum(
            1
            for cache_set in self._sets
            for cache_line in cache_set
            if cache_line.valid and not cache_line.is_tx
        )

    def tx_entry_count(self) -> int:
        return sum(
            len(cache_line.tx_entries)
            for cache_set in self._sets
            for cache_line in cache_set
            if cache_line.is_tx and cache_line.tx_entries
        )
