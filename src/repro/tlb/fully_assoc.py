"""Fully-associative LRU TLB (the per-CU L1 TLB, Table 1)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


class FullyAssociativeTLB:
    """A fully-associative, LRU-replacement TLB.

    ``insert`` returns the evicted entry (if any) so the caller can route it
    into the Figure 12 victim fill flow. ``invalidate`` supports shootdowns
    (Section 7.1).
    """

    def __init__(self, entries: int, name: str = "l1_tlb", stats: Optional[Stats] = None):
        if entries < 1:
            raise ValueError("TLB needs at least one entry")
        self.capacity = entries
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats.counters
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._fills_key = f"{name}.fills"
        self._evictions_key = f"{name}.evictions"
        self._entries: "OrderedDict[tuple, TranslationEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple) -> Optional[TranslationEntry]:
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self._counters[self._misses_key] += 1
            return None
        entries.move_to_end(key)
        self._counters[self._hits_key] += 1
        return entry

    def probe(self, key: tuple) -> bool:
        """Presence check with no LRU update and no stats."""

        return key in self._entries

    def insert(self, entry: TranslationEntry) -> Optional[TranslationEntry]:
        key = entry.key
        entries = self._entries
        if key in entries:
            entries[key] = entry
            entries.move_to_end(key)
            return None
        victim = None
        counters = self._counters
        if len(entries) >= self.capacity:
            _, victim = entries.popitem(last=False)
            counters[self._evictions_key] += 1
        entries[key] = entry
        counters[self._fills_key] += 1
        return victim

    def invalidate(self, key: tuple) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.stats.add(f"{self.name}.invalidations")
            return True
        return False

    def invalidate_vpn(self, vpn: int) -> int:
        """Shootdown: drop every entry for ``vpn`` across address spaces."""

        doomed = [key for key in self._entries if key[2] == vpn]
        for key in doomed:
            del self._entries[key]
        if doomed:
            self.stats.add(f"{self.name}.invalidations", len(doomed))
        return len(doomed)

    def flush(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        if count:
            self.stats.add(f"{self.name}.flushes")
        return count
