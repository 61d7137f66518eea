"""Set-associative LRU TLB (the shared L2 TLB and IOMMU device TLBs)."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


class SetAssociativeTLB:
    """A set-associative, LRU-replacement TLB.

    Supports the "perfect" mode of the motivation study (Section 3.1): a
    perfect TLB hits on every lookup and never walks.
    """

    def __init__(
        self,
        entries: int,
        ways: int,
        name: str = "l2_tlb",
        stats: Optional[Stats] = None,
        perfect: bool = False,
    ) -> None:
        if entries < 1 or ways < 1:
            raise ValueError("TLB needs positive entries and ways")
        if entries % ways:
            raise ValueError(f"{entries} entries not divisible by {ways} ways")
        self.capacity = entries
        self.ways = ways
        self.num_sets = entries // ways
        self.name = name
        self.perfect = perfect
        self.stats = stats if stats is not None else Stats()
        self._counters = self.stats.counters
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._fills_key = f"{name}.fills"
        self._evictions_key = f"{name}.evictions"
        self._sets: List["OrderedDict[tuple, TranslationEntry]"] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def _set_for(self, key: tuple) -> "OrderedDict[tuple, TranslationEntry]":
        return self._sets[key[2] % self.num_sets]

    def lookup(self, key: tuple) -> Optional[TranslationEntry]:
        if self.perfect:
            self._counters[self._hits_key] += 1
            return TranslationEntry(vpn=key[2], pfn=key[2], vmid=key[0], vrf_id=key[1])
        tlb_set = self._sets[key[2] % self.num_sets]
        entry = tlb_set.get(key)
        if entry is None:
            self._counters[self._misses_key] += 1
            return None
        tlb_set.move_to_end(key)
        self._counters[self._hits_key] += 1
        return entry

    def probe(self, key: tuple) -> bool:
        return self.perfect or key in self._set_for(key)

    def insert(self, entry: TranslationEntry) -> Optional[TranslationEntry]:
        if self.perfect:
            return None
        key = entry.key
        tlb_set = self._sets[key[2] % self.num_sets]
        if key in tlb_set:
            tlb_set[key] = entry
            tlb_set.move_to_end(key)
            return None
        victim = None
        counters = self._counters
        if len(tlb_set) >= self.ways:
            _, victim = tlb_set.popitem(last=False)
            counters[self._evictions_key] += 1
        tlb_set[key] = entry
        counters[self._fills_key] += 1
        return victim

    def invalidate(self, key: tuple) -> bool:
        tlb_set = self._set_for(key)
        if key in tlb_set:
            del tlb_set[key]
            self.stats.add(f"{self.name}.invalidations")
            return True
        return False

    def invalidate_vpn(self, vpn: int) -> int:
        count = 0
        for tlb_set in self._sets:
            doomed = [key for key in tlb_set if key[2] == vpn]
            for key in doomed:
                del tlb_set[key]
            count += len(doomed)
        if count:
            self.stats.add(f"{self.name}.invalidations", count)
        return count

    def flush(self) -> int:
        count = len(self)
        for tlb_set in self._sets:
            tlb_set.clear()
        if count:
            self.stats.add(f"{self.name}.flushes")
        return count
