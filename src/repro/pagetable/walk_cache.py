"""Split page-walk caches (PGD/PUD/PMD), per Barr et al. "Skip, Don't Walk".

The IOMMU keeps three small translation-path caches, one per intermediate
page-table level (Table 1: 4/8/32 entries). A walk consults the deepest
cache first: a PMD-cache hit skips straight to the leaf PTE access, a
PUD-cache hit skips two levels, a PGD-cache hit skips one. This is the
"split page-walk caches for intermediate page table translations" the
paper's gem5 model implements (Section 5).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.config import IOMMUConfig
from repro.sim.stats import Stats

_LEVEL_BITS = 9


class _PrefixCache:
    """Tiny fully-associative LRU cache keyed by a VPN prefix."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()

    def lookup(self, key) -> bool:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True
        return False

    def fill(self, key) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = True

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class SplitPageWalkCache:
    """The PGD/PUD/PMD cache trio with skip-level lookup semantics."""

    def __init__(
        self,
        config: IOMMUConfig,
        levels: int = 4,
        stats: Optional[Stats] = None,
        name: str = "pwc",
    ) -> None:
        self.levels = levels
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._pgd = _PrefixCache(config.pgd_cache_entries)
        self._pud = _PrefixCache(config.pud_cache_entries)
        self._pmd = _PrefixCache(config.pmd_cache_entries)
        self._counters = self.stats.counters
        self._misses_key = f"{name}.misses"
        # A cache at depth d holds the translation produced after d levels
        # of the walk, so it is keyed by the VPN bits those levels consumed
        # and a hit skips d accesses. Each level present in a walk of
        # ``levels`` levels: (cache, prefix shift, levels skipped, hit
        # counter), deepest first ("skip, don't walk").
        caches = [
            (self._pgd, _LEVEL_BITS * (levels - 1), 1, f"{name}.pgd_hits"),
            (self._pud, _LEVEL_BITS * (levels - 2), 2, f"{name}.pud_hits"),
            (self._pmd, _LEVEL_BITS * (levels - 3), 3, f"{name}.pmd_hits"),
        ]
        # A walk of ``levels`` levels has ``levels - 1`` intermediate ones.
        present = caches[:max(1, min(3, levels - 1))]
        self._lookup_order = present[::-1]
        self._fill_order = [(cache, shift) for cache, shift, _, _ in present]

    def lookup(self, vmid: int, vpn: int) -> int:
        """Number of walk levels that can be skipped (0..levels-1)."""

        for cache, shift, skip, hit_key in self._lookup_order:
            if cache.lookup((vmid, vpn >> shift)):
                self._counters[hit_key] += 1
                return skip
        self._counters[self._misses_key] += 1
        return 0

    def fill(self, vmid: int, vpn: int) -> None:
        """Install the intermediate translations produced by a full walk."""

        for cache, shift in self._fill_order:
            cache.fill((vmid, vpn >> shift))

    def flush(self) -> None:
        self._pgd.flush()
        self._pud.flush()
        self._pmd.flush()
