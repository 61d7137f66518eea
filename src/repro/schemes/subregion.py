"""Subregion-contiguity TLB coalescing (after arXiv 2110.08613).

The observation behind contiguity-aware translation (CoPTA/Valkyrie-style
designs): demand paging tends to allocate physically *uniform-stride* runs
of frames for virtually consecutive pages, so one TLB entry can cover a
whole run. The ``subregion-coalescing`` scheme detects such runs inside
aligned *subregions* of the virtual address space and caches them as
coalesced entries alongside the shared L2 TLB:

- On the full miss path (after the L2 TLB misses), the per-GPU
  :class:`SubregionStore` is probed: a hit synthesizes the translation
  from the run's base frame + stride and fills the normal TLB hierarchy,
  skipping the IOMMU round-trip entirely.
- When a translation *is* serviced by the IOMMU, the store inspects the
  page table around the resolved page — the walker already has the
  neighbouring PTEs in hand — and installs a coalesced entry when it
  finds a long-enough uniform-stride run in the page's subregion.

Detection is strictly read-only on the page table: only pages that are
already mapped are examined (``is_mapped`` before ``translate``), so the
deterministic first-touch frame-allocation sequence every other scheme
sees is untouched.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.config import SubregionConfig
from repro.pagetable.page_table import PageTable
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


@dataclass
class CoalescedRun:
    """One uniform-stride run of mapped pages within a subregion."""

    base_vpn: int
    base_pfn: int
    stride: int
    length: int

    def covers(self, vpn: int) -> bool:
        return self.base_vpn <= vpn < self.base_vpn + self.length

    def pfn_for(self, vpn: int) -> int:
        return self.base_pfn + (vpn - self.base_vpn) * self.stride


class SubregionStore:
    """LRU store of coalesced subregion entries shared by all CUs.

    Keyed by ``(vmid, vrf_id, subregion_index)`` — at most one run per
    subregion, covering up to ``config.subregion_pages`` pages with a
    single entry.
    """

    def __init__(
        self,
        config: SubregionConfig,
        page_table: PageTable,
        stats: Optional[Stats] = None,
        name: str = "subregion",
    ) -> None:
        if config.subregion_pages < 2 or (
            config.subregion_pages & (config.subregion_pages - 1)
        ):
            raise ValueError(
                f"subregion_pages must be a power of two >= 2, "
                f"got {config.subregion_pages}"
            )
        if not 2 <= config.min_run <= config.subregion_pages:
            raise ValueError(
                f"min_run must be in [2, subregion_pages], got {config.min_run}"
            )
        self.config = config
        self.page_table = page_table
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._shift = config.subregion_pages.bit_length() - 1
        self._runs: "OrderedDict[tuple, CoalescedRun]" = OrderedDict()
        self._counters = self.stats.counters
        self._hits_key = f"{name}.hits"
        self._misses_key = f"{name}.misses"
        self._observations_key = f"{name}.observations"

    def __len__(self) -> int:
        return len(self._runs)

    def _region_key(self, key: tuple) -> tuple:
        vmid, vrf_id, vpn = key
        return (vmid, vrf_id, vpn >> self._shift)

    def lookup(self, key: tuple, anchor: int) -> Tuple[Optional[TranslationEntry], int]:
        """Probe for a coalesced entry covering ``key``'s page.

        Returns ``(entry_or_None, stage_latency)`` in the victim-cache
        stage convention of :mod:`repro.core.translation`.
        """

        latency = self.config.lookup_latency
        run = self._runs.get(self._region_key(key))
        vmid, vrf_id, vpn = key
        if run is not None and run.covers(vpn):
            self._runs.move_to_end(self._region_key(key))
            self._counters[self._hits_key] += 1
            entry = TranslationEntry(
                vpn=vpn, pfn=run.pfn_for(vpn), vmid=vmid, vrf_id=vrf_id
            )
            return entry, latency
        self._counters[self._misses_key] += 1
        return None, latency

    def observe(self, key: tuple, pfn: int) -> Optional[CoalescedRun]:
        """Learn contiguity around a page the IOMMU just resolved.

        ``key``'s page maps to ``pfn``. Examines only already-mapped
        neighbours within the page's aligned subregion and installs a
        coalesced entry when the uniform-stride run through the page is
        at least ``config.min_run`` pages long.
        """

        vmid, _vrf_id, vpn = key
        self._counters[self._observations_key] += 1
        region_base = (vpn >> self._shift) << self._shift
        region_end = region_base + self.config.subregion_pages

        def mapped_pfn(v: int) -> Optional[int]:
            if v == vpn:
                return pfn
            if region_base <= v < region_end and self.page_table.is_mapped(vmid, v):
                # Mapped pages resolve without allocating a frame, so
                # probing here cannot perturb the allocation sequence.
                return self.page_table.translate(vmid, v)
            return None

        # The run's stride comes from whichever immediate neighbour is
        # mapped; without a mapped neighbour there is nothing to coalesce.
        right = mapped_pfn(vpn + 1)
        left = mapped_pfn(vpn - 1)
        if right is not None:
            stride = right - pfn
        elif left is not None:
            stride = pfn - left
        else:
            return None
        if stride == 0:
            return None

        lo, lo_pfn = vpn, pfn
        while True:
            neighbour = mapped_pfn(lo - 1)
            if neighbour is None or lo_pfn - neighbour != stride:
                break
            lo, lo_pfn = lo - 1, neighbour
        hi, hi_pfn = vpn, pfn
        while True:
            neighbour = mapped_pfn(hi + 1)
            if neighbour is None or neighbour - hi_pfn != stride:
                break
            hi, hi_pfn = hi + 1, neighbour

        length = hi - lo + 1
        if length < self.config.min_run:
            return None
        run = CoalescedRun(base_vpn=lo, base_pfn=lo_pfn, stride=stride, length=length)
        region = self._region_key(key)
        if region in self._runs:
            self.stats.add(f"{self.name}.replacements")
            del self._runs[region]
        self._runs[region] = run
        self.stats.add(f"{self.name}.installs")
        while len(self._runs) > self.config.entries:
            self._runs.popitem(last=False)
            self.stats.add(f"{self.name}.evictions")
        return run

    def invalidate_vpn(self, vpn: int) -> int:
        """Drop every run covering ``vpn`` in any address space
        (shootdowns must never leave a stale coalesced mapping)."""

        stale = [
            region for region, run in self._runs.items() if run.covers(vpn)
        ]
        for region in stale:
            del self._runs[region]
        if stale:
            self.stats.add(f"{self.name}.invalidations", len(stale))
        return len(stale)
