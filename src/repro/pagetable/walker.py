"""Page-table walk execution.

A :class:`PageWalker` performs the serial chain of PTE memory accesses for
one walk, consulting the split page-walk caches to skip already-cached upper
levels. PTE accesses go through the *shared L2 data cache* (and DRAM on a
miss), matching the paper's model where walk traffic is cached but radically
slower than a TLB hit.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import IOMMUConfig
from repro.memory.hierarchy import SharedL2
from repro.pagetable.page_table import PageTable
from repro.pagetable.walk_cache import SplitPageWalkCache
from repro.sim.stats import Distribution, Stats


class PageWalker:
    """Executes walks; shared by all walker slots in the IOMMU pool."""

    def __init__(
        self,
        config: IOMMUConfig,
        page_table: PageTable,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
        name: str = "walker",
    ) -> None:
        self.config = config
        self.page_table = page_table
        self.shared_l2 = shared_l2
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self.pwc = SplitPageWalkCache(config, levels=page_table.levels, stats=self.stats)
        self.walk_latency = Distribution(max_samples=50_000)
        self._counters = self.stats.counters
        self._pte_key = f"{name}.pte_accesses"
        self._walks_key = f"{name}.walks"
        self._skipped_key = f"{name}.levels_skipped"

    def walk(self, vmid: int, vpn: int, anchor: int) -> Tuple[int, int]:
        """Run one walk; returns ``(walk_latency, pfn)``.

        The walk serially accesses one PTE per non-skipped level (a pointer
        chase), so the latencies of the individual accesses add up. Port and
        DRAM-bank occupancy for the PTE accesses is charged at ``anchor``
        (the requesting wave's issue time) to keep the shared occupancy
        model monotone; see the timing-discipline note in
        :mod:`repro.core.translation`.
        """

        skipped = self.pwc.lookup(vmid, vpn)
        latency = self.config.pwc_latency
        addresses = self.page_table.walk_addresses(vmid, vpn, skipped)
        dram_access = self.shared_l2.dram.access
        counters = self._counters
        pte_key = self._pte_key
        for address in addresses:
            # IOMMU walkers fetch PTEs from system memory directly (they sit
            # outside the GPU's L1/L2 data hierarchy); this is a large part
            # of why GPU page walks are an order of magnitude slower than
            # on-chip translation hits (Section 3.1).
            _, done = dram_access(address, anchor)
            latency += done - anchor
            counters[pte_key] += 1
        self.pwc.fill(vmid, vpn)
        pfn = self.page_table.translate(vmid, vpn)
        counters[self._walks_key] += 1
        counters[self._skipped_key] += skipped
        self.walk_latency.add(latency)
        return latency, pfn
