"""IOMMU model: device TLBs, a pool of concurrent walkers, walk queuing.

L2-TLB misses from the GPU are serviced by an IOMMU (Section 2.1) that has
its own small L1/L2 device TLBs, 32 concurrent page-table walkers, and split
page-walk caches (Table 1). The walker pool is the key throughput limiter:
when an irregular app floods the IOMMU with misses, requests queue for a
free walker, and that queuing delay is what makes GPU page walks an order of
magnitude more expensive than CPU walks (Section 3.1).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import IOMMUConfig
from repro.memory.hierarchy import SharedL2
from repro.pagetable.page_table import PageTable
from repro.pagetable.walker import PageWalker
from repro.sim.engine import Port
from repro.sim.stats import Distribution, Stats
from repro.tlb.base import TranslationEntry
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB


class IOMMU:
    """Front door for all GPU translation misses."""

    def __init__(
        self,
        config: IOMMUConfig,
        page_table: PageTable,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
        name: str = "iommu",
    ) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.page_table = page_table
        self.l1_tlb = FullyAssociativeTLB(
            config.l1_tlb_entries, name=f"{name}.l1_tlb", stats=self.stats
        )
        l2_ways = min(8, config.l2_tlb_entries)
        self.l2_tlb = SetAssociativeTLB(
            config.l2_tlb_entries, l2_ways, name=f"{name}.l2_tlb", stats=self.stats
        )
        self.walker = PageWalker(config, page_table, shared_l2, stats=self.stats)
        # The walker pool is a Port: one unit per concurrent walker, with
        # the per-walk occupancy passed at request time. Modelling it as a
        # Port (rather than a bare free-time heap) gives it the shared
        # observability surface — busy-cycle accounting and attachable
        # busy/idle timelines — for free.
        self.walker_pool = Port(f"{name}.walkers", units=config.num_walkers,
                                occupancy=0)
        self.queue_delay = Distribution(max_samples=50_000)
        self._counters = self.stats.counters
        self._walks_key = f"{name}.walks"
        self._queue_key = f"{name}.walk_queue_cycles"
        # Request overhead plus the device-TLB probes a lookup has made
        # when it hits in (or passes) each level.
        self._l1_hit_latency = config.request_overhead + config.l1_tlb_latency
        self._l2_hit_latency = self._l1_hit_latency + config.l2_tlb_latency

    def translate(self, vmid: int, vpn: int, anchor: int, vrf_id: int = 0
                  ) -> Tuple[int, TranslationEntry]:
        """Resolve a translation; returns ``(latency, entry)``.

        ``anchor`` is the requesting wave's issue time; walker-pool slots
        and PTE memory traffic are reserved at the anchor so queuing delay
        (the dominant cost under a walk storm) emerges from walker
        occupancy without future-time reservations.
        """

        key = (vmid, vrf_id, vpn)

        entry = self.l1_tlb.lookup(key)
        if entry is not None:
            return self._l1_hit_latency, entry

        entry = self.l2_tlb.lookup(key)
        if entry is not None:
            self.l1_tlb.insert(entry)
            return self._l2_hit_latency, entry

        # Full page-table walk: claim a walker slot (queuing if all busy).
        # The walk itself never touches the pool, so computing its latency
        # first and then claiming the slot for exactly that occupancy is
        # equivalent to the reservation preceding the walk.
        walk_latency, pfn = self.walker.walk(vmid, vpn, anchor)
        queue = self.walker_pool.request(anchor, walk_latency) - anchor
        counters = self._counters
        if queue:
            counters[self._queue_key] += queue
        self.queue_delay.add(queue)
        counters[self._walks_key] += 1
        latency = self._l2_hit_latency + queue + walk_latency

        entry = TranslationEntry(vpn, pfn, vmid, vrf_id)
        self.l1_tlb.insert(entry)
        self.l2_tlb.insert(entry)
        return latency, entry

    def invalidate_vpn(self, vpn: int) -> int:
        """Device-TLB part of a shootdown (Section 7.1)."""

        count = self.l1_tlb.invalidate_vpn(vpn)
        count += self.l2_tlb.invalidate_vpn(vpn)
        self.walker.pwc.flush()
        return count
