"""Per-CU translation lookup path (Section 4.4).

On an L1-TLB miss the reconfigurable structures are probed *in order of
proximity*: the CU-private LDS first (2-cycle mode probe), then the shared
I-cache, then the shared L2 TLB, then (under DUCATI) the L2-resident and
in-memory translation stores, and finally the IOMMU walk. A hit in the LDS
or I-cache removes the entry there and promotes it to the L1 TLB; the L1
victim re-enters the Figure 12 fill flow.

Timing discipline: every shared-port occupancy along the path is charged at
the *anchor* (the time the wave issued the request). Wave anchors are
globally nondecreasing under the scheduler, which keeps the occupancy model
consistent; stage latencies and queue delays accumulate separately into the
returned completion time. (Charging a downstream stage at its derived
future time would reserve ports in the future and falsely block every
slower wave behind the reservation.)

The service also owns the in-flight merge table (requests to a page whose
translation is already being resolved wait on the existing request instead
of issuing a duplicate walk) and the CU-sharing tracker behind Figure 14a.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.core.fill_flow import VictimFillFlow
from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.pagetable.iommu import IOMMU
from repro.pagetable.page_table import PageTable
from repro.sim.engine import Port
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry
from repro.tlb.coalescer import InFlightTable
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB


class SharingTracker:
    """Which CUs translated each page (Figure 14a).

    Per-VPN bitmask of requesting CUs; cheap enough to keep exactly.
    """

    def __init__(self) -> None:
        self._masks: Dict[int, int] = {}

    def record(self, cu_id: int, vpn: int) -> None:
        masks = self._masks
        masks[vpn] = masks.get(vpn, 0) | (1 << cu_id)

    @property
    def total_pages(self) -> int:
        return len(self._masks)

    @property
    def shared_pages(self) -> int:
        return sum(1 for mask in self._masks.values() if mask & (mask - 1))

    @property
    def shared_fraction(self) -> float:
        total = self.total_pages
        return self.shared_pages / total if total else 0.0

    def is_shared(self, vpn: int) -> bool:
        """Whether 2+ CUs have translated ``vpn`` so far."""

        mask = self._masks.get(vpn, 0)
        return bool(mask & (mask - 1))


class TranslationService:
    """One CU's address-translation front end."""

    def __init__(
        self,
        cu_id: int,
        config: SystemConfig,
        page_table: PageTable,
        l2_tlb: SetAssociativeTLB,
        l2_tlb_port: Port,
        iommu: IOMMU,
        sharing: SharingTracker,
        stats: Optional[Stats] = None,
        lds_tx: Optional[LDSTxCache] = None,
        icache_tx: Optional[ReconfigurableICache] = None,
        ducati=None,
        subregion=None,
        vmid: int = 0,
    ) -> None:
        self.cu_id = cu_id
        self.config = config
        self.page_table = page_table
        self.stats = stats if stats is not None else Stats()
        self.name = f"cu{cu_id}"
        self.l1_tlb = FullyAssociativeTLB(
            config.tlb.l1_entries, name="l1_tlb", stats=self.stats
        )
        self.l1_port = Port(
            f"{self.name}.l1_tlb_port", units=2,
            occupancy=config.tlb.l1_port_occupancy,
        )
        self.l2_tlb = l2_tlb
        self.l2_tlb_port = l2_tlb_port
        self.iommu = iommu
        self.sharing = sharing
        self.lds_tx = lds_tx
        self.icache_tx = icache_tx
        self.ducati = ducati
        self.subregion = subregion
        self.vmid = vmid
        self.mshr = InFlightTable(stats=self.stats, name="tx_mshr")
        self.fill_flow = VictimFillFlow(
            l2_tlb, lds_tx=lds_tx, icache_tx=icache_tx, ducati=ducati,
            stats=self.stats, lds_first=config.lds_before_icache,
            sharing=sharing, dedup_shared=config.dedup_shared_fills,
        )
        self._counters = self.stats.counters
        self._l1_latency = config.tlb.l1_latency
        self._l2_latency = config.tlb.l2_latency
        # Victim-cache probe order on an L1 miss (Section 4.4; reversible
        # for the ordering ablation): (lookup, serviced-by counter name).
        stages = []
        if lds_tx is not None:
            stages.append((lds_tx.lookup, "tx_serviced_by.lds"))
        if icache_tx is not None:
            stages.append((icache_tx.tx_lookup, "tx_serviced_by.icache"))
        if not config.lds_before_icache:
            stages.reverse()
        self._lookup_stages = stages

    # ------------------------------------------------------------------

    def _promote(self, entry: TranslationEntry, anchor: int) -> None:
        """Install in the L1 TLB; the displaced entry enters the fill flow."""

        victim = self.l1_tlb.insert(entry)
        if victim is not None:
            self.fill_flow.fill(victim, anchor)

    def translate(self, vpn: int, now: int) -> Tuple[int, int]:
        """Translate ``vpn``; returns (completion_time, pfn)."""

        self._counters["translations"] += 1
        self.sharing.record(self.cu_id, vpn)
        key = (self.vmid, 0, vpn)

        latency = self.l1_port.request(now) - now + self._l1_latency
        entry = self.l1_tlb.lookup(key)
        if entry is not None:
            return now + latency, entry.pfn

        merged = self.mshr.check(key, now + latency)
        if merged is not None:
            return merged, self.page_table.translate(self.vmid, vpn)

        completion, pfn = self._miss_path(key, vpn, now, latency)
        self.mshr.register(key, completion, now)
        return completion, pfn

    def _miss_path(
        self, key: tuple, vpn: int, anchor: int, latency: int
    ) -> Tuple[int, int]:
        """L1-miss path: LDS → I-cache → L2 TLB → subregion → DUCATI → IOMMU.

        ``anchor`` is the wave's issue time (used for all port occupancy);
        ``latency`` is the delay accumulated so far.
        """

        counters = self._counters
        for lookup, serviced_by in self._lookup_stages:
            entry, stage = lookup(key, anchor)
            latency += stage
            if entry is not None:
                counters[serviced_by] += 1
                self._promote(entry, anchor)
                return anchor + latency, entry.pfn

        latency += self.l2_tlb_port.request(anchor) - anchor + self._l2_latency
        entry = self.l2_tlb.lookup(key)
        if entry is not None:
            counters["tx_serviced_by.l2_tlb"] += 1
            self._promote(entry, anchor)
            return anchor + latency, entry.pfn

        if self.subregion is not None:
            entry, stage = self.subregion.lookup(key, anchor)
            latency += stage
            if entry is not None:
                counters["tx_serviced_by.subregion"] += 1
                self._promote(entry, anchor)
                self.l2_tlb.insert(entry)
                return anchor + latency, entry.pfn

        if self.ducati is not None:
            entry, stage = self.ducati.lookup(key, anchor)
            latency += stage
            if entry is not None:
                counters["tx_serviced_by.ducati"] += 1
                self._promote(entry, anchor)
                self.l2_tlb.insert(entry)
                return anchor + latency, entry.pfn

        stage, entry = self.iommu.translate(self.vmid, vpn, anchor)
        latency += stage
        counters["tx_serviced_by.iommu"] += 1
        if self.subregion is not None:
            # The walker path just resolved this page: learn contiguity
            # around it (read-only on the page table) and coalesce.
            self.subregion.observe(key, entry.pfn)
        # A resolved walk fills both TLB levels (the L2 keeps its copy when
        # the L1 victim later moves into the LDS/I-cache victim caches).
        self.l2_tlb.insert(entry)
        self._promote(entry, anchor)
        return anchor + latency, entry.pfn

    # ------------------------------------------------------------------

    def note_locality_hits(self, count: int) -> None:
        """Credit L1-TLB hits from the remaining instructions of a strip.

        A macro-op's strip of instructions re-touches the pages the first
        instruction translated; those lookups hit the L1 TLB and contribute
        to its hit ratio (Table 2) without further timing effect.
        """

        if count > 0:
            self._counters["l1_tlb.hits"] += count

    def shootdown(self, vpn: int) -> int:
        """Invalidate ``vpn`` everywhere this CU caches it (Section 7.1)."""

        count = self.l1_tlb.invalidate_vpn(vpn)
        if self.lds_tx is not None:
            count += self.lds_tx.invalidate_vpn(vpn)
        if self.icache_tx is not None:
            count += self.icache_tx.invalidate_vpn(vpn)
        return count
