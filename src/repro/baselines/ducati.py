"""DUCATI comparator (Jaleel et al., TACO 2019; paper Section 6.3.4).

DUCATI extends TLB reach by spilling translations into the *last-level data
cache* and, behind it, a very large part-of-memory (POM) TLB carved out of
GPU device memory. Unlike the paper's proposal it does not use idle
capacity: translation lines live in the shared L2 *contending with data* —
a data miss that evicts a translation line silently kills the fast copy —
and every DUCATI probe claims the L2 port. Entries always remain available
in the POM TLB, but a POM hit pays an off-chip DRAM access.

That contention — translations churned out of the LLC by data traffic, hits
served from memory — is why DUCATI alone gains only ~4.9% while remaining
complementary to the reconfigurable design (Figure 16c): the paper's scheme
keeps hot translations *on chip* in capacity nobody else wants.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.config import DataCacheConfig, DucatiConfig
from repro.memory.hierarchy import SharedL2
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry

#: Physical region where DUCATI's translation lines live.
_TX_LINE_REGION = 1 << 41

#: Translations per 64-byte L2 line (8-byte entries).
_TX_PER_LINE = 8


def ducati_reserved_ways(ducati: DucatiConfig, cache: DataCacheConfig) -> int:
    """L2 data-cache ways ceded to translation lines under DUCATI.

    Modelled as reserved ways so the *data* side of the L2 loses the
    capacity translations occupy on average.
    """

    reserved = int(round(cache.l2_ways * ducati.l2_capacity_fraction))
    return max(1, min(cache.l2_ways - 1, reserved))


class DucatiStore:
    """LLC-resident translation lines backed by a part-of-memory TLB."""

    def __init__(
        self,
        config: DucatiConfig,
        cache_config: DataCacheConfig,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
        name: str = "ducati",
    ) -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.shared_l2 = shared_l2
        # Fast-path directory: which entries *might* still have their line
        # in the L2. The line itself lives in the shared L2 cache model and
        # can be evicted by data at any time.
        self._directory: "OrderedDict[tuple, TranslationEntry]" = OrderedDict()
        self._directory_capacity = 4 * (
            cache_config.l2_size_bytes // cache_config.line_bytes
        )
        self._pom: "OrderedDict[tuple, TranslationEntry]" = OrderedDict()
        self.pom_capacity = config.pom_tlb_entries
        self._counters = self.stats.counters
        self._keys = {
            event: f"{name}.{event}"
            for event in (
                "l2_hits", "l2_misses", "l2_lines_lost", "pom_hits", "pom_misses",
                "fills",
            )
        }

    def _line_addr(self, key: tuple) -> int:
        # Eight translations share one line; adjacent VPNs pack together.
        return _TX_LINE_REGION + (key[2] // _TX_PER_LINE) * 64 + (key[0] << 30)

    def lookup(self, key: tuple, anchor: int) -> Tuple[Optional[TranslationEntry], int]:
        """Probe the L2-resident line, then the POM TLB.

        Returns ``(entry_or_None, stage_latency)``; port and DRAM occupancy
        is charged at ``anchor`` (see :mod:`repro.core.translation`).
        """

        start = self.shared_l2.port.request(anchor)
        latency = (start - anchor) + self.config.l2_tx_latency
        entry = self._directory.get(key)
        if entry is not None and self.shared_l2.cache.probe(self._line_addr(key)):
            self._directory.move_to_end(key)
            self._counters[self._keys["l2_hits"]] += 1
            return entry, latency
        self._counters[self._keys["l2_misses"]] += 1
        if entry is not None:
            # The line was evicted by data traffic; only the POM copy is
            # left.
            del self._directory[key]
            self._counters[self._keys["l2_lines_lost"]] += 1

        entry = self._pom.get(key)
        if entry is not None:
            self._pom.move_to_end(key)
            self._counters[self._keys["pom_hits"]] += 1
            # A POM hit is an access to device memory; the refill also
            # re-installs the line in the L2 (contending with data).
            _, done = self.shared_l2.dram.access(self._line_addr(key), anchor)
            latency += (done - anchor) + self.config.pom_tlb_latency
            self._install_l2(entry)
            return entry, latency
        self._counters[self._keys["pom_misses"]] += 1
        return None, latency

    def _install_l2(self, entry: TranslationEntry) -> None:
        key = entry.key
        # Claim the line in the shared L2 at low priority: translation
        # lines contend with data and are the first victims when data
        # traffic needs the set (the contention Section 6.3.4 describes).
        self.shared_l2.cache.fill_low_priority(self._line_addr(key))
        self._directory[key] = entry
        self._directory.move_to_end(key)
        while len(self._directory) > self._directory_capacity:
            self._directory.popitem(last=False)

    def _install_pom(self, entry: TranslationEntry) -> None:
        key = entry.key
        if key in self._pom:
            self._pom.move_to_end(key)
            return
        if len(self._pom) >= self.pom_capacity:
            self._pom.popitem(last=False)
        self._pom[key] = entry

    def fill(self, entry: TranslationEntry) -> None:
        """Install an L2-TLB victim end-to-end (LLC line + POM copy)."""

        self._counters[self._keys["fills"]] += 1
        self._install_pom(entry)
        self._install_l2(entry)

    @property
    def l2_entry_count(self) -> int:
        return len(self._directory)

    @property
    def pom_entry_count(self) -> int:
        return len(self._pom)

    def invalidate_vpn(self, vpn: int) -> int:
        doomed = [key for key in self._directory if key[2] == vpn]
        for key in doomed:
            del self._directory[key]
        doomed_pom = [key for key in self._pom if key[2] == vpn]
        for key in doomed_pom:
            del self._pom[key]
        return len(doomed) + len(doomed_pom)
