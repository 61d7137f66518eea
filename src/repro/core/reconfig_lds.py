"""Reconfigurable LDS: a per-CU Tx victim cache over idle segments (§4.2).

Translations map direct-mapped onto 32-byte segments by VPN (Figure 6c); a
segment in Tx-mode co-locates one 8-byte base-delta-compressed tag word with
three 8-byte translations, giving a 3-way set-associative victim cache. A
segment currently allocated to an application (LDS-mode) can never be
claimed by a translation: fills to such segments are rejected and bypass to
the I-cache per the Figure 12 flow. Conversely a new work-group allocation
silently reclaims Tx-mode segments (translations dropped).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.config import LDSTxConfig
from repro.core.compression import BaseDeltaCodec
from repro.gpu.lds import LocalDataShare, SegmentMode
from repro.sim.engine import Port
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry

_LDS_MODE = SegmentMode.LDS


class LDSTxCache:
    """Translation overlay on one CU's LDS."""

    def __init__(
        self,
        lds: LocalDataShare,
        config: LDSTxConfig,
        stats: Optional[Stats] = None,
        name: str = "lds_tx",
    ) -> None:
        self.lds = lds
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.ways = config.ways_per_segment
        self.num_segments = lds.num_segments
        self._index_bits = max(1, (self.num_segments - 1).bit_length())
        self.codec = BaseDeltaCodec(config.tag_base_bits, config.tag_delta_bits)
        self._probe_latency = config.tx_probe_latency
        self._hit_latency = config.tx_hit_latency
        self._counters = self.stats.counters
        self._keys = {
            event: f"{name}.{event}"
            for event in (
                "hits", "misses", "fills", "refills", "evictions",
                "compression_evictions", "bypass_lds_mode",
            )
        }
        # Only Tx-mode segments appear here: segment index -> key -> entry.
        self._segments: Dict[int, "OrderedDict[tuple, TranslationEntry]"] = {}
        self._entry_count = 0
        self.peak_entries = 0
        # Like the reconfigurable I-cache, Tx traffic uses idle LDS port
        # bandwidth (Figure 4b) at lower priority than application
        # accesses: it queues only behind other Tx accesses.
        self.tx_port = Port(f"{name}.tx_port", units=1, occupancy=1)
        lds.tx_overwrite_callback = self._segment_reclaimed

    # ------------------------------------------------------------------
    # Mode interactions with the application allocator
    # ------------------------------------------------------------------

    def _segment_reclaimed(self, segment_index: int) -> None:
        """An application allocation overwrote a Tx-mode segment."""

        dropped = self._segments.pop(segment_index, None)
        if dropped:
            self._entry_count -= len(dropped)
            self.stats.add(f"{self.name}.dropped_by_allocation", len(dropped))

    def _segment_for(self, vpn: int) -> int:
        return vpn % self.num_segments

    # ------------------------------------------------------------------
    # Victim-cache interface
    # ------------------------------------------------------------------

    def lookup(self, key: tuple, anchor: int) -> Tuple[Optional[TranslationEntry], int]:
        """Probe for ``key``; on a hit the entry is removed (promotion).

        Returns ``(entry_or_None, stage_latency)`` where the latency
        includes any port queuing delay. A probe of an LDS-mode segment
        costs only the 2-cycle mode check.
        """

        segment_index = key[2] % self.num_segments
        queue = self.tx_port.request(anchor) - anchor
        segment = self._segments.get(segment_index)
        # No Tx-mode segment (LDS-mode or free): quick mode-bit check.
        entry = segment.pop(key, None) if segment is not None else None
        if entry is None:
            self._counters[self._keys["misses"]] += 1
            return None, queue + self._probe_latency
        if not segment:
            del self._segments[segment_index]
            self.lds.mode[segment_index] = SegmentMode.FREE
        self._entry_count -= 1
        self._counters[self._keys["hits"]] += 1
        return entry, queue + self._hit_latency

    def fill(self, entry: TranslationEntry, now: int
             ) -> Tuple[bool, Optional[TranslationEntry]]:
        """Install an L1-TLB victim; returns (accepted, displaced_victim)."""

        counters = self._counters
        keys = self._keys
        segment_index = entry.vpn % self.num_segments
        if self.lds.mode[segment_index] == _LDS_MODE:
            # Tx-mode may never overwrite LDS-mode (Section 4.2.4).
            counters[keys["bypass_lds_mode"]] += 1
            return False, None
        # Fills drain opportunistically during idle port cycles (off the
        # critical path) and charge no port occupancy.
        key = entry.key
        segment = self._segments.get(segment_index)
        if segment is None:
            segment = OrderedDict()
            self._segments[segment_index] = segment
            self.lds.mode[segment_index] = SegmentMode.TX
        elif key in segment:
            segment[key] = entry
            segment.move_to_end(key)
            counters[keys["refills"]] += 1
            return True, None

        # Evict the LRU incompatible resident to restore packability.
        victim = self.codec.evict_unpackable(segment, entry, self._index_bits)
        if victim is not None:
            self._entry_count -= 1
            counters[keys["compression_evictions"]] += 1
        if victim is None and len(segment) >= self.ways:
            _, victim = segment.popitem(last=False)
            self._entry_count -= 1
            counters[keys["evictions"]] += 1

        segment[key] = entry
        self._entry_count += 1
        if self._entry_count > self.peak_entries:
            self.peak_entries = self._entry_count
        counters[keys["fills"]] += 1
        return True, victim

    def invalidate_vpn(self, vpn: int) -> int:
        """Shootdown support (Section 7.1)."""

        segment_index = self._segment_for(vpn)
        segment = self._segments.get(segment_index)
        if not segment:
            return 0
        doomed = [key for key in segment if key[2] == vpn]
        for key in doomed:
            del segment[key]
        self._entry_count -= len(doomed)
        if not segment:
            del self._segments[segment_index]
            self.lds.mode[segment_index] = SegmentMode.FREE
        if doomed:
            self.stats.add(f"{self.name}.invalidations", len(doomed))
        return len(doomed)

    @property
    def entry_count(self) -> int:
        return self._entry_count

    @property
    def capacity_entries(self) -> int:
        """Upper bound on entries given current application allocations."""

        free = sum(1 for mode in self.lds.mode if mode != SegmentMode.LDS)
        return free * self.ways
