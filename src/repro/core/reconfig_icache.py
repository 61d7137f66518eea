"""Reconfigurable I-cache: Tx victim cache in idle I-cache lines (§4.3).

Design points reproduced from the paper:

- *Packing*: either one translation per line (Figure 8b, the naive design
  whose reach is too small to matter) or eight per 64-byte line (Figure 8c),
  selected by ``ICacheTxConfig.tx_per_line``.
- *Direct-mapped translation indexing* (Figure 9): a translation may live in
  exactly one line (``vpn % num_lines``), reusing the existing per-way
  comparators; the sub-entries within a line are compared serially, which
  costs 16 extra cycles on top of the Tx tag access (Table 1).
- *Replacement* (Section 4.3.2): the NAIVE policy lets translation fills
  claim the direct-mapped line even when it holds instructions; the
  INSTRUCTION_AWARE policy only lets translations claim invalid lines or
  lines already in Tx-mode, while instruction fills prefer Tx-mode victims
  over LRU instruction lines.
- *Kernel-boundary flush* (Section 4.3.3): when enabled, the runtime flushes
  IC-mode lines at a kernel boundary unless the same kernel runs
  back-to-back, freeing dead instruction lines for translations.
- *Widened, base-delta-compressed tags* (Figure 10c): eight 39-bit tags fit
  the widened 12-byte tag via a 32-bit base and 8-bit deltas; fills that
  cannot pack evict incompatible residents first.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.config import ICacheConfig, ICacheReplacement, ICacheTxConfig
from repro.core.compression import BaseDeltaCodec
from repro.gpu.icache import CacheLine, InstructionCache
from repro.sim.engine import Port
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry


class ReconfigurableICache(InstructionCache):
    """I-cache that opportunistically stores L1-TLB victim translations."""

    def __init__(
        self,
        config: ICacheConfig,
        tx_config: ICacheTxConfig,
        stats: Optional[Stats] = None,
        name: str = "icache",
    ) -> None:
        super().__init__(config, stats=stats, name=name)
        self.tx_config = tx_config
        self._index_bits = max(1, (self.num_lines - 1).bit_length())
        self.codec = BaseDeltaCodec(tx_config.tag_base_bits, tx_config.tag_delta_bits)
        self._tx_probe_latency = tx_config.tx_probe_latency
        self._tx_hit_latency = tx_config.tx_hit_latency
        # A Tx-mode line without a tag match pays the serial tag compare.
        self._tx_tag_miss_latency = (
            tx_config.tx_tag_latency
            + tx_config.tx_serial_compare_latency
            + tx_config.mux_latency
            + tx_config.extra_wire_latency
        )
        self._instruction_aware = (
            tx_config.replacement is ICacheReplacement.INSTRUCTION_AWARE
        )
        self._tx_keys = {
            event: f"{name}.{event}"
            for event in (
                "tx_hits", "tx_misses", "tx_fills", "tx_refills", "tx_evictions",
                "tx_compression_evictions", "tx_bypass_ic_mode",
                "instructions_evicted_by_tx",
            )
        }
        self._tx_entry_count = 0
        self.peak_tx_entries = 0
        self._current_kernel: Optional[str] = None
        # Where translations displaced by an instruction fill are forwarded
        # (the L2 TLB in the full system); None drops them silently.
        self.spill_target = None
        # Tx traffic is arbitrated at lower priority than instruction
        # fetches: the motivation data (Figure 5b) shows the fetch port is
        # idle 10-20+ cycles between accesses, so translation accesses slot
        # into idle cycles and never delay fetches. Tx accesses queue only
        # behind other Tx accesses, modelled by a separate port.
        self.tx_port = Port(f"{name}.tx_port", units=1, occupancy=1)

    # ------------------------------------------------------------------
    # Direct-mapped translation indexing (Figure 9)
    # ------------------------------------------------------------------

    def _line_for(self, vpn: int) -> CacheLine:
        line_index = vpn % self.num_lines
        return self._sets[line_index % self.num_sets][line_index // self.num_sets]

    # ------------------------------------------------------------------
    # Victim-cache interface
    # ------------------------------------------------------------------

    def tx_lookup(self, key: tuple, anchor: int) -> Tuple[Optional[TranslationEntry], int]:
        """Probe for ``key``; a hit removes the entry (promotion to L1).

        Returns ``(entry_or_None, stage_latency)`` with port queuing delay
        folded into the latency.
        """

        queue = self.tx_port.request(anchor) - anchor
        cache_line = self._line_for(key[2])
        tx_entries = cache_line.tx_entries
        if not cache_line.is_tx or not tx_entries:
            # The target way's mode bit says IC-mode/invalid: cheap miss.
            self._counters[self._tx_keys["tx_misses"]] += 1
            return None, queue + self._tx_probe_latency
        entry = tx_entries.pop(key, None)
        if entry is None:
            # Tx-mode way but no tag match: pays the serial tag compare.
            self._counters[self._tx_keys["tx_misses"]] += 1
            return None, queue + self._tx_tag_miss_latency
        self._tx_entry_count -= 1
        if not tx_entries:
            cache_line.make_invalid()
        self._counters[self._tx_keys["tx_hits"]] += 1
        return entry, queue + self._tx_hit_latency

    def tx_fill(self, entry: TranslationEntry, now: int
                ) -> Tuple[bool, Optional[TranslationEntry]]:
        """Install a victim translation; returns (accepted, displaced)."""

        counters = self._counters
        keys = self._tx_keys
        cache_line = self._line_for(entry.vpn)
        if cache_line.valid and not cache_line.is_tx:
            if self._instruction_aware:
                # Translations may never evict instructions.
                counters[keys["tx_bypass_ic_mode"]] += 1
                return False, None
            # Naive policy: claim the instruction line for translations.
            cache_line.make_invalid()
            counters[keys["instructions_evicted_by_tx"]] += 1
        # Fills are buffered and drained during idle port cycles; the L1
        # victim write-back is off every wave's critical path, so fills
        # charge no port occupancy and add no latency.
        if not cache_line.is_tx:
            cache_line.valid = True
            cache_line.is_tx = True
            cache_line.tx_entries = OrderedDict()
        tx_entries = cache_line.tx_entries
        assert tx_entries is not None
        key = entry.key
        if key in tx_entries:
            tx_entries[key] = entry
            tx_entries.move_to_end(key)
            counters[keys["tx_refills"]] += 1
            return True, None

        victim = self.codec.evict_unpackable(tx_entries, entry, self._index_bits)
        if victim is not None:
            self._tx_entry_count -= 1
            counters[keys["tx_compression_evictions"]] += 1
        if victim is None and len(tx_entries) >= self.tx_config.tx_per_line:
            _, victim = tx_entries.popitem(last=False)
            self._tx_entry_count -= 1
            counters[keys["tx_evictions"]] += 1

        tx_entries[key] = entry
        self._tx_entry_count += 1
        if self._tx_entry_count > self.peak_tx_entries:
            self.peak_tx_entries = self._tx_entry_count
        counters[keys["tx_fills"]] += 1
        return True, victim

    # ------------------------------------------------------------------
    # Instruction-side policy overrides
    # ------------------------------------------------------------------

    def _choose_instruction_victim(self, cache_set: List[CacheLine]) -> CacheLine:
        """Instruction fills prefer invalid lines, then Tx-mode LRU lines.

        Under the NAIVE policy this matches the baseline (mode-oblivious
        LRU); under INSTRUCTION_AWARE it implements the Section 4.3.2 rules.
        """

        for cache_line in cache_set:
            if not cache_line.valid:
                return cache_line
        if self.tx_config.replacement is ICacheReplacement.INSTRUCTION_AWARE:
            tx_lines = [line for line in cache_set if line.is_tx]
            if tx_lines:
                return min(tx_lines, key=lambda line: line.lru)
        return min(cache_set, key=lambda line: line.lru)

    def _on_instruction_claim(self, cache_line: CacheLine) -> None:
        """An instruction fill reclaims a whole Tx line (Section 4.3.2).

        The displaced translations are counted and forwarded to the L2 TLB
        (flow 8 of Figure 12) rather than silently invalidated.
        """

        if not cache_line.is_tx or not cache_line.tx_entries:
            return
        count = len(cache_line.tx_entries)
        self._tx_entry_count -= count
        self.stats.add(f"{self.name}.tx_dropped_by_ifill", count)
        if self.spill_target is not None:
            for entry in cache_line.tx_entries.values():
                self.spill_target.insert(entry)
            self.stats.add(f"{self.name}.tx_spilled_by_ifill", count)

    # ------------------------------------------------------------------
    # Kernel-boundary flush optimization (Section 4.3.3)
    # ------------------------------------------------------------------

    def on_kernel_boundary(self, next_kernel_same: bool) -> None:
        if not self.tx_config.flush_on_kernel_boundary:
            return
        if next_kernel_same:
            # The runtime suppresses the flush for back-to-back launches of
            # the same kernel (e.g. NW's nw_kernel1).
            self.stats.add(f"{self.name}.flush_suppressed")
            return
        self.flush_instructions()

    def tx_entry_count(self) -> int:
        return self._tx_entry_count

    def invalidate_vpn(self, vpn: int) -> int:
        """Shootdown support (Section 7.1)."""

        cache_line = self._line_for(vpn)
        if not cache_line.is_tx or not cache_line.tx_entries:
            return 0
        doomed = [key for key in cache_line.tx_entries if key[2] == vpn]
        for key in doomed:
            del cache_line.tx_entries[key]
        self._tx_entry_count -= len(doomed)
        if not cache_line.tx_entries:
            cache_line.make_invalid()
        if doomed:
            self.stats.add(f"{self.name}.tx_invalidations", len(doomed))
        return len(doomed)
