"""Victim fill flows (Figure 12).

An entry evicted from a CU's L1 TLB is offered to the reconfigurable
structures in order: first the CU-private LDS (lowest latency), then the
shared I-cache, and finally the L2 TLB. Each structure either *accepts* the
candidate (possibly displacing a resident translation, which becomes the new
candidate for the next stage) or *bypasses* it (its target segment/line is
application-owned). The class also counts which of the paper's numbered
flows each fill took.
"""

from __future__ import annotations

from typing import Optional

from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry
from repro.tlb.set_assoc import SetAssociativeTLB


class VictimFillFlow:
    """Routes L1-TLB victims through LDS → I-cache → L2 TLB."""

    def __init__(
        self,
        l2_tlb: SetAssociativeTLB,
        lds_tx: Optional[LDSTxCache] = None,
        icache_tx: Optional[ReconfigurableICache] = None,
        ducati=None,
        stats: Optional[Stats] = None,
        name: str = "fill_flow",
        lds_first: bool = True,
        sharing=None,
        dedup_shared: bool = False,
    ) -> None:
        self.l2_tlb = l2_tlb
        self.lds_tx = lds_tx
        self.icache_tx = icache_tx
        self.ducati = ducati
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._counters = self.stats.counters
        self._victims_key = f"{name}.victims"
        self._to_l2_key = f"{name}.to_l2_tlb"
        self._skipped_key = f"{name}.lds_skipped_shared"
        # Fill order mirrors the lookup order (Section 4.4; an ablation
        # can reverse it via SystemConfig.lds_before_icache). Each stage:
        # (fill, is the LDS, and its installed / installed-with-victim /
        # bypassed counter names).
        stages = []
        if lds_tx is not None:
            stages.append(self._stage("lds", lds_tx.fill))
        if icache_tx is not None:
            stages.append(self._stage("icache", icache_tx.tx_fill))
        if not lds_first:
            stages.reverse()
        self._stages = stages
        # Duplication filter (the paper's future-work extension): victims
        # for pages already seen by 2+ CUs skip the private LDS so the one
        # copy lives in the shared I-cache instead of N private copies.
        self._sharing = sharing if dedup_shared else None

    def _stage(self, label: str, fill) -> tuple:
        return (
            fill,
            label == "lds",
            f"{self.name}.{label}_installed",
            f"{self.name}.{label}_installed_with_victim",
            f"{self.name}.{label}_bypassed",
        )

    def fill(self, entry: TranslationEntry, now: int) -> None:
        """Route one L1-TLB victim through the Figure 12 flow."""

        counters = self._counters
        counters[self._victims_key] += 1
        candidate: Optional[TranslationEntry] = entry
        sharing = self._sharing

        # Figure 12: offer the candidate to each reconfigurable structure
        # in order. An *accepted* fill may displace a resident translation,
        # which becomes the candidate for the next stage (flows 1→2→4→5 and
        # …→6→7→8); a *bypassed* fill (target segment/line is
        # application-owned) forwards the candidate unchanged (flows 1→2→3
        # and …→6→9).
        for fill, is_lds, installed, with_victim, bypassed in self._stages:
            if is_lds and sharing is not None and sharing.is_shared(candidate.vpn):
                counters[self._skipped_key] += 1
                continue
            accepted, displaced = fill(candidate, now)
            if accepted:
                if displaced is None:
                    counters[installed] += 1
                    return
                counters[with_victim] += 1
                candidate = displaced
            else:
                counters[bypassed] += 1

        counters[self._to_l2_key] += 1
        l2_victim = self.l2_tlb.insert(candidate)
        if l2_victim is not None and self.ducati is not None:
            self.ducati.fill(l2_victim)
