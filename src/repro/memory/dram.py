"""DRAM timing model with banks and an open-row buffer.

Addresses map to banks by line interleaving; each bank keeps a busy-until
time (queuing) and its open row (activate counting for the energy model).
The granularity is deliberately coarse — the paper's results depend on how
many DRAM accesses occur (page walks vs data), not on DDR protocol detail.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.config import DRAMConfig
from repro.sim.stats import Stats

_ROW_SHIFT = 14  # 16KB rows
_LINE_SHIFT = 6  # 64B interleave granule


class DRAM:
    """Banked DRAM with per-bank occupancy and row-buffer tracking."""

    def __init__(self, config: DRAMConfig, stats: Optional[Stats] = None,
                 name: str = "dram") -> None:
        self.config = config
        self.name = name
        self.stats = stats if stats is not None else Stats()
        banks = config.total_banks
        self._busy_until = [0] * banks
        self._open_row = [-1] * banks
        self._num_banks = banks
        self._access_latency = config.access_latency
        self._bank_occupancy = config.bank_occupancy
        self._counters = self.stats.counters
        self._reads_key = f"{name}.reads"
        self._writes_key = f"{name}.writes"
        self._activates_key = f"{name}.activates"
        self._queue_key = f"{name}.queue_cycles"

    def access(self, addr: int, now: int, is_write: bool = False) -> Tuple[int, int]:
        """Issue one DRAM access; returns (start_time, completion_time)."""

        # XOR-fold higher address bits into the bank index so page-aligned
        # strides (pfn*page_size keeps the low line bits constant) spread
        # across banks instead of hammering one.
        bank = (
            (addr >> _LINE_SHIFT) ^ (addr >> 12) ^ (addr >> 18)
        ) % self._num_banks
        row = addr >> _ROW_SHIFT
        busy_until = self._busy_until
        start = busy_until[bank]
        if now > start:
            start = now
        latency = self._access_latency
        counters = self._counters
        open_row = self._open_row
        if open_row[bank] != row:
            open_row[bank] = row
            counters[self._activates_key] += 1
            latency += self._bank_occupancy  # precharge + activate
        busy_until[bank] = start + self._bank_occupancy
        counters[self._writes_key if is_write else self._reads_key] += 1
        if start > now:
            counters[self._queue_key] += start - now
        return start, start + latency

    @property
    def total_accesses(self) -> float:
        return self.stats.get(self._reads_key) + self.stats.get(self._writes_key)
