"""Compute Unit assembly.

A CU bundles the structures a wavefront touches: its SIMD issue ports, the
per-CU LDS (plus its translation overlay), the private L1 data cache over
the shared L2, the translation service (L1 TLB and miss path), and a
reference to the I-cache its CU-group shares.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import SystemConfig
from repro.core.translation import TranslationService
from repro.gpu.icache import InstructionCache
from repro.gpu.lds import LocalDataShare
from repro.memory.hierarchy import MemoryHierarchy, SharedL2
from repro.sim.engine import Port
from repro.sim.stats import Stats
from repro.tlb.coalescer import AccessCoalescer


class ComputeUnit:
    """One CU and its private resources."""

    def __init__(
        self,
        cu_id: int,
        config: SystemConfig,
        icache: InstructionCache,
        lds: LocalDataShare,
        translation: TranslationService,
        shared_l2: SharedL2,
        stats: Optional[Stats] = None,
    ) -> None:
        self.cu_id = cu_id
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.counters = self.stats.counters
        self.icache = icache
        self.lds = lds
        self.translation = translation
        self.memory = MemoryHierarchy(
            config.data_cache, shared_l2, stats=self.stats, name="l1_cache"
        )
        self.coalescer = AccessCoalescer(stats=self.stats, name="coalescer")
        self.page_size = config.page_size
        # 64-byte lines per page, for a data access's in-page offset.
        self.page_lines = max(1, config.page_size // 64)
        gpu = config.gpu
        self.simd_ports: List[Port] = [
            Port(f"cu{cu_id}.simd{i}.issue", units=1, occupancy=1)
            for i in range(gpu.simds_per_cu)
        ]
        self._waves_per_simd = [0] * gpu.simds_per_cu
        self._max_waves_per_simd = gpu.waves_per_simd
        dram = shared_l2.dram
        self._dram_stats = dram.stats
        self._dram_keys = {
            kind: f"{dram.name}.{kind}" for kind in ("reads", "writes", "activates")
        }
        # Optional ExecutionTracer (repro.sim.trace); None costs nothing.
        self.tracer = None

    # ------------------------------------------------------------------
    # Wave-slot accounting (used by the dispatcher)
    # ------------------------------------------------------------------

    @property
    def free_wave_slots(self) -> int:
        return sum(
            self._max_waves_per_simd - count for count in self._waves_per_simd
        )

    def claim_wave_slot(self) -> int:
        """Assign a wave to the least-loaded SIMD; returns the SIMD index."""

        simd = min(
            range(len(self._waves_per_simd)), key=self._waves_per_simd.__getitem__
        )
        if self._waves_per_simd[simd] >= self._max_waves_per_simd:
            raise RuntimeError(f"cu{self.cu_id} has no free wave slots")
        self._waves_per_simd[simd] += 1
        return simd

    def release_wave_slot(self, simd_index: int) -> None:
        self._waves_per_simd[simd_index] -= 1
        if self._waves_per_simd[simd_index] < 0:
            raise RuntimeError(f"cu{self.cu_id} released more waves than claimed")

    # ------------------------------------------------------------------

    def note_bulk_dram(self, lines: int, is_write: bool) -> None:
        """Account untimed DRAM traffic from a memory strip's tail lines."""

        keys = self._dram_keys
        counters = self._dram_stats.counters
        counters[keys["writes" if is_write else "reads"]] += lines
        # Sequential lines within a page overwhelmingly share a DRAM row;
        # charge roughly one activate per 16 lines.
        counters[keys["activates"]] += lines / 16.0
