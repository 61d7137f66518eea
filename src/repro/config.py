"""Configuration dataclasses for the reproduction.

The defaults mirror Table 1 of the paper (the gem5 "simulated setup"): an
APU-class GPU with 8 CUs, a 32-entry fully-associative per-CU L1 TLB, a
512-entry 16-way shared L2 TLB, a 16KB 8-way I-cache shared by four CUs, a
16KB per-CU LDS organized in 32-byte segments, and an IOMMU with 32 page
table walkers and split page-walk caches.

Every structure in the simulator is constructed from these dataclasses, so a
single :class:`SystemConfig` value fully describes an experiment arm.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field, replace


class TxScheme(enum.Enum):
    """Which translation scheme is active: the closed set of arms.

    The members correspond to the experiment arms in the paper's evaluation
    (Section 6): the unmodified baseline, the LDS-only design (Section 4.2),
    the I-cache-only designs (Section 4.3, with its variants selected by
    :class:`ICacheTxConfig`), the combined design (Section 4.4), the DUCATI
    comparator (Section 6.3.4) alone or combined, and the Perfect-L2-TLB
    upper bound used in the motivation study (Section 3.1). The last,
    subregion coalescing, follows arXiv 2110.08613 and is not an arm of
    the paper. The ``uses_*`` flags decide which structures
    :class:`~repro.system.GPUSystem` builds; :mod:`repro.schemes` holds
    each member's description and selection by name.
    """

    BASELINE = "baseline"
    LDS_ONLY = "lds"
    ICACHE_ONLY = "icache"
    ICACHE_LDS = "icache+lds"
    DUCATI = "ducati"
    DUCATI_ICACHE_LDS = "ducati+icache+lds"
    PERFECT_L2_TLB = "perfect-l2-tlb"
    SUBREGION_COALESCING = "subregion-coalescing"

    @property
    def uses_lds_tx(self) -> bool:
        return self in (
            TxScheme.LDS_ONLY,
            TxScheme.ICACHE_LDS,
            TxScheme.DUCATI_ICACHE_LDS,
        )

    @property
    def uses_icache_tx(self) -> bool:
        return self in (
            TxScheme.ICACHE_ONLY,
            TxScheme.ICACHE_LDS,
            TxScheme.DUCATI_ICACHE_LDS,
        )

    @property
    def uses_ducati(self) -> bool:
        return self in (TxScheme.DUCATI, TxScheme.DUCATI_ICACHE_LDS)

    @property
    def uses_subregion(self) -> bool:
        return self is TxScheme.SUBREGION_COALESCING


class ICacheReplacement(enum.Enum):
    """Replacement policy for the reconfigurable I-cache (Section 4.3.2).

    NAIVE lets translation fills evict LRU lines even when those lines hold
    instructions; INSTRUCTION_AWARE prioritizes instruction residency:
    instruction fills prefer Tx-mode victims, and translation fills may only
    claim invalid lines or replace other translations.
    """

    NAIVE = "naive"
    INSTRUCTION_AWARE = "instruction-aware"


@dataclass(frozen=True)
class GPUConfig:
    """Top-level GPU organization (Table 1, "GPU" row)."""

    num_cus: int = 8
    simds_per_cu: int = 4
    waves_per_simd: int = 10
    simd_width: int = 16
    threads_per_wave: int = 64
    clock_ghz: float = 2.0

    @property
    def max_waves_per_cu(self) -> int:
        return self.simds_per_cu * self.waves_per_simd


@dataclass(frozen=True)
class TLBConfig:
    """L1/L2 GPU TLB parameters (Table 1)."""

    l1_entries: int = 32
    l1_latency: int = 108
    l2_entries: int = 512
    l2_ways: int = 16
    l2_latency: int = 188
    # Port occupancy: how many cycles a lookup holds the structure's port.
    l1_port_occupancy: int = 1
    l2_port_occupancy: int = 2
    # A perfect L2 TLB never misses (motivation upper bound, Section 3.1).
    perfect_l2: bool = False


@dataclass(frozen=True)
class ICacheConfig:
    """Baseline L1 instruction cache (Table 1)."""

    size_bytes: int = 16 * 1024
    ways: int = 8
    line_bytes: int = 64
    cus_per_icache: int = 4
    tag_latency: int = 16
    fill_latency: int = 40  # L2 hit latency for an I-cache miss refill
    port_occupancy: int = 1
    instructions_per_line: int = 8
    # Next-line instruction prefetch on a miss. Off in the Table 1 baseline
    # (the paper's Equation 1 counts prefetch fills when present).
    next_line_prefetch: bool = False

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.ways


@dataclass(frozen=True)
class ICacheTxConfig:
    """Reconfigurable I-cache design knobs (Section 4.3).

    ``tx_per_line`` selects between the naive one-translation-per-way design
    (Figure 8b) and the packed eight-per-way design (Figure 8c).
    ``flush_on_kernel_boundary`` enables the runtime-issued I-cache flush
    optimization (Section 4.3.3), which is suppressed when the same kernel is
    launched back-to-back.
    """

    tx_per_line: int = 8
    replacement: ICacheReplacement = ICacheReplacement.INSTRUCTION_AWARE
    flush_on_kernel_boundary: bool = False
    tx_tag_latency: int = 20
    tx_serial_compare_latency: int = 16
    mux_latency: int = 1
    decompression_latency: int = 4
    extra_wire_latency: int = 0
    # Base-delta compression of the widened tag array (Figure 10c).
    tag_base_bits: int = 32
    tag_delta_bits: int = 8

    @property
    def tx_hit_latency(self) -> int:
        return (
            self.tx_tag_latency
            + self.tx_serial_compare_latency
            + self.mux_latency
            + self.decompression_latency
            + self.extra_wire_latency
        )

    @property
    def tx_probe_latency(self) -> int:
        """Latency to discover a Tx miss in the I-cache.

        A miss is detected from the target way's mode bit (a small separate
        array) without reading and decompressing the widened tag group, so
        it is far cheaper than a Tx hit.
        """

        return 4 + self.mux_latency + self.extra_wire_latency


@dataclass(frozen=True)
class LDSConfig:
    """Baseline LDS scratchpad (Table 1, "LDS" row)."""

    size_bytes: int = 16 * 1024
    num_banks: int = 32
    bank_bytes: int = 4
    lds_mode_latency: int = 31
    port_occupancy: int = 1


@dataclass(frozen=True)
class LDSTxConfig:
    """Reconfigurable LDS design knobs (Section 4.2).

    A 32-byte segment holds one 8-byte compressed tag word plus three 8-byte
    translations, i.e. a 3-way set-associative victim cache (Figure 6c).
    Doubling ``segment_bytes`` to 64 gives 6 ways in half as many sets
    (Section 6.3.1 sensitivity).
    """

    segment_bytes: int = 32
    tx_access_latency: int = 35
    probe_latency: int = 2
    mux_latency: int = 1
    decompression_latency: int = 4
    extra_wire_latency: int = 0
    tag_base_bits: int = 16
    tag_delta_bits: int = 16

    @property
    def ways_per_segment(self) -> int:
        # One 8-byte slot in every 32 bytes is consumed by the tags.
        return (self.segment_bytes // 8) - (self.segment_bytes // 32)

    @property
    def tx_hit_latency(self) -> int:
        return (
            self.tx_access_latency
            + self.mux_latency
            + self.decompression_latency
            + self.extra_wire_latency
        )

    @property
    def tx_probe_latency(self) -> int:
        return self.probe_latency + self.extra_wire_latency


@dataclass(frozen=True)
class DataCacheConfig:
    """L1/L2 data caches (Table 1, "Data Caches" row)."""

    l1_size_bytes: int = 32 * 1024
    l1_ways: int = 8
    l1_latency: int = 28
    l2_size_bytes: int = 4 * 1024 * 1024
    l2_ways: int = 16
    l2_latency: int = 80
    line_bytes: int = 64


@dataclass(frozen=True)
class DRAMConfig:
    """DDR3-1600-like main memory (Table 1, "DRAM" row).

    Latency is expressed in GPU cycles (2 GHz core vs 800 MHz DRAM).
    """

    channels: int = 2
    banks_per_rank: int = 16
    ranks_per_channel: int = 2
    access_latency: int = 160
    bank_occupancy: int = 24

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank


@dataclass(frozen=True)
class DRAMEnergyConfig:
    """DRAMPower-style per-event energies, in nanojoules.

    The values are representative DDR3-1600 numbers; Figure 13c only uses
    energy *relative* to the baseline so only the ratios matter.
    """

    activate_nj: float = 2.5
    read_nj: float = 1.6
    write_nj: float = 1.7
    background_nj_per_cycle: float = 0.006
    refresh_nj_per_cycle: float = 0.002


@dataclass(frozen=True)
class IOMMUConfig:
    """IOMMU with device TLBs, walker pool and split PWCs (Table 1)."""

    num_walkers: int = 32
    l1_tlb_entries: int = 32
    l2_tlb_entries: int = 256
    l1_tlb_latency: int = 24
    l2_tlb_latency: int = 48
    pgd_cache_entries: int = 4
    pud_cache_entries: int = 8
    pmd_cache_entries: int = 32
    pwc_latency: int = 4
    # Fixed cost to cross the data fabric from the GPU to the IOMMU and
    # back; GPU TLB-miss handling is an order of magnitude slower than the
    # CPU's (Vesely et al. [47], Section 3.1).
    request_overhead: int = 250


@dataclass(frozen=True)
class DucatiConfig:
    """DUCATI comparator (Section 6.3.4 / TACO'19).

    Translations spill into the shared L2 data cache (contending for capacity
    and bandwidth) backed by a very large part-of-memory TLB.
    """

    l2_tx_latency: int = 90
    pom_tlb_entries: int = 1 << 20
    pom_tlb_latency: int = 220  # an off-chip access to the in-memory TLB
    # Fraction of L2 data-cache capacity translations are allowed to consume.
    l2_capacity_fraction: float = 0.25


@dataclass(frozen=True)
class SubregionConfig:
    """Subregion-contiguity TLB coalescing knobs (arXiv 2110.08613-style).

    Used by the ``subregion-coalescing`` scheme
    (:mod:`repro.schemes.subregion`): the walker path detects
    uniform-stride runs of physical frames inside aligned
    ``subregion_pages``-page windows of the virtual address space and
    caches them as single coalesced entries probed after an L2-TLB miss.
    """

    subregion_pages: int = 8
    #: Minimum run length (pages) worth a coalesced entry.
    min_run: int = 2
    #: Coalesced-entry store capacity (runs, LRU).
    entries: int = 256
    #: Probe latency on the miss path (a small on-chip structure beside
    #: the L2 TLB).
    lookup_latency: int = 24


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated machine.

    ``scheme`` is a :class:`TxScheme` member; the simulator reads its
    ``uses_*`` flags to decide which structures to build.
    """

    gpu: GPUConfig = field(default_factory=GPUConfig)
    tlb: TLBConfig = field(default_factory=TLBConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
    icache_tx: ICacheTxConfig = field(default_factory=ICacheTxConfig)
    lds: LDSConfig = field(default_factory=LDSConfig)
    lds_tx: LDSTxConfig = field(default_factory=LDSTxConfig)
    data_cache: DataCacheConfig = field(default_factory=DataCacheConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    dram_energy: DRAMEnergyConfig = field(default_factory=DRAMEnergyConfig)
    iommu: IOMMUConfig = field(default_factory=IOMMUConfig)
    ducati: DucatiConfig = field(default_factory=DucatiConfig)
    subregion: SubregionConfig = field(default_factory=SubregionConfig)
    scheme: TxScheme = TxScheme.BASELINE
    page_size: int = 4096
    va_bits: int = 48
    # Section 4.4: the CU-private, low-latency LDS is probed before the
    # shared I-cache on an L1 miss, and receives victims first. False
    # reverses both orders (an ablation of that design choice).
    lds_before_icache: bool = True
    # Extension (the paper's stated future work, Section 6.1.1): steer
    # victims for pages already touched by multiple CUs past the private
    # LDS into the shared, deduplicating I-cache, limiting the replication
    # that wastes cumulative LDS capacity.
    dedup_shared_fills: bool = False

    @property
    def signature(self) -> str:
        """This configuration's cache identity: the first 16 hex digits of
        the sha256 of its serialized form (``config_io.config_to_dict`` as
        indented, key-sorted JSON).

        Derived on first access and kept in the instance's ``__dict__``,
        so it is exact per object (``512`` and ``512.0`` compare equal but
        serialize differently), travels with a pickled or copied config,
        and is derived afresh by every ``replace``/``with_*`` variant. No
        lock: two threads may both derive it and store the same value, and
        a worker forked from threads cannot inherit a held lock.
        """

        if "_signature" not in self.__dict__:
            from repro.config_io import config_to_json

            text = config_to_json(self)
            self.__dict__["_signature"] = hashlib.sha256(text.encode()).hexdigest()[:16]
        return self.__dict__["_signature"]

    def with_scheme(self, scheme: TxScheme) -> "SystemConfig":
        return replace(self, scheme=scheme)

    def with_l2_tlb_entries(self, entries: int) -> "SystemConfig":
        if entries < 1:
            raise ValueError(f"L2 TLB entries must be at least 1, got {entries}")
        return replace(self, tlb=replace(self.tlb, l2_entries=entries))

    def with_page_size(self, page_size: int) -> "SystemConfig":
        from repro.pagetable.page_table import SUPPORTED_PAGE_SIZES

        if not isinstance(page_size, int) or page_size not in SUPPORTED_PAGE_SIZES:
            raise ValueError(
                f"page size must be one of {list(SUPPORTED_PAGE_SIZES)} bytes, "
                f"got {page_size!r}"
            )
        return replace(self, page_size=page_size)

    def with_perfect_l2_tlb(self) -> "SystemConfig":
        return replace(
            self,
            tlb=replace(self.tlb, perfect_l2=True),
            scheme=TxScheme.PERFECT_L2_TLB,
        )

    def with_extra_wire_latency(
        self, icache_cycles: int = 0, lds_cycles: int = 0
    ) -> "SystemConfig":
        return replace(
            self,
            icache_tx=replace(self.icache_tx, extra_wire_latency=icache_cycles),
            lds_tx=replace(self.lds_tx, extra_wire_latency=lds_cycles),
        )

    def with_icache_sharers(self, cus_per_icache: int) -> "SystemConfig":
        if self.gpu.num_cus % cus_per_icache:
            raise ValueError(
                f"{cus_per_icache} sharers does not divide {self.gpu.num_cus} CUs"
            )
        # Total I-cache capacity across the GPU is kept constant (Section
        # 6.3.2): fewer sharers means more, smaller I-caches.
        total_bytes = (
            self.icache.size_bytes * self.gpu.num_cus // self.icache.cus_per_icache
        )
        per_icache = total_bytes * cus_per_icache // self.gpu.num_cus
        return replace(
            self,
            icache=replace(
                self.icache, cus_per_icache=cus_per_icache, size_bytes=per_icache
            ),
        )


def table1_config(scheme: TxScheme = TxScheme.BASELINE) -> SystemConfig:
    """The paper's Table 1 configuration with the given scheme."""

    return SystemConfig(scheme=scheme)
