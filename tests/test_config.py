"""Unit tests for configuration dataclasses and derived helpers."""

import pytest

from repro.config import (
    ICacheConfig,
    ICacheTxConfig,
    LDSTxConfig,
    TxScheme,
    table1_config,
)
from repro.pagetable.page_table import SUPPORTED_PAGE_SIZES, PageTable


class TestTxScheme:
    def test_scheme_structure_flags(self):
        assert TxScheme.LDS_ONLY.uses_lds_tx
        assert not TxScheme.LDS_ONLY.uses_icache_tx
        assert TxScheme.ICACHE_ONLY.uses_icache_tx
        assert TxScheme.ICACHE_LDS.uses_lds_tx and TxScheme.ICACHE_LDS.uses_icache_tx
        assert TxScheme.DUCATI.uses_ducati
        assert TxScheme.DUCATI_ICACHE_LDS.uses_ducati
        assert TxScheme.DUCATI_ICACHE_LDS.uses_lds_tx
        assert not TxScheme.BASELINE.uses_lds_tx


class TestTable1Defaults:
    def test_gpu_shape(self):
        config = table1_config()
        assert config.gpu.num_cus == 8
        assert config.gpu.max_waves_per_cu == 40

    def test_tlb_shape(self):
        config = table1_config()
        assert config.tlb.l1_entries == 32
        assert config.tlb.l1_latency == 108
        assert config.tlb.l2_entries == 512
        assert config.tlb.l2_latency == 188

    def test_icache_geometry(self):
        assert ICacheConfig().num_lines == 256
        assert ICacheConfig().num_sets == 32

    def test_lds_tx_geometry(self):
        config = LDSTxConfig()
        assert config.ways_per_segment == 3
        assert LDSTxConfig(segment_bytes=64).ways_per_segment == 6

    def test_icache_tx_latencies(self):
        # Table 1: 20 (Tx tag) + 16 (serial compares) + 1 (mux) + 4 (decomp).
        assert ICacheTxConfig().tx_hit_latency == 41

    def test_lds_tx_latencies(self):
        # Table 1: 35 (Tx access) + 1 (mux) + 4 (decompression).
        assert LDSTxConfig().tx_hit_latency == 40
        assert LDSTxConfig().tx_probe_latency == 2

    def test_iommu_walkers(self):
        assert table1_config().iommu.num_walkers == 32


class TestConfigDerivation:
    def test_with_scheme(self):
        config = table1_config().with_scheme(TxScheme.LDS_ONLY)
        assert config.scheme is TxScheme.LDS_ONLY

    def test_with_l2_tlb_entries(self):
        config = table1_config().with_l2_tlb_entries(8192)
        assert config.tlb.l2_entries == 8192
        assert table1_config().tlb.l2_entries == 512  # original untouched

    def test_with_page_size_validates(self):
        with pytest.raises(ValueError):
            table1_config().with_page_size(3000)

    def test_with_page_size_accepts_only_the_sizes_the_page_table_walks(self):
        for size in SUPPORTED_PAGE_SIZES:
            config = table1_config().with_page_size(size)
            assert PageTable(config.page_size).page_size == size
        # Powers of two all, but no page table walks them.
        for size in (512, 8192, 4096.0, 1 << 30):
            with pytest.raises(ValueError, match="65536"):
                table1_config().with_page_size(size)

    def test_with_extra_wire_latency(self):
        config = table1_config().with_extra_wire_latency(10, 20)
        assert config.icache_tx.tx_hit_latency == 51
        assert config.lds_tx.tx_hit_latency == 60

    def test_with_icache_sharers_keeps_total_capacity(self):
        for sharers in (1, 2, 4, 8):
            config = table1_config().with_icache_sharers(sharers)
            groups = config.gpu.num_cus // sharers
            assert groups * config.icache.size_bytes == 32 * 1024

    def test_with_perfect_l2(self):
        config = table1_config().with_perfect_l2_tlb()
        assert config.tlb.perfect_l2
        assert config.scheme is TxScheme.PERFECT_L2_TLB

    def test_configs_are_frozen(self):
        config = table1_config()
        with pytest.raises(Exception):
            config.page_size = 8192  # type: ignore[misc]
