"""Unit tests for the Perfect-L2-TLB configuration."""

from repro.config import TxScheme, table1_config
from repro.system import GPUSystem
from tests.conftest import make_tiny_app


class TestPerfectConfig:
    def test_sets_flag_and_scheme(self):
        config = table1_config().with_perfect_l2_tlb()
        assert config.tlb.perfect_l2
        assert config.scheme is TxScheme.PERFECT_L2_TLB

    def test_respects_base_config(self):
        base = table1_config().with_l2_tlb_entries(1024)
        config = base.with_perfect_l2_tlb()
        assert config.tlb.l2_entries == 1024


class TestPerfectBehaviour:
    def test_zero_walks(self):
        result = GPUSystem(table1_config().with_perfect_l2_tlb()).run(make_tiny_app())
        assert result.page_walks == 0

    def test_not_slower_than_baseline(self):
        app = make_tiny_app(pages=4096, ops_per_wave=10)
        baseline = GPUSystem(table1_config()).run(app)
        perfect = GPUSystem(table1_config().with_perfect_l2_tlb()).run(
            make_tiny_app(pages=4096, ops_per_wave=10)
        )
        assert perfect.cycles <= baseline.cycles
