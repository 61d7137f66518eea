"""Unit tests for configuration serialization."""

import pytest

from repro.config import ICacheReplacement, TxScheme, table1_config
from repro.config_io import (
    config_from_dict,
    config_from_json,
    config_to_dict,
    config_to_json,
    load_config,
    save_config,
)


class TestRoundTrip:
    def test_default_config(self):
        config = table1_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_scheme_round_trip(self):
        config = table1_config(TxScheme.ICACHE_LDS)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.scheme is TxScheme.ICACHE_LDS

    def test_derived_config_round_trip(self):
        config = (
            table1_config(TxScheme.DUCATI)
            .with_l2_tlb_entries(8192)
            .with_page_size(64 * 1024)
            .with_extra_wire_latency(50, 10)
        )
        assert config_from_dict(config_to_dict(config)) == config

    def test_replacement_enum_round_trip(self):
        from dataclasses import replace

        config = table1_config(TxScheme.ICACHE_ONLY)
        config = replace(
            config,
            icache_tx=replace(
                config.icache_tx, replacement=ICacheReplacement.NAIVE
            ),
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt.icache_tx.replacement is ICacheReplacement.NAIVE

    def test_json_round_trip(self):
        config = table1_config(TxScheme.LDS_ONLY)
        assert config_from_json(config_to_json(config)) == config

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        config = table1_config(TxScheme.ICACHE_LDS).with_l2_tlb_entries(1024)
        save_config(config, str(path))
        assert load_config(str(path)) == config


class TestPartialAndInvalid:
    def test_partial_dict_uses_defaults(self):
        rebuilt = config_from_dict({"scheme": "lds", "page_size": 4096})
        assert rebuilt.scheme is TxScheme.LDS_ONLY
        assert rebuilt.tlb.l2_entries == 512

    def test_partial_section(self):
        rebuilt = config_from_dict({"tlb": {"l2_entries": 2048, "l2_ways": 16,
                                            "l1_entries": 32, "l1_latency": 108,
                                            "l2_latency": 188,
                                            "l1_port_occupancy": 1,
                                            "l2_port_occupancy": 2,
                                            "perfect_l2": False}})
        assert rebuilt.tlb.l2_entries == 2048

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"warp_drive": {}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"tlb": {"bogus_knob": 1}})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"scheme": "teleport"})

    def test_page_size_the_page_table_cannot_walk_rejected(self):
        for size in (512, 8192):
            with pytest.raises(ValueError, match="page size must be one of"):
                config_from_dict({"page_size": size})
        assert config_from_dict({"page_size": 65536}).page_size == 65536

    def test_dict_is_json_compatible(self):
        import json

        json.dumps(config_to_dict(table1_config(TxScheme.DUCATI_ICACHE_LDS)))
