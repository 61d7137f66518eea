"""Property-based tests: configuration serialization and derivation."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TxScheme, table1_config
from repro.config_io import config_from_dict, config_from_json, config_to_dict, config_to_json

schemes = st.sampled_from(list(TxScheme))
page_sizes = st.sampled_from([4096, 64 * 1024, 2 * 1024 * 1024])
sharers = st.sampled_from([1, 2, 4, 8])
entries = st.sampled_from([512, 1024, 4096, 65536])


def build_config(scheme, page_size, sharer_count, l2_entries, wire, dedup, lds_first):
    config = (
        table1_config(scheme)
        .with_page_size(page_size)
        .with_icache_sharers(sharer_count)
        .with_l2_tlb_entries(l2_entries)
        .with_extra_wire_latency(wire, wire)
    )
    return replace(config, dedup_shared_fills=dedup, lds_before_icache=lds_first)


class TestConfigRoundTripProperties:
    @given(
        schemes, page_sizes, sharers, entries,
        st.integers(0, 100), st.booleans(), st.booleans(),
    )
    @settings(max_examples=60)
    def test_dict_round_trip_is_identity(
        self, scheme, page_size, sharer_count, l2_entries, wire, dedup, lds_first
    ):
        config = build_config(
            scheme, page_size, sharer_count, l2_entries, wire, dedup, lds_first
        )
        assert config_from_dict(config_to_dict(config)) == config

    @given(schemes, page_sizes)
    @settings(max_examples=20)
    def test_json_round_trip_is_identity(self, scheme, page_size):
        config = table1_config(scheme).with_page_size(page_size)
        assert config_from_json(config_to_json(config)) == config

    @given(sharers)
    @settings(max_examples=10)
    def test_sharers_preserve_total_capacity(self, sharer_count):
        config = table1_config().with_icache_sharers(sharer_count)
        groups = config.gpu.num_cus // config.icache.cus_per_icache
        assert groups * config.icache.size_bytes == 32 * 1024

    @given(schemes)
    @settings(max_examples=10)
    def test_signature_equals_for_equal_configs(self, scheme):
        assert table1_config(scheme).signature == table1_config(scheme).signature

    @given(st.sampled_from(list(TxScheme)), st.sampled_from(list(TxScheme)))
    @settings(max_examples=20)
    def test_signature_differs_for_different_schemes(self, a, b):
        sig_a = table1_config(a).signature
        sig_b = table1_config(b).signature
        assert (sig_a == sig_b) == (a == b)
