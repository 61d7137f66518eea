"""Property-based tests (hypothesis) for the reconfigurable-structure rules.

Three paper-mandated invariants that must hold for *every* interleaving of
operations, not just the ones the figures exercise:

- Section 4.2.4: an application (LDS-mode) allocation may silently reclaim
  Tx-mode segments, but a translation fill may **never** claim an LDS-mode
  segment.
- Section 4.3.2: under the INSTRUCTION_AWARE policy, a translation fill may
  **never** evict a resident instruction line.
- Figures 7b/10c: base-delta tag compression is exact — a packable group
  reconstructs its tags bit-for-bit from (base, deltas), and packability is
  equivalent to every delta fitting the delta field.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    ICacheConfig,
    ICacheReplacement,
    ICacheTxConfig,
    LDSConfig,
    LDSTxConfig,
)
from repro.core.compression import BaseDeltaCodec
from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.gpu.lds import LocalDataShare, SegmentMode
from repro.tlb.base import TranslationEntry


def _entry(vpn: int) -> TranslationEntry:
    return TranslationEntry(vpn=vpn, pfn=vpn + 1)


# ---------------------------------------------------------------------------
# Section 4.2.4: LDS-mode may overwrite Tx-mode, never vice versa
# ---------------------------------------------------------------------------

# A script step is either a translation fill (vpn), an allocation (nbytes)
# or a free of the oldest live allocation.
_lds_steps = st.lists(
    st.one_of(
        st.tuples(st.just("fill"), st.integers(0, 1 << 20)),
        st.tuples(st.just("alloc"), st.integers(1, 2048)),
        st.tuples(st.just("free"), st.just(0)),
    ),
    min_size=1,
    max_size=120,
)


class TestLdsModePrecedence:
    @given(_lds_steps)
    @settings(max_examples=60, deadline=None)
    def test_lds_mode_always_wins(self, steps):
        # A small LDS (16 segments) so allocations and Tx fills collide
        # constantly.
        lds = LocalDataShare(LDSConfig(size_bytes=16 * 32), LDSTxConfig())
        tx = LDSTxCache(lds, LDSTxConfig())
        live = []
        for action, value in steps:
            if action == "fill":
                segment = value % lds.num_segments
                mode_before = lds.mode[segment]
                accepted, _ = tx.fill(_entry(value), now=0)
                if mode_before == SegmentMode.LDS:
                    # Tx may never claim an application segment...
                    assert not accepted
                    assert lds.mode[segment] == SegmentMode.LDS
                else:
                    assert accepted
            elif action == "alloc":
                alloc_id = lds.allocate(value)
                if alloc_id is not None:
                    live.append(alloc_id)
            elif live:
                lds.free(live.pop(0))

            # ...and at no point may a Tx entry sit in an LDS-mode segment.
            for segment, entries in tx._segments.items():
                assert lds.mode[segment] == SegmentMode.TX
                assert entries
            assert tx.entry_count == sum(
                len(entries) for entries in tx._segments.values()
            )

    @given(st.integers(0, 1 << 20), st.integers(1, 512))
    @settings(max_examples=60, deadline=None)
    def test_allocation_reclaims_tx_segments(self, vpn, nbytes):
        lds = LocalDataShare(LDSConfig(size_bytes=16 * 32), LDSTxConfig())
        tx = LDSTxCache(lds, LDSTxConfig())
        accepted, _ = tx.fill(_entry(vpn), now=0)
        assert accepted
        alloc_id = lds.allocate(nbytes)
        # A fresh LDS always has room, and resident translations never
        # block the application (they are dropped, not protected).
        assert alloc_id is not None
        segment = vpn % lds.num_segments
        if lds.mode[segment] == SegmentMode.LDS:
            assert segment not in tx._segments
            hit, _ = tx.lookup(_entry(vpn).key, anchor=0)
            assert hit is None


# ---------------------------------------------------------------------------
# Section 4.3.2: instruction-aware replacement protects instructions
# ---------------------------------------------------------------------------

_icache_steps = st.lists(
    st.one_of(
        st.tuples(st.just("fetch"), st.integers(0, 4096)),
        st.tuples(st.just("tx"), st.integers(0, 1 << 20)),
    ),
    min_size=1,
    max_size=150,
)


def _instruction_lines(cache):
    return {
        (set_index, line.tag)
        for set_index, cache_set in enumerate(cache._sets)
        for line in cache_set
        if line.valid and not line.is_tx
    }


class TestInstructionAwareReplacement:
    @given(_icache_steps)
    @settings(max_examples=60, deadline=None)
    def test_tx_fill_never_evicts_instructions(self, steps):
        # A tiny cache (16 lines) so both kinds of fill fight over lines.
        cache = ReconfigurableICache(
            ICacheConfig(size_bytes=16 * 64),
            ICacheTxConfig(replacement=ICacheReplacement.INSTRUCTION_AWARE),
        )
        for action, value in steps:
            if action == "fetch":
                cache.fetch(value, now=0)
            else:
                resident = _instruction_lines(cache)
                accepted, _ = cache.tx_fill(_entry(value), now=0)
                # Every instruction line resident before the fill is still
                # resident after it, whether or not the fill was accepted.
                assert _instruction_lines(cache) >= resident
        assert cache.stats.get("icache.instructions_evicted_by_tx") == 0

    @given(_icache_steps)
    @settings(max_examples=30, deadline=None)
    def test_tx_entry_count_matches_contents(self, steps):
        cache = ReconfigurableICache(
            ICacheConfig(size_bytes=16 * 64),
            ICacheTxConfig(replacement=ICacheReplacement.NAIVE),
        )
        for action, value in steps:
            if action == "fetch":
                cache.fetch(value, now=0)
            else:
                cache.tx_fill(_entry(value), now=0)
            actual = sum(
                len(line.tx_entries)
                for cache_set in cache._sets
                for line in cache_set
                if line.is_tx and line.tx_entries
            )
            assert cache.tx_entry_count() == actual


# ---------------------------------------------------------------------------
# Figures 7b/10c: base-delta compression is exact
# ---------------------------------------------------------------------------

_tags = st.lists(st.integers(0, 1 << 40), min_size=1, max_size=8)


class TestBaseDeltaRoundTrip:
    @given(_tags, st.integers(1, 16))
    @settings(max_examples=200)
    def test_packable_groups_round_trip(self, tags, delta_bits):
        codec = BaseDeltaCodec(base_bits=32, delta_bits=delta_bits)
        base = min(tags)
        deltas = [tag - base for tag in tags]
        if codec.can_pack(tags):
            # Encode/decode is exact: every delta fits its field and the
            # reconstruction recovers the original tags bit-for-bit.
            assert all(0 <= delta < (1 << delta_bits) for delta in deltas)
            assert [base + delta for delta in deltas] == tags
        else:
            # Unpackable iff some delta overflows the field — the codec
            # never rejects a group the encoding could represent.
            assert any(delta >= (1 << delta_bits) for delta in deltas)

    @given(_tags, st.integers(0, 1 << 40))
    @settings(max_examples=200)
    def test_packable_subset_is_sound_and_complete(self, resident, incoming):
        codec = BaseDeltaCodec(base_bits=32, delta_bits=8)
        keep = codec.packable_subset(resident, incoming)
        # Sound: the kept residents really do pack with the incoming tag.
        assert codec.can_pack(keep + [incoming])
        # Subset: nothing invented.
        leftovers = list(resident)
        for tag in keep:
            leftovers.remove(tag)
        # Complete enough: if everything packed, nothing is evicted.
        if codec.can_pack(resident + [incoming]):
            assert not leftovers
