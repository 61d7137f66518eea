"""SubregionStore unit behaviour and its end-to-end effect on page walks."""

from __future__ import annotations

import pytest

from repro.config import SubregionConfig, table1_config
from repro.pagetable.page_table import PageTable
from repro.schemes import config_for
from repro.schemes.subregion import SubregionStore
from repro.sim.stats import Stats
from repro.system import GPUSystem
from repro.workloads.registry import make_app


def make_store(page_table=None, **overrides):
    config = SubregionConfig(**overrides)
    table = page_table if page_table is not None else PageTable()
    return SubregionStore(config, table, stats=Stats()), table


def map_run(table, start_vpn, count, vmid=0):
    """First-touch ``count`` consecutive pages; the deterministic
    allocator gives them a uniform +7 frame stride."""

    return [table.translate(vmid, start_vpn + i) for i in range(count)]


class TestConfigValidation:
    def test_subregion_pages_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            make_store(subregion_pages=6)

    def test_subregion_pages_must_be_at_least_two(self):
        with pytest.raises(ValueError, match="power of two"):
            make_store(subregion_pages=1)

    def test_min_run_bounds(self):
        with pytest.raises(ValueError, match="min_run"):
            make_store(min_run=1)
        with pytest.raises(ValueError, match="min_run"):
            make_store(subregion_pages=8, min_run=9)


class TestDetection:
    def test_uniform_stride_run_installs_and_hits(self):
        store, table = make_store(subregion_pages=8, min_run=2)
        pfns = map_run(table, start_vpn=8, count=4)
        run = store.observe((0, 0, 8), pfns[0])
        assert run is not None
        assert run.length == 4
        assert run.stride == pfns[1] - pfns[0]
        # Every covered page resolves from the coalesced entry.
        for i in range(4):
            entry, latency = store.lookup((0, 0, 8 + i), anchor=0)
            assert entry is not None
            assert entry.pfn == pfns[i]
            assert latency == store.config.lookup_latency
        assert store.stats.get("subregion.hits") == 4

    def test_uncovered_page_misses(self):
        store, table = make_store(subregion_pages=8, min_run=2)
        pfns = map_run(table, start_vpn=8, count=2)
        assert store.observe((0, 0, 8), pfns[0]) is not None
        entry, _ = store.lookup((0, 0, 12), anchor=0)
        assert entry is None
        assert store.stats.get("subregion.misses") == 1

    def test_isolated_page_does_not_install(self):
        store, table = make_store()
        pfn = table.translate(0, 40)
        assert store.observe((0, 0, 40), pfn) is None
        assert len(store) == 0

    def test_min_run_respected(self):
        store, table = make_store(subregion_pages=8, min_run=4)
        pfns = map_run(table, start_vpn=16, count=3)
        assert store.observe((0, 0, 16), pfns[0]) is None
        table.translate(0, 19)
        assert store.observe((0, 0, 16), pfns[0]) is not None

    def test_non_uniform_stride_truncates_run(self):
        table = PageTable()
        # Interleave two regions' first touches so vpns 8..11 do NOT get
        # consecutive frames everywhere: 8,9 are contiguous (+7), then a
        # foreign allocation breaks the stride before 10.
        a = table.translate(0, 8)
        b = table.translate(0, 9)
        table.translate(0, 100)
        table.translate(0, 10)
        store = SubregionStore(SubregionConfig(), table, stats=Stats())
        run = store.observe((0, 0, 8), a)
        assert run is not None
        assert run.length == 2
        assert run.stride == b - a

    def test_run_never_crosses_subregion_boundary(self):
        store, table = make_store(subregion_pages=4, min_run=2)
        pfns = map_run(table, start_vpn=2, count=6)  # spans vpn 2..7
        run = store.observe((0, 0, 3), pfns[1])
        assert run is not None
        # Subregion [0, 4) only: vpns 2 and 3.
        assert run.base_vpn == 2
        assert run.length == 2

    def test_observe_is_read_only_on_page_table(self):
        store, table = make_store()
        map_run(table, start_vpn=8, count=3)
        mapped_before = len(table)
        store.observe((0, 0, 8), table.translate(0, 8))
        assert len(table) == mapped_before

    def test_vmid_isolation(self):
        store, table = make_store()
        pfns = map_run(table, start_vpn=8, count=3, vmid=1)
        assert store.observe((1, 0, 8), pfns[0]) is not None
        entry, _ = store.lookup((0, 0, 8), anchor=0)
        assert entry is None


class TestInvalidation:
    def test_shootdown_drops_covering_run(self):
        store, table = make_store()
        pfns = map_run(table, start_vpn=8, count=4)
        store.observe((0, 0, 8), pfns[0])
        assert store.invalidate_vpn(9) == 1
        entry, _ = store.lookup((0, 0, 8), anchor=0)
        assert entry is None
        assert store.stats.get("subregion.invalidations") == 1

    def test_shootdown_outside_run_is_noop(self):
        store, table = make_store()
        pfns = map_run(table, start_vpn=8, count=4)
        store.observe((0, 0, 8), pfns[0])
        assert store.invalidate_vpn(400) == 0
        entry, _ = store.lookup((0, 0, 8), anchor=0)
        assert entry is not None

    def test_system_shootdown_reaches_store(self):
        system = GPUSystem(config_for("subregion-coalescing"))
        table = system.page_table
        pfns = [table.translate(0, 8 + i) for i in range(4)]
        system.subregion.observe((0, 0, 8), pfns[0])
        assert len(system.subregion) == 1
        system.shootdown(9)
        assert len(system.subregion) == 0


class TestCapacity:
    def test_lru_eviction_at_capacity(self):
        store, table = make_store(subregion_pages=2, min_run=2, entries=2)
        for region in range(3):
            base = region * 2
            pfns = map_run(table, start_vpn=base, count=2)
            store.observe((0, 0, base), pfns[0])
        assert len(store) == 2
        assert store.stats.get("subregion.evictions") == 1
        # Region 0 was least recently used and must be gone.
        entry, _ = store.lookup((0, 0, 0), anchor=0)
        assert entry is None

    def test_replacement_within_region(self):
        store, table = make_store(subregion_pages=4, min_run=2)
        pfns = map_run(table, start_vpn=0, count=2)
        store.observe((0, 0, 0), pfns[0])
        table.translate(0, 2)
        table.translate(0, 3)
        run = store.observe((0, 0, 0), pfns[0])
        assert run is not None and run.length == 4
        assert len(store) == 1
        assert store.stats.get("subregion.replacements") == 1


class TestEndToEnd:
    def test_scheme_reduces_page_walks(self):
        scale = 0.05
        app = make_app("ATAX", scale=scale, page_size=4096)
        base = GPUSystem(table1_config()).run(app)
        app = make_app("ATAX", scale=scale, page_size=4096)
        sub = GPUSystem(config_for("subregion-coalescing")).run(app)
        assert sub.counter("tx_serviced_by.subregion") > 0
        assert sub.counter("iommu.walks") < base.counter("iommu.walks")
