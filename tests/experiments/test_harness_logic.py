"""CPU-free tests of harness aggregation logic via a stubbed simulator.

These patch :func:`repro.experiments.common.simulate` — the call every
harness cell reaches through its grid's sweep — with a synthetic-results
factory, so the arithmetic each figure harness performs (normalization,
gmeans, category splits) is verified exactly and instantly.
"""

from typing import Dict, Tuple

import pytest

import repro.experiments.common as common
from repro.config import TxScheme
from repro.experiments import (
    fig13_main,
    fig14_sharing_walks_pagesize,
    fig15_entries,
    fig16_sensitivity,
)
from repro.sim.results import SimResult
from repro.workloads.registry import app_names


class StubRunner:
    """Deterministic fake simulations keyed by (app, scheme, page_size)."""

    def __init__(self):
        self.cycles: Dict[Tuple, int] = {}
        self.counters: Dict[Tuple, Dict[str, float]] = {}

    def set(self, app, scheme, cycles, page_size=4096, **counters):
        key = (app, scheme, page_size)
        self.cycles[key] = cycles
        self.counters[key] = counters

    def __call__(self, app_name, config, scale, store=None):
        key = (app_name, config.scheme, config.page_size)
        if key not in self.cycles:
            # Default: baseline-equal behaviour.
            key = (app_name, TxScheme.BASELINE, config.page_size)
        return SimResult(
            app_name=app_name,
            scheme=config.scheme.value,
            cycles=self.cycles.get(key, 1000),
            counters=dict(self.counters.get(key, {})),
        )


@pytest.fixture
def stub(monkeypatch):
    runner = StubRunner()
    for app in app_names():
        runner.set(app, TxScheme.BASELINE, 1000, **{"iommu.walks": 100.0})
    # Serial in-process sweeps, no disk store, and a memo that starts and
    # ends empty: every cell comes from this test's stub.
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setattr(common, "_CACHE_DIR", "")
    monkeypatch.setattr(common, "simulate", runner)
    common.clear_cache()
    yield runner
    common.clear_cache()


class TestFig13bAggregation:
    def test_gmean_row_math(self, stub):
        for app in app_names():
            stub.set(app, TxScheme.LDS_ONLY, 500)       # 2x everywhere
            stub.set(app, TxScheme.ICACHE_ONLY, 1000)   # 1x
            stub.set(app, TxScheme.ICACHE_LDS, 250)     # 4x
        result = fig13_main.run_fig13b(scale=1.0)
        gmean = result.row_for("app", "GMEAN")
        assert gmean["lds"] == pytest.approx(2.0)
        assert gmean["icache"] == pytest.approx(1.0)
        assert gmean["icache+lds"] == pytest.approx(4.0)

    def test_hm_row_excludes_low_apps(self, stub):
        # Only High/Medium apps sped up: H+M gmean > all-apps gmean.
        from repro.workloads.registry import CATEGORIES

        for app in app_names():
            fast = 500 if CATEGORIES[app] in ("H", "M") else 1000
            stub.set(app, TxScheme.ICACHE_LDS, fast)
            stub.set(app, TxScheme.LDS_ONLY, 1000)
            stub.set(app, TxScheme.ICACHE_ONLY, 1000)
        result = fig13_main.run_fig13b(scale=1.0)
        hm = result.row_for("app", "GMEAN-H+M")
        assert hm["icache+lds"] == pytest.approx(2.0)
        assert result.row_for("app", "GMEAN")["icache+lds"] < 2.0


class TestFig14bAggregation:
    def test_walk_normalization(self, stub):
        for app in app_names():
            stub.set(app, TxScheme.ICACHE_LDS, 800, **{"iommu.walks": 25.0})
            stub.set(app, TxScheme.LDS_ONLY, 900, **{"iommu.walks": 50.0})
            stub.set(app, TxScheme.ICACHE_ONLY, 900, **{"iommu.walks": 40.0})
        result = fig14_sharing_walks_pagesize.run_fig14b(scale=1.0)
        mean = result.row_for("app", "MEAN")
        assert mean["icache+lds_walks"] == pytest.approx(0.25)
        assert mean["lds_walks"] == pytest.approx(0.50)

    def test_zero_baseline_walks_ratio_is_one(self, stub):
        for app in app_names():
            stub.set(app, TxScheme.BASELINE, 1000)  # no walks counter
            stub.set(app, TxScheme.ICACHE_LDS, 1000)
            stub.set(app, TxScheme.LDS_ONLY, 1000)
            stub.set(app, TxScheme.ICACHE_ONLY, 1000)
        result = fig14_sharing_walks_pagesize.run_fig14b(scale=1.0)
        assert result.rows[0]["icache+lds_walks"] == 1.0


class TestFig15Aggregation:
    def test_percent_of_max(self, stub):
        for app in app_names():
            stub.set(
                app, TxScheme.ICACHE_LDS, 1000,
                **{"tx_entries.lds_peak": 6144.0, "tx_entries.icache_peak": 2048.0},
            )
        result = fig15_entries.run(scale=1.0)
        row = result.rows[0]
        assert row["total_entries"] == 8192
        assert row["pct_of_max"] == pytest.approx(50.0)


class TestFig16cArms:
    def test_columns_keep_their_names(self, synthetic):
        """``validate_fig16c`` reads the columns by these names."""

        result = fig16_sensitivity.run_fig16c(0.02)
        assert result.columns == ["app", "ducati", "icache_lds", "ducati_icache_lds"]
