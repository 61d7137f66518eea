"""Tests for the experiment harness (small scale, shared result cache).

These assert the *structure* of every reproduced table/figure plus the
qualitative properties that must hold at any scale. The paper's claims at
the calibrated scale are checked by ``repro.experiments.validation``,
whose checklists ``repro report`` renders into EXPERIMENTS.md.
"""

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments import common
from repro.experiments import (
    ablation_design_choices,
    ablation_lds_segment,
    fig02_03_tlb_sweep,
    fig04_05_utilization,
    fig11_icache_kernels,
    fig13_main,
    fig14_sharing_walks_pagesize,
    fig15_entries,
    fig16_sensitivity,
    table2_characterization,
)
from repro.workloads.registry import app_names

SCALE = 0.12


@pytest.fixture(autouse=True, scope="module")
def _shared_cache():
    # One in-process cache across this module keeps total sim time low.
    yield
    common.clear_cache()


class TestCommon:
    def test_run_app_caches(self):
        first = common.run_app("SRAD", table1_config(), SCALE)
        second = common.run_app("SRAD", table1_config(), SCALE)
        assert first is second

    def test_cache_distinguishes_configs(self):
        baseline = common.run_app("SRAD", table1_config(), SCALE)
        other = common.run_app("SRAD", table1_config(TxScheme.LDS_ONLY), SCALE)
        assert baseline is not other

    def test_experiment_result_table_formatting(self):
        result = common.ExperimentResult("X", "title")
        result.rows.append({"a": 1, "b": 2.5})
        text = result.format_table()
        assert "| a | b |" in text
        assert "2.500" in text

    def test_row_for(self):
        result = common.ExperimentResult("X", "t")
        result.rows.append({"app": "A", "v": 1})
        assert result.row_for("app", "A")["v"] == 1
        with pytest.raises(KeyError):
            result.row_for("app", "Z")


class TestTable2:
    def test_rows_cover_all_apps(self):
        result = table2_characterization.run(SCALE)
        assert [row["app"] for row in result.rows] == app_names()

    def test_kernel_counts_match_table2(self):
        result = table2_characterization.run(SCALE)
        assert result.row_for("app", "ATAX")["kernels"] == 2
        assert result.row_for("app", "GEV")["kernels"] == 1
        assert result.row_for("app", "BFS")["kernels"] == 24

    def test_only_nw_is_back_to_back(self):
        result = table2_characterization.run(SCALE)
        b2b = {row["app"] for row in result.rows if row["b2b"]}
        assert b2b == {"NW"}

    def test_high_apps_have_highest_pki(self):
        result = table2_characterization.run(SCALE)
        high = min(
            row["ptw_pki"] for row in result.rows if row["paper_category"] == "H"
        )
        low = max(
            row["ptw_pki"] for row in result.rows if row["paper_category"] == "L"
        )
        assert high > low

    def test_categorize_rule(self):
        assert table2_characterization.categorize(25) == "H"
        assert table2_characterization.categorize(5) == "M"
        assert table2_characterization.categorize(0.5) == "L"


class TestFig02_03:
    def test_bigger_tlb_never_more_walks(self):
        result = fig02_03_tlb_sweep.run(SCALE, sizes=[512, 8192])
        small = result.row_for("l2_entries", 512)
        big = result.row_for("l2_entries", 8192)
        assert big["mean_walk_ratio"] <= small["mean_walk_ratio"]
        assert big["gmean_speedup"] >= small["gmean_speedup"]

    def test_perfect_row_has_zero_walks(self):
        result = fig02_03_tlb_sweep.run(SCALE, sizes=[512])
        perfect = result.row_for("l2_entries", "perfect")
        assert perfect["mean_walk_ratio"] == 0.0
        assert perfect["gmean_speedup"] >= 1.0


class TestFig04_05:
    def test_survey_shapes(self):
        result = fig04_05_utilization.run(SCALE)
        summary = fig04_05_utilization.summarize(result)
        assert summary["apps"] == 30  # 10 benchmarks + 20 survey apps
        assert 0.5 <= summary["fraction_no_lds"] <= 0.85
        assert summary["fraction_never_full_icache"] > 0.3

    def test_polybench_requests_no_lds(self):
        result = fig04_05_utilization.run(SCALE)
        assert not result.row_for("app", "ATAX")["uses_lds"]
        assert result.row_for("app", "NW")["uses_lds"]

    def test_srad_fills_icache(self):
        result = fig04_05_utilization.run(SCALE)
        # At reduced scale only part of SRAD's loop body is walked.
        assert result.row_for("app", "SRAD")["icache_util_max"] >= 0.6

    def test_idle_gaps_positive(self):
        result = fig04_05_utilization.run(SCALE)
        row = result.row_for("app", "ATAX")
        assert row["icache_idle_median"] > 0


class TestFig11:
    def test_series_present_for_multikernel_apps(self):
        result = fig11_icache_kernels.run(SCALE)
        apps = {row["app"] for row in result.rows}
        assert "GEV" not in apps and "SRAD" not in apps
        for row in result.rows:
            assert row["launches"] >= 2
            assert len(row["util_series_head"]) >= 2


class TestFig13:
    def test_fig13b_structure(self):
        result = fig13_main.run_fig13b(SCALE)
        gmean = result.row_for("app", "GMEAN")
        for scheme in ("lds", "icache", "icache+lds"):
            assert gmean[scheme] > 0
        hm = result.row_for("app", "GMEAN-H+M")
        assert hm["icache+lds"] >= gmean["icache+lds"]

    def test_fig13a_variant_columns(self):
        result = fig13_main.run_fig13a(SCALE)
        gmean = result.row_for("app", "GMEAN")
        assert set(fig13_main.icache_variant_configs()) <= set(gmean)

    def test_fig13c_energy_ratios_positive(self):
        result = fig13_main.run_fig13c(SCALE)
        mean = result.row_for("app", "MEAN")
        for key, value in mean.items():
            if key.endswith("_energy"):
                assert 0.3 < value < 1.5


class TestFig14:
    def test_sharing_bounded(self):
        result = fig14_sharing_walks_pagesize.run_fig14a(SCALE)
        for row in result.rows:
            assert 0.0 <= row["shared_pct"] <= 100.0

    def test_gev_shares_less_than_atax(self):
        result = fig14_sharing_walks_pagesize.run_fig14a(SCALE)
        gev = result.row_for("app", "GEV")["shared_pct"]
        atax = result.row_for("app", "ATAX")["shared_pct"]
        assert gev < atax

    def test_combined_walk_reduction_strongest(self):
        result = fig14_sharing_walks_pagesize.run_fig14b(SCALE)
        mean = result.row_for("app", "MEAN")
        # At reduced scale cold misses compress the gap; allow slack.
        assert mean["icache+lds_walks"] <= mean["lds_walks"] + 0.07
        assert mean["icache+lds_walks"] <= mean["icache_walks"] + 0.10
        assert mean["icache+lds_walks"] < 1.0


class TestFig15:
    def test_theoretical_max_matches_paper(self):
        limits = fig15_entries.theoretical_max_entries()
        assert limits["lds"] == 12 * 1024
        assert limits["icache"] == 4 * 1024
        assert limits["total"] == 16 * 1024

    def test_peaks_within_bound(self):
        result = fig15_entries.run(SCALE)
        limits = fig15_entries.theoretical_max_entries()
        for row in result.rows:
            assert 0 <= row["total_entries"] <= limits["total"]

    def test_high_apps_gain_entries(self):
        result = fig15_entries.run(SCALE)
        assert result.row_for("app", "ATAX")["total_entries"] > 100


class TestFig16:
    def test_sharers_subset(self):
        result = fig16_sensitivity.run_fig16a(SCALE, apps=["ATAX"])
        assert [row["cus_per_icache"] for row in result.rows] == [1, 2, 4, 8]

    def test_wire_latency_monotone_degradation(self):
        result = fig16_sensitivity.run_fig16b(SCALE, apps=["ATAX"])
        no_extra = result.row_for("arm", "no_extra")["gmean_speedup"]
        worst = result.row_for("arm", "ic_lds_100")["gmean_speedup"]
        assert worst <= no_extra * 1.05

    def test_ducati_rows(self):
        result = fig16_sensitivity.run_fig16c(SCALE)
        gmean = result.row_for("app", "GMEAN")
        assert gmean["ducati_icache_lds"] >= gmean["ducati"] * 0.9


class TestDesignChoiceAblations:
    def test_lookup_order_rows(self):
        result = ablation_design_choices.run_lookup_order(SCALE, apps=["SRAD"])
        orders = [row["order"] for row in result.rows]
        assert orders == ["lds-first", "icache-first"]
        assert all(row["gmean_speedup"] > 0 for row in result.rows)

    def test_packing_density_rows(self):
        result = ablation_design_choices.run_packing_density(SCALE, apps=["SRAD"])
        densities = [row["tx_per_line"] for row in result.rows]
        assert densities == [1, 2, 4, 8, 16]
        assert result.rows[3]["total_ic_entries"] == 4096


class TestAblation:
    def test_segment_sizes_report_ways(self):
        result = ablation_lds_segment.run(SCALE)
        assert result.row_for("segment_bytes", 32)["tx_ways"] == 3
        assert result.row_for("segment_bytes", 64)["tx_ways"] == 6

    def test_no_large_change_from_segment_size(self):
        result = ablation_lds_segment.run(SCALE)
        small = result.row_for("segment_bytes", 32)["gmean_speedup"]
        large = result.row_for("segment_bytes", 64)["gmean_speedup"]
        assert abs(small - large) / small < 0.2
