"""Tests for experiment infrastructure: caching, serialization, report."""

import os

import pytest

from repro.config import table1_config
from repro.experiments import common
from repro.experiments.report import ALL_EXPERIMENTS
from repro.sim.results import SimResult


class TestDiskCache:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        first = common.run_app("SRAD", table1_config(), scale=0.05)
        common.clear_cache()  # drop the in-process cache; hit the disk
        second = common.run_app("SRAD", table1_config(), scale=0.05)
        assert second.cycles == first.cycles
        assert second.counters == first.counters
        assert len(second.kernels) == len(first.kernels)
        assert second.kernels[0].counters == first.kernels[0].counters
        common.clear_cache()

    def test_distributions_survive_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        first = common.run_app("SRAD", table1_config(), scale=0.05)
        common.clear_cache()
        second = common.run_app("SRAD", table1_config(), scale=0.05)
        assert set(second.distributions) == set(first.distributions)
        walk = second.distributions["walk_latency"]
        assert walk is None or walk.count == first.distributions["walk_latency"].count
        common.clear_cache()

    def test_corrupt_cache_file_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
        common.clear_cache()
        common.run_app("SRAD", table1_config(), scale=0.05)
        for dirpath, _dirnames, filenames in os.walk(tmp_path):
            for name in filenames:
                (tmp_path / os.path.relpath(os.path.join(dirpath, name), tmp_path)
                 ).write_text("{broken json")
        common.clear_cache()
        result = common.run_app("SRAD", table1_config(), scale=0.05)
        assert result.cycles > 0
        common.clear_cache()

    def test_no_cache_mode(self):
        common.clear_cache()
        a = common.run_app("SRAD", table1_config(), scale=0.05, use_cache=False)
        b = common.run_app("SRAD", table1_config(), scale=0.05, use_cache=False)
        assert a is not b
        assert a.cycles == b.cycles  # but deterministic


class TestCacheKeyNormalization:
    def test_int_and_float_scale_share_one_identity(self):
        """Regression: ``cache_key(app, cfg, 1)`` and ``…, 1.0)`` used to
        interpolate different strings, so ``run_app(..., scale=1)`` missed
        every runner-warmed cache entry and re-simulated."""

        cfg = table1_config()
        assert common.cache_key("SRAD", cfg, 1) == common.cache_key("SRAD", cfg, 1.0)
        assert common.cache_key("SRAD", cfg, 2) == common.cache_key("SRAD", cfg, 2.0)
        # Distinct scales still get distinct identities.
        assert common.cache_key("SRAD", cfg, 1) != common.cache_key("SRAD", cfg, 2)

    def test_int_scale_run_app_hits_float_warmed_cache(self, monkeypatch):
        from repro.sim.results import SimResult

        common.clear_cache()
        cfg = table1_config()
        sentinel = SimResult(app_name="SRAD", scheme="baseline", cycles=7)
        common._CACHE[common.cache_key("SRAD", cfg, 3.0)] = sentinel

        def boom(self, app):
            raise AssertionError("cache miss: re-simulated a warmed scale")

        monkeypatch.setattr(common.GPUSystem, "run", boom)
        assert common.run_app("SRAD", cfg, scale=3) is sentinel
        common.clear_cache()


class TestGridCells:
    """One path per cell: the grid's sweep results, a gap re-simulated."""

    def test_cell_outside_the_grid_raises(self):
        grid = common.Grid(["SRAD"], {"baseline": table1_config()})
        sim = SimResult(app_name="SRAD", scheme="baseline", cycles=7)
        cells = common.Cells(grid, 0.05, [sim])
        assert cells("SRAD", "baseline") is sim
        with pytest.raises(KeyError, match="outside the grid"):
            cells("SRAD", "lds")
        with pytest.raises(KeyError, match="outside the grid"):
            cells("GUPS", "baseline")

    def test_failed_job_is_resimulated_in_process(self, monkeypatch):
        """A job the sweep failed terminally leaves a gap in the results;
        looking the cell up re-simulates it outside the runner (where the
        fault hook does not fire) and the report names the failure."""

        calls = []

        def fake_simulate(app_name, config, scale, store):
            calls.append(app_name)
            return SimResult(app_name=app_name, scheme=config.scheme.value, cycles=9)

        monkeypatch.setattr(common, "simulate", fake_simulate)
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "SRAD:*:exc")
        monkeypatch.setenv("REPRO_MAX_RETRIES", "0")
        common.clear_cache()
        try:
            grid = common.Grid(["SRAD", "GUPS"], {"baseline": table1_config()})
            cells, report = grid.sweep(0.05)
            assert [f.app_name for f in report.failures] == ["SRAD"]
            assert calls == ["GUPS"]
            assert cells("SRAD", "baseline").cycles == 9
            assert cells("SRAD", "baseline") is cells("SRAD", "baseline")
            assert calls == ["GUPS", "SRAD"]
        finally:
            common.clear_cache()


class TestConfigSignature:
    def test_signature_distinguishes_configs(self):
        a = common._config_signature(table1_config())
        b = common._config_signature(table1_config().with_l2_tlb_entries(1024))
        assert a != b

    def test_signature_stable(self):
        assert common._config_signature(table1_config()) == common._config_signature(
            table1_config()
        )


class TestReportRegistry:
    def test_all_experiments_registered(self):
        # Table 2 + 13 figure harnesses + 6.3.1 + two extra ablations +
        # the duplication-filter and subregion-coalescing extensions.
        assert len(ALL_EXPERIMENTS) == 19

    def test_paper_order(self):
        names = [name for name, _ in ALL_EXPERIMENTS]
        assert names[0] == "Table 2"
        assert names[-1] == "Extension: subregion coalescing"

    def test_runners_are_callable(self):
        for _, runner in ALL_EXPERIMENTS:
            assert callable(runner)


class TestReportSections:
    def test_failures_and_telemetry_come_from_the_results(self, monkeypatch):
        """``generate`` renders its failure and telemetry sections from the
        reports the experiment results carry, and only from those."""

        from repro.experiments import report as report_module
        from repro.sim.runner import JobFailure, SweepReport

        failure = JobFailure(
            key="k", app_name="ATAX", scheme="lds", attempts=3, error="boom",
            disposition="crash",
        )
        reports = [
            SweepReport(jobs_submitted=3, cache_hits=1, jobs_simulated=2,
                        failures=[failure]),
            SweepReport(jobs_submitted=2, cache_hits=2),
            None,
        ]

        def harness(report):
            return lambda scale: common.ExperimentResult(
                "Fake", "t", rows=[{"a": 1}], sweep_report=report
            )

        monkeypatch.setattr(
            report_module, "ALL_EXPERIMENTS",
            [(str(index), harness(report)) for index, report in enumerate(reports)],
        )
        text = report_module.generate(0.02)
        assert "1 sweep job(s) failed terminally" in text
        assert "- ATAX lds failed after 3 attempt(s) [crash]: boom" in text
        assert (
            "2 harness sweep(s): 5 job(s) submitted, 3 cache hit(s), 2 simulated"
            in text
        )
