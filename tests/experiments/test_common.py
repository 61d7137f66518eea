"""Tests for experiment infrastructure: caching, serialization, report."""

import copy
import hashlib
import json
import os
import pickle
import sys
import threading
from dataclasses import replace

import pytest

from repro.config import table1_config
from repro.config_io import config_to_dict
from repro.experiments import common
from repro.experiments.report import ALL_EXPERIMENTS, SWEEP_GRIDS
from repro.schemes import config_for, scheme_names
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
        a = common.simulate("SRAD", table1_config(), 0.05)
        b = common.simulate("SRAD", table1_config(), 0.05)
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

        def fake_simulate(app_name, config, scale):
            calls.append(app_name)
            return SimResult(app_name=app_name, scheme=config.scheme.value, cycles=9)

        monkeypatch.setattr(common, "simulate", fake_simulate)
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_FAULT_SPEC", "SRAD:*:exc")
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
        a = table1_config().signature
        b = table1_config().with_l2_tlb_entries(1024).signature
        assert a != b

    def test_signature_stable(self):
        assert table1_config().signature == table1_config().signature


def _derive(config):
    """The signature's definition, derived afresh."""

    text = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _equal_but_distinct_pairs():
    """Configs that compare and hash equal but serialize differently, each
    with its signature pinned from the unmemoized derivation."""

    base = table1_config()

    def refresh(value):
        energy = replace(base.dram_energy, refresh_nj_per_cycle=value)
        return replace(base, dram_energy=energy)

    return [
        ((base.with_l2_tlb_entries(512), "26dedf985b22459e"),
         (base.with_l2_tlb_entries(512.0), "1166bfecb209df13")),
        ((replace(base, dedup_shared_fills=False), "26dedf985b22459e"),
         (replace(base, dedup_shared_fills=0), "c475f402c4d95bb5")),
        ((refresh(0.0), "0d450c2210f482b5"), (refresh(-0.0), "444e35fa9342cef6")),
    ]


class TestSignatureMemo:
    """Each configuration object derives its signature once, exactly and
    safely from many threads; copies carry it, variants derive their own."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["in-order", "reversed"])
    def test_equal_configs_keep_distinct_signatures(self, reverse):
        for pair in _equal_but_distinct_pairs():
            (a, _), (b, _) = pair
            assert a == b and hash(a) == hash(b)
            for config, pinned in reversed(pair) if reverse else pair:
                assert config.signature == pinned
            for config, pinned in pair:
                assert config.signature == pinned

    def test_every_grid_and_scheme_config_matches_a_fresh_derivation(self):
        configs = [job.config for grid in SWEEP_GRIDS.values() for job in grid(0.05)]
        configs += [config_for(name) for name in scheme_names()]
        for config in configs:
            assert config.signature == _derive(config)

    def test_threads_get_correct_signatures(self):
        """More threads than cores, switching often, each reading the
        signatures of the same fresh objects: every signature is right and
        no thread raises."""

        configs = [table1_config().with_l2_tlb_entries(64 * n) for n in range(1, 25)]
        expected = [_derive(config) for config in configs]
        threads = 4 * (os.cpu_count() or 1)
        start = threading.Barrier(threads, timeout=60)
        wrong, errors = [], []

        def work(offset):
            try:
                start.wait()
                for step in range(3 * len(configs)):
                    index = (offset + step) % len(configs)
                    if configs[index].signature != expected[index]:
                        wrong.append(index)
            except Exception as error:
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert wrong == []

    def test_copies_keep_the_signature_and_variants_derive_their_own(
        self, monkeypatch
    ):
        import repro.config_io

        config = table1_config().with_l2_tlb_entries(2048)
        signature = config.signature
        pickled = pickle.dumps(config)
        variant = replace(config, page_size=65536)

        def underived(_config):
            raise AssertionError("a copy derived its signature again")

        monkeypatch.setattr(repro.config_io, "config_to_dict", underived)
        assert pickle.loads(pickled).signature == signature
        assert copy.copy(config).signature == signature
        monkeypatch.undo()
        assert variant.signature == _derive(variant) != signature

    def test_keys_derive_without_repr(self, monkeypatch):
        """No job key is built from a configuration's repr: every grid's
        keys and a service submit derive with ``__repr__`` raising."""

        from repro.config import SystemConfig
        from repro.service.jobs import expand_spec, validate_spec
        from repro.service.manager import JobManager

        jobs = [job for grid in SWEEP_GRIDS.values() for job in grid(0.05)]
        expected = [job.key() for job in jobs]
        fresh = [replace(job, config=replace(job.config)) for job in jobs]
        spec = {"apps": ["GUPS", "NW"], "schemes": ["baseline", "lds"],
                "page_size": 65536, "scale": 0.05}
        submitted = [job.key() for job in expand_spec(validate_spec(spec))]

        def no_repr(self):
            raise AssertionError("repr() on the key path")

        monkeypatch.setattr(SystemConfig, "__repr__", no_repr)
        assert [job.key() for job in fresh] == expected
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(spec)
            assert [job.key() for job in record.jobs] == submitted


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
        from repro.sim.runner import JobFailure, JobTiming, SweepReport

        failure = JobFailure(
            key="k", app_name="ATAX", scheme="lds", attempts=3, error="boom",
            disposition="crash",
        )

        def timing(app, duration_s, cached=False):
            return JobTiming(
                key=app, app_name=app, scheme="lds", duration_s=duration_s,
                cached=cached, attempts=0 if cached else 1,
                worker_pid=0 if cached else 7,
            )

        reports = [
            SweepReport(jobs_submitted=3, cache_hits=1, jobs_simulated=2,
                        failures=[failure],
                        timings=[timing("GUPS", 2.0), timing("NW", 9.0, cached=True),
                                 timing("SRAD", 0.5), timing("BFS", 4.0)]),
            SweepReport(jobs_submitted=2, cache_hits=2,
                        timings=[timing("MVT", 3.0), timing("BICG", 1.0),
                                 timing("GEV", 5.0)]),
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
        # The five slowest simulated cells across reports, slowest first;
        # the cache hit is not a simulated cell, however long it reads.
        listed = text.split("Slowest simulated cells:\n\n", 1)[1].split("\n\n", 1)[0]
        assert listed.splitlines() == [
            f"- {app} lds: {seconds}s (1 attempt(s), worker 7)"
            for app, seconds in (("GEV", "5.00"), ("BFS", "4.00"), ("MVT", "3.00"),
                                 ("GUPS", "2.00"), ("BICG", "1.00"))
        ]
