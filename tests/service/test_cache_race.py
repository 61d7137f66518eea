"""Concurrent disk-cache access: jobs sharing keys racing one cache dir.

The service batches concurrent submissions into one SweepRunner call, so
most key collisions never reach the disk. These tests attack the layers
below that: parallel SweepRunner threads and separate JobManager
instances (stand-ins for separate service processes) hammering the same
cache directory. The invariants — no ``.corrupt`` quarantine files, one
valid cache file per key, byte-identical fingerprints — are what make
the service's dedup-by-cache-identity story sound.
"""

import glob
import json
import os
import threading

from repro.config import table1_config
from repro.experiments import common
from repro.experiments.common import result_fingerprint
from repro.service.manager import DONE, JobManager
from repro.sim.runner import SweepJob, SweepRunner

SCALE = 0.05
APPS = ("GUPS", "ATAX")


def tiny_jobs():
    return [
        SweepJob(app_name=app, config=table1_config(), scale=SCALE)
        for app in APPS
    ]


def cache_files():
    # Recursive: the store shards entries into two directory levels.
    return sorted(
        glob.glob(os.path.join(common._CACHE_DIR, "**", "*.json"), recursive=True)
    )


def corrupt_files():
    return glob.glob(
        os.path.join(common._CACHE_DIR, "**", "*.corrupt"), recursive=True
    )


class TestRunnerRaces:
    def test_parallel_runners_share_one_cache_dir_cleanly(self):
        """N threads × same jobs × one cache dir: every thread gets
        identical results and the cache ends up with one file per key."""

        results_by_thread = {}
        errors = []
        barrier = threading.Barrier(4)

        def worker(ident):
            try:
                barrier.wait(timeout=30)
                runner = SweepRunner(jobs=1)
                results_by_thread[ident] = runner.run(tiny_jobs())
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((ident, exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        assert len(results_by_thread) == 4

        fingerprints = {
            ident: [result_fingerprint(r) for r in results]
            for ident, results in results_by_thread.items()
        }
        reference = fingerprints[0]
        assert all(prints == reference for prints in fingerprints.values())

        assert corrupt_files() == []
        assert len(cache_files()) == len(APPS)
        for path in cache_files():
            with open(path) as handle:
                payload = json.load(handle)
            assert payload["schema"] == common.CACHE_SCHEMA

    def test_disk_cache_round_trip_counts_as_hit(self):
        """A second runner with a cold in-process cache must be served
        entirely from the shared disk cache — zero re-simulation."""

        jobs = tiny_jobs()
        first = SweepRunner(jobs=1).run(jobs)
        common.clear_cache()  # drop the in-process memo, keep the disk
        runner = SweepRunner(jobs=1)
        again, report = runner.run_with_report(tiny_jobs())
        assert report.jobs_simulated == 0
        assert report.cache_hits == len(APPS)
        assert [result_fingerprint(r) for r in again] == [
            result_fingerprint(r) for r in first
        ]
        assert corrupt_files() == []


class TestManagerRaces:
    def test_two_managers_race_one_cache_dir(self):
        """Two JobManagers (≈ two service processes) given the same spec
        concurrently: both finish, fingerprints match, no quarantine."""

        spec = {"apps": list(APPS), "schemes": ["baseline"], "scale": SCALE}
        with JobManager(workers=1) as alpha, JobManager(workers=1) as beta:
            record_a, _ = alpha.submit(spec)
            record_b, _ = beta.submit(spec)
            assert alpha.wait(record_a.job_id, timeout=300) == DONE
            assert beta.wait(record_b.job_id, timeout=300) == DONE
            prints_a = [result_fingerprint(r) for r in record_a.results]
            prints_b = [result_fingerprint(r) for r in record_b.results]
        assert prints_a == prints_b
        assert corrupt_files() == []
        assert len(cache_files()) == len(APPS)

    def test_resubmit_after_cache_drop_hits_disk(self):
        """A fresh manager with a cold in-process cache dedups against
        the disk: the rerun is all cache hits, no simulation."""

        spec = {"apps": list(APPS), "schemes": ["baseline"], "scale": SCALE}
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(spec)
            manager.wait(record.job_id, timeout=300)
            first_prints = [result_fingerprint(r) for r in record.results]

        common.clear_cache()
        with JobManager(workers=1) as manager:
            record, deduplicated = manager.submit(spec)
            assert not deduplicated  # new manager: no in-flight record
            manager.wait(record.job_id, timeout=300)
            assert record.report.jobs_simulated == 0
            assert record.report.cache_hits == len(APPS)
            assert [result_fingerprint(r) for r in record.results] == first_prints
        assert corrupt_files() == []
