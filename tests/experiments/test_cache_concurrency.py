"""Robustness battery for the hardened on-disk result cache.

Parallel sweeps mean multiple processes reading and writing the same cache
directory at once; these tests pin down the failure modes the hardening
closes: corrupt files must be quarantined (not silently swallowed),
concurrent writers must leave a single valid file, and payloads from a
different schema version must be re-simulated.
"""

import json
import logging
import os
import threading

import pytest

from repro.config import table1_config
from repro.experiments import common

SCALE = 0.05
APP = "SRAD"


@pytest.fixture(autouse=True)
def _fresh_cache(tmp_path, monkeypatch):
    monkeypatch.setattr(common, "_CACHE_DIR", str(tmp_path))
    common.clear_cache()
    yield tmp_path
    common.clear_cache()


def _walk_suffix(tmp_path, suffix):
    # The store shards entries into <d[:2]>/<d[2:4]>/ subdirectories;
    # return paths relative to the root so tests can reopen them.
    found = []
    for dirpath, _dirnames, filenames in os.walk(tmp_path):
        for name in filenames:
            if name.endswith(suffix):
                full = os.path.join(dirpath, name)
                found.append(os.path.relpath(full, tmp_path))
    return sorted(found)


def cache_files(tmp_path):
    return _walk_suffix(tmp_path, ".json")


def quarantined_files(tmp_path):
    return _walk_suffix(tmp_path, ".corrupt")


class TestCorruptFiles:
    def test_corrupt_file_quarantined_and_resimulated(self, tmp_path, caplog):
        first = common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        (tmp_path / path).write_text("{definitely not json")
        common.clear_cache()

        with caplog.at_level(logging.WARNING, logger="repro.sim.store"):
            second = common.run_app(APP, table1_config(), SCALE)

        assert second.cycles == first.cycles  # re-simulated, not None/garbage
        assert any("quarantined" in record.message for record in caplog.records)
        assert quarantined_files(tmp_path)  # bad file kept for debugging
        # The fresh result was re-stored as a valid file.
        (path,) = cache_files(tmp_path)
        payload = json.loads((tmp_path / path).read_text())
        assert payload["schema"] == common.CACHE_SCHEMA

    def test_truncated_file_quarantined(self, tmp_path, caplog):
        common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        full = (tmp_path / path).read_text()
        (tmp_path / path).write_text(full[: len(full) // 2])
        common.clear_cache()

        with caplog.at_level(logging.WARNING, logger="repro.sim.store"):
            result = common.run_app(APP, table1_config(), SCALE)

        assert result.cycles > 0
        assert quarantined_files(tmp_path)

    def test_valid_json_wrong_shape_quarantined(self, tmp_path, caplog):
        common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        (tmp_path / path).write_text(
            json.dumps({"schema": common.CACHE_SCHEMA, "cycles": 1})
        )
        common.clear_cache()

        with caplog.at_level(logging.WARNING, logger="repro.sim.store"):
            result = common.run_app(APP, table1_config(), SCALE)

        assert result.cycles > 1
        assert quarantined_files(tmp_path)

    def test_non_object_payload_quarantined(self, tmp_path, caplog):
        common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        (tmp_path / path).write_text("[1, 2, 3]")
        common.clear_cache()

        with caplog.at_level(logging.WARNING, logger="repro.sim.store"):
            result = common.run_app(APP, table1_config(), SCALE)

        assert result.cycles > 0
        assert quarantined_files(tmp_path)


class TestSchemaVersioning:
    def test_version_tag_mismatch_triggers_resimulation(self, tmp_path, caplog):
        first = common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        payload = json.loads((tmp_path / path).read_text())
        payload["schema"] = "repro-simresult-v0"
        payload["cycles"] = 123456789  # poison: must NOT be returned
        (tmp_path / path).write_text(json.dumps(payload))
        common.clear_cache()

        with caplog.at_level(logging.WARNING, logger="repro.sim.store"):
            second = common.run_app(APP, table1_config(), SCALE)

        assert second.cycles == first.cycles
        assert any("schema" in record.message for record in caplog.records)
        # Stale file overwritten in place (no quarantine needed for stale).
        (path,) = cache_files(tmp_path)
        refreshed = json.loads((tmp_path / path).read_text())
        assert refreshed["schema"] == common.CACHE_SCHEMA

    def test_legacy_untagged_payload_resimulated(self, tmp_path):
        # Pre-hardening payloads had no schema tag at all.
        first = common.run_app(APP, table1_config(), SCALE)
        (path,) = cache_files(tmp_path)
        payload = json.loads((tmp_path / path).read_text())
        del payload["schema"]
        payload["cycles"] = 1
        (tmp_path / path).write_text(json.dumps(payload))
        common.clear_cache()

        second = common.run_app(APP, table1_config(), SCALE)
        assert second.cycles == first.cycles

    def test_round_trip_serialization_is_lossless(self):
        result = common.run_app(APP, table1_config(), SCALE)
        clone = common.deserialize_result(common.serialize_result(result))
        assert common.result_fingerprint(clone) == common.result_fingerprint(result)


class TestConcurrentWriters:
    def test_concurrent_writers_leave_single_valid_file(self, tmp_path):
        result = common.simulate(APP, table1_config(), SCALE)
        key = common.cache_key(APP, table1_config(), SCALE)
        store = common.default_store()
        errors = []

        def writer():
            try:
                for _ in range(25):
                    store.store(key, result)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(cache_files(tmp_path)) == 1
        # No orphaned temp files left behind by the atomic-replace dance.
        assert not _walk_suffix(tmp_path, ".tmp")
        loaded = store.load(key)
        assert loaded is not None
        assert common.result_fingerprint(loaded) == common.result_fingerprint(result)

    def test_store_is_atomic_under_reader(self, tmp_path):
        """A reader never observes a half-written payload."""

        result = common.simulate(APP, table1_config(), SCALE)
        key = common.cache_key(APP, table1_config(), SCALE)
        store = common.default_store()
        store.store(key, result)
        stop = threading.Event()
        bad = []

        def reader():
            while not stop.is_set():
                loaded = store.load(key)
                if loaded is None or loaded.cycles != result.cycles:
                    bad.append(loaded)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        for _ in range(200):
            store.store(key, result)
        stop.set()
        thread.join()
        assert not bad

    def test_no_disk_cache_dir_is_noop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        assert common.default_store() is None
        # A cached run must not raise or create anything on disk.
        common.run_app(APP, table1_config(), SCALE)
        assert os.listdir(tmp_path) == []
