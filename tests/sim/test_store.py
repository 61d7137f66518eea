"""Tests for the content-addressed shared result store.

The store is the single cache implementation behind
``repro.experiments.common`` and every executor backend, so these tests
pin its contracts directly: the sharded layout, crash durability (a
killed writer can orphan a temp file but never publish a truncated
entry), the two-process quarantine race, garbage collection,
verification, the one entry classification that load, gc and verify
share, and the process-wide counters.
"""

import json
import multiprocessing
import os

import pytest

from repro.config import table1_config
from repro.experiments import common
from repro.sim import store as store_mod
from repro.sim.store import ResultStore, key_digest

SCALE = 0.05
APP = "GUPS"


@pytest.fixture(autouse=True)
def _fresh_counters():
    store_mod.reset_counters()
    yield
    store_mod.reset_counters()


@pytest.fixture()
def result():
    return common.simulate(APP, table1_config(), SCALE)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(str(tmp_path))


KEY = common.cache_key(APP, table1_config(), SCALE)


def entry_files(root):
    found = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            found.append(os.path.join(dirpath, name))
    return sorted(found)


class TestLayout:
    def test_empty_root_rejected(self):
        with pytest.raises(ValueError):
            ResultStore("")

    def test_sharded_path_shape(self, store):
        digest = key_digest(KEY)
        path = store.path_for(KEY)
        assert path == os.path.join(
            store.root, digest[:2], digest[2:4], f"{digest}.json"
        )

    def test_store_then_load_round_trips(self, store, result):
        store.store(KEY, result)
        assert os.path.exists(store.path_for(KEY))
        loaded = store.load(KEY)
        assert common.result_fingerprint(loaded) == common.result_fingerprint(result)

    def test_digest_unchanged_from_flat_layout(self):
        # The content address every existing store was written under: a
        # changed digest would orphan every warm entry.
        assert key_digest("GUPS|0.05|0123456789abcdef") == "74fd6c62bdfce3ee1ac5110d"

    def test_missing_entry_is_a_miss(self, store):
        assert store.load(KEY) is None
        assert store_mod.counters_snapshot()["misses"] == 1


class TestDurability:
    def test_fsync_before_publish(self, store, result, monkeypatch):
        """The temp file must hit the disk before the rename publishes it;
        otherwise a crash after the rename could expose a truncated entry."""

        order = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (order.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (order.append("replace"), real_replace(a, b))[1],
        )

        store.store(KEY, result)

        assert "fsync" in order and "replace" in order
        assert order.index("fsync") < order.index("replace")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_writer_killed_mid_store_leaves_no_partial_entry(
        self, store, result
    ):
        """Kill a writer between writing bytes and publishing: readers see
        a clean miss (never a truncated entry) and gc reaps the orphan."""

        child = os.fork()
        if child == 0:  # pragma: no cover - exits before coverage reports
            # Die at the publish step: bytes are in the temp file, the
            # atomic replace never happens.
            os.replace = lambda *a, **k: os._exit(1)
            try:
                store.store(KEY, result)
            finally:
                os._exit(1)
        _, status = os.waitpid(child, 0)
        assert os.waitstatus_to_exitcode(status) == 1

        assert store.load(KEY) is None  # a miss, not garbage
        tmp_files, _ = store.scan_debris()
        assert len(tmp_files) == 1  # the orphan is visible debris...
        removed = store.gc(tmp_grace_s=0.0)
        assert removed["tmp"] == 1  # ...and gc reaps it
        assert not entry_files(store.root)

    def test_failed_write_cleans_its_temp_file(self, store):
        class Unserializable:
            pass

        with pytest.raises(Exception):
            store.store(KEY, Unserializable())
        tmp_files, _ = store.scan_debris()
        assert not tmp_files


def _quarantine_racer(root, path, barrier, errors):
    try:
        barrier.wait(timeout=30)
        ResultStore(root).quarantine(path, "corrupt (race test)")
    except Exception as exc:  # pragma: no cover - failure path
        errors.put(repr(exc))


class TestQuarantineRace:
    def test_two_processes_quarantine_same_file_once(self, store, result):
        """Regression: two processes racing to quarantine the same corrupt
        entry must both survive, and exactly one quarantined copy remains
        (the loser of the rename stands down on FileNotFoundError)."""

        store.store(KEY, result)
        path = store.path_for(KEY)
        with open(path, "w") as handle:
            handle.write("{broken json")

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        errors = context.Queue()
        racers = [
            context.Process(
                target=_quarantine_racer,
                args=(store.root, path, barrier, errors),
            )
            for _ in range(2)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=60)

        assert all(racer.exitcode == 0 for racer in racers)
        assert errors.empty()
        assert not os.path.exists(path)
        _, corrupt = store.scan_debris()
        assert len(corrupt) == 1

    def test_quarantine_names_never_collide_in_process(self, store, result):
        store.store(KEY, result)
        path = store.path_for(KEY)
        store.quarantine(path, "corrupt (first)")
        store.store(KEY, result)
        store.quarantine(path, "corrupt (second)")
        _, corrupt = store.scan_debris()
        assert len(corrupt) == 2
        assert len(set(corrupt)) == 2

    def test_quarantine_missing_file_stands_down(self, store):
        store.quarantine(os.path.join(store.root, "nope.json"), "corrupt")
        assert store_mod.counters_snapshot()["quarantined"] == 0


class TestGc:
    def test_gc_reaps_debris_and_prunes_empty_shards(self, store, result):
        store.store(KEY, result)
        path = store.path_for(KEY)
        with open(path, "w") as handle:
            handle.write("{broken")
        store.load(KEY)  # quarantines the corrupt entry
        with open(os.path.join(store.root, "orphan.json.tmp"), "w") as handle:
            handle.write("partial")

        removed = store.gc(tmp_grace_s=0.0)

        assert removed["tmp"] == 1
        assert removed["corrupt"] == 1
        assert removed["dirs"] == 2  # the entry's two empty shard levels
        assert not entry_files(store.root)

    def test_gc_dry_run_removes_nothing(self, store, result):
        store.store(KEY, result)
        path = store.path_for(KEY)
        with open(path, "w") as handle:
            handle.write("{broken")
        store.load(KEY)

        removed = store.gc(tmp_grace_s=0.0, dry_run=True)

        assert removed["corrupt"] == 1 and removed["dry_run"]
        _, corrupt = store.scan_debris()
        assert len(corrupt) == 1  # still there

    def test_gc_evicts_stale_schema_entries(self, store, result):
        store.store(KEY, result)
        path = store.path_for(KEY)
        payload = json.loads(open(path).read())
        payload["schema"] = "repro-simresult-v0"
        with open(path, "w") as handle:
            json.dump(payload, handle)

        removed = store.gc()

        assert removed["stale"] == 1
        assert store_mod.counters_snapshot()["evicted"] == 1

    def test_gc_age_expiry(self, store, result):
        store.store(KEY, result)
        assert store.gc(max_age_s=0.0)["expired"] == 1
        store.store(KEY, result)
        assert store.gc(max_age_s=3600.0)["expired"] == 0

    def test_fresh_tmp_files_survive_the_grace_period(self, store, result):
        store.store(KEY, result)
        with open(os.path.join(store.root, "live.json.tmp"), "w") as handle:
            handle.write("in-flight write")
        assert store.gc()["tmp"] == 0  # default grace is an hour


class TestVerify:
    def test_verify_clean_store(self, store, result):
        store.store(KEY, result)
        outcome = store.verify()
        assert outcome["checked"] == 1 and outcome["ok"] == 1
        assert not outcome["stale"] and not outcome["corrupt"]

    def test_verify_flags_corrupt_and_stale(self, store, result):
        store.store(KEY, result)
        path = store.path_for(KEY)
        with open(path, "w") as handle:
            handle.write("{broken")
        stale_path = os.path.join(store.root, "aa", "bb", "a" * 24 + ".json")
        os.makedirs(os.path.dirname(stale_path))
        with open(stale_path, "w") as handle:
            json.dump({"schema": "repro-simresult-v0"}, handle)

        outcome = store.verify()

        assert outcome["checked"] == 2 and outcome["ok"] == 0
        assert outcome["corrupt"] == [path]
        assert outcome["stale"] == [stale_path]

    def test_verify_fingerprints_are_sorted_and_diffable(
        self, store, tmp_path_factory, result
    ):
        # Two stores with the same results must emit identical
        # fingerprint lists — this is the CI byte-compare primitive.
        other = ResultStore(str(tmp_path_factory.mktemp("other-store")))
        second_key = common.cache_key("ATAX", table1_config(), SCALE)
        second = common.simulate("ATAX", table1_config(), SCALE)
        for target in (store, other):
            target.store(KEY, result)
            target.store(second_key, second)

        mine = store.verify(fingerprints=True)["fingerprints"]
        theirs = other.verify(fingerprints=True)["fingerprints"]

        assert mine == theirs
        assert mine == sorted(mine)
        assert len(mine) == 2


#: Damaged entry text made from a valid entry's text, and the class that
#: load, gc and verify must all give it.
PLANTED = {
    "truncated-json": (lambda text: text[: len(text) // 2], "corrupt"),
    "json-array": (lambda text: "[1, 2, 3]", "corrupt"),
    "other-schema": (
        lambda text: json.dumps(dict(json.loads(text), schema="repro-simresult-v0")),
        "stale",
    ),
    "current-schema-no-cycles": (
        lambda text: json.dumps(
            {k: v for k, v in json.loads(text).items() if k != "cycles"}
        ),
        "corrupt",
    ),
    "current-schema-list-distributions": (
        lambda text: json.dumps(dict(json.loads(text), distributions=[])),
        "corrupt",
    ),
}


class TestOneClassification:
    """load, gc and verify agree on what a stored entry is."""

    @pytest.fixture(params=sorted(PLANTED))
    def planted(self, request, store, result):
        make_text, expected = PLANTED[request.param]
        store.store(KEY, result)
        path = store.path_for(KEY)
        with open(path) as handle:
            text = handle.read()
        with open(path, "w") as handle:
            handle.write(make_text(text))
        return path, expected

    def test_verify_lists_what_gc_removes(self, store, planted):
        path, expected = planted
        outcome = store.verify()
        assert outcome["ok"] == 0
        assert outcome[expected] == [path]

        removed = store.gc()

        assert removed[expected] == 1
        assert sum(removed[bucket] for bucket in ("stale", "corrupt", "expired")) == 1
        assert not os.path.exists(path)
        after = store.verify()
        assert after["checked"] == 0 and not after["stale"] and not after["corrupt"]

    def test_load_misses_and_quarantines_only_corrupt(self, store, planted):
        path, expected = planted

        assert store.load(KEY) is None

        counters = store_mod.counters_snapshot()
        _, quarantined = store.scan_debris()
        assert counters["misses"] == 1 and counters["hits"] == 0
        if expected == "corrupt":
            assert len(quarantined) == 1 and counters["quarantined"] == 1
            assert not os.path.exists(path)
        else:
            assert not quarantined and counters["stale"] == 1
            assert os.path.exists(path)


#: Where a stored entry is moved to, outside the sharded path of its name.
MISPLACED = {
    "root": lambda name: name,
    "wrong-shard": lambda name: os.path.join("ff", "ff", name),
}


class TestMisplacedEntry:
    """A file outside the sharded layout is never read by ``load``, so
    stats, verify and gc must not count it as an entry either."""

    @pytest.mark.parametrize("where", sorted(MISPLACED))
    def test_misplaced_file_is_stale(self, store, result, where):
        store.store(KEY, result)
        name = os.path.basename(store.path_for(KEY))
        assert not name.startswith("ffff")
        moved = os.path.join(store.root, MISPLACED[where](name))
        os.makedirs(os.path.dirname(moved), exist_ok=True)
        os.replace(store.path_for(KEY), moved)

        assert store.stats()["entries"] == 0
        outcome = store.verify()
        assert outcome["ok"] == 0 and outcome["stale"] == [moved]
        assert store.load(KEY) is None

        removed = store.gc()

        assert removed["stale"] == 1
        assert not os.path.exists(moved)
        assert store.verify()["checked"] == 0


class TestCounters:
    def test_load_store_counters(self, store, result):
        store.load(KEY)
        store.store(KEY, result)
        store.load(KEY)
        counters = store_mod.counters_snapshot()
        assert counters["misses"] == 1
        assert counters["stores"] == 1
        assert counters["hits"] == 1

    def test_counters_delta(self, store, result):
        before = store_mod.counters_snapshot()
        store.store(KEY, result)
        store.load(KEY)
        delta = store_mod.counters_delta(before)
        assert delta["stores"] == 1 and delta["hits"] == 1
        assert delta["misses"] == 0

    def test_stats_shape(self, store, result):
        store.store(KEY, result)
        stats = store.stats()
        assert stats["entries"] == 1
        assert stats["total_bytes"] > 0
        # The scanning process's own counters say nothing about the store.
        assert "counters" not in stats
