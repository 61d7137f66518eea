"""Content-addressed shared result store.

Simulation results are cached on disk keyed by the experiment cache key
(:func:`repro.experiments.common.cache_key`), addressed by content
identity: the file name is the sha256 digest of the key, so any sweep
runner, service or host that runs the same ``(app, config, scale)``
simulation reads and writes the same entry.

Layout: a sharded two-level directory tree,

    <root>/<digest[:2]>/<digest[2:4]>/<digest>.json

which keeps directory fan-out bounded when millions of entries share one
store (a flat directory degrades most filesystems long before that).

One reader decides what a stored entry is: ok (with its result),
missing, stale (another schema tag, or a file outside the sharded
layout, which :meth:`ResultStore.load` never reads) or corrupt.
:meth:`ResultStore.load`, :meth:`ResultStore.gc` and
:meth:`ResultStore.verify` all classify through it, so they never
disagree about an entry.

Durability and concurrency, which many writers on many hosts require:

- Writes go to a private temp file that is flushed and fsynced *before*
  the atomic ``os.replace`` publishes it (plus a best-effort fsync of the
  shard directory), so a crash mid-store can orphan a ``.tmp`` file but
  never publish a truncated entry.
- Bad entries are quarantined under a unique ``.<pid>-<seq>.corrupt``
  suffix; two processes racing to quarantine the same entry cannot
  collide, and the loser tolerates the winner having already moved it.
- Module-wide hit/miss/store/quarantine/evict counters (thread-safe, one
  set per process) count what this process did. A sweep's runner is the
  only process that reads or writes the store for its run, so
  ``SweepReport.store`` and the service's ``/healthz`` report them.

``repro cache {stats,gc,verify}`` exposes :meth:`ResultStore.stats`,
:meth:`ResultStore.gc` (orphaned temp files, quarantined debris, stale
and corrupt entries, optional age expiry) and :meth:`ResultStore.verify`
(full scan with optional per-entry fingerprints for byte-identity
comparisons).

The (de)serialization of entries stays in :mod:`repro.experiments.common`
(``serialize_result`` / ``deserialize_result`` / ``CACHE_SCHEMA``) and is
imported lazily here; ``common`` imports this module at top level.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
import time
from itertools import count as _counter
from typing import Dict, Iterator, List, Optional, Tuple

_LOG = logging.getLogger("repro.sim.store")

#: Counter names tracked per process (all store roots combined).
COUNTER_NAMES = ("hits", "misses", "stale", "stores", "quarantined", "evicted")

#: The classes :meth:`ResultStore._read` sorts an entry into.
OK, MISSING, STALE, CORRUPT = "ok", "missing", "stale", "corrupt"

_COUNTER_LOCK = threading.Lock()
_COUNTERS: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}

#: Monotonic per-process sequence making quarantine file names unique.
_QUARANTINE_SEQ = _counter(1)


def _count(name: str, amount: int = 1) -> None:
    with _COUNTER_LOCK:
        _COUNTERS[name] += amount


def counters_snapshot() -> Dict[str, int]:
    """A point-in-time copy of the process-wide store counters."""

    with _COUNTER_LOCK:
        return dict(_COUNTERS)


def counters_delta(before: Dict[str, int]) -> Dict[str, int]:
    """Counter increments since ``before`` (a :func:`counters_snapshot`)."""

    after = counters_snapshot()
    return {name: after[name] - before.get(name, 0) for name in COUNTER_NAMES}


def reset_counters() -> None:
    """Zero the process-wide counters (test isolation)."""

    with _COUNTER_LOCK:
        for name in COUNTER_NAMES:
            _COUNTERS[name] = 0


def key_digest(key: str) -> str:
    """The content address of one cache key (24 hex chars of sha256):
    the entry's file name, and its first four hex chars its shard."""

    return hashlib.sha256(key.encode()).hexdigest()[:24]


def _fsync_dir(path: str) -> None:
    # Durability of the rename itself; best-effort because not every
    # platform/filesystem allows opening a directory for fsync.
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class ResultStore:
    """One on-disk result store rooted at ``root``.

    Construction is cheap (no I/O); every method tolerates the root not
    existing yet. All processes sharing ``root`` — sweeps, services,
    ``repro cache`` — interoperate through atomic renames only.
    """

    def __init__(self, root: str) -> None:
        if not root:
            raise ValueError("ResultStore needs a non-empty root directory")
        self.root = root

    # -- paths -------------------------------------------------------------

    def path_for(self, key: str) -> str:
        return self._sharded(f"{key_digest(key)}.json")

    def _sharded(self, name: str) -> str:
        return os.path.join(self.root, name[:2], name[2:4], name)

    def _in_layout(self, path: str) -> bool:
        """Whether ``path`` sits at the sharded path of its own file name."""

        return path == self._sharded(os.path.basename(path))

    # -- read / write ------------------------------------------------------

    def load(self, key: str):
        """The stored :class:`~repro.sim.results.SimResult` for ``key``,
        or ``None`` (absent, stale schema, or quarantined-as-corrupt)."""

        path = self.path_for(key)
        status, value = self._read(path)
        if status == OK:
            _count("hits")
            return value
        if status == STALE:
            # Re-simulate and let the fresh result overwrite it in place.
            _LOG.warning("cache file %s has %s; re-simulating", path, value)
            _count("stale")
        elif status == CORRUPT:
            self.quarantine(path, f"corrupt ({value})")
        _count("misses")
        return None

    def _read(self, path: str) -> Tuple[str, object]:
        """Open the entry at ``path`` and classify it.

        Returns ``(OK, result)``; ``(MISSING, None)`` when there is no
        such file (or a concurrent quarantine or gc took it first);
        ``(STALE, why)`` for a file outside the sharded layout or another
        schema tag, including none; or ``(CORRUPT, why)`` for unreadable
        bytes, invalid JSON, a non-object, or the current tag over
        malformed fields.
        """

        # Imported per call, not at module level: ``common`` imports this
        # module, and a wrapper installed on ``deserialize_result`` (the
        # perfbench trace) must see every read.
        from repro.experiments.common import CACHE_SCHEMA, deserialize_result

        if not self._in_layout(path):
            return STALE, "a file outside the sharded layout"
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return MISSING, None
        except (OSError, ValueError):
            return CORRUPT, "unreadable or invalid JSON"
        if not isinstance(payload, dict):
            return CORRUPT, "not a JSON object"
        schema = payload.get("schema")
        if schema != CACHE_SCHEMA:
            return STALE, f"schema {schema!r} (want {CACHE_SCHEMA!r})"
        try:
            return OK, deserialize_result(payload)
        except (AttributeError, KeyError, TypeError):
            return CORRUPT, "schema tag valid but fields malformed"

    def store(self, key: str, result) -> None:
        """Durably publish ``result`` under ``key`` (atomic overwrite)."""

        from repro.experiments.common import serialize_result

        path = self.path_for(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        # Concurrent writers (two sweeps or services on one root) may
        # store the same key at once: write to a private temp file, fsync
        # it, and atomically replace — readers only ever observe complete
        # payloads, the last writer wins with a fully valid file, and a
        # crash mid-write can orphan a .tmp but never truncate the entry.
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(serialize_result(result), handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        _fsync_dir(directory)
        _count("stores")

    def quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside so it is kept for debugging but never
        consulted (or silently overwritten) again.

        The quarantined name carries a ``<pid>-<seq>`` suffix so that two
        processes racing to quarantine the same entry cannot collide on
        one destination; the loser of the ``os.replace`` race observes
        ``FileNotFoundError`` and simply stands down.
        """

        quarantined = f"{path}.{os.getpid()}-{next(_QUARANTINE_SEQ)}.corrupt"
        try:
            os.replace(path, quarantined)
        except FileNotFoundError:
            # The other racer already quarantined (or gc removed) it.
            _LOG.debug("cache file %s was %s; another process quarantined it first", path, reason)
            return
        except OSError:
            _LOG.warning("cache file %s is %s and could not be quarantined", path, reason)
            return
        _count("quarantined")
        _LOG.warning(
            "cache file %s is %s; quarantined to %s and re-simulating",
            path,
            reason,
            quarantined,
        )

    # -- maintenance (repro cache {stats,gc,verify}) -----------------------

    def _walk(self) -> Iterator[Tuple[str, List[str]]]:
        if not os.path.isdir(self.root):
            return
        for dirpath, _dirnames, filenames in os.walk(self.root):
            yield dirpath, filenames

    def scan(self) -> Iterator[str]:
        """Paths of every published entry (``.json`` files anywhere under
        the root, sorted within each directory)."""

        for dirpath, filenames in self._walk():
            for name in sorted(filenames):
                if name.endswith(".json"):
                    yield os.path.join(dirpath, name)

    def scan_debris(self) -> Tuple[List[str], List[str]]:
        """(orphaned ``.tmp`` files, quarantined ``.corrupt`` files)."""

        tmp_files: List[str] = []
        corrupt: List[str] = []
        for dirpath, filenames in self._walk():
            for name in sorted(filenames):
                if name.endswith(".tmp"):
                    tmp_files.append(os.path.join(dirpath, name))
                elif name.endswith(".corrupt"):
                    corrupt.append(os.path.join(dirpath, name))
        return tmp_files, corrupt

    def stats(self) -> Dict:
        """Scan-based shape of the store: entries in the sharded layout,
        their bytes, and the debris :meth:`gc` would consider."""

        entries = 0
        total_bytes = 0
        for path in self.scan():
            if not self._in_layout(path):
                continue
            entries += 1
            try:
                total_bytes += os.path.getsize(path)
            except OSError:
                pass
        tmp_files, corrupt = self.scan_debris()
        return {
            "root": self.root,
            "entries": entries,
            "total_bytes": total_bytes,
            "tmp_files": len(tmp_files),
            "quarantined_files": len(corrupt),
        }

    def gc(
        self,
        max_age_s: Optional[float] = None,
        tmp_grace_s: float = 3600.0,
        dry_run: bool = False,
    ) -> Dict:
        """Sweep debris: orphaned temp files older than ``tmp_grace_s``
        (a live writer holds its temp file for milliseconds), quarantined
        ``.corrupt`` files, entries :meth:`_read` calls stale or corrupt
        (counted under those buckets), and — when ``max_age_s`` is given —
        ok entries older than that. Empty shard directories are pruned.
        Returns what was (or would be, with ``dry_run``) removed.
        """

        now = time.time()
        removed = {"tmp": 0, "corrupt": 0, "stale": 0, "expired": 0, "dirs": 0}

        def _remove(path: str, bucket: str) -> None:
            if not dry_run:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    return
                except OSError:
                    _LOG.warning("cache gc could not remove %s", path)
                    return
            removed[bucket] += 1

        tmp_files, corrupt = self.scan_debris()
        for path in tmp_files:
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue
            if age >= tmp_grace_s:
                _remove(path, "tmp")
        for path in corrupt:
            _remove(path, "corrupt")
        for path in self.scan():
            status, _ = self._read(path)
            if status in (STALE, CORRUPT):
                _remove(path, status)
                continue
            if status == OK and max_age_s is not None:
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age >= max_age_s:
                    _remove(path, "expired")
        if not dry_run and os.path.isdir(self.root):
            # Bottom-up so emptied leaf shards expose empty parents;
            # rmdir itself is the emptiness check (it fails on non-empty
            # dirs, and the walk's cached listings are already stale).
            for dirpath, _dirnames, _filenames in os.walk(self.root, topdown=False):
                if dirpath == self.root:
                    continue
                try:
                    os.rmdir(dirpath)
                    removed["dirs"] += 1
                except OSError:
                    pass
        evicted = removed["corrupt"] + removed["stale"] + removed["expired"]
        if evicted and not dry_run:
            _count("evicted", evicted)
        removed["dry_run"] = dry_run
        return removed

    def verify(self, fingerprints: bool = False) -> Dict:
        """Scan and validate every entry; optionally compute per-entry
        result fingerprints (sorted by digest) for byte-identity
        comparisons between two stores (the CI remote-executor smoke
        diffs these between a remote-run and a serial-run store)."""

        from repro.experiments.common import result_fingerprint

        checked = 0
        ok = 0
        listed: Dict[str, List[str]] = {STALE: [], CORRUPT: []}
        prints: List[Tuple[str, str]] = []
        for path in self.scan():
            status, value = self._read(path)
            if status == MISSING:
                continue
            checked += 1
            if status != OK:
                listed[status].append(path)
                continue
            ok += 1
            if fingerprints:
                digest = os.path.basename(path)[: -len(".json")]
                prints.append((digest, result_fingerprint(value)))
        report: Dict = {
            "root": self.root,
            "checked": checked,
            "ok": ok,
            "stale": sorted(listed[STALE]),
            "corrupt": sorted(listed[CORRUPT]),
        }
        if fingerprints:
            report["fingerprints"] = sorted(prints)
        return report
