"""Translation request coalescing.

The paper's gem5 model "accurately models L1/L2 TLB coalescers" (Section 5):
lane accesses within a SIMD instruction targeting the same page are merged
before reaching the L1 TLB, and translation misses to a page that already has
a walk (or victim-cache lookup) in flight are merged onto that in-flight
request rather than issuing a duplicate.

- :class:`AccessCoalescer` performs the intra-instruction merge.
- :class:`InFlightTable` is the MSHR-like inter-instruction merge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim.stats import Stats


class AccessCoalescer:
    """Merges per-lane page accesses within one SIMT memory instruction."""

    def __init__(self, stats: Optional[Stats] = None, name: str = "coalescer") -> None:
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._counters = self.stats.counters
        self._raw_key = f"{name}.raw_accesses"
        self._coalesced_key = f"{name}.coalesced_accesses"
        self._merged_key = f"{name}.merged"

    def coalesce(self, vpns: Iterable[int]) -> List[int]:
        """Unique pages touched, in first-touch order."""

        materialized = vpns if isinstance(vpns, (list, tuple)) else list(vpns)
        # dict.fromkeys keeps the first occurrence of each page, in order.
        unique = list(dict.fromkeys(materialized))
        raw = len(materialized)
        count = len(unique)
        counters = self._counters
        counters[self._raw_key] += raw
        counters[self._coalesced_key] += count
        if raw > count:
            counters[self._merged_key] += raw - count
        return unique


class InFlightTable:
    """Tracks translation requests currently being resolved.

    A lookup that finds its key in flight returns the in-flight completion
    time instead of issuing a duplicate walk. Entries whose completion time
    has passed are pruned lazily.
    """

    def __init__(
        self,
        stats: Optional[Stats] = None,
        name: str = "tx_mshr",
        prune_interval: int = 256,
    ) -> None:
        self.stats = stats if stats is not None else Stats()
        self.name = name
        self._counters = self.stats.counters
        self._merges_key = f"{name}.merges"
        self._registered_key = f"{name}.registered"
        self._in_flight: Dict[Tuple, int] = {}
        self._ops_since_prune = 0
        self._prune_interval = prune_interval

    def __len__(self) -> int:
        return len(self._in_flight)

    def check(self, key: tuple, now: int) -> Optional[int]:
        """If ``key`` resolves in the future, return its completion time."""

        done_at = self._in_flight.get(key)
        if done_at is not None and done_at > now:
            self._counters[self._merges_key] += 1
            return done_at
        return None

    def register(self, key: tuple, completes_at: int, now: Optional[int] = None) -> None:
        self._in_flight[key] = completes_at
        self._counters[self._registered_key] += 1
        self._ops_since_prune += 1
        if self._ops_since_prune >= self._prune_interval:
            self.prune(now if now is not None else completes_at)

    def prune(self, now: int) -> None:
        """Drop entries that completed long enough ago to be irrelevant."""

        self._ops_since_prune = 0
        stale = [key for key, done in self._in_flight.items() if done <= now]
        # Keep the table bounded without walking it on every access.
        if len(stale) > len(self._in_flight) // 2 or len(self._in_flight) > 4096:
            for key in stale:
                del self._in_flight[key]
