"""Statistics collection.

Three primitives cover everything the paper reports:

- :class:`Stats`: a named bag of integer/float counters with hierarchical
  dotted names ("l1_tlb.hits"), supporting snapshots and deltas so the same
  counters can be reported per kernel and for the whole application.
- :class:`Distribution`: an online sample collector that produces the
  box-and-whisker statistics used by Figures 4 and 5 (min, max, quartiles,
  mean).
- :class:`PortIdleTracker`: records gaps between consecutive accesses to a
  port, the "idle cycles at each port" metric of Figures 4b and 5b.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


class Stats:
    """A bag of named counters.

    ``counters`` is the underlying ``defaultdict(float)``. Per-op hot paths
    build their counter names once, at construction, and increment
    ``counters[name]`` directly; :meth:`add` is for everything else.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def set(self, name: str, value: float) -> None:
        self.counters[name] = value

    def get(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def __getitem__(self, name: str) -> float:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.counters

    def names(self) -> List[str]:
        return sorted(self.counters)

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counters)

    def delta_since(self, snapshot: Dict[str, float]) -> Dict[str, float]:
        """Counters accumulated since ``snapshot`` (zero entries omitted)."""

        out = {}
        for name, value in self.counters.items():
            diff = value - snapshot.get(name, 0.0)
            if diff:
                out[name] = diff
        return out

    def merge(self, other: "Stats") -> None:
        for name, value in other.counters.items():
            self.counters[name] += value

    def ratio(self, numerator: str, denominator: str) -> float:
        """Safe ratio of two counters; 0.0 when the denominator is zero."""

        denom = self.get(denominator)
        if denom == 0:
            return 0.0
        return self.get(numerator) / denom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self.counters.items()))
        return f"Stats({body})"


@dataclass(frozen=True)
class BoxStats:
    """Box-and-whisker summary of a sample set (Figures 4a, 4b, 5a, 5b)."""

    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    mean: float

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def _percentile(sorted_samples: List[float], fraction: float) -> float:
    """Linear-interpolation percentile on a pre-sorted sample list."""

    if not sorted_samples:
        raise ValueError("no samples")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = fraction * (len(sorted_samples) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_samples) - 1)
    weight = rank - low
    low_value = sorted_samples[low]
    # Formulated as base + scaled difference so subnormal samples do not
    # underflow to zero when multiplied by the interpolation weights.
    return low_value + (sorted_samples[high] - low_value) * weight


class Distribution:
    """Online sample collector producing :class:`BoxStats`."""

    def __init__(self, max_samples: int = 200_000) -> None:
        self._samples: List[float] = []
        self._max_samples = max_samples
        self._overflow_count = 0
        self._total = 0.0
        self._count = 0

    def add(self, value: float) -> None:
        self._count += 1
        self._total += value
        if len(self._samples) < self._max_samples:
            self._samples.append(value)
        else:
            # Reservoir-free decimation: drop every other retained sample
            # once full. Exact quantiles are not needed for box plots.
            self._overflow_count += 1
            if self._overflow_count % 2 == 0:
                index = (self._overflow_count // 2) % self._max_samples
                self._samples[index] = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def box_stats(self) -> Optional[BoxStats]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        # The running-sum mean can round one ULP past the extremes (and
        # under decimation the exact mean may fall outside the retained
        # samples' range); a box summary must stay internally ordered.
        mean = min(max(self.mean, ordered[0]), ordered[-1])
        return BoxStats(
            count=self._count,
            minimum=ordered[0],
            q1=_percentile(ordered, 0.25),
            median=_percentile(ordered, 0.50),
            q3=_percentile(ordered, 0.75),
            maximum=ordered[-1],
            mean=mean,
        )


class PortIdleTracker:
    """Tracks the distribution of idle gaps between accesses to a port.

    Same-cycle back-to-back accesses are a real zero-idle gap and are
    recorded as 0 (silently dropping them biased the Figure 4b/5b idle
    distributions upward). A time-regressing access cannot yield a
    meaningful gap: it is clamped — not recorded, clock unchanged — and
    counted in :attr:`regressions` so a misbehaving caller is visible.
    """

    def __init__(self) -> None:
        self._last_access: Optional[int] = None
        self.gaps = Distribution()
        self.accesses = 0
        self.regressions = 0

    def record_access(self, cycle: int) -> None:
        self.accesses += 1
        if self._last_access is None:
            self._last_access = cycle
            return
        if cycle < self._last_access:
            self.regressions += 1
            return
        self.gaps.add(cycle - self._last_access)
        self._last_access = cycle

    def box_stats(self) -> Optional[BoxStats]:
        return self.gaps.box_stats()
