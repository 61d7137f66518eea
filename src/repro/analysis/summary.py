"""SimResult comparison: which counters a scheme changed.

Speedups and their gmeans come from :class:`repro.experiments.common.Cells`
and ``repro compare``; :func:`counter_diff` answers "what did the scheme
change?" counter by counter.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.sim.results import SimResult


def counter_diff(
    before: SimResult,
    after: SimResult,
    prefixes: Optional[Iterable[str]] = None,
    min_relative_change: float = 0.01,
) -> List[Tuple[str, float, float, float]]:
    """Counters that changed between two results.

    Returns (name, before, after, relative_change) sorted by magnitude of
    relative change, filtered to ``prefixes`` when given.
    """

    names = set(before.counters) | set(after.counters)
    if prefixes is not None:
        prefixes = tuple(prefixes)
        names = {n for n in names if n.startswith(prefixes)}
    diffs = []
    for name in names:
        old = before.counters.get(name, 0.0)
        new = after.counters.get(name, 0.0)
        base = max(abs(old), abs(new), 1e-12)
        change = (new - old) / base
        if abs(change) >= min_relative_change:
            diffs.append((name, old, new, change))
    diffs.sort(key=lambda item: -abs(item[3]))
    return diffs
