"""Hot-path specializations checked against the loops they replaced.

Each per-op specialization of the simulator must compute exactly what the
straightforward code it replaced computed. The old loops live on here as
references:

- ``WaveScheduler.run`` (one ``heapreplace`` per continuing wave) against
  the pop-then-push loop, on generated schedules in which steps also add
  waves mid-step, at, after and before the current time;
- ``AccessCoalescer.coalesce`` (``dict.fromkeys``) against the dict loop;
- ``PageTable.walk_addresses`` (memoized table-page placement) against the
  unmemoized formula.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pagetable.page_table import _LEVEL_BITS, _PT_REGION_BASE, PageTable
from repro.sim.engine import WaveScheduler
from repro.sim.stats import Stats
from repro.tlb.coalescer import AccessCoalescer

# -- WaveScheduler -------------------------------------------------------------


class PopPushScheduler(WaveScheduler):
    """The scheduler loop before the ``heapreplace`` specialization."""

    def run(self) -> int:
        final = self.now
        while self._heap:
            time, _, payload, step = heapq.heappop(self._heap)
            if time > self.now:
                self.now = time
            next_time = step(payload, time)
            if next_time is None:
                if time > final:
                    final = time
            else:
                if next_time < time:
                    next_time = time
                self.add(next_time, payload, step)
        if self.now > final:
            final = self.now
        return final


#: One step of a wave: the delay to its next step (negative delays test
#: the scheduler's clamp) and optionally a wave to add mid-step, as
#: (offset from the current time, index of its script).
_steps = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=12),
        st.none() | st.tuples(st.integers(min_value=-6, max_value=8),
                              st.integers(min_value=0, max_value=7)),
    ),
    max_size=8,
)
_schedules = st.tuples(
    st.lists(_steps, min_size=1, max_size=8),  # scripts
    st.lists(  # initial waves: (start time, script index)
        st.tuples(st.integers(min_value=0, max_value=20),
                  st.integers(min_value=0, max_value=7)),
        min_size=1, max_size=12,
    ),
    st.integers(min_value=0, max_value=5),  # scheduler.now at start
)


def _replay(scheduler_cls, scripts, initial, start) -> Tuple[List, int, int]:
    """Run a schedule; returns (step log, final time, scheduler.now)."""

    scheduler = scheduler_cls()
    scheduler.now = start
    log = []
    spawned = [0]

    def add_wave(time, script_index):
        # Waves are numbered in creation order.
        wave = {"id": spawned[0], "script": scripts[script_index % len(scripts)], "pc": 0}
        spawned[0] += 1
        scheduler.add(time, wave, step)

    def step(wave, now):
        log.append((wave["id"], wave["pc"], now, scheduler.now))
        script = wave["script"]
        if wave["pc"] >= len(script):
            return None
        delay, spawn = script[wave["pc"]]
        wave["pc"] += 1
        # Bounded: a runaway chain of spawns must still terminate.
        if spawn is not None and spawned[0] < 60:
            offset, script_index = spawn
            add_wave(max(0, now + offset), script_index)
        return now + delay

    for time, script_index in initial:
        add_wave(time, script_index)
    final = scheduler.run()
    return log, final, scheduler.now


class TestSchedulerReference:
    @settings(max_examples=300, deadline=None)
    @given(schedule=_schedules)
    def test_matches_pop_push_loop(self, schedule):
        scripts, initial, start = schedule
        assert _replay(WaveScheduler, scripts, initial, start) == _replay(
            PopPushScheduler, scripts, initial, start
        )

    def test_wave_added_at_current_time_runs_after_the_adder(self):
        for scheduler_cls in (WaveScheduler, PopPushScheduler):
            log = _replay(scheduler_cls, [[(0, (0, 1))], []], [(5, 0)], 0)[0]
            assert [entry[0] for entry in log] == [0, 1, 0]

    def test_wave_added_in_the_past_runs_next(self):
        # A step that schedules a wave earlier than itself moves its own
        # heap entry off the top; both loops still run the early wave next.
        for scheduler_cls in (WaveScheduler, PopPushScheduler):
            log = _replay(scheduler_cls, [[(4, (-5, 1)), (1, None)], []], [(10, 0)], 0)[0]
            assert [(entry[0], entry[2]) for entry in log] == [
                (0, 10), (1, 5), (0, 14), (0, 15),
            ]


# -- AccessCoalescer -----------------------------------------------------------


def _reference_coalesce(stats: Stats, name: str, vpns) -> List[int]:
    """``AccessCoalescer.coalesce`` before the ``dict.fromkeys`` version."""

    materialized = vpns if isinstance(vpns, (list, tuple)) else list(vpns)
    seen = {}
    for vpn in materialized:
        if vpn not in seen:
            seen[vpn] = None
    unique = list(seen)
    raw = len(materialized)
    stats.add(f"{name}.raw_accesses", raw)
    stats.add(f"{name}.coalesced_accesses", len(unique))
    if raw > len(unique):
        stats.add(f"{name}.merged", raw - len(unique))
    return unique


class TestCoalescerReference:
    @settings(max_examples=200, deadline=None)
    @given(
        batches=st.lists(st.lists(st.integers(min_value=0, max_value=40), max_size=64),
                         max_size=12),
        kind=st.sampled_from(["list", "tuple", "iterator"]),
    )
    def test_matches_dict_loop(self, batches, kind):
        wrap = {"list": list, "tuple": tuple, "iterator": iter}[kind]
        coalescer = AccessCoalescer(stats=Stats())
        reference = Stats()
        for batch in batches:
            assert coalescer.coalesce(wrap(batch)) == _reference_coalesce(
                reference, "coalescer", wrap(batch)
            )
        assert coalescer.stats.snapshot() == reference.snapshot()


# -- PageTable.walk_addresses -------------------------------------------------


def _reference_walk_addresses(levels: int, vmid: int, vpn: int) -> List[int]:
    """``PageTable.walk_addresses`` before the placement memo."""

    addresses = []
    for level in range(levels):
        prefix_shift = _LEVEL_BITS * (levels - level)
        prefix = vpn >> prefix_shift
        index = (vpn >> (prefix_shift - _LEVEL_BITS)) & ((1 << _LEVEL_BITS) - 1)
        table_page = hash((vmid, level, prefix)) & 0x3FFFFF
        addresses.append(_PT_REGION_BASE + table_page * 4096 + index * 8)
    return addresses


class TestWalkAddressesReference:
    @settings(max_examples=100, deadline=None)
    @given(
        page_size=st.sampled_from([4096, 64 * 1024, 2 * 1024 * 1024]),
        walks=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.integers(min_value=0, max_value=(1 << 36) - 1)),
            min_size=1, max_size=40,
        ),
    )
    def test_matches_unmemoized_formula(self, page_size, walks):
        table = PageTable(page_size)
        # Twice over: the second pass is served from the memo.
        for vmid, vpn in walks + walks:
            reference = _reference_walk_addresses(table.levels, vmid, vpn)
            assert table.walk_addresses(vmid, vpn) == reference
            # A walk that skips cached upper levels gets the rest of the
            # full walk's addresses.
            for first_level in range(table.levels):
                assert table.walk_addresses(vmid, vpn, first_level) == reference[first_level:]

    def test_neighbouring_pages_share_memoized_upper_levels(self):
        table = PageTable()
        for vpn in range(1024, 1024 + 600):
            assert table.walk_addresses(0, vpn) == _reference_walk_addresses(4, 0, vpn)
