"""Unit tests for the Port occupancy model and the WaveScheduler."""

import pytest

from repro.sim.engine import Port, WaveScheduler
from repro.sim.trace import TimelineSampler


class TestPort:
    def test_idle_port_starts_immediately(self):
        port = Port("p", units=1, occupancy=3)
        assert port.request(10) == 10

    def test_busy_port_queues(self):
        port = Port("p", units=1, occupancy=3)
        port.request(10)
        assert port.request(10) == 13
        assert port.request(10) == 16

    def test_multiple_units_serve_in_parallel(self):
        port = Port("p", units=2, occupancy=5)
        assert port.request(0) == 0
        assert port.request(0) == 0
        assert port.request(0) == 5

    def test_occupancy_override(self):
        port = Port("p", units=1, occupancy=1)
        port.request(0, occupancy=100)
        assert port.request(0) == 100

    def test_busy_cycles_accumulate(self):
        port = Port("p", units=1, occupancy=4)
        port.request(0)
        port.request(0)
        assert port.busy_cycles == 8

    def test_earliest_free(self):
        port = Port("p", units=1, occupancy=7)
        port.request(3)
        assert port.earliest_free() == 10

    def test_reset(self):
        port = Port("p", units=2, occupancy=5)
        port.request(100)
        port.reset()
        assert port.request(0) == 0
        assert port.busy_cycles == 5

    def test_idle_tracking_optional(self):
        assert Port("p").idle_tracker is None
        assert Port("p", track_idle=True).idle_tracker is not None

    def test_idle_tracker_records_service_starts(self):
        port = Port("p", units=1, occupancy=1, track_idle=True)
        port.request(0)
        port.request(20)
        box = port.idle_tracker.box_stats()
        assert box.minimum == 20

    def test_invalid_units_rejected(self):
        with pytest.raises(ValueError):
            Port("p", units=0)

    def test_negative_occupancy_rejected(self):
        with pytest.raises(ValueError):
            Port("p", occupancy=-1)

    def test_request_before_earliest_free_queues(self):
        # A unit freed at t=10 serves an earlier request at 10, not before.
        port = Port("p", units=1, occupancy=10)
        port.request(0)
        assert port.request(2) == 10

    def test_negative_occupancy_override_rejected(self):
        # The constructor validates occupancy; the per-call override must
        # not be a backdoor around that check.
        port = Port("p", units=1, occupancy=1)
        with pytest.raises(ValueError):
            port.request(0, occupancy=-5)

    def test_zero_occupancy_override_allowed(self):
        port = Port("p", units=1, occupancy=3)
        assert port.request(0, occupancy=0) == 0
        assert port.request(0) == 0  # zero-length service frees instantly

    def test_timeline_records_busy_intervals(self):
        port = Port("p", units=1, occupancy=4)
        sampler = TimelineSampler("p")
        port.attach_timeline(sampler)
        port.request(0)
        port.request(10)
        assert sampler.intervals == [[0, 0, 4], [0, 10, 14]]

    def test_timeline_detach(self):
        port = Port("p", units=1, occupancy=4)
        sampler = TimelineSampler("p")
        port.attach_timeline(sampler)
        port.attach_timeline(None)
        port.request(0)
        assert len(sampler) == 0

    def test_timeline_uses_effective_occupancy(self):
        port = Port("p", units=1, occupancy=1)
        sampler = TimelineSampler("p")
        port.attach_timeline(sampler)
        port.request(5, occupancy=20)
        assert sampler.intervals == [[0, 5, 25]]


class TestWaveScheduler:
    def test_single_wave_runs_to_completion(self):
        steps = []

        def step(payload, now):
            steps.append(now)
            return now + 5 if len(steps) < 3 else None

        scheduler = WaveScheduler()
        scheduler.add(0, "w", step)
        final = scheduler.run()
        assert steps == [0, 5, 10]
        assert final == 10

    def test_waves_interleave_in_time_order(self):
        order = []

        def make(name, period, count):
            remaining = [count]

            def step(payload, now):
                order.append((now, name))
                remaining[0] -= 1
                return now + period if remaining[0] else None

            return step

        scheduler = WaveScheduler()
        scheduler.add(0, "a", make("a", 10, 3))
        scheduler.add(0, "b", make("b", 4, 5))
        scheduler.run()
        times = [t for t, _ in order]
        assert times == sorted(times)

    def test_final_time_is_last_event(self):
        def step(payload, now):
            return None

        scheduler = WaveScheduler()
        scheduler.add(42, "w", step)
        assert scheduler.run() == 42

    def test_deterministic_tiebreak_by_insertion(self):
        order = []

        def make(name):
            def step(payload, now):
                order.append(name)
                return None

            return step

        scheduler = WaveScheduler()
        for name in ("first", "second", "third"):
            scheduler.add(7, name, make(name))
        scheduler.run()
        assert order == ["first", "second", "third"]

    def test_step_returning_past_time_is_clamped(self):
        times = []

        def step(payload, now):
            times.append(now)
            if len(times) == 1:
                return now - 100  # misbehaving step
            return None

        scheduler = WaveScheduler()
        scheduler.add(50, "w", step)
        scheduler.run()
        assert times == [50, 50]

    def test_empty_scheduler_runs_to_now(self):
        scheduler = WaveScheduler()
        scheduler.now = 9
        assert scheduler.run() == 9

    def test_waves_added_mid_run(self):
        spawned = []

        def child(payload, now):
            spawned.append(now)
            return None

        def parent(payload, now):
            scheduler.add(now + 3, "child", child)
            return None

        scheduler = WaveScheduler()
        scheduler.add(0, "parent", parent)
        final = scheduler.run()
        assert spawned == [3]
        assert final == 3

    def test_len_counts_pending(self):
        scheduler = WaveScheduler()
        scheduler.add(0, "w", lambda payload, now: None)
        assert len(scheduler) == 1

class TestPortResetHygiene:
    """Port.reset must restore the *complete* just-constructed state.

    Back-to-back in-process runs build fresh systems, but telemetry helpers
    reset ports between phases; a reset that leaked an attached timeline
    sampler or accumulated idle gaps would bleed one run's history into
    the next run's distributions.
    """

    def test_reset_detaches_timeline_sampler(self):
        port = Port("p", units=1, occupancy=2)
        sampler = TimelineSampler("p", lanes=1)
        port.attach_timeline(sampler)
        port.request(0)
        assert len(sampler) == 1
        port.reset()
        assert port.timeline is None
        port.request(5)
        assert len(sampler) == 1  # no further intervals recorded

    def test_reset_discards_idle_history(self):
        port = Port("p", units=1, occupancy=1, track_idle=True)
        port.request(0)
        port.request(500)  # one huge idle gap
        assert port.idle_tracker.box_stats().maximum == 500
        port.reset()
        assert port.idle_tracker is not None  # tracking stays enabled
        assert port.idle_tracker.box_stats() is None  # ... but empty
        port.request(0)
        port.request(3)
        assert port.idle_tracker.box_stats().maximum == 3

    def test_reset_without_tracking_stays_untracked(self):
        port = Port("p", units=2)
        port.reset()
        assert port.idle_tracker is None

    def test_reset_restores_pristine_heap(self):
        port = Port("p", units=3, occupancy=9)
        for now in (0, 0, 0, 1, 2):
            port.request(now)
        port.reset()
        assert port.earliest_free() == 0
        # All three units must be free again: three same-cycle requests
        # all start immediately, exactly as on a fresh port.
        assert [port.request(0) for _ in range(3)] == [0, 0, 0]


class _Uncomparable:
    """A payload without ordering support (like Wavefront objects)."""

    __lt__ = None  # type: ignore[assignment]


class TestSchedulerTiebreakDeterminism:
    def test_equal_time_entries_never_compare_payloads(self):
        # The (time, sequence, payload, step) heap entries must short-
        # circuit on the monotonic sequence; if the heap ever compared
        # payloads, these entries would raise TypeError.
        order = []

        def step(payload, now):
            order.append(payload)
            return None

        scheduler = WaveScheduler()
        payloads = [_Uncomparable() for _ in range(8)]
        for payload in payloads:
            scheduler.add(13, payload, step)
        scheduler.run()
        assert order == payloads

    def test_sequence_survives_mid_run_readds(self):
        # Re-added waves (step returned a next time) are sequenced after
        # everything already queued for that cycle, matching insertion
        # order exactly.
        order = []

        def once(payload, now):
            order.append(payload)
            return None

        def requeue(payload, now):
            order.append(payload)
            if order.count(payload) == 1:
                return now  # same-cycle re-add: goes behind "b"
            return None

        scheduler = WaveScheduler()
        scheduler.add(0, "a", requeue)
        scheduler.add(0, "b", once)
        scheduler.run()
        assert order == ["a", "b", "a"]

    def test_event_order_is_hash_seed_independent(self):
        # Results must not depend on PYTHONHASHSEED: run a small app in
        # two subprocesses with different seeds and compare byte-level
        # fingerprints. (Dict iteration order is insertion order and the
        # scheduler tiebreak is an explicit sequence number, so any
        # divergence here is a real determinism bug.)
        import os
        import subprocess
        import sys

        script = (
            "from repro.config import table1_config, TxScheme\n"
            "from repro.experiments.common import result_fingerprint, simulate\n"
            "print(result_fingerprint(simulate('NW', "
            "table1_config(TxScheme.ICACHE_LDS), 0.02)))\n"
        )
        digests = set()
        for seed in ("0", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("REPRO_CACHE_DIR", None)
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            digests.add(out.stdout.strip())
        assert len(digests) == 1
