"""JobManager lifecycle: dedup, batching, cancel, eviction, failures."""

import json
import sys
import threading
import time

import pytest

from repro.experiments import common
from repro.service.jobs import SpecError
from repro.service.manager import (
    CANCELLED,
    DONE,
    FAILED,
    JobManager,
    QUEUED,
)
from repro.sim.results import SimResult
from repro.sim.runner import SweepRunner

SCALE = 0.05


def tiny_spec(*apps, schemes=("baseline",), **extra):
    return {"apps": list(apps) or ["GUPS"], "schemes": list(schemes),
            "scale": SCALE, **extra}


class TestLifecycle:
    def test_submit_runs_to_done_with_results_and_report(self):
        with JobManager(workers=1) as manager:
            record, deduplicated = manager.submit(tiny_spec("GUPS", "ATAX"))
            assert not deduplicated
            assert manager.wait(record.job_id, timeout=180) == DONE
            assert record.started_s is not None
            assert record.finished_s is not None
            assert len(record.results) == 2
            assert all(result is not None for result in record.results)
            assert record.report.jobs_submitted == 2
            assert record.report.jobs_simulated == 2
            # Events tell the whole story in order.
            kinds = [event["type"] for event in record.events]
            assert kinds[0] == "state" and kinds[-1] == "state"
            assert record.events[-1]["state"] == DONE

    def test_results_byte_identical_to_direct_runner(self):
        from repro.experiments.common import result_fingerprint

        spec = tiny_spec("GUPS", "ATAX", schemes=("baseline", "lds"))
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(spec)
            manager.wait(record.job_id, timeout=180)
            service_prints = [result_fingerprint(r) for r in record.results]
        direct = SweepRunner(jobs=1).run(record.jobs)
        assert service_prints == [result_fingerprint(r) for r in direct]

    def test_invalid_spec_raises_before_enqueue(self):
        with JobManager(workers=1, autostart=False) as manager:
            with pytest.raises(SpecError):
                manager.submit({"apps": ["NOPE"]})
            assert manager.counts()[QUEUED] == 0


class TestDedup:
    def test_inflight_dedup_returns_same_record(self):
        with JobManager(workers=1, autostart=False) as manager:
            first, dedup_first = manager.submit(tiny_spec())
            second, dedup_second = manager.submit(tiny_spec())
            assert not dedup_first
            assert dedup_second
            assert first.job_id == second.job_id
            assert first.submissions == 2

    def test_completed_dedup_answers_instantly(self):
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.wait(record.job_id, timeout=180)
            again, deduplicated = manager.submit(tiny_spec())
            assert deduplicated
            assert again.job_id == record.job_id
            assert again.state == DONE

    def test_case_normalization_dedups(self):
        with JobManager(workers=1, autostart=False) as manager:
            first, _ = manager.submit({"apps": ["GUPS"], "schemes": ["baseline"],
                                       "scale": SCALE})
            second, deduplicated = manager.submit(
                {"apps": ["gups"], "schemes": ["baseline"], "scale": SCALE}
            )
            assert deduplicated and first.job_id == second.job_id

    def test_cancelled_spec_resubmits_as_new_job(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            assert manager.cancel(record.job_id) == (True, CANCELLED, "cancelled")
            fresh, deduplicated = manager.submit(tiny_spec())
            assert not deduplicated
            assert fresh.job_id != record.job_id


class TestCancel:
    def test_cancel_queued(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            ok, state, message = manager.cancel(record.job_id)
            assert ok and state == CANCELLED and message == "cancelled"
            assert record.state == CANCELLED
            assert record.events[-1]["state"] == CANCELLED

    def test_cancel_unknown(self):
        with JobManager(workers=1, autostart=False) as manager:
            assert manager.cancel("feedfacecafe") == (False, None, "not found")

    def test_cancel_terminal_refused(self):
        with JobManager(workers=1) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.wait(record.job_id, timeout=180)
            ok, state, reason = manager.cancel(record.job_id)
            assert not ok
            assert state == record.state
            assert "done" in reason

    def test_cancelled_job_never_runs(self):
        with JobManager(workers=1, autostart=False) as manager:
            record, _ = manager.submit(tiny_spec())
            manager.cancel(record.job_id)
            manager.start()
            time.sleep(0.3)
            assert record.state == CANCELLED
            assert record.results is None


class TestBatchingAndPool:
    def test_staged_submissions_share_one_pool_lease(self):
        with JobManager(workers=2, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("MVT", "BICG"))
            manager.start()
            assert manager.wait(one.job_id, timeout=300) == DONE
            assert manager.wait(two.job_id, timeout=300) == DONE
            stats = manager.pool.stats()
            # Both records rode one batch: one lease, one pool, no respawn.
            assert stats["leases"] == 1
            assert stats["pools_created"] == 1

    def test_shared_job_reported_to_both_records(self):
        with JobManager(workers=2, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("ATAX", "MVT"))
            manager.start()
            manager.wait(one.job_id, timeout=300)
            manager.wait(two.job_id, timeout=300)
            atax_key = one.jobs[1].key()
            assert atax_key == two.jobs[0].key()
            for record in (one, two):
                assert atax_key in [t.key for t in record.report.timings]
            assert all(r is not None for r in one.results + two.results)

    def test_idle_pool_evicted_and_recreated(self):
        with JobManager(workers=2, idle_timeout_s=0.2) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            manager.wait(record.job_id, timeout=300)
            deadline = time.monotonic() + 10.0
            while manager.pool.stats()["alive"]:
                assert time.monotonic() < deadline, "pool never evicted"
                time.sleep(0.05)
            assert manager.pool.stats()["evictions"] == 1
            # A new submission transparently recreates the pool.
            fresh, _ = manager.submit(tiny_spec("MVT", "BICG"))
            assert manager.wait(fresh.job_id, timeout=300) == DONE
            assert manager.pool.stats()["pools_created"] == 2


class TestFailures:
    def test_job_failure_surfaces_in_record(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "SRAD"))
            assert manager.wait(record.job_id, timeout=180) == FAILED
            (failure,) = record.report.failures
            assert failure.app_name == "GUPS"
            assert failure.disposition == "exception"
            # keep_going semantics: the innocent neighbour completed.
            assert record.results[0] is None
            assert record.results[1] is not None
            assert any(e["type"] == "failure" for e in record.events)

    def test_worker_crash_surfaces_instead_of_hanging(self, monkeypatch):
        """A worker process dying mid-job (BrokenProcessPool) must recycle
        the shared pool, surface a crash JobFailure in the status payload,
        and leave the service able to run the next job."""

        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:crash")
        with JobManager(workers=2, max_retries=0) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "SRAD"))
            assert manager.wait(record.job_id, timeout=300) == FAILED
            (failure,) = record.report.failures
            assert failure.app_name == "GUPS"
            assert failure.disposition == "crash"
            assert record.results[1] is not None
            payload = manager.status_payload(record.job_id)
            assert payload["state"] == FAILED
            assert payload["report"]["failures"][0]["disposition"] == "crash"
            # The crash forced a pool recycle; a fresh job still runs.
            monkeypatch.delenv("REPRO_FAULT_SPEC")
            fresh, _ = manager.submit(tiny_spec("ATAX"))
            assert manager.wait(fresh.job_id, timeout=300) == DONE
            assert manager.pool.stats()["recycles"] >= 1

    def test_failure_in_one_record_spares_batch_neighbours(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0, autostart=False) as manager:
            bad, _ = manager.submit(tiny_spec("GUPS"))
            good, _ = manager.submit(tiny_spec("SRAD"))
            manager.start()
            assert manager.wait(bad.job_id, timeout=180) == FAILED
            assert manager.wait(good.job_id, timeout=180) == DONE
            assert good.report.failures == []


class TestFingerprintMemo:
    """The result endpoint fingerprints each result object once per
    manager, and always the object it serves."""

    @pytest.fixture
    def fingerprinted(self, monkeypatch):
        """A fast stub simulator (each run a new result) and the list of
        results ``result_fingerprint`` was called on."""

        runs = []

        def fake_simulate(app_name, config, scale):
            runs.append(app_name)
            return SimResult(app_name=app_name, scheme=config.scheme.value,
                             cycles=len(runs))

        original = common.result_fingerprint
        calls = []

        def counting(result):
            calls.append(result)
            return original(result)

        monkeypatch.setattr(common, "simulate", fake_simulate)
        monkeypatch.setattr(common, "result_fingerprint", counting)
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        return calls, original

    def test_shared_job_is_fingerprinted_once(self, fingerprinted):
        calls, fingerprint = fingerprinted
        with JobManager(workers=1, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("ATAX", "MVT"))
            manager.start()
            assert manager.wait(one.job_id, timeout=60) == DONE
            assert manager.wait(two.job_id, timeout=60) == DONE
            assert one.results[1] is two.results[0]
            payloads = [manager.result_payload(record.job_id)
                        for record in (one, two, one, two)]
        assert len(calls) == 3 == len({id(r) for r in one.results + two.results})
        for payload, record in zip(payloads, (one, two, one, two)):
            assert payload["fingerprints"] == [fingerprint(r) for r in record.results]

    def test_failed_slot_stays_none(self, fingerprinted, monkeypatch):
        calls, fingerprint = fingerprinted
        monkeypatch.setenv("REPRO_FAULT_SPEC", "GUPS:*:exc")
        with JobManager(workers=1, max_retries=0) as manager:
            record, _ = manager.submit(tiny_spec("GUPS", "SRAD"))
            assert manager.wait(record.job_id, timeout=60) == FAILED
            for _ in range(2):
                payload = manager.result_payload(record.job_id)
                assert payload["results"][0] is None
                assert payload["fingerprints"] == [None, fingerprint(record.results[1])]
        assert calls == [record.results[1]]

    def test_resimulated_result_gets_its_own_fingerprint(self, fingerprinted):
        """After ``clear_cache`` the same job key is simulated again into a
        new object (here with other cycles); its record is served that
        object's fingerprint, not the one memoized for the key before."""

        calls, fingerprint = fingerprinted
        with JobManager(workers=1) as manager:
            first, _ = manager.submit(tiny_spec("SRAD"))
            manager.wait(first.job_id, timeout=60)
            before = manager.result_payload(first.job_id)["fingerprints"]
            common.clear_cache()
            second, _ = manager.submit(tiny_spec("SRAD", max_retries=1))
            manager.wait(second.job_id, timeout=60)
            after = manager.result_payload(second.job_id)["fingerprints"]
            assert manager.result_payload(first.job_id)["fingerprints"] == before
        assert [job.key() for job in first.jobs] == [job.key() for job in second.jobs]
        assert first.results[0] is not second.results[0]
        assert before == [fingerprint(first.results[0])]
        assert after == [fingerprint(second.results[0])]
        assert before != after
        assert len(calls) == 2


class TestResultText:
    """The result body splices in each result object's JSON text, encoded
    once per manager, and always the text of the object it serves."""

    @pytest.fixture
    def serialized(self, monkeypatch):
        """A fast stub simulator (each run a new result) and the list of
        results ``serialize_result`` was called on. Fingerprints are
        stubbed too, so every counted call is the body's own encoding."""

        runs = []

        def fake_simulate(app_name, config, scale):
            runs.append(app_name)
            return SimResult(app_name=app_name, scheme=config.scheme.value,
                             cycles=len(runs))

        original = common.serialize_result
        calls = []

        def counting(result):
            calls.append(result)
            return original(result)

        monkeypatch.setattr(common, "simulate", fake_simulate)
        monkeypatch.setattr(common, "serialize_result", counting)
        monkeypatch.setattr(common, "result_fingerprint",
                            lambda result: f"print-{result.cycles}")
        monkeypatch.setattr(common, "_CACHE_DIR", "")
        return calls, original

    def test_shared_result_is_encoded_once(self, serialized):
        calls, serialize = serialized
        with JobManager(workers=1, autostart=False) as manager:
            one, _ = manager.submit(tiny_spec("GUPS", "ATAX"))
            two, _ = manager.submit(tiny_spec("ATAX", "MVT"))
            manager.start()
            assert manager.wait(one.job_id, timeout=60) == DONE
            assert manager.wait(two.job_id, timeout=60) == DONE
            assert one.results[1] is two.results[0]
            fetched = (one, two) * 3
            payloads = [manager.result_payload(record.job_id) for record in fetched]
        assert len(calls) == 3 == len({id(r) for r in one.results + two.results})
        for payload, record in zip(payloads, fetched):
            assert payload["results"] == [serialize(r) for r in record.results]

    def test_resimulated_result_is_served_its_own_text(self, serialized):
        """After ``clear_cache`` the same job is simulated again into a new
        object with other cycles; each record is served its own object's
        text, not the text memoized for the job before."""

        calls, _ = serialized
        with JobManager(workers=1) as manager:
            first, _ = manager.submit(tiny_spec("SRAD"))
            manager.wait(first.job_id, timeout=60)
            before = manager.result_payload(first.job_id)["results"]
            common.clear_cache()
            second, _ = manager.submit(tiny_spec("SRAD", max_retries=1))
            manager.wait(second.job_id, timeout=60)
            after = manager.result_payload(second.job_id)["results"]
            assert manager.result_payload(first.job_id)["results"] == before
        assert [job.key() for job in first.jobs] == [job.key() for job in second.jobs]
        assert first.results[0] is not second.results[0]
        assert [r["cycles"] for r in before] == [first.results[0].cycles] == [1]
        assert [r["cycles"] for r in after] == [second.results[0].cycles] == [2]
        assert len(calls) == 2

    def test_concurrent_fetches_see_whole_records(self, serialized):
        """Eight threads fetch while the batch runs: every body is either
        pending without results or done with every result, and each result
        object is still encoded once."""

        calls, serialize = serialized
        with JobManager(workers=1, autostart=False) as manager:
            records = [manager.submit(tiny_spec(app, "ATAX"))[0]
                       for app in ("GUPS", "MVT", "SRAD", "BICG")]
            fetched = []

            def fetch():
                for _ in range(100):
                    for record in records:
                        fetched.append((record, manager.result_body(record.job_id)))

            threads = [threading.Thread(target=fetch) for _ in range(8)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                manager.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            for record in records:
                assert manager.wait(record.job_id, timeout=60) == DONE
        assert len(fetched) == 8 * 100 * len(records)
        for record, (state, body) in fetched:
            payload = json.loads(body)
            assert payload["state"] == state
            if state == DONE:
                assert payload["results"] == [serialize(r) for r in record.results]
                assert payload["fingerprints"] == [
                    f"print-{r.cycles}" for r in record.results
                ]
            else:
                assert "results" not in payload and "fingerprints" not in payload
        assert len(calls) == len({id(r) for record in records for r in record.results}) == 5
