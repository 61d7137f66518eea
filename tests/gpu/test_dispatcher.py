"""Unit tests for work-group dispatch (wave slots, LDS gating, refills)."""

import pytest

from repro.config import table1_config
from repro.sim.engine import WaveScheduler
from repro.system import GPUSystem
from repro.workloads.base import AppSpec, KernelSpec
from tests.conftest import make_tiny_app, make_tiny_kernel


def dispatch_only(system, kernel, now=0):
    scheduler = WaveScheduler()
    system.dispatcher.start_kernel("app", kernel, 0, 0, scheduler, now)
    return scheduler


class TestDispatch:
    def test_all_workgroups_dispatch_when_capacity_allows(self, config):
        system = GPUSystem(config)
        kernel = make_tiny_kernel(num_workgroups=8, waves_per_workgroup=2)
        scheduler = dispatch_only(system, kernel)
        assert len(scheduler) == 16  # every wave enqueued

    def test_dispatch_round_robins_cus(self, config):
        system = GPUSystem(config)
        kernel = make_tiny_kernel(num_workgroups=8, waves_per_workgroup=2)
        dispatch_only(system, kernel)
        active = [cu.free_wave_slots for cu in system.cus]
        assert len(set(active)) == 1  # evenly spread

    def test_wave_slot_limit_gates_dispatch(self, config):
        system = GPUSystem(config)
        max_waves = config.gpu.num_cus * config.gpu.max_waves_per_cu
        kernel = make_tiny_kernel(num_workgroups=200, waves_per_workgroup=2)
        scheduler = dispatch_only(system, kernel)
        assert len(scheduler) == max_waves

    def test_lds_capacity_gates_dispatch(self, config):
        system = GPUSystem(config)
        kernel = make_tiny_kernel(
            num_workgroups=32, waves_per_workgroup=1,
            lds_bytes=config.lds.size_bytes,  # one WG fills a CU's LDS
        )
        scheduler = dispatch_only(system, kernel)
        assert len(scheduler) == config.gpu.num_cus

    def test_oversized_lds_request_rejected(self, config):
        system = GPUSystem(config)
        kernel = make_tiny_kernel(lds_bytes=config.lds.size_bytes + 1)
        with pytest.raises(ValueError):
            dispatch_only(system, kernel)

    def test_oversized_workgroup_rejected(self, config):
        # Regression: a work-group wider than a CU's wave slots never
        # dispatched, so GPUSystem.run returned without error.
        system = GPUSystem(config)
        wide = make_tiny_kernel(waves_per_workgroup=config.gpu.max_waves_per_cu + 1)
        with pytest.raises(ValueError, match="wave slots"):
            dispatch_only(system, wide)
        app = AppSpec(name="wide", kernels=(make_tiny_kernel(), wide))
        with pytest.raises(ValueError, match="wave slots"):
            GPUSystem(config).run(app)

    def test_lds_request_distribution_sampled(self, config):
        system = GPUSystem(config)
        kernel = make_tiny_kernel(num_workgroups=4, lds_bytes=2048)
        dispatch_only(system, kernel)
        box = system.dispatcher.lds_request_bytes.box_stats()
        assert box.maximum == 2048
        assert box.count == 4

    def test_pending_workgroups_dispatch_on_completion(self, config):
        # End-to-end: more WGs than capacity; all must eventually complete.
        system = GPUSystem(config)
        app = make_tiny_app(kernels=1, num_workgroups=200, waves_per_workgroup=2)
        result = system.run(app)
        assert system.stats.get("dispatcher.workgroups") == 200
        assert system.stats.get("dispatcher.workgroups_completed") == 200
        assert result.cycles > 0

    def test_lds_freed_after_workgroup_completion(self, config):
        system = GPUSystem(config)
        app = make_tiny_app(kernels=1, num_workgroups=16, lds_bytes=4096)
        system.run(app)
        assert all(cu.lds.allocated_segments == 0 for cu in system.cus)
