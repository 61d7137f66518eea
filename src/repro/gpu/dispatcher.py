"""Work-group scheduling unit (Section 2.2).

The front-end dispatcher assigns work-groups to CUs, reserving each
work-group's LDS requirement as one contiguous block *before* dispatch and
returning the whole allocation when the work-group completes. Free wave
slots (``waves_per_simd`` per SIMD) and LDS capacity gate dispatch; the
contiguous-block policy is what produces LDS fragmentation.

The dispatcher also samples LDS bytes requested per work-group — the
Figure 4a distribution.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.gpu.workgroup import WorkGroup
from repro.sim.engine import WaveScheduler
from repro.sim.stats import Distribution, Stats
from repro.gpu.wavefront import Wavefront
from repro.workloads.base import KernelSpec, ProgramContext

#: Fixed front-end cost to launch a work-group's waves.
DISPATCH_LATENCY = 16


class WorkGroupDispatcher:
    """Dispatches one kernel invocation's work-groups across the CUs."""

    def __init__(self, cus: List, stats: Optional[Stats] = None) -> None:
        self.cus = cus
        self.stats = stats if stats is not None else Stats()
        self.lds_request_bytes = Distribution()
        self._app_name = ""
        self._kernel: Optional[KernelSpec] = None
        self._invocation = 0
        self._code_base = 0
        self._pending: deque = deque()
        self._scheduler: Optional[WaveScheduler] = None
        self._outstanding = 0
        # Fired with the completion time when a kernel fully drains (all
        # work-groups dispatched and completed); GPUSystem's kernel
        # sequencing launches the app's next kernel from it.
        self.on_kernel_complete = None

    def start_kernel(
        self,
        app_name: str,
        kernel: KernelSpec,
        invocation: int,
        code_base: int,
        scheduler: WaveScheduler,
        now: int,
    ) -> None:
        """Begin dispatching ``kernel``; fills every CU greedily."""

        lds_limit = self.cus[0].lds.config.size_bytes
        if kernel.lds_bytes_per_workgroup > lds_limit:
            raise ValueError(
                f"kernel {kernel.name!r} requests {kernel.lds_bytes_per_workgroup}B "
                f"LDS per work-group but CUs have only {lds_limit}B"
            )
        # A work-group that fits no CU would never dispatch, and its
        # kernel would never complete.
        wave_limit = self.cus[0].config.gpu.max_waves_per_cu
        if kernel.waves_per_workgroup > wave_limit:
            raise ValueError(
                f"kernel {kernel.name!r} needs {kernel.waves_per_workgroup} waves "
                f"per work-group but CUs have only {wave_limit} wave slots"
            )
        self._app_name = app_name
        self._kernel = kernel
        self._invocation = invocation
        self._code_base = code_base
        self._pending = deque(range(kernel.num_workgroups))
        self._scheduler = scheduler
        self._outstanding = 0
        progressing = True
        while self._pending and progressing:
            progressing = False
            for cu in self.cus:
                if self._pending and self._try_dispatch(cu, now):
                    progressing = True

    def _try_dispatch(self, cu, now: int) -> bool:
        kernel = self._kernel
        assert kernel is not None and self._scheduler is not None
        if not self._pending:
            return False
        if cu.free_wave_slots < kernel.waves_per_workgroup:
            return False
        if not cu.lds.can_allocate(kernel.lds_bytes_per_workgroup):
            self.stats.add("dispatcher.lds_stalls")
            return False
        wg_id = self._pending.popleft()
        alloc_id = cu.lds.allocate(kernel.lds_bytes_per_workgroup)
        assert alloc_id is not None
        self.lds_request_bytes.add(kernel.lds_bytes_per_workgroup)
        self.stats.add("dispatcher.workgroups")
        workgroup = WorkGroup(
            kernel_name=kernel.name,
            kernel_code_base=self._code_base,
            wg_id=wg_id,
            cu=cu,
            dispatcher=self,
            lds_alloc_id=alloc_id,
            num_waves=kernel.waves_per_workgroup,
        )
        for wave_id in range(kernel.waves_per_workgroup):
            context = ProgramContext(
                app_name=self._app_name,
                kernel_name=kernel.name,
                invocation=self._invocation,
                wg_id=wg_id,
                wave_id=wave_id,
                num_workgroups=kernel.num_workgroups,
                waves_per_workgroup=kernel.waves_per_workgroup,
            )
            simd_index = cu.claim_wave_slot()
            wave = Wavefront(
                cu, simd_index, workgroup, iter(kernel.program_factory(context))
            )
            self._scheduler.add(now + DISPATCH_LATENCY, wave, Wavefront.step)
        self._outstanding += 1
        return True

    def workgroup_completed(self, cu, now: int) -> None:
        self.stats.add("dispatcher.workgroups_completed")
        self._outstanding -= 1
        while self._pending and self._try_dispatch(cu, now):
            pass
        if not self._pending and self._outstanding == 0:
            if self.on_kernel_complete is not None:
                self.on_kernel_complete(now)
