"""Full-system assembly and end-to-end application simulation.

:class:`GPUSystem` wires every substrate together according to a
:class:`~repro.config.SystemConfig` — including which reconfigurable
translation scheme is active — and runs an :class:`~repro.workloads.base.AppSpec`
kernel-by-kernel, producing a :class:`~repro.sim.results.SimResult` with the
counters and distributions every experiment in the paper reports.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.ducati import DucatiStore, ducati_reserved_ways
from repro.config import SystemConfig, TxScheme
from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.core.translation import SharingTracker, TranslationService
from repro.gpu.command_processor import CommandProcessor
from repro.gpu.cu import ComputeUnit
from repro.gpu.dispatcher import WorkGroupDispatcher
from repro.gpu.icache import InstructionCache
from repro.gpu.lds import LocalDataShare
from repro.memory.dram import DRAM
from repro.memory.energy import DRAMEnergyModel
from repro.memory.hierarchy import SharedL2
from repro.pagetable.iommu import IOMMU
from repro.pagetable.page_table import PageTable
from repro.sim.engine import Port, WaveScheduler
from repro.sim.results import KernelResult, SimResult
from repro.sim.stats import Stats
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.workloads.base import AppSpec

#: Fixed host-side cost between consecutive kernel launches.
KERNEL_LAUNCH_OVERHEAD = 1000

#: Static-code address stride between distinct kernels (I-cache lines).
_CODE_REGION_LINES = 8192


class GPUSystem:
    """One simulated APU, fully assembled from a :class:`SystemConfig`."""

    def __init__(self, config: SystemConfig) -> None:
        gpu = config.gpu
        if gpu.num_cus % config.icache.cus_per_icache:
            raise ValueError(
                f"{config.icache.cus_per_icache} CUs per I-cache does not "
                f"divide {gpu.num_cus} CUs"
            )
        self.config = config
        scheme = config.scheme
        self.stats = Stats()

        # --- Memory-side substrates -----------------------------------
        self.page_table = PageTable(config.page_size, config.va_bits)
        self.dram = DRAM(config.dram, stats=self.stats)
        reserved_ways = (
            ducati_reserved_ways(config.ducati, config.data_cache)
            if scheme.uses_ducati
            else 0
        )
        self.shared_l2 = SharedL2(
            config.data_cache, self.dram, stats=self.stats,
            reserved_ways=reserved_ways,
        )
        self.iommu = IOMMU(
            config.iommu, self.page_table, self.shared_l2, stats=self.stats
        )
        self.ducati: Optional[DucatiStore] = (
            DucatiStore(config.ducati, config.data_cache, self.shared_l2,
                        stats=self.stats)
            if scheme.uses_ducati
            else None
        )
        if getattr(scheme, "uses_subregion", False):
            from repro.schemes.subregion import SubregionStore

            self.subregion: Optional[SubregionStore] = SubregionStore(
                config.subregion, self.page_table, stats=self.stats
            )
        else:
            self.subregion = None

        # --- Shared GPU translation structures ------------------------
        l2_ways = min(config.tlb.l2_ways, config.tlb.l2_entries)
        self.l2_tlb = SetAssociativeTLB(
            config.tlb.l2_entries, l2_ways, name="l2_tlb", stats=self.stats,
            perfect=config.tlb.perfect_l2,
        )
        self.l2_tlb_port = Port(
            "l2_tlb.port", units=2, occupancy=config.tlb.l2_port_occupancy
        )
        self.sharing = SharingTracker()

        # --- I-caches (one per CU group) -------------------------------
        num_groups = gpu.num_cus // config.icache.cus_per_icache
        self.icaches: List[InstructionCache] = []
        for _ in range(num_groups):
            if scheme.uses_icache_tx:
                icache: InstructionCache = ReconfigurableICache(
                    config.icache, config.icache_tx, stats=self.stats,
                    name="icache",
                )
                icache.spill_target = self.l2_tlb
            else:
                icache = InstructionCache(
                    config.icache, stats=self.stats, name="icache"
                )
            self.icaches.append(icache)

        # --- Per-CU structures -----------------------------------------
        self.cus: List[ComputeUnit] = []
        for cu_id in range(gpu.num_cus):
            lds = LocalDataShare(
                config.lds, config.lds_tx, stats=self.stats, name="lds"
            )
            lds_tx = (
                LDSTxCache(lds, config.lds_tx, stats=self.stats, name="lds_tx")
                if scheme.uses_lds_tx
                else None
            )
            group_icache = self.icaches[cu_id // config.icache.cus_per_icache]
            icache_tx = group_icache if scheme.uses_icache_tx else None
            translation = TranslationService(
                cu_id,
                config,
                self.page_table,
                self.l2_tlb,
                self.l2_tlb_port,
                self.iommu,
                self.sharing,
                stats=self.stats,
                lds_tx=lds_tx,
                icache_tx=icache_tx,  # type: ignore[arg-type]
                ducati=self.ducati,
                subregion=self.subregion,
            )
            self.cus.append(
                ComputeUnit(
                    cu_id, config, group_icache, lds, translation,
                    self.shared_l2, stats=self.stats,
                )
            )

        self.dispatcher = WorkGroupDispatcher(self.cus, stats=self.stats)
        self.energy_model = DRAMEnergyModel(config.dram_energy)
        self.command_processor = CommandProcessor(
            invalidate_fn=self.shootdown,
            flush_fn=lambda: sum(ic.flush_instructions() for ic in self.icaches),
            stats=self.stats,
        )
        self._code_bases: Dict[str, int] = {}

    # ------------------------------------------------------------------

    def _code_base(self, kernel_name: str) -> int:
        base = self._code_bases.get(kernel_name)
        if base is None:
            base = len(self._code_bases) * _CODE_REGION_LINES
            self._code_bases[kernel_name] = base
        return base

    def run(self, app: AppSpec) -> SimResult:
        """Simulate ``app`` end-to-end (all kernel launches, in order)."""

        return self._run_apps([app], [self.dispatcher])[0]

    def _run_apps(
        self, apps: List[AppSpec], dispatchers: List[WorkGroupDispatcher]
    ) -> List[SimResult]:
        """Run each app's kernel sequence through its own dispatcher on
        one scheduler; one :class:`SimResult` per app."""

        scheduler = WaveScheduler()
        app_snapshot = self.stats.snapshot()
        progresses = []
        for app, dispatcher in zip(apps, dispatchers):
            progress = _AppProgress(self, app, dispatcher, scheduler)
            dispatcher.on_kernel_complete = progress.kernel_completed
            progresses.append(progress)
        for progress in progresses:
            progress.launch_next(0)
        scheduler.run()

        counters = self.stats.delta_since(app_snapshot)
        total_cycles = max(progress.finished_at for progress in progresses)
        self._finalize_counters(counters, total_cycles)
        return [
            SimResult(
                app_name=progress.app.name,
                scheme=self.config.scheme.value,
                cycles=progress.finished_at,
                counters=dict(counters),
                kernels=progress.kernel_results,
                distributions=self._collect_distributions(progress.dispatcher),
            )
            for progress in progresses
        ]

    def _finalize_counters(self, counters: Dict[str, float], cycles: int) -> None:
        breakdown = self.energy_model.estimate(self.stats, cycles)
        counters["energy.total_nj"] = breakdown.total_nj
        counters["energy.read_nj"] = breakdown.read_nj
        counters["energy.write_nj"] = breakdown.write_nj
        counters["energy.activate_nj"] = breakdown.activate_nj
        counters["energy.background_nj"] = breakdown.background_nj
        counters["tx_sharing.total_pages"] = self.sharing.total_pages
        counters["tx_sharing.shared_pages"] = self.sharing.shared_pages
        lds_peak = sum(
            cu.translation.lds_tx.peak_entries
            for cu in self.cus
            if cu.translation.lds_tx is not None
        )
        icache_peak = sum(
            icache.peak_tx_entries
            for icache in self.icaches
            if isinstance(icache, ReconfigurableICache)
        )
        counters["tx_entries.lds_peak"] = lds_peak
        counters["tx_entries.icache_peak"] = icache_peak
        counters["icache.total_lines"] = (
            self.config.icache.num_lines * len(self.icaches)
        )

    def _collect_distributions(self, dispatcher: WorkGroupDispatcher):
        distributions = {
            "lds_bytes_per_wg": dispatcher.lds_request_bytes.box_stats(),
            "walk_latency": self.iommu.walker.walk_latency.box_stats(),
            "walk_queue_delay": self.iommu.queue_delay.box_stats(),
        }
        lds_gaps = _merged_box_stats(
            cu.lds.port.idle_tracker.gaps for cu in self.cus
        )
        icache_gaps = _merged_box_stats(
            icache.port.idle_tracker.gaps for icache in self.icaches
        )
        distributions["lds_port_idle"] = lds_gaps
        distributions["icache_port_idle"] = icache_gaps
        return distributions

    # ------------------------------------------------------------------

    # ------------------------------------------------------------------
    # Multi-application scenario (paper Section 7.2)
    # ------------------------------------------------------------------

    def run_concurrent(
        self,
        apps: List[AppSpec],
        cu_partitions: List[List[int]],
    ) -> List[SimResult]:
        """Run several applications concurrently on disjoint CU partitions.

        Each application receives its own address space (VM-ID) and its own
        CU partition — the isolation Section 7.2 assumes for security. The
        per-CU LDS therefore only ever holds its own application's
        translations, while the I-cache (and its Tx capacity) may be shared
        between applications whose partitions fall in the same CU group.

        Returns one :class:`SimResult` per application; ``cycles`` is the
        application's own completion time. Counters are system-wide
        (structures are shared), so per-app counter attribution is limited
        to what the CU partitioning itself separates: an app's counters
        and each of its kernels' counters are system-wide deltas over the
        app's and the kernel's window. Its ``lds_bytes_per_wg`` samples
        only its own work-groups. Each result carries its *own* counters
        dict (and distributions), so mutating one result can never alias
        into another.
        """

        if len(apps) != len(cu_partitions):
            raise ValueError("one CU partition per application required")
        seen: set = set()
        for partition in cu_partitions:
            if not partition:
                raise ValueError("empty CU partition")
            for cu_id in partition:
                if cu_id in seen:
                    raise ValueError(f"CU {cu_id} assigned to two applications")
                if not 0 <= cu_id < len(self.cus):
                    raise ValueError(f"no such CU {cu_id}")
                seen.add(cu_id)

        dispatchers = []
        for vmid, partition in enumerate(cu_partitions):
            cus = [self.cus[cu_id] for cu_id in partition]
            for cu in cus:
                cu.translation.vmid = vmid
            dispatchers.append(WorkGroupDispatcher(cus, stats=self.stats))
        return self._run_apps(apps, dispatchers)

    def shootdown(self, vpn: int) -> int:
        """GPU-wide TLB shootdown including the reconfigurable structures
        (Section 7.1). Returns the number of invalidated entries."""

        count = self.l2_tlb.invalidate_vpn(vpn)
        for cu in self.cus:
            count += cu.translation.shootdown(vpn)
        count += self.iommu.invalidate_vpn(vpn)
        if self.ducati is not None:
            count += self.ducati.invalidate_vpn(vpn)
        if self.subregion is not None:
            count += self.subregion.invalidate_vpn(vpn)
        self.stats.add("shootdowns")
        return count

    def attach_tracer(self, tracer) -> None:
        """Record every executed macro-op into ``tracer``
        (:class:`repro.sim.trace.ExecutionTracer`); pass None to detach."""

        for cu in self.cus:
            cu.tracer = tracer

    def telemetry_ports(self) -> Dict[str, "Port"]:
        """Every shared port worth a timeline track, under a unique name.

        Structure constructors reuse generic names ("lds.port" on every
        CU), so this map synthesizes stable, unique track names: the
        shared L2 TLB port, the IOMMU walker pool (one lane per walker),
        each CU group's I-cache fetch port, and each CU's LDS port.
        """

        ports: Dict[str, Port] = {
            "l2_tlb.port": self.l2_tlb_port,
            "iommu.walkers": self.iommu.walker_pool,
        }
        for index, icache in enumerate(self.icaches):
            ports[f"icache{index}.port"] = icache.port
        for cu in self.cus:
            ports[f"cu{cu.cu_id}.lds.port"] = cu.lds.port
        return ports

    def attach_timelines(self, max_intervals: int = 100_000):
        """Attach a bounded busy/idle timeline sampler to every telemetry
        port (:meth:`telemetry_ports`); returns ``{name: sampler}`` ready
        for :func:`repro.sim.trace.write_chrome_trace`."""

        from repro.sim.trace import TimelineSampler

        samplers = {}
        for name, port in self.telemetry_ports().items():
            sampler = TimelineSampler(
                name, lanes=port.units, max_intervals=max_intervals
            )
            port.attach_timeline(sampler)
            samplers[name] = sampler
        return samplers

    def detach_timelines(self) -> None:
        """Detach all timeline samplers (ports go back to zero-cost)."""

        for port in self.telemetry_ports().values():
            port.attach_timeline(None)

    def driver_shootdown(self, vpns, now: int = 0):
        """Driver-initiated shootdown through the PM4-style command path.

        Enqueues one shootdown packet for ``vpns`` and drains the command
        processor (Section 7.1); returns the packet results, whose
        ``completed_at`` reflects packet decode + per-page broadcast time.
        """

        self.command_processor.enqueue_shootdown(vpns)
        return self.command_processor.drain(now)


class _AppProgress:
    """Drives one application's kernel sequence: each kernel launches
    from the completion of the one before it."""

    def __init__(self, system: GPUSystem, app: AppSpec, dispatcher, scheduler) -> None:
        self.system = system
        self.app = app
        self.dispatcher = dispatcher
        self.scheduler = scheduler
        self.next_kernel = 0
        self.finished_at = 0
        self.kernel_results: List[KernelResult] = []
        self._invocations: Dict[str, int] = {}
        self._kernel_started_at = 0
        self._kernel_snapshot: Dict[str, float] = {}
        # The I-caches this app's partition fetches through (a group's
        # I-cache may be shared with a neighbouring partition; the
        # kernel-boundary flush then affects co-resident lines exactly as
        # the shared hardware would).
        self.icaches: List = []
        for cu in dispatcher.cus:
            if cu.icache not in self.icaches:
                self.icaches.append(cu.icache)

    def launch_next(self, now: int) -> None:
        kernel = self.app.kernels[self.next_kernel]
        invocation = self._invocations.get(kernel.name, 0)
        self._invocations[kernel.name] = invocation + 1
        self.next_kernel += 1
        self._kernel_started_at = now
        self._kernel_snapshot = self.system.stats.snapshot()
        self.dispatcher.start_kernel(
            self.app.name,
            kernel,
            invocation,
            self.system._code_base(kernel.name),
            self.scheduler,
            now,
        )

    def kernel_completed(self, now: int) -> None:
        kernel = self.app.kernels[self.next_kernel - 1]
        self.kernel_results.append(
            KernelResult(
                kernel_name=kernel.name,
                invocation=self._invocations[kernel.name] - 1,
                start_cycle=self._kernel_started_at,
                end_cycle=now,
                counters=self.system.stats.delta_since(self._kernel_snapshot),
            )
        )
        if self.next_kernel < len(self.app.kernels):
            # The inter-kernel step: fire the Section 4.3.3 kernel-boundary
            # I-cache hook on this app's I-caches, then launch after the
            # host-side overhead.
            same = self.app.kernels[self.next_kernel].name == kernel.name
            for icache in self.icaches:
                icache.on_kernel_boundary(same)
            self.launch_next(now + KERNEL_LAUNCH_OVERHEAD)
        else:
            self.finished_at = now


def _merged_box_stats(distributions):
    from repro.sim.stats import Distribution

    merged = Distribution()
    for distribution in distributions:
        merged.extend(distribution._samples)  # noqa: SLF001 - same module family
    return merged.box_stats()


def simulate(app: AppSpec, config: Optional[SystemConfig] = None) -> SimResult:
    """Convenience one-shot: build a system and run ``app`` on it."""

    from repro.config import table1_config

    system = GPUSystem(config if config is not None else table1_config())
    return system.run(app)
