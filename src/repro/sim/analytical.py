"""Analytical translation-reach estimator (``repro estimate``).

Predicts an application's PTW-PKI and scheme speedup *without timing
simulation*, in two stages:

1. **Functional reach model.** The deterministic wave programs are replayed
   through the real capacity/replacement structures — per-CU L1 TLBs, the
   reconfigurable LDS and I-cache victim caches, the shared L2 TLB, the
   IOMMU device TLBs and split page-walk caches — with all timing stripped
   out (ports are probed at a fixed anchor, latencies discarded). Wave
   programs are interleaved round-robin per CU, a first-order stand-in for
   the event scheduler's latency-driven interleave, and work-group
   admission honours the real wave-slot and LDS-allocation limits so the
   victim caches see realistic application contention. The output is the
   per-level translation service histogram: L1 / LDS / I-cache / L2 TLB /
   DUCATI / IOMMU hits and finally page walks — i.e. the *reach* of each
   configuration.

2. **Closed-form latency model.** Per-level service counts are weighted by
   the configuration's latencies (accumulating probe costs along the
   Section 4.4 lookup path), walks are costed from the functional PWC's
   skip levels, and a roofline combines instruction issue bandwidth, the
   walker-pool throughput bound, and the concurrency-hidden translation
   stall into an estimated cycle count. Speedups are ratios of estimates.

The estimator's contract is *accuracy of the reach model*, not byte
identity: tests/sim/test_analytical.py validates estimated PTW-PKI against
the simulator across the Figure 13 grid diagonal (see the tolerance
there). The latency side is a first-order bound model: useful for ranking
schemes and sizing effects, not for absolute cycle counts.

Differences from the simulator, by design:

- No MSHR/in-flight merge table: a walk's fill is visible immediately, so
  accesses the simulator merges hit the L1 TLB here instead — the same
  number of walks either way, which is what PTW-PKI measures.
- No queuing: scheduler interleave is round-robin, so shared-structure
  LRU stacks see slightly different orderings than the simulator's.
- DUCATI's LLC-resident directory is collapsed into its part-of-memory
  TLB (reach-wise a superset; the latency model charges a blended cost).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig, TxScheme, table1_config
from repro.core.fill_flow import VictimFillFlow
from repro.core.reconfig_icache import ReconfigurableICache
from repro.core.reconfig_lds import LDSTxCache
from repro.core.translation import SharingTracker
from repro.gpu.instructions import ALU, LDS, LINE, MEM
from repro.gpu.lds import LocalDataShare
from repro.gpu.wavefront import IB_LINES
from repro.pagetable.walk_cache import SplitPageWalkCache
from repro.sim.stats import Stats
from repro.tlb.base import TranslationEntry
from repro.tlb.fully_assoc import FullyAssociativeTLB
from repro.tlb.set_assoc import SetAssociativeTLB
from repro.workloads.base import AppSpec, KernelSpec, ProgramContext
from repro.workloads.registry import make_app

#: Service levels, in lookup-path order (the Estimate histogram keys).
SERVICE_LEVELS = (
    "l1_tlb", "lds", "icache", "l2_tlb", "ducati",
    "iommu_l1", "iommu_l2", "walk",
)


@dataclass
class Estimate:
    """One application × configuration reach/latency estimate."""

    app_name: str
    scheme: str
    instructions: int = 0
    translations: int = 0
    #: Translations serviced at each level (SERVICE_LEVELS keys).
    serviced: Dict[str, int] = field(default_factory=dict)
    #: PTE memory accesses across all walks (walk depth after PWC skips).
    pte_accesses: int = 0
    #: Peak concurrently-resident waves on any CU (latency-hiding width).
    peak_waves_per_cu: int = 0
    #: Roofline cycle estimate (first-order; use ratios, not absolutes).
    est_cycles: float = 0.0

    @property
    def page_walks(self) -> int:
        return self.serviced.get("walk", 0)

    @property
    def ptw_pki(self) -> float:
        if not self.instructions:
            return 0.0
        return 1000.0 * self.page_walks / self.instructions


class _PomDucati:
    """Reach-only DUCATI stand-in: one LRU pool at POM-TLB capacity.

    The real DucatiStore layers an LLC-resident directory (entries killed
    by data contention) over the POM TLB; reach-wise the POM TLB is the
    superset that determines whether a walk is avoided, so the functional
    model keeps only it. Latency blending happens in the latency model.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._pool: "OrderedDict[tuple, TranslationEntry]" = OrderedDict()

    def lookup(self, key: tuple) -> Optional[TranslationEntry]:
        entry = self._pool.get(key)
        if entry is not None:
            self._pool.move_to_end(key)
        return entry

    def fill(self, entry: TranslationEntry) -> None:
        key = entry.key
        if key in self._pool:
            self._pool.move_to_end(key)
            return
        if len(self._pool) >= self.capacity:
            self._pool.popitem(last=False)
        self._pool[key] = entry


class _WaveState:
    """One in-flight wave during functional replay."""

    __slots__ = ("ops", "workgroup", "ib")

    def __init__(self, ops, workgroup) -> None:
        self.ops = ops
        self.workgroup = workgroup
        self.ib: List[int] = []


class _WorkGroupState:
    __slots__ = ("waves_left", "alloc_id")

    def __init__(self, waves_left: int, alloc_id: Optional[int]) -> None:
        self.waves_left = waves_left
        self.alloc_id = alloc_id


class FunctionalReachModel:
    """Replays an app through the real structures with timing stripped."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        scheme = config.scheme
        # Plugin schemes declare whether the analytical model can estimate
        # them; refuse clearly rather than silently modelling the scheme as
        # a baseline (TxScheme members carry no flag — all are modelled).
        if not getattr(scheme, "analytical", True):
            raise ValueError(
                f"scheme {scheme.value!r} is not supported by the "
                f"analytical model; simulate it instead"
            )
        num_cus = config.gpu.num_cus
        # Scratch stats sink: the reused structures insist on one; its
        # counters are never read (the model keeps its own histogram).
        stats = Stats()
        self.counts: Dict[str, int] = {level: 0 for level in SERVICE_LEVELS}
        self.instructions = 0
        self.translations = 0
        self.pte_accesses = 0
        self.peak_waves_per_cu = 0

        self.sharing = SharingTracker()
        self.l2_tlb = SetAssociativeTLB(
            config.tlb.l2_entries, config.tlb.l2_ways, stats=stats,
            perfect=config.tlb.perfect_l2,
        )
        self.ducati = (
            _PomDucati(config.ducati.pom_tlb_entries)
            if scheme.uses_ducati else None
        )
        self.iommu_l1 = FullyAssociativeTLB(
            config.iommu.l1_tlb_entries, name="iommu_l1", stats=stats
        )
        self.iommu_l2 = SetAssociativeTLB(
            config.iommu.l2_tlb_entries,
            min(8, config.iommu.l2_tlb_entries),
            name="iommu_l2", stats=stats,
        )
        self.levels = 3 if config.page_size == 2 * 1024 * 1024 else 4
        self.pwc = SplitPageWalkCache(config.iommu, levels=self.levels, stats=stats)

        # Per-CU structures. The LDS allocator exists for every scheme (it
        # gates work-group admission); the Tx overlay only when used.
        self.l1_tlbs = [
            FullyAssociativeTLB(config.tlb.l1_entries, stats=stats)
            for _ in range(num_cus)
        ]
        self.lds_units = [
            LocalDataShare(config.lds, config.lds_tx, stats=stats,
                           track_idle=False)
            for _ in range(num_cus)
        ]
        self.lds_tx = [
            LDSTxCache(lds, config.lds_tx, stats=stats)
            if scheme.uses_lds_tx else None
            for lds in self.lds_units
        ]
        self.icaches: List[Optional[ReconfigurableICache]] = []
        if scheme.uses_icache_tx:
            per_group = config.icache.cus_per_icache
            groups = max(1, num_cus // per_group)
            shared = [
                ReconfigurableICache(config.icache, config.icache_tx,
                                     stats=stats, track_idle=False)
                for _ in range(groups)
            ]
            for icache in shared:
                icache.spill_target = self.l2_tlb
            self.icaches = [shared[cu // per_group] for cu in range(num_cus)]
        else:
            self.icaches = [None] * num_cus

        self.fill_flows = [
            VictimFillFlow(
                self.l2_tlb, lds_tx=self.lds_tx[cu],
                icache_tx=self.icaches[cu], ducati=self.ducati, stats=stats,
                lds_first=config.lds_before_icache, sharing=self.sharing,
                dedup_shared=config.dedup_shared_fills,
            )
            for cu in range(num_cus)
        ]
        # Lookup stage order mirrors TranslationService (Section 4.4).
        self.stages: List[List[Tuple[str, object]]] = []
        for cu in range(num_cus):
            stage_list = []
            if self.lds_tx[cu] is not None:
                stage_list.append(("lds", self.lds_tx[cu].lookup))
            if self.icaches[cu] is not None:
                stage_list.append(("icache", self.icaches[cu].tx_lookup))
            if not config.lds_before_icache:
                stage_list.reverse()
            self.stages.append(stage_list)

    # -- translation chain ----------------------------------------------

    def _promote(self, cu: int, entry: TranslationEntry) -> None:
        victim = self.l1_tlbs[cu].insert(entry)
        if victim is not None:
            self.fill_flows[cu].fill(victim, 0)

    def translate(self, cu: int, vpn: int) -> None:
        self.translations += 1
        self.sharing.record(cu, vpn)
        key = (0, 0, vpn)
        counts = self.counts

        if self.l1_tlbs[cu].lookup(key) is not None:
            counts["l1_tlb"] += 1
            return
        for label, lookup in self.stages[cu]:
            entry, _ = lookup(key, 0)
            if entry is not None:
                counts[label] += 1
                self._promote(cu, entry)
                return
        entry = self.l2_tlb.lookup(key)
        if entry is not None:
            counts["l2_tlb"] += 1
            self._promote(cu, entry)
            return
        if self.ducati is not None:
            entry = self.ducati.lookup(key)
            if entry is not None:
                counts["ducati"] += 1
                self.l2_tlb.insert(entry)
                self._promote(cu, entry)
                return
        entry = self.iommu_l1.lookup(key)
        if entry is None:
            entry = self.iommu_l2.lookup(key)
            if entry is not None:
                counts["iommu_l2"] += 1
                self.iommu_l1.insert(entry)
            else:
                counts["walk"] += 1
                skipped = self.pwc.lookup(0, vpn)
                self.pte_accesses += self.levels - skipped
                self.pwc.fill(0, vpn)
                entry = TranslationEntry(vpn=vpn, pfn=vpn, vmid=0, vrf_id=0)
                self.iommu_l1.insert(entry)
                self.iommu_l2.insert(entry)
        else:
            counts["iommu_l1"] += 1
        self.l2_tlb.insert(entry)
        self._promote(cu, entry)

    # -- workload replay ------------------------------------------------

    def run(self, app: AppSpec) -> None:
        invocation_counts: Dict[str, int] = {}
        code_bases: Dict[str, int] = {}
        for index, kernel in enumerate(app.kernels):
            if index > 0:
                same = kernel.name == app.kernels[index - 1].name
                for icache in dict.fromkeys(
                    ic for ic in self.icaches if ic is not None
                ):
                    icache.on_kernel_boundary(same)
            invocation = invocation_counts.get(kernel.name, 0)
            invocation_counts[kernel.name] = invocation + 1
            base = code_bases.setdefault(kernel.name, len(code_bases) * (1 << 20))
            self._run_kernel(app.name, kernel, invocation, base)

    def _run_kernel(
        self, app_name: str, kernel: KernelSpec, invocation: int, code_base: int
    ) -> None:
        num_cus = self.config.gpu.num_cus
        max_waves = self.config.gpu.max_waves_per_cu
        pending: List[deque] = [deque() for _ in range(num_cus)]
        for wg_id in range(kernel.num_workgroups):
            pending[wg_id % num_cus].append(wg_id)
        active: List[List[_WaveState]] = [[] for _ in range(num_cus)]
        used_slots = [0] * num_cus

        def admit(cu: int) -> None:
            lds = self.lds_units[cu]
            while pending[cu]:
                if used_slots[cu] + kernel.waves_per_workgroup > max_waves:
                    return
                if not lds.can_allocate(kernel.lds_bytes_per_workgroup):
                    return
                wg_id = pending[cu].popleft()
                alloc_id = lds.allocate(kernel.lds_bytes_per_workgroup)
                workgroup = _WorkGroupState(kernel.waves_per_workgroup, alloc_id)
                used_slots[cu] += kernel.waves_per_workgroup
                for wave_id in range(kernel.waves_per_workgroup):
                    context = ProgramContext(
                        app_name=app_name,
                        kernel_name=kernel.name,
                        invocation=invocation,
                        wg_id=wg_id,
                        wave_id=wave_id,
                        num_workgroups=kernel.num_workgroups,
                        waves_per_workgroup=kernel.waves_per_workgroup,
                    )
                    active[cu].append(_WaveState(
                        iter(kernel.program_factory(context)), workgroup
                    ))
                if len(active[cu]) > self.peak_waves_per_cu:
                    self.peak_waves_per_cu = len(active[cu])

        for cu in range(num_cus):
            admit(cu)

        # Round-robin interleave: one op per resident wave per round, CUs
        # visited in order — the functional analogue of the scheduler
        # advancing the globally-oldest wave.
        busy = True
        while busy:
            busy = False
            for cu in range(num_cus):
                waves = active[cu]
                if not waves:
                    continue
                busy = True
                retired = False
                for wave in waves:
                    op = next(wave.ops, None)
                    if op is None:
                        workgroup = wave.workgroup
                        workgroup.waves_left -= 1
                        used_slots[cu] -= 1
                        if workgroup.waves_left == 0 and workgroup.alloc_id:
                            self.lds_units[cu].free(workgroup.alloc_id)
                        wave.ops = None
                        retired = True
                        continue
                    self._exec_op(cu, wave, op, code_base)
                if retired:
                    active[cu] = [w for w in waves if w.ops is not None]
                    admit(cu)

    def _exec_op(self, cu: int, wave: _WaveState, op: tuple, code_base: int) -> None:
        kind = op[0]
        if kind == MEM:
            self.instructions += op[2]
            for vpn in dict.fromkeys(op[1]):
                self.translate(cu, vpn)
        elif kind == ALU or kind == LDS:
            self.instructions += op[1]
        elif kind == LINE:
            # Instruction residency only matters where it contends with
            # translations (the reconfigurable I-cache schemes).
            icache = self.icaches[cu]
            if icache is None:
                return
            line_id = op[1]
            ib = wave.ib
            if line_id in ib:
                return
            ib.append(line_id)
            if len(ib) > IB_LINES:
                ib.pop(0)
            icache.fetch(code_base + line_id, 0)


# ----------------------------------------------------------------------
# Closed-form latency model
# ----------------------------------------------------------------------


def _roofline_cycles(config: SystemConfig, model: FunctionalReachModel) -> float:
    """First-order cycle estimate from the reach histogram.

    ``max(issue bandwidth, walker-pool throughput) + hidden stall``: the
    issue term is each SIMD retiring one instruction per cycle; the walker
    term is the serial walk work divided across the pool (the walk-storm
    bound of Section 3.1); the stall term is the per-level translation
    latency divided by the latency-hiding width (resident waves per CU).
    """

    counts = model.counts
    tlb, iommu = config.tlb, config.iommu
    scheme = config.scheme
    lds_probe = config.lds_tx.tx_probe_latency if scheme.uses_lds_tx else 0
    ic_probe = config.icache_tx.tx_probe_latency if scheme.uses_icache_tx else 0
    first_probe = lds_probe if config.lds_before_icache else ic_probe

    latency = {"l1_tlb": tlb.l1_latency}
    latency["lds"] = tlb.l1_latency + config.lds_tx.tx_hit_latency + (
        ic_probe if not config.lds_before_icache else 0
    )
    latency["icache"] = tlb.l1_latency + config.icache_tx.tx_hit_latency + (
        lds_probe if config.lds_before_icache else 0
    )
    miss_probes = tlb.l1_latency + lds_probe + ic_probe
    latency["l2_tlb"] = miss_probes + tlb.l2_latency
    # DUCATI hits split between the LLC-resident line and the
    # part-of-memory TLB; charge the blended midpoint.
    latency["ducati"] = latency["l2_tlb"] + config.ducati.l2_tx_latency + 0.5 * (
        config.ducati.pom_tlb_latency + config.dram.access_latency
    )
    iommu_base = latency["l2_tlb"] + iommu.request_overhead
    latency["iommu_l1"] = iommu_base + iommu.l1_tlb_latency
    latency["iommu_l2"] = latency["iommu_l1"] + iommu.l2_tlb_latency
    walks = counts["walk"]
    avg_walk = (
        iommu.pwc_latency
        + (model.pte_accesses / walks) * config.dram.access_latency
        if walks else 0.0
    )
    latency["walk"] = latency["iommu_l2"] + avg_walk
    del first_probe  # folded into the per-level terms above

    stall = sum(counts[level] * latency[level] for level in SERVICE_LEVELS)
    issue = model.instructions / (config.gpu.num_cus * config.gpu.simds_per_cu)
    walker_bound = walks * avg_walk / iommu.num_walkers
    width = max(1, model.peak_waves_per_cu) * config.gpu.num_cus
    return max(issue, walker_bound) + stall / width


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def estimate_app(
    app_name: str, config: SystemConfig, scale: float = 1.0
) -> Estimate:
    """Estimate one application × configuration without simulation."""

    app = make_app(app_name, scale=scale, page_size=config.page_size)
    model = FunctionalReachModel(config)
    model.run(app)
    estimate = Estimate(
        app_name=app.name,
        scheme=config.scheme.value,
        instructions=model.instructions,
        translations=model.translations,
        serviced=dict(model.counts),
        pte_accesses=model.pte_accesses,
        peak_waves_per_cu=model.peak_waves_per_cu,
    )
    estimate.est_cycles = _roofline_cycles(config, model)
    return estimate


def estimate_speedups(
    app_name: str,
    schemes: List[TxScheme],
    scale: float = 1.0,
    base_config: Optional[SystemConfig] = None,
) -> Dict[str, float]:
    """Estimated speedup of each scheme over the baseline configuration."""

    if base_config is None:
        base_config = table1_config()
    baseline = estimate_app(app_name, base_config, scale)
    speedups = {}
    for scheme in schemes:
        candidate = estimate_app(
            app_name, base_config.with_scheme(scheme), scale
        )
        speedups[scheme.value] = (
            baseline.est_cycles / candidate.est_cycles
            if candidate.est_cycles else 1.0
        )
    return speedups
