"""Which public functions the traced run wraps, and the per-layer metrics.

Each hook names a layer of the reproduction (module names, as in
``src/repro``) and the public function or method the traced run wraps from
outside. Layers are grouped by the workloads that exercise them; a traced
run installs only its workload's groups, so every other layer reports zero
calls there.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple


def _entry_hit(result) -> bool:
    # Victim-cache probes return (entry or None, stage latency).
    return result[0] is not None


def _not_none(result) -> bool:
    return result is not None


SYSTEM_HOOKS: List[Tuple[str, str, object]] = [
    ("system.build", "repro.system:GPUSystem.__init__", None),
    ("system.run", "repro.system:GPUSystem.run", None),
]

#: (layer, "module:Attr.path", hit predicate or None)
SIM_HOOKS: List[Tuple[str, str, object]] = SYSTEM_HOOKS + [
    ("stats.add", "repro.sim.stats:Stats.add", None),
    ("engine.port", "repro.sim.engine:Port.request", None),
    ("engine.sched", "repro.sim.engine:WaveScheduler.run", None),
    ("gpu.step", "repro.gpu.wavefront:Wavefront.step", None),
    ("gpu.icache_fetch", "repro.gpu.icache:InstructionCache.fetch", None),
    ("gpu.lds_access", "repro.gpu.lds:LocalDataShare.app_access", None),
    # "l1" is the fully associative TLB class (each CU's L1 TLB and the
    # IOMMU's device L1); "l2" the set-associative one (the shared L2 TLB
    # and the IOMMU's device L2).
    ("tlb.l1_lookup", "repro.tlb.fully_assoc:FullyAssociativeTLB.lookup", _not_none),
    ("tlb.l1_insert", "repro.tlb.fully_assoc:FullyAssociativeTLB.insert", None),
    ("tlb.l2_lookup", "repro.tlb.set_assoc:SetAssociativeTLB.lookup", None),
    ("tlb.l2_insert", "repro.tlb.set_assoc:SetAssociativeTLB.insert", None),
    ("tlb.mshr_check", "repro.tlb.coalescer:InFlightTable.check", None),
    ("core.translate", "repro.core.translation:TranslationService.translate", None),
    ("core.lds_probe", "repro.core.reconfig_lds:LDSTxCache.lookup", _entry_hit),
    ("core.lds_fill", "repro.core.reconfig_lds:LDSTxCache.fill", None),
    ("core.icache_probe", "repro.core.reconfig_icache:ReconfigurableICache.tx_lookup", _entry_hit),
    ("core.icache_fill", "repro.core.reconfig_icache:ReconfigurableICache.tx_fill", None),
    ("core.fill_flow", "repro.core.fill_flow:VictimFillFlow.fill", None),
    ("pagetable.walk", "repro.pagetable.iommu:IOMMU.translate", None),
    ("memory.access", "repro.memory.hierarchy:MemoryHierarchy.access_ex", None),
    ("memory.dram", "repro.memory.dram:DRAM.access", None),
]

RESULT_HOOKS = [
    ("results.serialize", "repro.experiments.common:serialize_result", None),
    ("results.deserialize", "repro.experiments.common:deserialize_result", None),
    ("results.fingerprint", "repro.experiments.common:result_fingerprint", None),
]

STORE_HOOKS = [
    ("store.load", "repro.sim.store:ResultStore.load", None),
    ("store.store", "repro.sim.store:ResultStore.store", None),
]

RUNNER_HOOKS = [
    ("runner.sweep", "repro.sim.runner:SweepRunner.run_with_report", None),
]

#: What sweep-store and service-rt trace.
SWEEP_HOOKS = RUNNER_HOOKS + RESULT_HOOKS + STORE_HOOKS

#: ``make_app`` as the benchmark calls it and as ``run_app`` calls it.
MAKE_APP_TARGETS = (
    "repro.workloads.registry:make_app",
    "repro.experiments.common:make_app",
)

#: Layers reported as calls plus self time.
CALL_LAYERS = [
    "stats.add", "engine.port", "gpu.step", "gpu.icache_fetch",
    "gpu.lds_access", "workloads.gen", "system.build",
    "tlb.l1_lookup", "tlb.l1_insert", "tlb.l2_lookup", "tlb.l2_insert",
    "tlb.mshr_check",
    "core.translate", "core.lds_probe", "core.lds_fill", "core.icache_probe",
    "core.icache_fill", "core.fill_flow",
    "pagetable.walk", "memory.access", "memory.dram",
    "results.serialize", "results.deserialize", "results.fingerprint",
    "store.load", "store.store",
]
#: Layers reported by self time only (one or few calls per job or sweep).
SELF_LAYERS = ["engine.sched", "workloads.make_app", "system.run", "runner.sweep"]
#: Useful-outcome ratios: hits / calls of a wrapped lookup.
HIT_RATIOS = {
    "tlb.l1_hit_frac": "tlb.l1_lookup",
    "core.lds_probe.hit_frac": "core.lds_probe",
    "core.icache_probe.hit_frac": "core.icache_probe",
}
#: Per-layer metrics the workloads measure themselves: name -> unit.
WORKLOAD_METRICS = {
    "model.translations": "count",
    "model.walks": "count",
    "model.victim_hits": "count",
    "store.hit_frac": "ratio",
    "executors.busy_frac": "ratio",
    "service.submit_ms": "ms",
    "service.events_ms": "ms",
    "service.result_ms": "ms",
    "service.queue_ms": "ms",
    "service.run_ms": "ms",
    "probe_ms": "ms",
    "trace.overhead": "x",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""

    units: Dict[str, str] = {}
    for name in CALL_LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in SELF_LAYERS:
        units[f"{name}.self_ms"] = "ms"
    for name in HIT_RATIOS:
        units[name] = "ratio"
    units.update(WORKLOAD_METRICS)
    return units


def install(tracer, hooks) -> None:
    for name, target, hit in hooks:
        tracer.install(name, target, hit)


def install_make_app(tracer) -> None:
    """Wrap ``make_app`` and the op iterators of every app it returns."""

    def factory(original: Callable) -> Callable:
        timed = tracer.wrap("workloads.make_app", original)

        def make_app(*args, **kwargs):
            app = timed(*args, **kwargs)
            return dataclasses.replace(app, kernels=tuple(
                dataclasses.replace(
                    kernel,
                    program_factory=_traced_program(tracer, kernel.program_factory),
                )
                for kernel in app.kernels
            ))

        return make_app

    for target in MAKE_APP_TARGETS:
        tracer.install("workloads.make_app", target, wrapper_factory=factory)


def _traced_program(tracer, program_factory: Callable) -> Callable:
    def program(context):
        return tracer.iterate("workloads.gen", program_factory(context))

    return program


def layer_metrics(tracer, units: float, scale: float) -> Dict[str, float]:
    """Calls per unit of traced work, and self milliseconds per unit
    multiplied by ``scale`` (the probe calibration factor)."""

    values: Dict[str, float] = {}
    for name in CALL_LAYERS:
        layer = tracer.layers.get(name)
        values[f"{name}.calls"] = (layer.calls if layer else 0) / units
        values[f"{name}.self_ms"] = 1e3 * tracer.self_s(name) * scale / units
    for name in SELF_LAYERS:
        values[f"{name}.self_ms"] = 1e3 * tracer.self_s(name) * scale / units
    for ratio, name in HIT_RATIOS.items():
        layer = tracer.layers.get(name)
        values[ratio] = layer.hits / layer.calls if layer and layer.calls else 0.0
    return values
