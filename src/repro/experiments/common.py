"""Shared experiment infrastructure.

- A process-wide result memo plus the process-default on-disk store
  (:func:`default_store`): many figures share the same baseline runs, and
  pytest-benchmark repeats harness calls.
- ``simulate``: one job against an explicit store, never the memo (the
  body of every sweep attempt); ``run_app``: the memoized call harnesses
  use.
- ``ExperimentResult``: rows + formatting shared by all figure harnesses.

Scale: experiments honour the ``REPRO_SCALE`` environment variable
(default 1.0). Scaling shrinks per-wave work, keeping every mechanism
exercised while making CI-sized runs fast; the paper itself scaled its gem5
configuration down for the same reason (Section 5).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig, TxScheme, table1_config
from repro.sim.results import SimResult, geomean
from repro.sim.store import ResultStore
from repro.system import GPUSystem
from repro.workloads.registry import make_app

DEFAULT_SCALE = float(os.environ.get("REPRO_SCALE", "1.0"))

_CACHE: Dict[str, SimResult] = {}

_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", "")

#: Version tag written into every on-disk payload. Bump whenever the
#: serialized shape of :class:`SimResult` changes — or when the simulator's
#: measured semantics change (e.g. the v2 port-idle zero-gap fix), so stale
#: results never mix with fresh ones; files carrying a different tag are
#: treated as stale and re-simulated (then overwritten).
CACHE_SCHEMA = "repro-simresult-v2"

#: Kept for callers that tune cache logging by name; the store itself
#: logs under "repro.sim.store" (see :mod:`repro.sim.store`).
_LOG = logging.getLogger("repro.experiments.cache")


def clear_cache() -> None:
    _CACHE.clear()


def _config_signature(config: SystemConfig) -> str:
    # Hash the explicit serialized form, not repr(): the signature then
    # only changes when a setting's *value* changes, not when unrelated
    # fields are added to the dataclasses.
    from repro.config_io import config_to_dict

    text = json.dumps(config_to_dict(config), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cache_key(app_name: str, config: SystemConfig, scale: float) -> str:
    # float(scale): ``scale=1`` and ``scale=1.0`` are the same simulation
    # and must share one cache identity (an int interpolates as "1", a
    # float as "1.0", which used to split the key and miss warm caches).
    return f"{app_name}|{float(scale)}|{_config_signature(config)}"


def cache_key(app_name: str, config: SystemConfig, scale: float) -> str:
    """Public cache identity of one (app, config, scale) simulation."""

    return _cache_key(app_name, config, scale)


def default_store() -> Optional[ResultStore]:
    """The process-default result store, rooted at ``_CACHE_DIR`` (from
    ``REPRO_CACHE_DIR``; ``--cache-dir`` and tests set the module knob),
    or ``None`` when no disk cache is configured."""

    return ResultStore(_CACHE_DIR) if _CACHE_DIR else None


def serialize_result(result: SimResult) -> Dict:
    """The versioned, JSON-ready form of a :class:`SimResult`."""

    return {
        "schema": CACHE_SCHEMA,
        "app_name": result.app_name,
        "scheme": result.scheme,
        "cycles": result.cycles,
        "counters": result.counters,
        "kernels": [
            {
                "kernel_name": kernel.kernel_name,
                "invocation": kernel.invocation,
                "start_cycle": kernel.start_cycle,
                "end_cycle": kernel.end_cycle,
                "counters": kernel.counters,
            }
            for kernel in result.kernels
        ],
        "distributions": {
            name: (stats.__dict__ if stats is not None else None)
            for name, stats in result.distributions.items()
        },
    }


def deserialize_result(payload: Dict) -> SimResult:
    """Inverse of :func:`serialize_result`. Raises on malformed payloads."""

    from repro.sim.results import KernelResult
    from repro.sim.stats import BoxStats

    kernels = [KernelResult(**kernel) for kernel in payload.get("kernels", [])]
    distributions = {
        name: (BoxStats(**stats) if stats else None)
        for name, stats in payload.get("distributions", {}).items()
    }
    return SimResult(
        app_name=payload["app_name"],
        scheme=payload["scheme"],
        cycles=payload["cycles"],
        counters=payload["counters"],
        kernels=kernels,
        distributions=distributions,
    )


def result_fingerprint(result: SimResult) -> str:
    """A stable byte-level digest of a result's serialized form.

    Two results are equivalent iff their fingerprints match; the
    determinism tests compare parallel and serial runs this way.
    """

    text = json.dumps(serialize_result(result), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def simulate(
    app_name: str,
    config: SystemConfig,
    scale: float,
    store: Optional[ResultStore],
) -> SimResult:
    """One job against an explicit ``store``: served from it when the
    entry is there, else simulated on a fresh system and written to it.
    Never touches the in-process memo; ``store=None`` always simulates."""

    key = _cache_key(app_name, config, scale)
    cached = store.load(key) if store is not None else None
    if cached is not None:
        return cached
    app = make_app(app_name, scale=scale, page_size=config.page_size)
    result = GPUSystem(config).run(app)
    if store is not None:
        store.store(key, result)
    return result


def run_app(
    app_name: str,
    config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
    use_cache: bool = True,
) -> SimResult:
    """Simulate ``app_name`` under ``config`` (Table 1 baseline by default),
    memoized in-process and through :func:`default_store` unless
    ``use_cache`` is off."""

    if config is None:
        config = table1_config()
    if scale is None:
        scale = DEFAULT_SCALE
    scale = float(scale)
    if not use_cache:
        return simulate(app_name, config, scale, None)
    key = _cache_key(app_name, config, scale)
    result = _CACHE.get(key)
    if result is None:
        result = _CACHE[key] = simulate(app_name, config, scale, default_store())
    return result


def scheme_config(scheme: TxScheme) -> SystemConfig:
    return table1_config(scheme)


def speedup_over_baseline(
    app_name: str, config: SystemConfig, scale: Optional[float] = None
) -> float:
    baseline = run_app(app_name, table1_config(), scale)
    candidate = run_app(app_name, config, scale)
    return baseline.cycles / candidate.cycles


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure, plus paper reference points."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    paper_notes: str = ""

    @property
    def columns(self) -> List[str]:
        columns: List[str] = []
        for row in self.rows:
            for name in row:
                if name not in columns:
                    columns.append(name)
        return columns

    def column(self, name: str) -> List:
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, value) -> Dict:
        for row in self.rows:
            if row.get(key_column) == value:
                return row
        raise KeyError(f"no row with {key_column}={value!r}")

    def format_table(self) -> str:
        columns = self.columns
        header = " | ".join(columns)
        divider = " | ".join("---" for _ in columns)
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append(f"| {header} |")
        lines.append(f"| {divider} |")
        for row in self.rows:
            cells = []
            for name in columns:
                value = row.get(name, "")
                if isinstance(value, float):
                    cells.append(f"{value:.3f}")
                else:
                    cells.append(str(value))
            lines.append("| " + " | ".join(cells) + " |")
        if self.paper_notes:
            lines.append("")
            lines.append(self.paper_notes)
        return "\n".join(lines)


def gmean_speedup(speedups: Sequence[float]) -> float:
    return geomean(speedups)
