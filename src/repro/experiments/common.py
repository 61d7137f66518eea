"""Shared experiment infrastructure.

- A process-wide result memo plus the process-default on-disk store
  (:func:`default_store`): many figures share the same baseline runs, so
  one ``repro report`` simulates each distinct job once.
- ``cache_key``: one job's identity, ``app|scale|config.signature``; each
  configuration object derives its signature once and keeps it.
- ``simulate``: one job on a fresh system, no memo and no store (the body
  of every sweep attempt); ``lookup`` and ``remember``: the memo-then-store
  read and the memo-and-store write, shared by the sweep runner and
  ``run_app``, the memoized call.
- ``Grid``: one figure's app × arm grid, declared once. Its ``jobs`` are
  the figure's ``sweep_jobs*``; its ``sweep`` runs them through the sweep
  runner and hands the row loop a :class:`Cells` lookup plus the
  :class:`~repro.sim.runner.SweepReport`.
- ``ExperimentResult``: rows + formatting shared by all figure harnesses,
  and the report of the sweep that produced them.

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
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.config import SystemConfig, table1_config
from repro.sim.results import SimResult, geomean
from repro.sim.runner import SweepJob, SweepReport, SweepRunner
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


def cache_key(app_name: str, config: SystemConfig, scale: float) -> str:
    """Cache identity of one (app, config, scale) simulation.

    ``float(scale)``: ``scale=1`` and ``scale=1.0`` are the same
    simulation and must share one identity (an int interpolates as "1", a
    float as "1.0", which used to split the key and miss warm caches).
    """

    return f"{app_name}|{float(scale)}|{config.signature}"


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


def simulate(app_name: str, config: SystemConfig, scale: float) -> SimResult:
    """One job simulated on a fresh system; reads and writes no cache."""

    app = make_app(app_name, scale=scale, page_size=config.page_size)
    return GPUSystem(config).run(app)


def lookup(key: str, store: Optional[ResultStore]) -> Optional[SimResult]:
    """The result for ``key`` from the process memo, else from ``store``
    (memoizing what it finds), else ``None``."""

    result = _CACHE.get(key)
    if result is None and store is not None:
        result = store.load(key)
        if result is not None:
            _CACHE[key] = result
    return result


def remember(key: str, result: SimResult, store: Optional[ResultStore]) -> None:
    """Memoize a freshly simulated ``result`` and write it to ``store``."""

    _CACHE.setdefault(key, result)
    if store is not None:
        store.store(key, result)


def run_app(
    app_name: str,
    config: Optional[SystemConfig] = None,
    scale: Optional[float] = None,
) -> SimResult:
    """Simulate ``app_name`` under ``config`` (Table 1 baseline by default),
    memoized in-process and through :func:`default_store`."""

    if config is None:
        config = table1_config()
    scale = resolve_scale(scale)
    key = cache_key(app_name, config, scale)
    store = default_store()
    result = lookup(key, store)
    if result is None:
        result = simulate(app_name, config, scale)
        remember(key, result, store)
    return result


def scheme_arms(schemes: Sequence, label=lambda scheme: scheme.value) -> Dict:
    """Grid arms: the baseline, then the Table 1 configuration of each
    scheme, labelled ``label(scheme)``."""

    return {"baseline": table1_config()} | {
        label(scheme): table1_config(scheme) for scheme in schemes
    }


def resolve_scale(scale: Optional[float]) -> float:
    """``scale``, or ``REPRO_SCALE``'s default when it is ``None``."""

    return DEFAULT_SCALE if scale is None else float(scale)


@dataclass
class Grid:
    """One figure's app × arm grid, declared once.

    ``arms`` maps each arm's label to its configuration. Jobs enumerate
    app-major (every arm of one app, then the next app) or, with
    ``arm_major``, one arm across every app at a time. A figure's
    ``sweep_jobs*`` and its row loop are both built from this one
    declaration, so they cannot drift apart.
    """

    apps: Sequence[str]
    arms: Dict[Hashable, SystemConfig]
    arm_major: bool = False

    def cells(self) -> List[Tuple[str, Hashable]]:
        if self.arm_major:
            return [(app, label) for label in self.arms for app in self.apps]
        return [(app, label) for app in self.apps for label in self.arms]

    def jobs(self, scale: Optional[float] = None) -> List[SweepJob]:
        scale = resolve_scale(scale)
        return [SweepJob(app, self.arms[label], scale) for app, label in self.cells()]

    def sweep(self, scale: Optional[float] = None) -> Tuple["Cells", SweepReport]:
        """Run the grid through the sweep runner (``keep_going``: a failed
        job leaves a gap, not an abort); returns the cells and the report."""

        scale = resolve_scale(scale)
        runner = SweepRunner(keep_going=True)
        results, report = runner.run_with_report(self.jobs(scale))
        return Cells(self, scale, results), report


class Cells:
    """One swept grid's results, looked up as ``cells(app, label)``."""

    def __init__(
        self, grid: Grid, scale: float, results: Sequence[Optional[SimResult]]
    ) -> None:
        self.grid = grid
        self.scale = scale
        self._results = dict(zip(grid.cells(), results))

    def __call__(self, app: str, label: Hashable) -> SimResult:
        if (app, label) not in self._results:
            raise KeyError(f"cell ({app!r}, {label!r}) is outside the grid")
        result = self._results[app, label]
        if result is None:
            # The sweep failed this job terminally: re-simulate it here.
            config = self.grid.arms[label]
            result = self._results[app, label] = run_app(app, config, self.scale)
        return result

    @property
    def arms(self) -> List[Hashable]:
        """Every arm label but the baseline's."""

        return [label for label in self.grid.arms if label != "baseline"]

    def speedup(
        self, app: str, label: Hashable, baseline: Hashable = "baseline"
    ) -> float:
        return self(app, baseline).cycles / self(app, label).cycles

    def speedup_rows(self, **columns) -> List[Dict]:
        """One row per app: ``app``, then ``columns`` (each a function of
        the app), then every arm's speedup over the baseline."""

        return [
            {"app": app}
            | {name: column(app) for name, column in columns.items()}
            | {label: self.speedup(app, label) for label in self.arms}
            for app in self.grid.apps
        ]

    def gmean(self, label: Hashable, baseline: Hashable = "baseline") -> float:
        """Geometric-mean speedup of ``label`` over ``baseline`` across the apps."""

        return gmean_speedup(
            [self.speedup(app, label, baseline) for app in self.grid.apps]
        )


@dataclass
class ExperimentResult:
    """Rows of one reproduced table/figure, plus paper reference points
    and the report of the sweep that simulated its grid."""

    experiment_id: str
    title: str
    rows: List[Dict] = field(default_factory=list)
    paper_notes: str = ""
    sweep_report: Optional[SweepReport] = None

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


def gmean_row(rows: List[Dict], columns: Sequence[Hashable], **leading) -> Dict:
    """A summary row: the ``leading`` cells, then each column's gmean over ``rows``."""

    return leading | {
        column: gmean_speedup([row[column] for row in rows]) for column in columns
    }


def mean_row(rows: List[Dict], columns: Sequence[Hashable], **leading) -> Dict:
    """A summary row: the ``leading`` cells, then each column's arithmetic
    mean over ``rows``."""

    return leading | {
        column: sum(row[column] for row in rows) / len(rows) for column in columns
    }
