"""Result-fingerprint pins: the model gate for every simulated arm.

The goldens (``test_goldens.py``) keep readable JSON snapshots of a small
matrix; these pins cover the breadth. Each case pins the sha256
:func:`~repro.experiments.common.result_fingerprint` of its simulated
results, at scale 0.02:

- the 70 unique jobs of the Figure 13 grid;
- every other scheme, on NW and GUPS;
- the ablation arms: reversed lookup order and ``dedup_shared_fills``,
  on every app;
- one concurrent pair (``run_concurrent``) and one 2 MB-page job.

A case's label ends with its configuration's cache signature, so a moved
cache key shows up as a missing pin plus a stray one, not as a silent
re-keying of the result store.

After an *intentional* model change, regenerate with::

    pytest tests/sim/test_pins.py --update-goldens

and say in the change why every rewritten pin moved.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.config import SystemConfig, TxScheme, table1_config
from repro.experiments.common import result_fingerprint
from repro.experiments.fig13_main import sweep_jobs as fig13_sweep_jobs
from repro.schemes import config_for, scheme_names
from repro.system import GPUSystem
from repro.workloads.registry import app_names, make_app

SCALE = 0.02
PIN_PATH = Path(__file__).resolve().parent.parent / "pins" / "fingerprints.json"


def _label(group: str, app_name: str, config: SystemConfig) -> str:
    return f"{group}/{app_name}/{config.scheme.value}/{config.signature}"


def _run(app_name: str, config: SystemConfig) -> List[str]:
    app = make_app(app_name, scale=SCALE, page_size=config.page_size)
    return [result_fingerprint(GPUSystem(config).run(app))]


def _run_concurrent(app_names_: List[str], config: SystemConfig) -> List[str]:
    apps = [make_app(name, scale=SCALE, page_size=config.page_size) for name in app_names_]
    cus = config.gpu.num_cus
    partitions = [list(range(cus // 2)), list(range(cus // 2, cus))]
    results = GPUSystem(config).run_concurrent(apps, partitions)
    return [result_fingerprint(result) for result in results]


def pinned_cases() -> Dict[str, Callable[[], List[str]]]:
    """Every pinned case: label -> callable returning its fingerprints."""

    cases: Dict[str, Callable[[], List[str]]] = {}

    def single(group: str, app_name: str, config: SystemConfig) -> None:
        cases.setdefault(_label(group, app_name, config), partial(_run, app_name, config))

    fig13_jobs = fig13_sweep_jobs(SCALE)
    for job in fig13_jobs:
        single("fig13", job.app_name, job.config)
    fig13_schemes = {job.config.scheme.value for job in fig13_jobs}
    for name in scheme_names():
        if name not in fig13_schemes:
            for app_name in ("NW", "GUPS"):
                single("scheme", app_name, config_for(name))
    combined = table1_config(TxScheme.ICACHE_LDS)
    for app_name in app_names():
        single("ablation", app_name, replace(combined, lds_before_icache=False))
        single("ablation", app_name, replace(combined, dedup_shared_fills=True))
    single("pagesize", "GUPS", combined.with_page_size(2 * 1024 * 1024))
    pair = ["NW", "SSSP"]
    cases[_label("concurrent", "+".join(pair), combined)] = partial(
        _run_concurrent, pair, combined
    )
    return cases


CASES = pinned_cases()


def _load_pins() -> Dict[str, List[str]]:
    if not PIN_PATH.exists():
        return {}
    return json.loads(PIN_PATH.read_text())


def _write_pins(pins: Dict[str, List[str]]) -> None:
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def test_fig13_grid_has_seventy_unique_jobs():
    assert sum(label.startswith("fig13/") for label in CASES) == 70


@pytest.mark.parametrize("label", sorted(CASES))
def test_pinned_fingerprint(label, update_goldens):
    current = CASES[label]()
    pins = _load_pins()
    if update_goldens:
        pins[label] = current
        _write_pins(pins)
        return
    assert label in pins, (
        f"no pin for {label}; generate with "
        "`pytest tests/sim/test_pins.py --update-goldens`"
    )
    assert current == pins[label]


def test_pins_have_no_strays(update_goldens):
    """Every pin belongs to a current case: a renamed scheme or a moved
    cache signature must not leave a stale pin behind."""

    pins = _load_pins()
    if update_goldens:
        _write_pins({label: pins[label] for label in CASES if label in pins})
        return
    assert set(pins) == set(CASES)

