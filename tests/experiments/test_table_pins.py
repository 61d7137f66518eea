"""Table and grid-order pins: the gate for edits to the experiment harnesses.

- Every ``ALL_EXPERIMENTS`` table is rendered at scale 0.02 with the
  synthetic simulator (``conftest.synthetic``), and the sha256 of its
  ``format_table()`` is pinned. A harness edit that feeds a different
  configuration into a cell, drops a column, reorders rows or changes a
  formula moves the pin. The Figures 4 + 5 survey apps are not registry
  apps and still simulate for real.
- Every ``SWEEP_GRIDS`` grid's ordered ``SweepJob.key()`` list is pinned
  by its sha256 at scale 0.02: these grids are the CLI and service
  vocabulary, so their contents and order are a contract.

Both run in seconds. After an *intentional* change to a table or grid,
regenerate with::

    pytest tests/experiments/test_table_pins.py --update-goldens

and say in the change why every rewritten pin moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.experiments.report import ALL_EXPERIMENTS, SWEEP_GRIDS

SCALE = 0.02
PIN_PATH = Path(__file__).resolve().parent.parent / "pins" / "tables.json"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_pins() -> Dict[str, Dict[str, str]]:
    if not PIN_PATH.exists():
        return {"grids": {}, "tables": {}}
    return json.loads(PIN_PATH.read_text())


def _write_pins(pins: Dict[str, Dict[str, str]]) -> None:
    PIN_PATH.parent.mkdir(parents=True, exist_ok=True)
    PIN_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


def _check(section: str, name: str, current: str, update: bool) -> None:
    pins = _load_pins()
    if update:
        pins.setdefault(section, {})[name] = current
        _write_pins(pins)
        return
    assert name in pins.get(section, {}), (
        f"no {section} pin for {name!r}; generate with "
        "`pytest tests/experiments/test_table_pins.py --update-goldens`"
    )
    assert current == pins[section][name]


@pytest.fixture(scope="module")
def tables(synthetic) -> Dict[str, str]:
    return {name: runner(SCALE).format_table() for name, runner in ALL_EXPERIMENTS}


@pytest.mark.parametrize("name", [name for name, _ in ALL_EXPERIMENTS])
def test_table_pin(name, tables, update_goldens):
    _check("tables", name, _sha(tables[name]), update_goldens)


@pytest.mark.parametrize("name", sorted(SWEEP_GRIDS))
def test_grid_order_pin(name, update_goldens):
    keys = [job.key() for job in SWEEP_GRIDS[name](SCALE)]
    _check("grids", name, _sha("\n".join(keys)), update_goldens)


def test_pins_have_no_strays(update_goldens):
    """Every pin names a current table or grid."""

    pins = _load_pins()
    current = {
        "grids": set(SWEEP_GRIDS),
        "tables": {name for name, _ in ALL_EXPERIMENTS},
    }
    if update_goldens:
        _write_pins(
            {
                section: {k: v for k, v in pins.get(section, {}).items() if k in names}
                for section, names in current.items()
            }
        )
        return
    assert {section: set(pins.get(section, {})) for section in current} == current
