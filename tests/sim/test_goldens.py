"""Golden-snapshot suite: full serialized results pinned as JSON files.

The goldens pin the simulator against *history*: every counter, kernel
window and distribution of a small app/scheme matrix (2 apps x 4 schemes
at scale 0.05) is stored under ``tests/goldens/`` — any behavioral drift
in the simulator shows up as a readable JSON diff instead of a silently
shifted figure. ``test_pins.py`` pins the fingerprints of every other
simulated arm.

After an *intentional* model change, regenerate with::

    pytest tests/sim/test_goldens.py --update-goldens

and review the golden diffs like any other code change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import TxScheme, table1_config
from repro.experiments.common import serialize_result
from repro.system import GPUSystem
from repro.workloads.registry import make_app

SCALE = 0.05
APPS = ("NW", "SSSP")
SCHEMES = (
    TxScheme.BASELINE,
    TxScheme.LDS_ONLY,
    TxScheme.ICACHE_ONLY,
    TxScheme.ICACHE_LDS,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "goldens"


def _golden_path(app_name: str, scheme: TxScheme) -> Path:
    return GOLDEN_DIR / f"{app_name}-{scheme.value}.json"


def _current(app_name: str, scheme: TxScheme) -> dict:
    config = table1_config(scheme)
    app = make_app(app_name, scale=SCALE, page_size=config.page_size)
    return serialize_result(GPUSystem(config).run(app))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("app_name", APPS)
def test_golden_snapshot(app_name, scheme, update_goldens):
    path = _golden_path(app_name, scheme)
    current = _current(app_name, scheme)

    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        return

    assert path.exists(), (
        f"missing golden {path.name}; generate with "
        "`pytest tests/sim/test_goldens.py --update-goldens`"
    )
    golden = json.loads(path.read_text())
    # Counters first: the usual drift site, and the most readable diff.
    assert current["counters"] == golden["counters"]
    assert current["cycles"] == golden["cycles"]
    assert current == golden


def test_goldens_have_no_strays():
    """Every file under tests/goldens/ must belong to the current matrix —
    a renamed scheme or app must not leave stale snapshots behind."""

    expected = {
        _golden_path(app, scheme).name for app in APPS for scheme in SCHEMES
    }
    actual = {p.name for p in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
