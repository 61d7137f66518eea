"""Every function the benchmark's traced run wraps must exist.

``perfbench/layers.py`` names each wrapped function as a
``"module:Attr.path"`` target. A renamed target does not fail the
benchmark; it only shows up as an "absent layer" in a traced run. This
resolves every target the way the benchmark's tracer does, without
running the benchmark.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS_PY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "perfbench",
    "layers.py",
)


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_LAYERS = _load_layers()
TARGETS = sorted(
    {
        target
        for name, hooks in vars(_LAYERS).items()
        if name.endswith("_HOOKS")
        for _layer, target, _hit in hooks
    }
    | set(_LAYERS.MAKE_APP_TARGETS)
)


def test_hook_lists_found():
    assert len(TARGETS) > len(_LAYERS.MAKE_APP_TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_hook_target_resolves(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    # As the tracer does: a class's own attribute, never an inherited one.
    if isinstance(owner, type):
        found = owner.__dict__.get(attr)
    else:
        found = getattr(owner, attr, None)
    assert callable(found), f"{target} does not resolve"
