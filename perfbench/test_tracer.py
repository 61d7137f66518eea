"""Self-tests of the traced run's self-time arithmetic and hooks.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import os
import sys
import types

import pytest

import layers
import run
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))


class FakeClock:
    """Time moves only when a test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def test_nested_wrappers_split_self_time(clock):
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        wrapped_inner()
        clock.advance(3.0)
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    outer_layer, inner_layer = tracer.layers["outer"], tracer.layers["inner"]
    assert (outer_layer.calls, inner_layer.calls) == (1, 2)
    assert outer_layer.raw_self_s == pytest.approx(4.0)
    assert inner_layer.raw_self_s == pytest.approx(4.0)
    assert (outer_layer.child_calls, inner_layer.child_calls) == (2, 0)


def test_three_levels_and_an_unwrapped_middle(clock):
    tracer = Tracer(clock)

    def leaf():
        clock.advance(0.5)

    def unwrapped_middle():
        clock.advance(1.0)  # charged to the nearest wrapped caller
        wrapped_leaf()

    def top():
        clock.advance(2.0)
        unwrapped_middle()
        wrapped_mid()

    def mid():
        clock.advance(0.25)
        wrapped_leaf()

    wrapped_leaf = tracer.wrap("leaf", leaf)
    wrapped_mid = tracer.wrap("mid", mid)
    tracer.wrap("top", top)()
    assert tracer.layers["top"].raw_self_s == pytest.approx(3.0)
    assert tracer.layers["mid"].raw_self_s == pytest.approx(0.25)
    assert tracer.layers["leaf"].raw_self_s == pytest.approx(1.0)
    assert tracer.layers["top"].child_calls == 2  # leaf (via middle) and mid
    assert tracer.layers["mid"].child_calls == 1


def test_recursion_counts_every_level_once(clock):
    tracer = Tracer(clock)

    def countdown(n):
        clock.advance(1.0)
        if n:
            wrapped(n - 1)

    wrapped = tracer.wrap("countdown", countdown)
    wrapped(3)
    layer = tracer.layers["countdown"]
    assert layer.calls == 4
    assert layer.raw_self_s == pytest.approx(4.0)


def test_wrapper_cost_is_subtracted_from_callee_and_caller(clock):
    tracer = Tracer(clock)

    def inner():
        clock.advance(2.0)

    def outer():
        clock.advance(1.0)
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer.wrap("inner", inner)
    tracer.wrap("outer", outer)()
    tracer.cost_in, tracer.cost_out = 0.1, 0.2
    assert tracer.self_s("inner") == pytest.approx(4.0 - 2 * 0.1)
    assert tracer.self_s("outer") == pytest.approx(1.0 - 1 * 0.1 - 2 * 0.2)
    assert tracer.self_s("never-wrapped") == 0.0


def test_exceptions_propagate_and_are_still_timed(clock):
    tracer = Tracer(clock)

    def failing():
        clock.advance(1.5)
        raise KeyError("boom")

    with pytest.raises(KeyError):
        tracer.wrap("failing", failing)()
    layer = tracer.layers["failing"]
    assert (layer.calls, layer.raw_self_s) == (1, pytest.approx(1.5))
    # The stack unwound: a later call is attributed normally.
    tracer.wrap("ok", lambda: clock.advance(1.0))()
    assert tracer.layers["ok"].raw_self_s == pytest.approx(1.0)


def test_hit_predicate_counts_useful_outcomes(clock):
    tracer = Tracer(clock)
    lookup = tracer.wrap("lookup", lambda key: (key if key % 2 else None, 2),
                         hit=lambda result: result[0] is not None)
    for key in range(10):
        lookup(key)
    layer = tracer.layers["lookup"]
    assert (layer.calls, layer.hits) == (10, 5)
    assert layers.layer_metrics(tracer, 1, 1.0)["tlb.l1_hit_frac"] == 0.0


def test_iterate_counts_items_and_excludes_wrapped_work(clock):
    tracer = Tracer(clock)
    step = tracer.wrap("step", lambda: clock.advance(10.0))

    def program():
        for _ in range(3):
            clock.advance(1.0)
            yield "op"

    def consumer():
        for _ in tracer.iterate("gen", program()):
            step()

    tracer.wrap("consumer", consumer)()
    gen = tracer.layers["gen"]
    assert gen.calls == 3  # the final StopIteration is not an item
    assert gen.raw_self_s == pytest.approx(3.0)
    assert tracer.layers["consumer"].raw_self_s == pytest.approx(0.0)
    assert tracer.layers["consumer"].child_calls == 7  # 4 next() + 3 steps


def test_layer_metrics_divide_by_units_and_scale_time(clock):
    tracer = Tracer(clock)
    add = tracer.wrap("stats.add", lambda: clock.advance(0.002))
    for _ in range(8):
        add()
    values = layers.layer_metrics(tracer, units=2, scale=0.5)
    assert values["stats.add.calls"] == 4
    assert values["stats.add.self_ms"] == pytest.approx(1e3 * 0.016 * 0.5 / 2)
    assert values["engine.port.calls"] == 0


@pytest.fixture
def target_module():
    module = types.ModuleType("perfbench_hook_target")

    class Thing:
        def method(self, x):
            return x + 1

    class Child(Thing):
        pass

    module.Thing, module.Child = Thing, Child
    module.helper = lambda x: x * 2
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_install_wraps_in_place_and_uninstall_restores(target_module):
    original_method = target_module.Thing.__dict__["method"]
    original_helper = target_module.helper
    tracer = Tracer()
    assert tracer.install("thing.method", "perfbench_hook_target:Thing.method")
    assert tracer.install("helper", "perfbench_hook_target:helper")
    thing = target_module.Thing()
    assert thing.method(1) == 2 and target_module.helper(2) == 4
    assert target_module.Child().method(1) == 2  # inherited through the base
    assert tracer.layers["thing.method"].calls == 2
    assert tracer.layers["helper"].calls == 1
    tracer.uninstall()
    assert target_module.Thing.__dict__["method"] is original_method
    assert target_module.helper is original_helper
    thing.method(1)
    assert tracer.layers["thing.method"].calls == 2


def test_missing_targets_mark_the_layer_absent(target_module):
    tracer = Tracer()
    assert not tracer.install("gone", "perfbench_hook_target:Thing.vanished")
    assert not tracer.install("gone.module", "perfbench_no_such_module:f")
    # Inherited attributes are not wrapped on the subclass (double count).
    assert not tracer.install("child", "perfbench_hook_target:Child.method")
    assert set(tracer.absent) == {"gone", "gone.module", "child"}
    # A layer with one target left is present.
    assert not tracer.install("either", "perfbench_hook_target:missing")
    assert tracer.install("either", "perfbench_hook_target:helper")
    assert not tracer.install("either", "perfbench_hook_target:also_missing")
    assert "either" not in tracer.absent
    tracer.uninstall()


def test_suspended_stops_counting_then_resumes(target_module):
    tracer = Tracer()
    tracer.install("helper", "perfbench_hook_target:helper")
    target_module.helper(1)
    with tracer.suspended():
        target_module.helper(1)
    target_module.helper(1)
    assert tracer.layers["helper"].calls == 2
    tracer.uninstall()


def test_spans_record_their_parent(clock):
    tracer = Tracer(clock)
    with tracer.span("pass", index=0):
        clock.advance(1.0)
        with tracer.span("job", app="GUPS"):
            clock.advance(2.0)
    with tracer.span("pass", index=1):
        pass
    first, job, second = tracer.spans
    assert (first["parent"], job["parent"], second["parent"]) == (None, first["id"], None)
    assert job["app"] == "GUPS"
    assert (job["start_s"], job["end_s"]) == (1.0, 3.0)


def test_measured_wrapper_cost_is_non_negative():
    tracer = Tracer()
    tracer.measure_overhead(calls=2000, trials=3)
    assert tracer.cost_in >= 0.0 and tracer.cost_out >= 0.0
    assert tracer.cost_in + tracer.cost_out < 1e-4


def test_benchmark_json_lists_every_printed_metric():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.per_layer_units()
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
