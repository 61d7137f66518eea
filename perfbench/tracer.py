"""Self-time tracing by wrapping public functions from outside.

A :class:`Tracer` replaces a function or method with a wrapper that counts
calls and accumulates *self time*: the wrapped call's duration minus the
time spent in wrapped calls nested inside it. Each thread keeps its own
stack of open calls, so layers that run on service threads are attributed
correctly.

A wrapper costs time of its own. :meth:`Tracer.measure_overhead` times an
empty function wrapped inside another wrapped function and splits that
cost into the part charged to the wrapped call itself (``cost_in``) and
the part charged to its caller (``cost_out``); :meth:`Tracer.self_s`
subtracts both.

Coarse spans (a job, a sweep, a request) are kept in memory with the id
of the span that encloses them and written out at exit.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional


class Layer:
    """Totals of one wrapped function."""

    __slots__ = ("name", "calls", "hits", "raw_self_s", "child_calls")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        #: Calls whose result the hit predicate accepted.
        self.hits = 0
        self.raw_self_s = 0.0
        #: Wrapped calls made directly from inside this one.
        self.child_calls = 0


class _Frames(threading.local):
    def __init__(self) -> None:
        # [child seconds, child calls] of each open wrapped call; index 0
        # stands for the thread's code outside any wrapped call.
        self.stack: List[List[float]] = [[0.0, 0]]
        self.spans: List[int] = []


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._frames = _Frames()
        self.layers: Dict[str, Layer] = {}
        self.absent: Dict[str, str] = {}
        self.cost_in = 0.0
        self.cost_out = 0.0
        self.spans: List[Dict] = []
        self._installed: List[tuple] = []
        self._specs: List[tuple] = []
        self._wrapped_names: set = set()

    def layer(self, name: str) -> Layer:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = Layer(name)
        return layer

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self, name: str, fn: Callable, hit: Optional[Callable] = None
    ) -> Callable:
        """``fn`` wrapped; ``hit(result)`` marks the calls that count as
        hits (for a useful-outcome ratio)."""

        layer = self.layer(name)
        frames = self._frames
        clock = self._clock

        def wrapper(*args, **kwargs):
            stack = frames.stack
            stack.append([0.0, 0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_s, child_calls = stack.pop()
                layer.calls += 1
                layer.raw_self_s += elapsed - child_s
                layer.child_calls += child_calls
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
            if hit is not None and hit(result):
                layer.hits += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def iterate(self, name: str, iterable) -> Iterator:
        """An iterator over ``iterable`` that counts items yielded as calls
        and the time spent producing them as self time."""

        return _TimedIterator(iter(iterable), self.layer(name), self._frames,
                              self._clock)

    def install(
        self, name: str, target: str, hit: Optional[Callable] = None,
        wrapper_factory: Optional[Callable] = None,
    ) -> bool:
        """Wrap ``"package.module:Attr.path"`` in place.

        Returns False, and records the layer as absent, when the target no
        longer exists; the benchmark then keeps running without it.
        """

        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            # A class's own attribute only: wrapping an inherited method
            # onto a subclass would count its calls twice.
            original = (owner.__dict__[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            if name not in self._wrapped_names:
                self.absent[name] = f"{target} not found"
            return False
        if wrapper_factory is not None:
            wrapped = wrapper_factory(original)
        else:
            wrapped = self.wrap(name, original, hit)
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))
        self._specs.append((name, target, hit, wrapper_factory))
        self._wrapped_names.add(name)
        self.absent.pop(name, None)
        return True

    def uninstall(self) -> None:
        """Restore every wrapped function, last wrapped first."""

        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)
        self._specs = []

    @contextlib.contextmanager
    def suspended(self):
        """Run the body unwrapped (the benchmark's own checks), then wrap
        the same targets again."""

        specs = list(self._specs)
        self.uninstall()
        try:
            yield
        finally:
            for spec in specs:
                self.install(*spec)

    # -- wrapper cost ----------------------------------------------------------

    def measure_overhead(self, calls: int = 20_000, trials: int = 7) -> None:
        """Measure the per-call cost of an empty wrapper (median of
        ``trials``) and keep it for :meth:`self_s`."""

        def empty():
            return None

        def loop(fn, n):
            for _ in range(n):
                fn()

        def bare_loop(n):
            for _ in range(n):
                pass

        clock = self._clock
        ins, outs = [], []
        for _ in range(trials):
            start = clock()
            bare_loop(calls)
            loop_s = clock() - start
            start = clock()
            loop(empty, calls)
            plain_s = clock() - start
            probe = Tracer(clock)
            inner = probe.wrap("inner", empty)
            probe.wrap("outer", loop)(inner, calls)
            # The inner wrapper's self time is the empty call plus cost_in;
            # the outer's is the loop plus cost_out per inner call.
            ins.append(probe.layers["inner"].raw_self_s / calls
                       - (plain_s - loop_s) / calls)
            outs.append((probe.layers["outer"].raw_self_s - loop_s) / calls)
        self.cost_in = max(0.0, statistics.median(ins))
        self.cost_out = max(0.0, statistics.median(outs))

    def self_s(self, name: str) -> float:
        """Self time of ``name`` with the wrappers' own cost removed."""

        layer = self.layers.get(name)
        if layer is None:
            return 0.0
        return (layer.raw_self_s - layer.calls * self.cost_in
                - layer.child_calls * self.cost_out)

    # -- spans -------------------------------------------------------------------

    def span(self, name: str, **attrs) -> "_Span":
        """A coarse span (job, sweep, request) as a context manager."""

        return _Span(self, name, attrs)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


class _TimedIterator:
    __slots__ = ("_it", "_layer", "_frames", "_clock")

    def __init__(self, it, layer: Layer, frames: _Frames, clock) -> None:
        self._it = it
        self._layer = layer
        self._frames = frames
        self._clock = clock

    def __iter__(self):
        return self

    def __next__(self):
        stack = self._frames.stack
        stack.append([0.0, 0])
        start = self._clock()
        try:
            item = next(self._it)
        finally:
            elapsed = self._clock() - start
            child_s, child_calls = stack.pop()
            layer = self._layer
            layer.raw_self_s += elapsed - child_s
            layer.child_calls += child_calls
            parent = stack[-1]
            parent[0] += elapsed
            parent[1] += 1
        # Only items produced count; the final StopIteration does not.
        layer.calls += 1
        return item


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: Dict) -> None:
        self._tracer = tracer
        self.record = {"name": name, **attrs}

    def __enter__(self) -> Dict:
        tracer = self._tracer
        open_spans = tracer._frames.spans
        record = self.record
        record["id"] = len(tracer.spans)
        record["parent"] = open_spans[-1] if open_spans else None
        record["start_s"] = tracer._clock()
        tracer.spans.append(record)
        open_spans.append(record["id"])
        return record

    def __exit__(self, *exc_info) -> None:
        self.record["end_s"] = self._tracer._clock()
        self._tracer._frames.spans.pop()
