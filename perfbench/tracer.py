"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: :class:`Patcher` swaps a
wrapper into each module attribute through which ewclab calls one of its
own layers (``from ... import`` binds a name per module, so each binding
is wrapped separately) and puts every original back afterwards.  Spans
live in memory with a link to their parent; a span's self time is its
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from ewclab import continual, harness, metrics, network, svgplot, synthtasks, tensor


class Recorder:
    """Spans (name, start, end, parent) and counters, kept in memory.

    Counters are attributed to the root span open when they are bumped,
    so each root (one set-up or one operation) gets its own totals.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int | None] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else None)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)

    def count(self, name: str, value: float = 1.0) -> None:
        if self.stack:
            self.counts[self.stack[0]][name] += value

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self.stack)

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[int]] = defaultdict(list)
        for idx, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append(idx)
        out = []
        for idx, (start, end) in enumerate(zip(self.starts, self.ends)):
            covered = 0.0
            reach = start
            for child in sorted(children[idx], key=lambda c: self.starts[c]):
                lo = max(self.starts[child], reach)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def layer_totals(self) -> dict[int, dict[str, float]]:
        """Root index -> {'<span>.self_ms', '<span>.calls', counters}."""
        root_of: list[int] = []
        for idx, parent in enumerate(self.parents):
            root_of.append(idx if parent is None else root_of[parent])
        totals: dict[int, dict[str, float]] = {
            idx: defaultdict(float) for idx, parent in enumerate(self.parents) if parent is None
        }
        for idx, self_s in enumerate(self.self_times()):
            row = totals[root_of[idx]]
            row[f"{self.names[idx]}.self_ms"] += 1000.0 * self_s
            row[f"{self.names[idx]}.calls"] += 1
        for root, counters in self.counts.items():
            totals[root].update(counters)
        return totals


def _layer_of(kernel_name: str | None) -> str:
    """'trunk.<i>.kernels' -> 'l<i>', 'head.<task>.weights' -> 'head'."""
    if kernel_name and kernel_name.startswith("trunk."):
        return "l" + kernel_name.split(".")[1]
    return "head"


class Patcher:
    """Replaces module attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def spanned(rec: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with rec.span(name):
            return fn(*args, **kwargs)

    return wrapper


# (span name, [(module, attribute)]): every binding through which ewclab
# (or the benchmark) reaches the layer function
SIMPLE_SPANS = (
    ("tensor.backward", [(harness, "backward"), (continual, "backward")]),
    ("tensor.log_softmax", [(harness, "log_softmax"), (continual, "log_softmax")]),
    ("tensor.nll_loss", [(harness, "nll_loss"), (continual, "nll_loss")]),
    ("network.forward_logits", [(network, "forward_logits")]),
    ("network.sgd_update", [(harness, "sgd_update")]),
    ("network.load_checkpoint", [(network, "load_checkpoint")]),
    ("continual.ewc_penalty", [(harness, "ewc_penalty")]),
    ("continual.estimate_fisher", [(harness, "estimate_fisher"), (continual, "estimate_fisher")]),
    ("metrics.predict_full", [(metrics, "predict_full")]),
    ("synthtasks.generate_sample", [(synthtasks, "generate_sample")]),
    ("harness.run_experiment", [(harness, "run_experiment")]),
    ("harness.emit_summary_table", [(harness, "emit_summary_table")]),
    ("svgplot.line_chart_grid", [(svgplot, "line_chart_grid")]),
)


def install(rec: Recorder, patcher: Patcher) -> None:
    """Wrap every measured layer binding so calls record spans in ``rec``."""
    for name, bindings in SIMPLE_SPANS:
        for owner, attr in bindings:
            patcher.replace(owner, attr, spanned(rec, name, getattr(owner, attr)))

    conv2d = network.conv2d

    def traced_conv2d(x, kernels, bias):
        layer = _layer_of(kernels.name)
        with rec.span(f"tensor.conv2d.fwd.{layer}"):
            out = conv2d(x, kernels, bias)
        o, c, k, _ = kernels.shape
        _, h, w = x.shape
        _, hp, wp = out.shape
        rec.count("tensor.conv2d.gflop", 2.0 * o * c * k * k * hp * wp / 1e9)
        # the input gradient is useful only when x is not a constant leaf
        useful = bool(x.parents) or x.name is not None
        vjp = out.vjp

        def traced_vjp(g):
            # the kernel computes dk over the output and dx over the full input
            rec.count("tensor.conv2d.gflop", 2.0 * o * c * k * k * (hp * wp + h * w) / 1e9)
            rec.count("tensor.conv2d.bwd.dx_computed")
            rec.count("tensor.conv2d.bwd.dx_useful", float(useful))
            with rec.span(f"tensor.conv2d.bwd.{layer}"):
                return vjp(g)

        out.vjp = traced_vjp
        return out

    patcher.replace(network, "conv2d", traced_conv2d)

    register = tensor.Graph._register

    def counted_register(graph, node):
        rec.count("tensor.nodes")
        return register(graph, node)

    patcher.replace(tensor.Graph, "_register", counted_register)

    evaluate_model = metrics.evaluate_model

    def traced_evaluate_model(store, head, task, samples, scope, *args, **kwargs):
        with rec.span(f"metrics.evaluate_model.{scope}"):
            return evaluate_model(store, head, task, samples, scope, *args, **kwargs)

    patcher.replace(metrics, "evaluate_model", traced_evaluate_model)

    save_checkpoint = network.save_checkpoint

    def traced_save_checkpoint(store, path, *args, **kwargs):
        with rec.span("network.save_checkpoint"):
            save_checkpoint(store, path, *args, **kwargs)
        rec.count("network.save_checkpoint.mb", os.path.getsize(path) / 1e6)

    patcher.replace(network, "save_checkpoint", traced_save_checkpoint)

    # a run the sweep trains is a cache miss, a run it reloads is a hit
    train = harness.train

    def traced_train(*args, **kwargs):
        if rec.inside("harness.run_experiment"):
            rec.count("harness.run_cache.lookups")
        with rec.span("harness.train"):
            return train(*args, **kwargs)

    patcher.replace(harness, "train", traced_train)

    load_run_record = harness.load_run_record

    def traced_load_run_record(*args, **kwargs):
        rec.count("harness.run_cache.lookups")
        rec.count("harness.run_cache.hits")
        with rec.span("harness.load_run_record"):
            return load_run_record(*args, **kwargs)

    patcher.replace(harness, "load_run_record", traced_load_run_record)


def ratio(row: dict[str, float], num: str, den: str) -> float:
    return row.get(num, 0.0) / row[den] if row.get(den) else 0.0


def median_rows(rows: list[dict[str, float]], keys) -> dict[str, float]:
    """Median of each key over rows; a key a row lacks counts as 0."""
    return {key: statistics.median(row.get(key, 0.0) for row in rows) for key in keys}
