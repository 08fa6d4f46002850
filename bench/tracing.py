"""Layer-by-layer tracing of entlab from the benchmark's side.

``Tracer.install()`` replaces every binding of every public function of the
traced modules (the defining module, the ``entlab`` package and each module
that imported the name) with a wrapper that records a span.  The two batch
methods of ``Measure`` are wrapped on the class.  ``minimize_on_stiefel``
also wraps the objective and callback it is handed, so evaluations,
line-search backtracks and their times are counted where they happen.
``uninstall()`` puts every original back.

Spans are kept in memory as columns (name, start, end, parent, item) and
written out by ``save``.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from collections import Counter

import numpy as np

import entlab

import oracles

# Traced modules, named by their layer.  linalg is not traced: its helpers
# count toward the layer that calls them.
LAYERS = ("stiefel", "measures", "roof", "breaking", "erf", "channels",
          "families", "sampling", "cli")


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    return module.rsplit(".", 1)[-1] if module.startswith("entlab.") else "bench"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.item = array("q")
        self.stack: list[int] = []
        self.current_item = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _span(self, fn, name: str, after=None):
        name_id = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- wrappers with counters ------------------------------------------------

    def _descent(self, fn):
        """minimize_on_stiefel, with its objective and callback wrapped."""
        name_id = self._id("stiefel.minimize_on_stiefel")
        counts = self.counts

        def descent(fun, v0, *args, callback=None, **kwargs):
            local = {"evals": 0, "grad": 0}
            obj_id = self._id(f"{_layer_of(fun)}.objective")

            def objective(v, need_grad):
                local["evals"] += 1
                local["grad"] += 1 if need_grad else 0
                idx = self._open(obj_id)
                try:
                    return fun(v, need_grad)
                finally:
                    self._close(idx)

            traced_callback = None
            if callback is not None:
                cb_id = self._id(f"{_layer_of(callback)}.callback")

                def traced_callback(v):
                    idx = self._open(cb_id)
                    try:
                        return callback(v)
                    finally:
                        self._close(idx)

            idx = self._open(name_id)
            try:
                result = fn(objective, v0, *args, callback=traced_callback, **kwargs)
            finally:
                self._close(idx)
            counts["stiefel.descents"] += 1
            counts["stiefel.iterations"] += result.iterations
            value_only = local["evals"] - local["grad"]
            counts["stiefel.value_evals"] += value_only
            counts["stiefel.grad_evals"] += local["grad"]
            # every value-only evaluation is a line-search trial; each accepted
            # trial is followed by one evaluation with gradient
            counts["stiefel.backtracks"] += value_only - (local["grad"] - 1)
            return result

        return functools.wraps(fn)(descent)

    def _after_roof(self, args, kwargs, result):
        self.counts["roof.restarts"] += len(result.restart_values)

    def _after_schmidt(self, args, kwargs, result):
        self.counts["breaking.schmidt_certified"] += bool(result.found)

    def _after_erf(self, args, kwargs, result):
        channel = args[0]
        opts = args[1] if len(args) > 1 else kwargs.get("opts", entlab.MixingSearchOptions())
        mixings = args[2] if len(args) > 2 else kwargs.get("initial_mixings", ())
        self.counts["erf.starts"] += opts.restarts + len(mixings)
        # the given representation is a product and always among the
        # feasible values; the rest come from the searched starts
        self.counts["erf.feasible_starts"] += max(0, len(result.feasible_values) - 1)
        given = oracles.decay_from_factors([op.factors for op in channel.ops])
        self.counts["erf.improving_searches"] += bool(result.value < given - 1e-12)

    def _batch(self, fn, name: str, rows_key: str):
        def after(args, kwargs, result):
            self.counts[rows_key] += int(args[1].shape[0])
        return self._span(fn, name, after)

    # -- install / uninstall -------------------------------------------------

    def _modules(self):
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "entlab" or n.startswith("entlab."))]

    def _rebind(self, original, wrapper) -> None:
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        special = {
            "minimize_on_stiefel": self._descent,
            "convex_roof": lambda fn: self._span(fn, "roof.convex_roof", self._after_roof),
            "schmidt_number_upper": lambda fn: self._span(
                fn, "breaking.schmidt_number_upper", self._after_schmidt),
            "erf_minimize": lambda fn: self._span(fn, "erf.erf_minimize", self._after_erf),
        }
        for layer in LAYERS:
            module = importlib.import_module(f"entlab.{layer}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or value.__module__ != module.__name__):
                    continue
                make = special.get(attr)
                wrapper = make(value) if make else self._span(value, f"{layer}.{attr}")
                self._rebind(value, wrapper)
        measure = sys.modules["entlab.measures"].Measure
        for attr, rows_key in (("eval_poly_batch", "measures.poly_batch_rows"),
                               ("eval_grad_batch", "measures.grad_batch_rows")):
            original = vars(measure)[attr]
            self._patches.append((measure, attr, original))
            setattr(measure, attr, self._batch(original, f"measures.{attr}", rows_key))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- analysis --------------------------------------------------------------

    def columns(self) -> dict:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        linked = parent >= 0
        children = np.bincount(parent[linked], weights=dur[linked], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "start": start, "end": end, "parent": parent,
            "item": np.frombuffer(self.item, dtype=np.int64),
            "duration": dur, "self": dur - children,
        }

    def save(self, path: str) -> None:
        cols = self.columns()
        np.savez(path, names=np.array(json.dumps(self.names)),
                 **{k: cols[k] for k in ("name", "start", "end", "parent", "item")})

    def layer_metrics(self) -> dict:
        """Per-layer counts and times (ms) of everything recorded so far."""
        cols = self.columns()
        n = len(self.names)
        calls = np.bincount(cols["name"], minlength=n)
        busy = np.bincount(cols["name"], weights=cols["duration"], minlength=n) * 1e3
        own = np.bincount(cols["name"], weights=cols["self"], minlength=n) * 1e3

        def pick(table, test):
            return float(sum(table[i] for i, name in enumerate(self.names) if test(name)))

        def of(table, *wanted):
            return pick(table, lambda name: name in wanted)

        def layer(name):
            return lambda span: span.split(".", 1)[0] == name

        out = {name: float(value) for name, value in self.counts.items()}
        out.update({
            "stiefel.self_ms": pick(own, layer("stiefel")),
            "stiefel.retract_ms": of(busy, "stiefel.qf_retract"),
            "stiefel.objective_ms": pick(busy, lambda s: s.endswith(".objective")),
            "stiefel.callback_ms": pick(busy, lambda s: s.endswith(".callback")),
            "measures.poly_batch_ms": of(busy, "measures.eval_poly_batch"),
            "measures.grad_batch_ms": of(busy, "measures.eval_grad_batch"),
            "measures.pure_calls": of(calls, "measures.measure_pure", "measures.measure_unnormalized"),
            "measures.pure_ms": of(busy, "measures.measure_pure", "measures.measure_unnormalized"),
            "measures.wootters_calls": of(calls, "measures.wootters_concurrence"),
            "measures.wootters_ms": of(busy, "measures.wootters_concurrence"),
            "roof.solves": of(calls, "roof.convex_roof"),
            "roof.self_ms": pick(own, layer("roof")),
            "breaking.schmidt_searches": of(calls, "breaking.schmidt_number_upper"),
            # the Schmidt search and its tail objective, the only objective
            # the breaking module hands to the descent
            "breaking.schmidt_self_ms": of(own, "breaking.schmidt_number_upper", "breaking.objective"),
            "breaking.peb_tests": of(calls, "breaking.r_peb_test"),
            "breaking.peb_ms": of(busy, "breaking.r_peb_test"),
            "erf.searches": of(calls, "erf.erf_minimize"),
            "erf.self_ms": pick(own, layer("erf")),
            "erf.nearest_product_calls": of(calls, "erf.nearest_product_operator"),
            "erf.nearest_product_ms": of(busy, "erf.nearest_product_operator"),
            "erf.bounds_ms": of(busy, "erf.erf_bounds"),
            "channels.verify_calls": of(calls, "channels.verify_evolution"),
            "channels.verify_ms": of(busy, "channels.verify_evolution"),
            "channels.decay_ms": of(busy, "channels.decay_factor"),
            "families.random_channels": of(calls, "families.random_separable_channel"),
            "families.random_channel_ms": of(busy, "families.random_separable_channel"),
            "sampling.isometries": of(calls, "sampling.random_isometry"),
            "sampling.isometry_ms": of(busy, "sampling.random_isometry"),
            "cli.commands": of(calls, "cli.main"),
            "cli.self_ms": pick(own, layer("cli")),
            "trace.spans": float(cols["name"].size),
        })
        return out


# Every per-layer metric with its unit, in report order.
LAYER_METRICS = (
    ("stiefel.descents", "count"), ("stiefel.iterations", "count"),
    ("stiefel.value_evals", "count"), ("stiefel.grad_evals", "count"),
    ("stiefel.backtracks", "count"), ("stiefel.self_ms", "ms"),
    ("stiefel.retract_ms", "ms"), ("stiefel.objective_ms", "ms"),
    ("stiefel.callback_ms", "ms"),
    ("measures.poly_batch_rows", "count"), ("measures.poly_batch_ms", "ms"),
    ("measures.grad_batch_rows", "count"), ("measures.grad_batch_ms", "ms"),
    ("measures.pure_calls", "count"), ("measures.pure_ms", "ms"),
    ("measures.wootters_calls", "count"), ("measures.wootters_ms", "ms"),
    ("roof.solves", "count"), ("roof.restarts", "count"), ("roof.self_ms", "ms"),
    ("breaking.schmidt_searches", "count"), ("breaking.schmidt_certified", "count"),
    ("breaking.schmidt_self_ms", "ms"), ("breaking.peb_tests", "count"),
    ("breaking.peb_ms", "ms"),
    ("erf.searches", "count"), ("erf.starts", "count"), ("erf.feasible_starts", "count"),
    ("erf.improving_searches", "count"), ("erf.self_ms", "ms"),
    ("erf.nearest_product_calls", "count"), ("erf.nearest_product_ms", "ms"),
    ("erf.bounds_ms", "ms"),
    ("channels.verify_calls", "count"), ("channels.verify_ms", "ms"),
    ("channels.decay_ms", "ms"),
    ("families.random_channels", "count"), ("families.random_channel_ms", "ms"),
    ("sampling.isometries", "count"), ("sampling.isometry_ms", "ms"),
    ("cli.commands", "count"), ("cli.self_ms", "ms"),
    ("trace.spans", "count"), ("trace.overhead_pct", "%"),
)
