"""Span tracing of deepridge from outside the package.

The tracer replaces module attributes with timing wrappers. It patches the
names that callers actually look up: ``network`` imports ``apply_block``,
``draw_block``, ``fit_grid``, ``ridge_predict``, ``column_scales`` and
``stream_rng`` by name, so a wrapper on ``features.apply_block`` would record
nothing. Spans are kept in memory and reduced to per-operation layer metrics
when the run ends.

A span records its name, start, end, parent and thread, plus the id of the
benchmark operation it belongs to. A span opened on a worker thread with no
open span of its own takes the innermost open span of the main thread as its
parent; the block thread pool is only entered from ``network.train_layer``,
so that is the span that submitted the work.

Counters marked "computed" are derived from array shapes and return values,
not from timing, so they repeat exactly between runs of the same workload.
"""

import itertools
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    attrs: dict  # computed counters; empty when the call raised

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _gemm_attrs(args, kwargs, result):
    # computed: relu(x W / sqrt(D) + b) costs one (n x D) @ (D x P) GEMM
    block, x = args[0], args[1]
    d, p = block.weights.shape
    return {"flop": 2 * len(x) * d * p}


def _draw_attrs(args, kwargs, result):
    # computed: bytes of the drawn weights and biases
    return {"bytes": result.weights.nbytes + result.biases.nbytes}


def _mode_attrs(args, kwargs, result):
    return {"mode": result.mode}


def _reps_attrs(args, kwargs, result):
    return {"reps": result[0].replications if result else 0}


def bindings(dr):
    """(module, attribute, span name, attrs) for every wrapped binding.

    ``dr`` maps module names to the imported deepridge modules. A span name
    that appears more than once is patched at every site that calls it.
    """
    cli, dataio, features = dr["cli"], dr["dataio"], dr["features"]
    network, theory = dr["network"], dr["theory"]
    return [
        (network, "apply_block", "features.apply_block", _gemm_attrs),
        (network, "draw_block", "features.draw_block", _draw_attrs),
        (network, "stream_rng", "seeding.stream_rng", None),
        (features, "stream_rng", "seeding.stream_rng", None),
        (dataio, "stream_rng", "seeding.stream_rng", None),
        (theory, "stream_rng", "seeding.stream_rng", None),
        (network, "fit_grid", "ridge.fit_grid", _mode_attrs),
        (network, "ridge_predict", "ridge.predict", None),
        (network, "column_scales", "ridge.column_scales", None),
        (network, "train", "network.train", None),
        (network, "train_layer", "network.train_layer", None),
        (network, "predict", "network.predict", None),
        (network, "save_model", "network.save_model", None),
        (network, "load_model", "network.load_model", None),
        (network, "flat_random_feature_baseline",
         "network.flat_random_feature_baseline", None),
        (dataio, "simulate_single_neuron", "dataio.simulate_single_neuron",
         None),
        (cli, "run", "cli.run", None),
        (theory, "risk_curves", "theory.risk_curves", None),
        (theory, "hetero_penalty_solution", "theory.hetero_penalty_solution",
         None),
        (theory, "monte_carlo_risk", "theory.monte_carlo_risk", _reps_attrs),
    ]


# called tens of thousands of times per operation: counted, not timed
COUNTED = ("theory", "nu_family", "theory.nu_family")


class Tracer:
    """Records spans around wrapped bindings while installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = (stack[-1] if stack
                      else self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append(sid)
            result, ok = None, False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, kwargs, result) if attrs and ok else {}
                span = Span(sid, name, start, end, parent,
                            threading.get_ident(), self.op, extra)
                with self._lock:
                    self.spans.append(span)
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[(self.op, name)] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, dr):
        """Wrap every binding that exists; a binding that a refactor removed
        is skipped, and its span then shows as never recorded."""
        for module, attr, name, attrs in bindings(dr):
            if hasattr(module, attr):
                self._patch(module, attr,
                            self.wrap(name, getattr(module, attr), attrs))
        module_name, attr, name = COUNTED
        module = dr[module_name]
        if hasattr(module, attr):
            self._patch(module, attr, self.count(name, getattr(module, attr)))

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def run_op(self, fn):
        """Run one benchmark operation under a root ``bench.op`` span."""
        self.op += 1
        return self.wrap("bench.op", fn)()

    def recorded_names(self) -> set:
        return ({s.name for s in self.spans}
                | {name for (_, name), n in self.counts.items() if n})


# --- reduction to per-layer metrics ----------------------------------------


def _union_length(intervals, lo, hi) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class _OpView:
    """The spans of one operation, indexed for ancestry queries."""

    def __init__(self, spans, counts):
        self.spans = spans
        self.counts = counts
        self.by_id = {s.sid: s for s in spans}
        self.children = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def ancestors(self, span):
        out, cur = [], self.by_id.get(span.parent)
        while cur is not None:
            out.append(cur.name)
            cur = self.by_id.get(cur.parent)
        return out

    def descendants(self, span):
        out, todo = [], list(self.children.get(span.sid, ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s.sid, ()))
        return out

    def busy(self, name):
        return sum(s.duration for s in self.named(name))

    def self_time(self, name):
        """Time inside ``name`` spans not covered by spans of other layers."""
        total = 0.0
        for s in self.named(name):
            inner = [(d.start, d.end) for d in self.descendants(s)
                     if d.layer != s.layer]
            total += s.duration - _union_length(inner, s.start, s.end)
        return total

    def coverage(self, outer, match):
        """Share of the wall time of ``outer`` spans covered by ``match``."""
        wall = covered = 0.0
        for s in self.named(outer):
            inner = [(d.start, d.end) for d in self.descendants(s)
                     if match(d.name)]
            wall += s.duration
            covered += _union_length(inner, s.start, s.end)
        return covered / wall if wall else 0.0


def _op_metrics(v: _OpView) -> dict:
    apply_busy = v.busy("features.apply_block")
    drawn = sum(s.attrs.get("bytes", 0)
                for s in v.named("features.draw_block"))
    gflop = sum(s.attrs.get("flop", 0)
                for s in v.named("features.apply_block")) / 1e9
    fits = v.named("ridge.fit_grid")
    block_fits = [s for s in fits if "network.train_layer" in v.ancestors(s)]
    final_fits = [s for s in fits if "network.train_layer" not in
                  v.ancestors(s) and "network.train" in v.ancestors(s)]
    mc = v.named("theory.monte_carlo_risk")
    mc_busy = sum(s.duration for s in mc)
    reps = sum(s.attrs.get("reps", 0) for s in mc)
    return {
        "features.apply_block.calls": len(v.named("features.apply_block")),
        "features.apply_block.busy_s": apply_busy,
        "features.apply_block.gflop": gflop,
        "features.apply_block.gflops": (gflop / apply_busy if apply_busy
                                        else 0.0),
        "features.draw_block.calls": len(v.named("features.draw_block")),
        "features.draw_block.busy_s": v.busy("features.draw_block"),
        "features.draw_block.mb_drawn": drawn / 1e6,
        "seeding.stream_rng.calls": len(v.named("seeding.stream_rng")),
        "ridge.fit_grid.calls": len(fits),
        "ridge.fit_grid.primal_calls": sum(
            s.attrs.get("mode") == "primal" for s in fits),
        "ridge.fit_grid.dual_calls": sum(
            s.attrs.get("mode") == "dual" for s in fits),
        "ridge.fit_grid.block_busy_s": sum(s.duration for s in block_fits),
        "ridge.fit_grid.final_busy_s": sum(s.duration for s in final_fits),
        "ridge.predict.busy_s": v.busy("ridge.predict"),
        "ridge.column_scales.busy_s": v.busy("ridge.column_scales"),
        "network.train.self_s": v.self_time("network.train"),
        "network.predict.self_s": v.self_time("network.predict"),
        "network.save_model.busy_s": v.busy("network.save_model"),
        "network.load_model.busy_s": v.busy("network.load_model"),
        "network.flat_random_feature_baseline.self_s": v.self_time(
            "network.flat_random_feature_baseline"),
        "dataio.simulate_single_neuron.busy_s": v.busy(
            "dataio.simulate_single_neuron"),
        "cli.run.self_s": v.self_time("cli.run"),
        "theory.risk_curves.busy_s": v.busy("theory.risk_curves"),
        "theory.hetero_penalty_solution.busy_s": v.busy(
            "theory.hetero_penalty_solution"),
        "theory.monte_carlo_risk.busy_s": mc_busy,
        "theory.monte_carlo_risk.reps_per_s": (reps / mc_busy if mc_busy
                                               else 0.0),
        "theory.nu_family.calls": v.counts.get("theory.nu_family", 0),
        "design.apply_block_share_of_train": v.coverage(
            "network.train", lambda n: n == "features.apply_block"),
        "design.fit_grid_share_of_run": v.coverage(
            "cli.run", lambda n: n == "ridge.fit_grid"),
        "design.theory_share_of_op": v.coverage(
            "bench.op", lambda n: n.startswith("theory.")),
    }


# derived from shapes and return values, so equal in every traced run
COMPUTED = (
    "features.apply_block.gflop", "features.draw_block.mb_drawn",
    "ridge.fit_grid.primal_calls", "ridge.fit_grid.dual_calls",
    "seeding.stream_rng.calls",
)

UNITS = {
    "calls": "count", "primal_calls": "count", "dual_calls": "count",
    "gflop": "GFLOP", "gflops": "GFLOP/s", "mb_drawn": "MB",
    "reps_per_s": "1/s", "overhead_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    if metric.startswith("design."):
        return "frac"
    leaf = metric.rsplit(".", 1)[1]
    return UNITS.get(leaf, "s")


def op_views(tracer: Tracer):
    per_op = {}
    for s in tracer.spans:
        per_op.setdefault(s.op, []).append(s)
    views = []
    for op in sorted(per_op):
        counts = {name: n for (o, name), n in tracer.counts.items() if o == op}
        views.append(_OpView(per_op[op], counts))
    return views


def layer_metrics(tracer: Tracer) -> dict:
    """Median over traced operations of every per-layer metric."""
    rows = ([_op_metrics(v) for v in op_views(tracer)]
            or [_op_metrics(_OpView([], {}))])
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# layers that orchestrate the others; their own cost shows as self time
ORCHESTRATION = ("bench", "cli", "network")


def breakdown(tracer: Tracer, outer: str) -> list:
    """(span name, share of ``outer`` wall time) for every span name of a
    non-orchestrating layer inside ``outer``, largest first, as the median
    over traced operations."""
    views = [v for v in op_views(tracer) if v.named(outer)]
    names = {d.name for v in views for s in v.named(outer)
             for d in v.descendants(s) if d.layer not in ORCHESTRATION}
    shares = {n: statistics.median(v.coverage(outer, lambda m, n=n: m == n)
                                   for v in views)
              for n in names}
    return sorted(shares.items(), key=lambda kv: -kv[1])
