"""In-memory spans around amlgraph's public functions, installed from outside.

The program has no tracing of its own yet, so the benchmark wraps the
public functions of each package module (and ``Tape.record``, to time each
recorded backward rule by the op that made it). A span records its name,
start, end and the span that caused it; a layer's self time is its span's
duration minus the part its child spans cover. Spans stay in memory.
``Tracer.uninstall`` restores every original binding.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

_clock = time.perf_counter

# Forward ops of the autodiff layer; each gets a span ndtensor.fwd.<op>.
NDTENSOR_OPS = ("matmul", "add", "hadamard", "scale", "relu", "leaky_relu",
                "sigmoid", "dropout", "concat", "reshape", "transpose2d",
                "sum_all", "mean_rows", "gather_rows", "segment_sum",
                "segment_softmax", "batch_norm", "bce")

# Op kinds the backward and forward breakdowns name; the rest is "other".
BWD_KINDS = ("gather_rows", "hadamard", "matmul", "segment_softmax",
             "segment_sum", "concat", "batch_norm", "leaky_relu")
FWD_KINDS = ("gather_rows", "segment_sum", "segment_softmax", "matmul",
             "hadamard", "concat")

# Layers whose every public function is wrapped. `baselines` is not on a
# user path and `errors` holds no functions.
LAYER_MODULES = ("datagen", "graph", "model", "training", "evaluation",
                 "analytics", "cli")

_SAMPLER = "graph.sample_neighborhood"


def _seed_class(n_customers: int, n_txns: int) -> str | None:
    """Customer seeds only: a reference embedding; transaction seeds only:
    one scored record. Mixed seeds (training pairs, full graph) get none."""
    if n_customers and not n_txns:
        return "reference"
    if n_txns and not n_customers:
        return "record"
    return None


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, start, end, time in child spans)
        self.spans: list[tuple[int, int, str, float, float, float]] = []
        self.tagged: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []   # open spans: [span id, child time, name]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _call(self, name, fn, args, kwargs, tag=None):
        stack = self._stack
        sid = len(self.spans) + len(stack)
        parent = stack[-1][0] if stack else -1
        frame = [sid, 0.0, name]
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            stack.pop()
            if stack:
                stack[-1][1] += end - start
            if tag is not None:
                self.tagged[f"{name}.{tag}"] += end - start
            self.spans.append((sid, parent, name, start, end, frame[1]))

    def _spanned(self, name, fn, classify=None, count=None):
        tracer = self
        sig = inspect.signature(fn) if (classify or count) else None

        def wrapper(*args, **kwargs):
            if sig is None:
                return tracer._call(name, fn, args, kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            tag = classify(tracer, a) if classify else None
            if tag is False:   # counted by the enclosing span
                return fn(*args, **kwargs)
            result = tracer._call(name, fn, args, kwargs, tag)
            if count is not None:
                tracer._call("trace.counting", count, (tracer, a, result), {})
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- installation --------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        """Point every amlgraph binding of `original` at `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "amlgraph"
                                   or mod_name.startswith("amlgraph.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import amlgraph  # noqa: F401  (loads every layer module)
        from amlgraph import cli, ndtensor
        mods = {name: sys.modules[f"amlgraph.{name}"] for name in LAYER_MODULES}
        hooks = {
            _SAMPLER: (None, _count_sample),
            "graph.sample_neighborhood_nodes": (_classify_nodes,
                                                 _count_sample),
            "model.encode": (_classify_encode, _count_encode),
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if mod is cli and attr.startswith("cmd_"):
                    name = "cli." + attr[4:]
                classify, count = hooks.get(name, (None, None))
                self._rebind(fn, self._spanned(name, fn, classify, count))
        for op in NDTENSOR_OPS:
            fn = getattr(ndtensor, op)
            self._rebind(fn, self._spanned(f"ndtensor.fwd.{op}", fn))

        tape = ndtensor.Tape
        orig_backward, orig_record = tape.backward, tape.record
        tracer = self

        def backward(tape_self, loss):
            return tracer._call("ndtensor.Tape.backward", orig_backward,
                                (tape_self, loss), {})

        def record(tape_self, output, inputs, rule):
            tracer.counts["ndtensor.tape_records"] += 1
            kind = rule.__qualname__.split(".")[0]
            span = f"ndtensor.bwd.{kind}"
            return orig_record(tape_self, output, inputs,
                               lambda g: tracer._call(span, rule, (g,), {}))

        self._patches += [(tape, "backward", orig_backward),
                          (tape, "record", orig_record)]
        tape.backward, tape.record = backward, record

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def totals(self):
        """Inclusive time, self time and calls per span name."""
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for _, _, name, start, end, child in self.spans:
            total[name] += end - start
            own[name] += end - start - child
            calls[name] += 1
        total.update(self.tagged)
        return total, own, calls

    def value(self, metric: str, totals=None) -> float:
        """A per-layer metric by naming convention.

        ``<span>.self_s`` is self time, ``<span>.calls`` a call count,
        ``<span>_s`` inclusive time (``ndtensor.{fwd,bwd}.other_s`` sums the
        op kinds not named on their own), ``ndtensor.fwd.ops`` counts every
        forward op call, and any other name is a counter.
        """
        total, own, calls = totals or self.totals()
        if metric.endswith(".self_s"):
            return own.get(metric[:-len(".self_s")], 0.0)
        if metric.endswith(".calls"):
            return float(calls.get(metric[:-len(".calls")], 0))
        if metric == "ndtensor.fwd.ops":
            return float(sum(n for k, n in calls.items()
                             if k.startswith("ndtensor.fwd.")))
        for pass_name, named in (("fwd", FWD_KINDS), ("bwd", BWD_KINDS)):
            if metric == f"ndtensor.{pass_name}.other_s":
                prefix = f"ndtensor.{pass_name}."
                return sum(t for k, t in total.items()
                           if k.startswith(prefix)
                           and k[len(prefix):] not in named)
        if metric.endswith("_s"):
            return total.get(metric[:-2], 0.0)
        return float(self.counts.get(metric, 0))


def _classify_nodes(tracer, a):
    if tracer._stack and tracer._stack[-1][2] == _SAMPLER:
        return False   # the thin pair wrapper's span covers this call
    return _seed_class(np.size(a["seed_customers"]), np.size(a["seed_txns"]))


def _classify_encode(tracer, a):
    sub = a["sub"]
    return _seed_class(len(sub.levels_c[0]), len(sub.levels_t[0]))


def _count_encode(tracer, a, result):
    sub, layers = a["sub"], a["params"].num_layers
    tracer.counts["model.encode.input_rows"] += (len(sub.levels_c[layers])
                                                 + len(sub.levels_t[layers]))


def _count_sample(tracer, a, sub):
    """Work counts of one sampler call.

    Nodes and edges are read from the returned subgraph (edges summed over
    layers and relations, as the encoder visits them). Owners are computed:
    each (frontier customer, relation) neighbour list with at least one
    edge left after removal is expanded, and truncated when that degree
    exceeds the fanout.
    """
    g, fanout = a["g"], a["fanout"]
    c = tracer.counts
    c["graph.sampled_nodes"] += len(sub.levels_c[-1]) + len(sub.levels_t[-1])
    c["graph.sampled_edges"] += sum(len(edges[0]) for layer in sub.layers
                                    for edges in layer.values())
    previous = np.empty(0, dtype=np.int64)
    frontiers = []
    for level in sub.levels_c[:sub.depth]:
        frontiers.append(np.setdiff1d(level, previous, assume_unique=True))
        previous = level
    frontier = np.concatenate(frontiers)
    for indptr, ends, removed in ((g.out_indptr, g.o_src, a["removed_out"]),
                                  (g.in_indptr, g.i_dst, a["removed_in"])):
        degree = indptr[frontier + 1] - indptr[frontier]
        if removed is not None:
            gone = ends[removed & (ends >= 0)]
            degree = degree - np.bincount(gone, minlength=g.n_customers)[frontier]
        c["graph.owners_expanded"] += int(np.count_nonzero(degree > 0))
        c["graph.owners_truncated"] += int(np.count_nonzero(degree > fanout))
