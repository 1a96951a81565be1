"""What the benchmark's tracer (perfbench/tracer.py) needs of the package.

The tracer wraps package functions by name and reads their arguments by
name, so renaming or deleting one breaks `perfbench/run.py --trace 1`,
whose own tests are outside this suite. This module reads the tracer and
checks those names, then traces one sample and one encode, and one
generate and one graph build.
"""

import importlib
import importlib.util
import inspect
import json
import os

import numpy as np
import pytest

import amlgraph.datagen as dg
import amlgraph.graph as gr
import amlgraph.model as md
import amlgraph.ndtensor as nd

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                           "tracer.py")


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parameters(fn):
    return set(inspect.signature(fn).parameters)


def test_every_traced_op_exists(tracer_module):
    missing = [op for op in tracer_module.NDTENSOR_OPS
               if not callable(getattr(nd, op, None))]
    assert missing == []


def test_hooked_functions_take_the_arguments_read():
    sampled = {"g", "fanout", "removed_out", "removed_in"}
    assert sampled <= _parameters(gr.sample_neighborhood)
    assert sampled | {"seed_customers", "seed_txns"} <= \
        _parameters(gr.sample_neighborhood_nodes)
    assert {"params", "sub"} <= _parameters(md.encode)


def test_traced_sample_counts_edges(tracer_module):
    rng = np.random.default_rng(0)
    profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(5)]
    txns = [gr.RawTransaction(f"t{j}", f"c{j % 5}", f"c{(j + 2) % 5}", float(j),
                              rng.normal(size=2)) for j in range(12)]
    g = gr.build_graph(txns, profiles)
    params = md.init_params("gat", g.d_customer, g.d_transaction, 2, 4, 2)
    original = gr.sample_neighborhood_nodes
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        sub = gr.sample_neighborhood_nodes(g, [0, 1], [], fanout=2, num_layers=2,
                                           seed=0)
        md.encode(params, sub, g.x_c, g.x_t)
    finally:
        tracer.uninstall()
    assert gr.sample_neighborhood_nodes is original
    assert tracer.counts["graph.sampled_edges"] > 0
    assert tracer.counts["model.encode.input_rows"] > 0


def test_traced_setup_spans(tracer_module):
    """The set-up layer metrics (`datagen.generate_s`, `graph.build_graph_s`)
    read the spans of the public functions that do the set-up work."""
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        profiles, txns, _ = dg.generate(dg.SyntheticConfig(
            n_customers=20, n_transactions=50, n_communities=2, d_customer=6,
            d_transaction=3))
        gr.build_graph(txns, profiles)
    finally:
        tracer.uninstall()
    assert {"datagen.generate", "graph.build_graph"} <= {span[2] for span in tracer.spans}
    assert tracer.value("datagen.generate_s") > 0 and tracer.value("graph.build_graph_s") > 0


# Counters the tracer computes itself, not a span of a function.
COMPUTED = {"graph.sampled_nodes", "graph.sampled_edges", "graph.owners_expanded",
            "graph.owners_truncated"}
# `extend_graph` was replaced by `resolve_transactions`; its two metrics read
# 0 and await the next change to the benchmark.
AWAITING_BENCHMARK = {"graph.extend_graph.self_s", "graph.extend_graph.calls"}


def test_metrics_name_public_functions(tracer_module):
    """Every per-layer metric `<layer module>.<name>...` in BENCHMARK.json
    names a public function of that module (`cli.<x>` is `cmd_<x>`)."""
    with open(os.path.join(os.path.dirname(TRACER_PATH), os.pardir,
                           "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    checked, missing = 0, []
    for metric in metrics:
        layer, _, rest = metric.partition(".")
        if layer not in tracer_module.LAYER_MODULES or metric in COMPUTED | AWAITING_BENCHMARK:
            continue
        name = rest.split(".")[0]
        if "." not in rest:
            name = name.removesuffix("_s")
        if layer == "cli":
            name = "cmd_" + name
        module = importlib.import_module(f"amlgraph.{layer}")
        fn = getattr(module, name, None)
        if (name.startswith("_") or not inspect.isfunction(fn)
                or fn.__module__ != module.__name__):
            missing.append(metric)
        checked += 1
    assert missing == []
    assert checked >= 20
