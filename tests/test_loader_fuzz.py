"""Bounded fuzz of the file loaders.

Byte flips and truncations of a real graph.bin, model.bin, embedding
export and every JSON input, and corrupted records in the JSON ones
(profiles, transactions, scores, labels and a --config file). Property:
each input loads, or raises IngestError or ConfigError; no other
exception escapes.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlgraph import analytics as an
from amlgraph import cli
from amlgraph import datagen as dg
from amlgraph import graph as gr
from amlgraph import model as md
from amlgraph import training as tr
from amlgraph.errors import ConfigError, IngestError


def load_train_config(path):
    """What `amlgraph train --config path` makes of the file before it
    reads the graph: every option parsed and the training config checked.
    A config that gets through holds finite numbers only."""
    args = cli.build_parser().parse_args(
        ["train", "--graph", "graph.bin", "--out", "model.bin", "--config", path])
    values, config = cli._resolve(args, cli.TRAIN_OPTIONS)
    config.validate()
    ratios = [values[key]
              for key in ("message-ratio", "supervision-ratio", "validation-ratio")]
    numbers = [v for v in dataclasses.astuple(config) if not isinstance(v, str)]
    assert all(math.isfinite(v) for v in numbers + ratios)


LOADERS = {"graph.bin": gr.load_graph, "model.bin": md.load_model,
           "embeddings.tsv": an.read_embeddings,
           "profiles.jsonl": gr.load_profiles,
           "transactions.jsonl": gr.load_transactions,
           "scores.jsonl": tr.read_results, "labels.jsonl": dg.load_labels,
           "config.json": load_train_config}
# one JSON value per line; config.json is a single line
JSONL = ("profiles.jsonl", "transactions.jsonl", "scores.jsonl",
         "labels.jsonl", "config.json")
FUZZ = settings(max_examples=40, deadline=None)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One small valid file per loader: (directory, {name: bytes})."""
    root = tmp_path_factory.mktemp("fuzz")
    profiles, txns, labels = dg.generate(dg.SyntheticConfig(
        n_customers=12, n_transactions=40, n_communities=2, d_customer=6,
        d_transaction=3, seed=1))
    g = gr.build_graph(txns, profiles)
    gr.save_graph(g, str(root / "graph.bin"))
    params = md.init_params("gat", g.d_customer, g.d_transaction, 2, 4, 2)
    md.save_model(params, str(root / "model.bin"))
    an.export_embeddings(params, g, str(root / "embeddings.tsv"))
    dg.write_labels(str(root / "labels.jsonl"), labels[:3])
    (root / "config.json").write_text(json.dumps({
        "encoder": "gat", "layers": 2, "hidden": 8, "heads": 2, "lr": 0.002,
        "dropout": 0.1, "message-ratio": 0.5, "seed": 3}) + "\n")
    gr.write_profiles(str(root / "profiles.jsonl"), profiles[:3])
    gr.write_transactions(str(root / "transactions.jsonl"), txns[:3])
    tr.write_results(str(root / "scores.jsonl"), [
        tr.AnomalyResult("t1", gr.OUTGOING, "c1", 0.25, 0.75, False),
        tr.AnomalyResult("t1", gr.INCOMING, "c2", None, None, True)])
    return root, {name: (root / name).read_bytes() for name in LOADERS}


def _loads_or_refuses(root, name, blob):
    path = root / name
    path.write_bytes(blob)
    try:
        LOADERS[name](str(path))
    except (IngestError, ConfigError):
        pass


def _flip(blob, flips):
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


@pytest.mark.parametrize("name", sorted(LOADERS))
@given(data=st.data())
@FUZZ
def test_flipped_or_truncated_bytes(files, name, data):
    root, blobs = files
    blob = blobs[name]
    # half the flips land in the first 64 bytes, where the headers are
    position = st.one_of(st.integers(0, 63), st.integers(0, len(blob) - 1))
    flips = st.lists(st.tuples(position, st.integers(1, 255)), min_size=1,
                     max_size=4).map(lambda fl: _flip(blob, fl))
    cuts = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
    _loads_or_refuses(root, name, data.draw(st.one_of(flips, cuts)))


@pytest.mark.parametrize("name", JSONL)
@given(data=st.data())
@FUZZ
def test_corrupted_records(files, name, data):
    root, blobs = files
    records = [json.loads(line) for line in blobs[name].decode().splitlines()]
    i = data.draw(st.integers(0, len(records) - 1))
    key = data.draw(st.sampled_from(sorted(records[i])))
    action = data.draw(st.sampled_from(["replace", "delete", "whole line"]))
    if action == "replace":
        records[i][key] = data.draw(JSON_VALUES)
    elif action == "delete":
        del records[i][key]
    else:
        records[i] = data.draw(JSON_VALUES)
    text = "".join(json.dumps(r) + "\n" for r in records)
    _loads_or_refuses(root, name, text.encode())


@pytest.mark.parametrize("name,field", [("profiles.jsonl", "features"),
                                        ("transactions.jsonl", "timestamp"),
                                        ("transactions.jsonl", "features")])
def test_number_too_large_for_float_refused(files, name, field):
    root, blobs = files
    records = [json.loads(line) for line in blobs[name].decode().splitlines()]
    big = 10 ** 400
    records[0][field] = [big] * len(records[0][field]) if field == "features" else big
    path = root / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(IngestError, match=":1: bad record"):
        LOADERS[name](str(path))


@pytest.mark.parametrize("field,value", [
    ("anomaly", "no"), ("anomaly", 1), ("anomaly", None),
    ("src_community", 1.5), ("dst_community", True), ("src_community", "3"),
    ("txn_id", 7)])
def test_label_of_wrong_type_refused(files, field, value):
    """A label loads only with the types `write_labels` writes: a string
    txn_id, a JSON bool anomaly and integer communities."""
    root, blobs = files
    records = [json.loads(line) for line in blobs["labels.jsonl"].decode().splitlines()]
    records[1][field] = value
    path = root / "labels.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(IngestError, match=":2: bad record"):
        dg.load_labels(str(path))
