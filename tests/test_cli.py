import argparse
import contextlib
import dataclasses
import io
import json
import os
import struct
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amlgraph.datagen as dg
import amlgraph.graph as gr
import amlgraph.model as md
from amlgraph import cli
from amlgraph.cli import main


def run(*argv):
    return main(list(argv))


def _flip(blob, flips):
    out = bytearray(blob)
    for pos, mask in flips:
        out[pos % len(out)] ^= mask
    return bytes(out)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the CLI tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    code = run("gen-data", "--out-dir", data, "--n-customers", "60",
               "--n-transactions", "400", "--n-communities", "3",
               "--d-customer", "6", "--d-transaction", "4",
               "--seed", "1", "--holdout-boundary", "80.0")
    assert code == 0
    graph = str(root / "graph.bin")
    code = run("build-graph", "--profiles", os.path.join(data, "profiles.jsonl"),
               "--transactions", os.path.join(data, "transactions_train.jsonl"),
               "--out", graph)
    assert code == 0
    model = str(root / "model.bin")
    code = run("train", "--graph", graph, "--out", model,
               "--encoder", "gat", "--layers", "2", "--hidden", "8",
               "--heads", "2", "--batch-size", "32", "--epochs", "2",
               "--fanout", "8", "--seed", "0")
    assert code == 0
    scores = str(root / "scores.jsonl")
    code = run("score", "--graph", graph, "--model", model,
               "--transactions", os.path.join(data, "transactions_test.jsonl"),
               "--out", scores, "--fanout", "8")
    assert code == 0
    return {"root": root, "data": data, "graph": graph, "model": model,
            "scores": scores}


class TestPipeline:
    def test_gen_data_outputs(self, pipeline):
        for name in ("profiles.jsonl", "transactions.jsonl", "labels.jsonl",
                     "transactions_train.jsonl", "transactions_test.jsonl",
                     "manifest.json"):
            assert os.path.isfile(os.path.join(pipeline["data"], name))
        train = gr.load_transactions(
            os.path.join(pipeline["data"], "transactions_train.jsonl"))
        test = gr.load_transactions(
            os.path.join(pipeline["data"], "transactions_test.jsonl"))
        assert len(train) + len(test) == 400
        assert all(t.timestamp < 80.0 for t in train)
        assert all(t.timestamp >= 80.0 for t in test)

    def test_train_artifacts(self, pipeline):
        assert os.path.isfile(pipeline["model"])
        log = pipeline["model"] + ".metrics.log"
        lines = open(log).read().splitlines()
        assert any(line.startswith("epoch=0 ") for line in lines)
        assert lines[-1].startswith("held_out_link_auc=")
        manifest = json.load(open(pipeline["model"] + ".manifest.json"))
        assert manifest["command"] == "train"
        assert pipeline["graph"] in manifest["inputs"]

    def test_score_records(self, pipeline):
        import amlgraph.training as tr
        results = tr.read_results(pipeline["scores"])
        assert results
        test_txns = gr.load_transactions(
            os.path.join(pipeline["data"], "transactions_test.jsonl"))
        expected = sum((t.source_customer != gr.EXTERNAL)
                       + (t.dest_customer != gr.EXTERNAL) for t in test_txns)
        assert len(results) == expected
        for r in results:
            assert (r.anomaly_score is None) == r.cold_start
            if not r.cold_start:
                assert 0.0 < r.y_hat < 1.0

    def test_evaluate_report(self, pipeline):
        report_path = str(pipeline["root"] / "report.json")
        roc_path = str(pipeline["root"] / "roc.tsv")
        code = run("evaluate", "--scores", pipeline["scores"],
                   "--labels", os.path.join(pipeline["data"], "labels.jsonl"),
                   "--out", report_path, "--roc", roc_path)
        assert code == 0
        report = json.load(open(report_path))
        assert 0.0 <= report["roc_auc"] <= 1.0
        assert report["n_transactions"] > 0
        assert open(roc_path).readline().strip() == "fpr\ttpr\tthreshold"

    def test_embed_and_diverge(self, pipeline):
        emb1 = str(pipeline["root"] / "emb1.tsv")
        assert run("embed", "--graph", pipeline["graph"], "--model",
                   pipeline["model"], "--out", emb1) == 0
        model2 = str(pipeline["root"] / "model2.bin")
        assert run("train", "--graph", pipeline["graph"], "--out", model2,
                   "--encoder", "sage", "--layers", "2", "--hidden", "8",
                   "--heads", "1", "--batch-size", "32", "--epochs", "1",
                   "--fanout", "8", "--seed", "7") == 0
        emb2 = str(pipeline["root"] / "emb2.tsv")
        assert run("embed", "--graph", pipeline["graph"], "--model", model2,
                   "--out", emb2) == 0
        report = str(pipeline["root"] / "drift.jsonl")
        assert run("diverge", "--embeddings", emb1, emb2,
                   "--out", report) == 0
        rows = [json.loads(line) for line in open(report)]
        assert len(rows) == 60
        for row in rows:
            m = np.array(row["similarity"])
            assert m.shape == (2, 2)
            assert np.array_equal(m, m.T)
        # identical snapshots never diverge
        same = str(pipeline["root"] / "same.jsonl")
        assert run("diverge", "--embeddings", emb1, emb1, "--out", same) == 0
        assert not any(json.loads(line)["diverging"] for line in open(same))


class TestHandScores:
    def test_known_auc(self, tmp_path):
        scores = tmp_path / "scores.jsonl"
        labels = tmp_path / "labels.jsonl"
        rows = [("t0", 0.1, False), ("t1", 0.4, False),
                ("t2", 0.35, True), ("t3", 0.8, True)]
        with open(scores, "w") as fh:
            for tid, s, _ in rows:
                fh.write(json.dumps({
                    "txn_id": tid, "direction": gr.OUTGOING,
                    "customer_id": "c0", "y_hat": 1.0 - s,
                    "anomaly_score": s, "cold_start": False}) + "\n")
        with open(labels, "w") as fh:
            for tid, _, flag in rows:
                fh.write(json.dumps({"txn_id": tid, "anomaly": flag,
                                     "src_community": 0,
                                     "dst_community": 1}) + "\n")
        out = tmp_path / "report.json"
        assert run("evaluate", "--scores", str(scores), "--labels",
                   str(labels), "--out", str(out)) == 0
        report = json.load(open(out))
        assert report["roc_auc"] == 0.75
        assert report["n_flagged"] == 2

    def test_scored_txn_missing_label(self, tmp_path):
        scores = tmp_path / "scores.jsonl"
        labels = tmp_path / "labels.jsonl"
        scores.write_text(json.dumps({
            "txn_id": "tX", "direction": gr.OUTGOING, "customer_id": "c0",
            "y_hat": 0.5, "anomaly_score": 0.5, "cold_start": False}) + "\n")
        labels.write_text(json.dumps({"txn_id": "t0", "anomaly": False,
                                      "src_community": 0,
                                      "dst_community": 0}) + "\n")
        assert run("evaluate", "--scores", str(scores), "--labels",
                   str(labels), "--out", str(tmp_path / "r.json")) == 2

    def test_repeated_label_is_2(self, tmp_path, capsys):
        """A second label of one transaction is refused, not read over the first."""
        scores = tmp_path / "scores.jsonl"
        labels = tmp_path / "labels.jsonl"
        scores.write_text("".join(json.dumps({
            "txn_id": tid, "direction": gr.OUTGOING, "customer_id": "c0",
            "y_hat": 1.0 - s, "anomaly_score": s, "cold_start": False}) + "\n"
            for tid, s in (("t0", 0.2), ("t1", 0.7))))
        labels.write_text("".join(json.dumps({
            "txn_id": tid, "anomaly": flag, "src_community": 0,
            "dst_community": 1}) + "\n"
            for tid, flag in (("t0", False), ("t1", True), ("t1", False))))
        out = tmp_path / "r.json"
        assert run("evaluate", "--scores", str(scores), "--labels", str(labels),
                   "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(labels) in err and "'t1'" in err


class TestColdStart:
    def test_unknown_customer_scores_cleanly(self, pipeline, tmp_path):
        new = tmp_path / "new.jsonl"
        gr.write_transactions(str(new), [
            gr.RawTransaction("fresh0", "c000001", "stranger", 99.0,
                              [1.0, 0.0, 0.0, 0.0])])
        out = tmp_path / "scores.jsonl"
        code = run("score", "--graph", pipeline["graph"], "--model",
                   pipeline["model"], "--transactions", str(new),
                   "--out", str(out), "--fanout", "8")
        assert code == 0
        import amlgraph.training as tr
        results = tr.read_results(str(out))
        by_dir = {r.direction: r for r in results}
        assert not by_dir[gr.OUTGOING].cold_start
        assert by_dir[gr.INCOMING].cold_start


class TestManifests:
    def test_deterministic_bytes(self, tmp_path):
        args = ["gen-data", "--n-customers", "30", "--n-transactions", "100",
                "--n-communities", "2", "--d-customer", "6",
                "--d-transaction", "3", "--seed", "3"]
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run(*args, "--out-dir", d1) == 0
        m1_first = open(os.path.join(d1, "manifest.json"), "rb").read()
        assert run(*args, "--out-dir", d1) == 0   # rerun in place
        m1_second = open(os.path.join(d1, "manifest.json"), "rb").read()
        assert m1_first == m1_second
        assert run(*args, "--out-dir", d2) == 0
        t1 = open(os.path.join(d1, "transactions.jsonl"), "rb").read()
        t2 = open(os.path.join(d2, "transactions.jsonl"), "rb").read()
        assert t1 == t2

    def test_input_digests_recorded(self, pipeline):
        import hashlib
        manifest = json.load(open(pipeline["scores"] + ".manifest.json"))
        digest = manifest["inputs"][pipeline["graph"]]
        actual = hashlib.sha256(open(pipeline["graph"], "rb").read()).hexdigest()
        assert digest == actual
        assert manifest["version"]
        assert manifest["outputs"] == [pipeline["scores"]]


class TestConfigFile:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-customers": 50, "n-transactions": 80,
                                   "n-communities": 2, "d-customer": 6,
                                   "d-transaction": 3, "seed": 5}))
        out = str(tmp_path / "data")
        assert run("gen-data", "--out-dir", out, "--config", str(cfg),
                   "--n-customers", "40") == 0
        profiles = gr.load_profiles(os.path.join(out, "profiles.jsonl"))
        txns = gr.load_transactions(os.path.join(out, "transactions.jsonl"))
        assert len(profiles) == 40    # flag wins
        assert len(txns) == 80        # file fills the rest

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-custmers": 50}))
        assert run("gen-data", "--out-dir", str(tmp_path / "d"),
                   "--config", str(cfg)) == 1

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{nope")
        assert run("gen-data", "--out-dir", str(tmp_path / "d"),
                   "--config", str(cfg)) == 1


# each command's option table and the path flags its parser requires
COMMANDS = {
    "gen-data": (cli.GEN_OPTIONS, ["--out-dir", "d"]),
    "build-graph": (cli.NO_OPTIONS, ["--profiles", "p", "--transactions", "t",
                                     "--out", "g"]),
    "train": (cli.TRAIN_OPTIONS, ["--graph", "g", "--out", "m"]),
    "score": (cli.SCORE_OPTIONS, ["--graph", "g", "--model", "m",
                                  "--transactions", "t", "--out", "s"]),
    "evaluate": (cli.NO_OPTIONS, ["--scores", "s", "--labels", "l", "--out", "r"]),
    "embed": (cli.EMBED_OPTIONS, ["--graph", "g", "--model", "m", "--out", "e"]),
    "diverge": (cli.DIVERGE_OPTIONS, ["--embeddings", "a", "b", "--out", "d"]),
}
OPTION_CASES = [(command, flag) for command, (options, _) in COMMANDS.items()
                for flag in options.table]


def _two_values(kind, default):
    """Two valid values of an option, both unlike its default."""
    if kind is str:
        return tuple(k for k in md.KINDS if k != default)[:2]
    if kind is int:
        return (default or 0) + 1, (default or 0) + 2
    return 0.25, 0.125


class TestOptionTables:
    def test_every_command_covered(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert sorted(sub.choices) == sorted(COMMANDS)

    @pytest.mark.parametrize("command,flag", OPTION_CASES,
                             ids=[f"{c}-{f}" for c, f in OPTION_CASES])
    def test_default_then_file_then_flag(self, tmp_path, command, flag):
        """The declared default (a field's is the dataclass default), then
        a --config value, then the flag; the built config holds the result."""
        options, paths = COMMANDS[command]
        kind, default, field = options.table[flag]
        if field is not None:
            declared = {f.name: f.default for f in dataclasses.fields(options.config)}
            assert default == declared[field]
        file_value, flag_value = _two_values(kind, default)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({flag: file_value}))
        for extra, expected in (
                ([], default),
                (["--config", str(cfg_path)], file_value),
                (["--config", str(cfg_path), f"--{flag}", str(flag_value)],
                 flag_value)):
            args = cli.build_parser().parse_args([command, *paths, *extra])
            values, config = cli._resolve(args, options)
            assert values[flag] == expected
            assert type(values[flag]) is (type(None) if expected is None else kind)
            if field is not None:
                assert getattr(config, field) == expected


class TestExitCodes:
    def test_mistyped_train_config_is_1(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"layers": "two"}))
        out = tmp_path / "m.bin"
        assert run("train", "--graph", pipeline["graph"], "--out", str(out),
                   "--config", str(cfg)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'layers'" in err

    def test_mistyped_score_config_is_1(self, pipeline, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None}))
        out = tmp_path / "scores.jsonl"
        assert run("score", "--graph", pipeline["graph"], "--model",
                   pipeline["model"], "--transactions",
                   os.path.join(pipeline["data"], "transactions_test.jsonl"),
                   "--out", str(out), "--config", str(cfg)) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'seed'" in err

    @pytest.mark.parametrize("key,value", [
        ("layers", 2.9), ("seed", True), ("lr", "1e-3"), ("lr", 10 ** 400)])
    def test_wrong_form_train_config_is_1(self, pipeline, tmp_path, capsys,
                                          key, value):
        """A fraction for an int key, a bool for a number, a numeric
        string or an int too large for a float is refused, not converted."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "m.bin"
        assert run("train", "--graph", pipeline["graph"], "--out", str(out),
                   "--config", str(cfg), "--epochs", "1") == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"'{key}'" in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_lr_is_1(self, pipeline, tmp_path, capsys, value):
        """Python's JSON reader accepts these literals; training must not."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"lr": %s}' % value)
        out = tmp_path / "m.bin"
        assert run("train", "--graph", pipeline["graph"], "--out", str(out),
                   "--config", str(cfg), "--epochs", "1") == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "'lr'" in err

    def test_oversized_model_header_is_2(self, pipeline, tmp_path,
                                         monkeypatch, capsys):
        blob = bytearray(open(pipeline["model"], "rb").read())
        struct.pack_into("<I", blob, 15 + 12, 1 << 24)   # hidden, after "gat"
        model = tmp_path / "model.bin"
        model.write_bytes(bytes(blob))

        def init_params(*args, **kwargs):
            raise AssertionError("init_params ran on an oversized header")

        monkeypatch.setattr(md, "init_params", init_params)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--graph", pipeline["graph"], "--model", str(model),
                   "--transactions",
                   os.path.join(pipeline["data"], "transactions_test.jsonl"),
                   "--out", str(out)) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    @staticmethod
    def _two_snapshots(tmp_path):
        """c0's two embeddings have cosine similarity 1/sqrt(1.25) ~ 0.894."""
        paths = []
        for name, vec in (("a.tsv", "1.0\t0.0"), ("b.tsv", "1.0\t0.5")):
            path = tmp_path / name
            path.write_text(f"node_type\tnode_id\tv0\tv1\ncustomer\tc0\t{vec}\n")
            paths.append(str(path))
        return paths

    @pytest.mark.parametrize("command,body,flags", [
        ("embed", {"layer": 0, "bogus": 1}, []),
        ("embed", {"layer": "last"}, []),
        ("diverge", {"threshold": 0.99, "bogus": 1}, []),
        ("diverge", {"threshold": "x"}, []),
        ("diverge", {}, ["--threshold", "nan"])],
        ids=["embed-unknown-key", "embed-string-layer", "diverge-unknown-key",
             "diverge-string-threshold", "diverge-nan-flag"])
    def test_bad_embed_diverge_config_is_1(self, pipeline, tmp_path, capsys,
                                           command, body, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        out = tmp_path / "out.tsv"
        inputs = (["--graph", pipeline["graph"], "--model", pipeline["model"]]
                  if command == "embed"
                  else ["--embeddings", *self._two_snapshots(tmp_path)])
        assert run(command, *inputs, "--out", str(out), "--config", str(cfg),
                   *flags) == 1
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1

    def test_repeated_embedding_row_is_2(self, tmp_path, capsys):
        """c1's first row [1, 0] against [0, 1] is orthogonal; reading the
        second row over it would report similarity 1 and no divergence."""
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        a.write_text("node_type\tnode_id\tv0\tv1\n"
                     "customer\tc1\t1.0\t0.0\ncustomer\tc1\t0.0\t1.0\n")
        b.write_text("node_type\tnode_id\tv0\tv1\ncustomer\tc1\t0.0\t1.0\n")
        out = tmp_path / "drift.jsonl"
        assert run("diverge", "--embeddings", str(a), str(b), "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{a}:3:" in err

    @pytest.mark.parametrize("ids", [
        lambda g: (g.customer_ids[:1] * 2 + g.customer_ids[2:], g.txn_ids),
        lambda g: (g.customer_ids, g.txn_ids[:1] * 2 + g.txn_ids[2:]),
        lambda g: ((gr.EXTERNAL,) + g.customer_ids[1:], g.txn_ids)],
        ids=["customer-repeated", "transaction-repeated", "customer-external"])
    def test_snapshot_ids_build_graph_refuses_are_2(self, pipeline, tmp_path,
                                                    capsys, ids):
        """A snapshot's ids obey build_graph's rules; a repeated customer
        id would otherwise decode every record against its last row."""
        g = gr.load_graph(pipeline["graph"])
        customer_ids, txn_ids = ids(g)
        graph = str(tmp_path / "graph.bin")
        gr.save_graph(types.SimpleNamespace(**{
            **vars(g), "customer_ids": customer_ids, "txn_ids": txn_ids}), graph)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--graph", graph, "--model", pipeline["model"],
                   "--transactions",
                   os.path.join(pipeline["data"], "transactions_test.jsonl"),
                   "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and graph in err

    def test_id_with_tab_embed_is_2(self, pipeline, tmp_path, capsys):
        """A graph id holding a tab would split its row of the export into
        a row `diverge` refuses; `embed` refuses it and writes nothing."""
        g = gr.load_graph(pipeline["graph"])
        graph = str(tmp_path / "graph.bin")
        gr.save_graph(types.SimpleNamespace(**{
            **vars(g), "customer_ids": ("c\t1",) + g.customer_ids[1:]}), graph)
        out = tmp_path / "emb.tsv"
        assert run("embed", "--graph", graph, "--model", pipeline["model"],
                   "--out", str(out)) == 2
        assert not out.exists()
        assert capsys.readouterr().err == \
            "error: customer id 'c\\t1' holds a tab or line break: the export cannot hold it\n"

    def test_embedding_without_coordinates_is_2(self, tmp_path, capsys):
        """A header of only node_type and node_id is malformed input, not a
        zero vector to divide by."""
        emb = tmp_path / "emb.tsv"
        emb.write_text("node_type\tnode_id\ncustomer\tc0\n")
        out = tmp_path / "drift.jsonl"
        assert run("diverge", "--embeddings", str(emb), str(emb),
                   "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(emb) in err

    def test_config_threshold_applied(self, tmp_path):
        emb = self._two_snapshots(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"threshold": 0.95}))
        flagged = {}
        for name, extra in (("default", []), ("config", ["--config", str(cfg)]),
                            ("flag", ["--config", str(cfg), "--threshold", "0.5"])):
            out = tmp_path / f"{name}.jsonl"
            assert run("diverge", "--embeddings", *emb, "--out", str(out),
                       *extra) == 0
            flagged[name] = json.loads(out.read_text())["diverging"]
            manifest = json.load(open(str(out) + ".manifest.json"))
            flagged[name + "_threshold"] = manifest["config"]["threshold"]
        assert flagged == {"default": False, "default_threshold": 0.8,
                           "config": True, "config_threshold": 0.95,
                           "flag": False, "flag_threshold": 0.5}

    def test_config_error_is_1(self, tmp_path):
        assert run("gen-data", "--out-dir", str(tmp_path / "d"),
                   "--n-customers", "1") == 1

    @pytest.mark.parametrize("flags,body", [
        (["--n-customers", "1"], None), ([], {"seed": "a"})],
        ids=["invalid-config", "mistyped-config"])
    def test_gen_data_config_error_creates_nothing(self, tmp_path, flags, body):
        if body is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(body))
            flags = flags + ["--config", str(cfg)]
        assert run("gen-data", "--out-dir", str(tmp_path / "x" / "y"), *flags) == 1
        assert not (tmp_path / "x").exists()

    def test_missing_input_is_2(self, tmp_path):
        assert run("build-graph", "--profiles", "/nonexistent.jsonl",
                   "--transactions", "/nonexistent.jsonl",
                   "--out", str(tmp_path / "g.bin")) == 2

    @pytest.mark.parametrize("source,dest,timestamp", [
        ("c000001", "c000002", "NaN"), ("EXTERNAL", "EXTERNAL", "99.0")],
        ids=["nan-timestamp", "both-external"])
    def test_score_refuses_what_build_graph_refuses_2(self, pipeline, tmp_path,
                                                      capsys, source, dest,
                                                      timestamp):
        """`score` exits 2 on a record `build-graph` refuses, with
        `build-graph`'s one-line message and no output file."""
        new = tmp_path / "new.jsonl"
        new.write_text('{"txn_id": "bad0", "source": "%s", "dest": "%s", '
                       '"timestamp": %s, "features": [0.0, 0.0, 0.0, 0.0]}\n'
                       % (source, dest, timestamp))
        errors = []
        for command, inputs in (
                ("build-graph", ["--profiles",
                                 os.path.join(pipeline["data"], "profiles.jsonl")]),
                ("score", ["--graph", pipeline["graph"], "--model",
                           pipeline["model"]])):
            out = tmp_path / f"{command}.out"
            assert run(command, *inputs, "--transactions", str(new),
                       "--out", str(out)) == 2
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "'bad0'" in err
            errors.append(err)
        assert errors[0] == errors[1]

    def test_bad_ratios_are_1(self, pipeline, tmp_path):
        assert run("train", "--graph", pipeline["graph"],
                   "--out", str(tmp_path / "m.bin"),
                   "--message-ratio", "0.9", "--supervision-ratio", "0.9",
                   "--validation-ratio", "0.2") == 1

    def test_unknown_flag_is_1(self, tmp_path):
        assert run("gen-data", "--out-dir", str(tmp_path / "d"),
                   "--no-such-flag", "7") == 1

    def test_embedding_widths_differ_is_2(self, tmp_path, capsys):
        narrow, wide = tmp_path / "narrow.tsv", tmp_path / "wide.tsv"
        narrow.write_text("node_type\tnode_id\tv0\tv1\ncustomer\tc0\t0.5\t1\n")
        wide.write_text("node_type\tnode_id\tv0\tv1\tv2\ncustomer\tc0\t0.5\t1\t2\n")
        out = tmp_path / "drift.jsonl"
        assert run("diverge", "--embeddings", str(narrow), str(wide),
                   "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "snapshot 1" in err


class TestMalformedInput:
    """Bad data ends in exit 2 with no output file, never a traceback."""

    def _score(self, pipeline, tmp_path, graph=None, transactions=None):
        out = tmp_path / "scores.jsonl"
        code = run("score", "--graph", graph or pipeline["graph"],
                   "--model", pipeline["model"], "--transactions",
                   transactions or os.path.join(pipeline["data"],
                                                "transactions_test.jsonl"),
                   "--out", str(out), "--fanout", "8")
        return code, out

    def test_non_finite_feature_is_2(self, pipeline, tmp_path):
        new = tmp_path / "new.jsonl"
        new.write_text('{"txn_id": "nan0", "source": "c000001", "dest": '
                       '"c000002", "timestamp": 99.0, '
                       '"features": [NaN, 0.0, 0.0, 0.0]}\n')
        code, out = self._score(pipeline, tmp_path, transactions=str(new))
        assert code == 2
        assert not out.exists()

    def test_non_numeric_feature_is_2(self, pipeline, tmp_path):
        new = tmp_path / "new.jsonl"
        new.write_text('{"txn_id": "s0", "source": "c000001", "dest": '
                       '"c000002", "timestamp": 99.0, '
                       '"features": ["a", 0.0, 0.0, 0.0]}\n')
        code, out = self._score(pipeline, tmp_path, transactions=str(new))
        assert code == 2
        assert not out.exists()

    def test_truncated_graph_is_2(self, pipeline, tmp_path):
        cut = tmp_path / "graph.bin"
        blob = open(pipeline["graph"], "rb").read()
        cut.write_bytes(blob[:len(blob) // 2 + 3])
        code, out = self._score(pipeline, tmp_path, graph=str(cut))
        assert code == 2
        assert not out.exists()

    def test_inconsistent_graph_is_2(self, pipeline, tmp_path):
        g = gr.load_graph(pipeline["graph"])
        bad = types.SimpleNamespace(**{name: getattr(g, name) for name in (
            "customer_ids", "txn_ids", "x_c", "x_t", "i_dst", "timestamps",
            "stats")}, o_src=g.o_src[:-1])
        path = str(tmp_path / "graph.bin")
        gr.save_graph(bad, path)
        code, out = self._score(pipeline, tmp_path, graph=path)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("kind", b"gxt"), ("num_layers", 0), ("heads", 0)])
    def test_corrupt_model_header_is_2(self, pipeline, tmp_path, field, value):
        blob = bytearray(open(pipeline["model"], "rb").read())
        (n_kind,) = struct.unpack_from("<I", blob, 8)
        if field == "kind":
            blob[12:12 + n_kind] = value
        else:  # header after the kind: d_c, d_t, num_layers, hidden, heads
            slot = ("num_layers", "hidden", "heads").index(field) + 2
            struct.pack_into("<I", blob, 12 + n_kind + 4 * slot, value)
        model = tmp_path / "model.bin"
        model.write_bytes(bytes(blob))
        out = tmp_path / "scores.jsonl"
        code = run("score", "--graph", pipeline["graph"], "--model", str(model),
                   "--transactions", os.path.join(pipeline["data"],
                                                  "transactions_test.jsonl"),
                   "--out", str(out), "--fanout", "8")
        assert code == 2
        assert not out.exists()

    def test_non_finite_model_is_2(self, pipeline, tmp_path):
        params = md.load_model(pipeline["model"])
        params.w_dec.data[0, 0] = np.nan
        model = str(tmp_path / "model.bin")
        md.save_model(params, model)
        out = tmp_path / "scores.jsonl"
        assert run("score", "--graph", pipeline["graph"], "--model", model,
                   "--transactions", os.path.join(pipeline["data"],
                                                  "transactions_test.jsonl"),
                   "--out", str(out), "--fanout", "8") == 2
        assert not out.exists()
        out = tmp_path / "emb.tsv"
        assert run("embed", "--graph", pipeline["graph"], "--model", model,
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_feature_width_mismatch_is_2(self, pipeline, tmp_path, capsys):
        """A graph built from profiles with one feature dropped does not fit
        the model: score and embed refuse it in one line naming both widths."""
        profiles = [gr.CustomerProfile(p.customer_id, p.features[:-1]) for p in
                    gr.load_profiles(os.path.join(pipeline["data"], "profiles.jsonl"))]
        txns = gr.load_transactions(os.path.join(pipeline["data"],
                                                 "transactions_train.jsonl"))
        graph = str(tmp_path / "graph.bin")
        gr.save_graph(gr.build_graph(txns, profiles), graph)
        capsys.readouterr()
        code, out = self._score(pipeline, tmp_path, graph=graph)
        assert code == 2 and not out.exists()
        emb = tmp_path / "emb.tsv"
        assert run("embed", "--graph", graph, "--model", pipeline["model"],
                   "--out", str(emb)) == 2
        assert not emb.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        for line in lines:
            assert "6 customer and 4 transaction" in line and "has 5 and 4" in line

    @pytest.mark.parametrize("where", ["graph", "model"])
    def test_values_too_large_to_encode_are_3(self, pipeline, tmp_path, capsys, where):
        """Finite features or weights so large that encoding overflows: score
        and embed exit 3 with one stderr line and write no output."""
        graph, model = pipeline["graph"], pipeline["model"]
        if where == "graph":
            g = gr.load_graph(graph)
            fields = {name: getattr(g, name) for name in (
                "customer_ids", "txn_ids", "x_c", "x_t", "o_src", "i_dst",
                "timestamps", "stats")}
            fields["x_c"] = np.where(g.x_c > 0, 1e308, -1e308)
            graph = str(tmp_path / "graph.bin")
            gr.save_graph(types.SimpleNamespace(**fields), graph)
        else:
            params = md.load_model(model)
            params.layers[0]["w_self_c"].data *= 1e308
            model = str(tmp_path / "model.bin")
            md.save_model(params, model)
        capsys.readouterr()
        out = tmp_path / "scores.jsonl"
        assert run("score", "--graph", graph, "--model", model, "--transactions",
                   os.path.join(pipeline["data"], "transactions_test.jsonl"),
                   "--out", str(out), "--fanout", "8") == 3
        emb = tmp_path / "emb.tsv"
        assert run("embed", "--graph", graph, "--model", model, "--out", str(emb)) == 3
        assert not out.exists() and not emb.exists()
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2 and "not finite" in lines[0] and "not finite" in lines[1]

    def test_non_finite_graph_is_2(self, pipeline, tmp_path):
        g = gr.load_graph(pipeline["graph"])
        x_c = g.x_c.copy()
        x_c[0, 0] = np.nan
        bad = types.SimpleNamespace(**{name: getattr(g, name) for name in (
            "customer_ids", "txn_ids", "x_t", "o_src", "i_dst", "timestamps",
            "stats")}, x_c=x_c)
        path = str(tmp_path / "graph.bin")
        gr.save_graph(bad, path)
        code, out = self._score(pipeline, tmp_path, graph=path)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("field,value", [
        ("anomaly_score", "high"), ("y_hat", float("nan")), ("y_hat", True),
        ("cold_start", "no"), ("direction", "sideways"), ("txn_id", ["t1"]),
        ("customer_id", 7)])
    def test_scores_bad_field_is_2(self, pipeline, tmp_path, field, value):
        records = [json.loads(line) for line in open(pipeline["scores"])]
        victim = next(r for r in records if not r["cold_start"])
        victim[field] = value
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "report.json"
        assert run("evaluate", "--scores", str(scores), "--labels",
                   os.path.join(pipeline["data"], "labels.jsonl"),
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_scores_missing_field_is_2(self, pipeline, tmp_path):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({
            "txn_id": "t0", "customer_id": "c0", "y_hat": 0.5,
            "anomaly_score": 0.5, "cold_start": False}) + "\n")
        out = tmp_path / "report.json"
        assert run("evaluate", "--scores", str(scores), "--labels",
                   os.path.join(pipeline["data"], "labels.jsonl"),
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_non_numeric_embedding_is_2(self, tmp_path):
        emb = tmp_path / "emb.tsv"
        emb.write_text("node_type\tnode_id\td0\ncustomer\tc0\tx\n")
        out = tmp_path / "drift.jsonl"
        assert run("diverge", "--embeddings", str(emb), str(emb),
                   "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        b"node_type\tnode_id\tv0\tv1\ncustomer\tc0\t0.5\tnan\n",
        b"node_type\tnode_id\tv0\ncustomer\tc0\t0.5\xff\n"],
        ids=["nan", "not-utf8"])
    def test_bad_embedding_is_2(self, tmp_path, capsys, body):
        emb = tmp_path / "emb.tsv"
        emb.write_bytes(body)
        out = tmp_path / "drift.jsonl"
        assert run("diverge", "--embeddings", str(emb), str(emb),
                   "--out", str(out)) == 2
        assert not out.exists()
        assert capsys.readouterr().err.count("\n") == 1


def _finite_output(path):
    """Whether every number in an output file is finite: JSON lines (or one
    JSON document), or an embedding export's tab-separated columns."""
    text = open(path, encoding="utf-8").read()
    if path.endswith(".tsv"):
        return all(np.isfinite(float(v)) for line in text.splitlines()[1:]
                   for v in line.split("\t")[2:])

    def non_finite(token):
        raise ValueError(token)

    try:
        for doc in [text] if path.endswith(".json") else text.splitlines():
            json.loads(doc, parse_constant=non_finite)
    except ValueError:
        return False
    return True


class TestCorruptInput:
    """One input of score, embed, evaluate or diverge byte-flipped or cut:
    the command exits 0-3 and never raises; a failure prints one stderr
    line (numpy warnings count as lines) and leaves no output; no output
    holds a non-finite number."""

    @pytest.fixture(scope="class")
    def inputs(self, pipeline, tmp_path_factory):
        root = tmp_path_factory.mktemp("corrupt")
        emb = str(root / "snapshot.tsv")
        assert run("embed", "--graph", pipeline["graph"], "--model",
                   pipeline["model"], "--out", emb) == 0
        return root, {
            "graph": pipeline["graph"], "model": pipeline["model"],
            "transactions": os.path.join(pipeline["data"], "transactions_test.jsonl"),
            "scores": pipeline["scores"],
            "labels": os.path.join(pipeline["data"], "labels.jsonl"),
            "embeddings": emb}

    @staticmethod
    def argv(command, p, pristine, out):
        """The command over inputs `p`; diverge compares with a pristine snapshot."""
        return {"score": ["score", "--graph", p["graph"], "--model", p["model"],
                          "--transactions", p["transactions"], "--fanout", "8"],
                "embed": ["embed", "--graph", p["graph"], "--model", p["model"]],
                "evaluate": ["evaluate", "--scores", p["scores"], "--labels", p["labels"]],
                "diverge": ["diverge", "--embeddings", p["embeddings"],
                            pristine["embeddings"]]}[command] + ["--out", out]

    @pytest.mark.parametrize("command,name", [
        ("score", "graph"), ("score", "model"), ("score", "transactions"),
        ("embed", "graph"), ("embed", "model"), ("evaluate", "scores"),
        ("evaluate", "labels"), ("diverge", "embeddings")])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupt_input_exits_cleanly(self, inputs, command, name, data):
        root, pristine = inputs
        blob = open(pristine[name], "rb").read()
        position = st.one_of(st.integers(0, 63), st.integers(0, len(blob) - 1))
        flips = st.lists(st.tuples(position, st.integers(1, 255)), min_size=1,
                         max_size=4).map(lambda fl: _flip(blob, fl))
        cuts = st.integers(0, len(blob) - 1).map(lambda n: blob[:n])
        bad = root / ("bad_" + os.path.basename(pristine[name]))
        bad.write_bytes(data.draw(st.one_of(flips, cuts)))
        out = root / {"score": "scores.jsonl", "embed": "emb.tsv",
                      "evaluate": "report.json", "diverge": "drift.jsonl"}[command]
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main(self.argv(command, {**pristine, name: str(bad)}, pristine,
                                  str(out)))
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code in (0, 1, 2, 3)
        if code:
            assert len(lines) == 1 and not out.exists(), lines
        else:
            assert _finite_output(str(out)), lines
