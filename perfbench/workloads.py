"""The benchmark's three workloads: set-up, one timed step, output checks.

Each workload builds its inputs from the data seed alone and drives the
program through its public Python API or `amlgraph.cli.main`, in this one
process. A step is one blocking request its caller waits for; the traced
run looks for wall time inside it that no layer span covers. Why each
workload exists, and which layer metric should move which end-to-end
metric, is in README.md here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

from amlgraph import cli, datagen
from amlgraph import graph as gr
from amlgraph import model as md
from amlgraph import training as tr

HOLDOUT_BOUNDARY = 80.0
SPLIT_RATIOS = (0.5, 0.3, 0.2)
# Acceptance check 4's desk configuration, except the epoch budget.
DESK_TRAINING = dict(encoder="gat", num_layers=2, hidden=32, heads=4,
                     batch_size=256, fanout=32, learning_rate=0.002, seed=0)
# What `amlgraph score` builds for a model trained with DESK_TRAINING.
DESK_SCORING = dict(encoder="gat", num_layers=2, hidden=32, heads=4,
                    fanout=32, seed=0)


@dataclass(frozen=True)
class Scale:
    desk_customers: int
    desk_transactions: int
    quick_customers: int
    quick_transactions: int
    train_epochs: int      # train-desk: epochs fit runs, never stopping early
    quick_epochs: int      # quickstart: the README's `train --epochs`
    stream_budget: int     # stream-desk: supervision edges per direction
    # Sanity floors well above chance (0.5); None at smoke scale, where
    # the data are too small for the model to learn.
    min_link_auc: float | None
    min_anomaly_auc: float | None


SCALES = {
    "full": Scale(5000, 40000, 1000, 6000, train_epochs=1, quick_epochs=10,
                  stream_budget=512, min_link_auc=0.6, min_anomaly_auc=0.6),
    "smoke": Scale(300, 1500, 200, 1000, train_epochs=1, quick_epochs=1,
                   stream_budget=64, min_link_auc=None, min_anomaly_auc=None),
}

# Acceptance check 5's floor; reported, not gated (it varies with the seed).
CHECK5_ANOMALY_AUC = 0.7


class Outcome:
    """Operations attempted and failed, plus every failed check by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


@dataclass
class Step:
    items: int           # units of work the throughput counts
    item_s: float        # seconds those units took
    latency_s: float     # wall time the caller waited for the step
    start: float         # perf_counter() when the request was made
    payload: object = None


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_records(known_customers, txns, records, outcome: Outcome,
                  what: str) -> None:
    """One operation per expected score record, in the program's order.

    Each transaction yields an outgoing then an incoming record, except
    for an EXTERNAL side, which yields none. A side naming a customer
    outside the reference graph is cold: its scores are null. Any other
    record needs a finite y_hat in [0, 1] with anomaly_score = 1 - y_hat.
    """
    expected = []
    for t in txns:
        for direction, cid in ((gr.OUTGOING, t["source"]),
                               (gr.INCOMING, t["dest"])):
            if cid != gr.EXTERNAL:
                expected.append((t["txn_id"], direction, cid,
                                 cid not in known_customers))
    for k, want in enumerate(expected):
        got = records[k] if k < len(records) else None
        outcome.op(got is not None and _record_ok(got, *want),
                   f"{what}: bad or missing record {k} {want[:2]}")
    for k in range(len(expected), len(records)):
        outcome.op(False, f"{what}: unexpected record {k}")


def _record_ok(r: dict, txn_id, direction, cid, cold) -> bool:
    if (r.get("txn_id"), r.get("direction"), r.get("customer_id"),
            r.get("cold_start")) != (txn_id, direction, cid, cold):
        return False
    y, a = r.get("y_hat"), r.get("anomaly_score")
    if cold:
        return y is None and a is None
    return (isinstance(y, float) and isinstance(a, float)
            and math.isfinite(y) and 0.0 <= y <= 1.0
            and abs(a - (1.0 - y)) <= 1e-12)


def _txn_dict(t: gr.RawTransaction) -> dict:
    return {"txn_id": t.txn_id, "source": t.source_customer,
            "dest": t.dest_customer}


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def _read_jsonl(path: str) -> list[dict]:
    return [json.loads(line) for line in _read_lines(path)]


def _desk_data(scale: Scale, seed: int):
    config = datagen.SyntheticConfig(
        n_customers=scale.desk_customers,
        n_transactions=scale.desk_transactions, n_communities=8,
        external_rate=0.02, seed=seed)
    return datagen.generate(config)


# ---------------------------------------------------------------------------


class TrainDesk:
    """Acceptance check 4's data and model; times `fit` then `evaluate_split`."""

    name = "train-desk"

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.config = tr.TrainingConfig(
            **DESK_TRAINING, max_epochs=scale.train_epochs,
            patience=scale.train_epochs)

    def setup(self, workdir: str, outcome: Outcome):
        profiles, txns, _ = _desk_data(self.scale, self.seed)
        g = gr.build_graph(txns, profiles)
        split = gr.split_edges(g, SPLIT_RATIOS, seed=0)
        return {"dir": workdir, "g": g, "split": split, "steps": 0}

    def setup_digests(self, state) -> dict:
        return {}

    def step(self, state, outcome: Outcome) -> Step:
        g, split, config = state["g"], state["split"], self.config
        t0 = time.perf_counter()
        params, history = tr.fit(g, split, config)
        t1 = time.perf_counter()
        report = tr.evaluate_split(params, g, split, config)
        t2 = time.perf_counter()
        path = os.path.join(state["dir"], f"model-{state['steps']}.bin")
        state["steps"] += 1
        md.save_model(params, path)
        losses = [h[k] for h in history for k in ("train_loss", "val_loss")]
        outcome.op(len(history) == config.max_epochs
                   and all(math.isfinite(v) for v in losses),
                   "fit: stopped early or produced a non-finite loss")
        auc = report["roc_auc"]
        outcome.op(math.isfinite(auc) and 0.0 <= auc <= 1.0,
                   f"evaluate_split: link AUC {auc} out of range")
        positives = sum(split.supervision[d].size for d in gr.DIRECTIONS)
        return Step(items=positives * len(history), item_s=t1 - t0,
                    latency_s=t2 - t0, start=t0,
                    payload={"model": sha256_file(path),
                             "report": json.dumps(report, sort_keys=True),
                             "link_auc": auc})

    def finish(self, state, steps, outcome: Outcome):
        first = steps[0].payload
        for s in steps[1:]:
            outcome.check(s.payload["model"] == first["model"]
                          and s.payload["report"] == first["report"],
                          "train-desk: repeated fit changed model.bin")
        auc = first["link_auc"]
        if self.scale.min_link_auc is not None:
            outcome.check(auc >= self.scale.min_link_auc,
                          f"link AUC {auc:.4f} below {self.scale.min_link_auc}")
        digests = {"model.bin": first["model"],
                   "evaluate_split": hashlib.sha256(
                       first["report"].encode()).hexdigest()}
        named = {"train_edges_per_s": sum(s.items for s in steps)
                 / sum(s.item_s for s in steps),
                 "link_auc": auc}
        return digests, named


class Quickstart:
    """The README quickstart through `amlgraph.cli.main`, in-process."""

    name = "quickstart"

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed

    @staticmethod
    def _cli(outcome: Outcome, argv: list[str]) -> float:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as e:  # noqa: BLE001  (a traceback is a failure)
            code = repr(e)
        elapsed = time.perf_counter() - t0
        outcome.op(code == 0, f"amlgraph {argv[0]} exited {code}")
        return elapsed

    def setup(self, workdir: str, outcome: Outcome):
        p = lambda name: os.path.join(workdir, name)  # noqa: E731
        s = self.scale
        for argv in (
                ["gen-data", "--out-dir", p("data"),
                 "--n-customers", str(s.quick_customers),
                 "--n-transactions", str(s.quick_transactions),
                 "--n-communities", "8", "--seed", str(self.seed),
                 "--holdout-boundary", str(int(HOLDOUT_BOUNDARY))],
                ["build-graph", "--profiles", p("data/profiles.jsonl"),
                 "--transactions", p("data/transactions_train.jsonl"),
                 "--out", p("graph_train.bin")],
                ["build-graph", "--profiles", p("data/profiles.jsonl"),
                 "--transactions", p("data/transactions.jsonl"),
                 "--out", p("graph_full.bin")],
                ["train", "--graph", p("graph_train.bin"),
                 "--out", p("model.bin"), "--layers", "2", "--lr", "0.002",
                 "--epochs", str(s.quick_epochs)]):
            self._cli(outcome, argv)
        return {"dir": workdir, "p": p}

    def setup_digests(self, state) -> dict:
        path = state["p"]("model.bin")
        return {"model.bin": sha256_file(path) if os.path.exists(path) else None}

    def step(self, state, outcome: Outcome) -> Step:
        p = state["p"]
        t0 = time.perf_counter()
        score_s = self._cli(outcome, [
            "score", "--graph", p("graph_train.bin"), "--model", p("model.bin"),
            "--transactions", p("data/transactions_test.jsonl"),
            "--out", p("scores.jsonl")])
        self._cli(outcome, ["evaluate", "--scores", p("scores.jsonl"),
                            "--labels", p("data/labels.jsonl"),
                            "--out", p("report.json"), "--roc", p("roc.tsv")])
        t_embed = time.perf_counter()
        for graph, out in (("graph_train.bin", "emb_a.jsonl"),
                           ("graph_full.bin", "emb_b.jsonl")):
            self._cli(outcome, ["embed", "--graph", p(graph),
                                "--model", p("model.bin"), "--out", p(out)])
        self._cli(outcome, ["diverge", "--embeddings", p("emb_a.jsonl"),
                            p("emb_b.jsonl"), "--out", p("drift.jsonl")])
        t1 = time.perf_counter()

        outputs = ("scores.jsonl", "report.json", "emb_a.jsonl",
                   "emb_b.jsonl", "drift.jsonl")
        if not all(os.path.exists(p(name)) for name in outputs):
            outcome.check(False, "quickstart: an output file is missing")
            return Step(0, score_s, t1 - t0, t0, {})
        known = {r["customer_id"] for r in _read_jsonl(p("data/profiles.jsonl"))}
        test = _read_jsonl(p("data/transactions_test.jsonl"))
        records = _read_jsonl(p("scores.jsonl"))
        check_records(known, test, records, outcome, "score")
        with open(p("report.json"), encoding="utf-8") as fh:
            auc = json.load(fh)["roc_auc"]
        nodes = sum(len(_read_lines(p(f))) - 1   # minus the header row
                    for f in ("emb_a.jsonl", "emb_b.jsonl"))
        payload = {name: sha256_file(p(name)) for name in outputs}
        payload.update(anomaly_auc=auc, nodes=nodes, embed_s=t1 - t_embed)
        return Step(items=len(records), item_s=score_s, latency_s=t1 - t0,
                    start=t0, payload=payload)

    def finish(self, state, steps, outcome: Outcome):
        first = steps[0].payload
        names = ("scores.jsonl", "report.json", "emb_a.jsonl", "emb_b.jsonl",
                 "drift.jsonl")
        for s in steps[1:]:
            outcome.check(all(s.payload.get(n) == first.get(n) for n in names),
                          "quickstart: a repeated pass changed an output")
        auc = first.get("anomaly_auc", float("nan"))
        if self.scale.min_anomaly_auc is not None:
            outcome.check(auc >= self.scale.min_anomaly_auc,
                          f"anomaly AUC {auc:.4f} below "
                          f"{self.scale.min_anomaly_auc}")
        digests = {n: first.get(n) for n in names}
        named = {"score_records_per_s": sum(s.items for s in steps)
                 / sum(s.item_s for s in steps),
                 "anomaly_auc": auc,
                 "anomaly_auc_meets_check5": auc >= CHECK5_ANOMALY_AUC,
                 "embed_nodes_per_s":
                     sum(s.payload.get("nodes", 0) for s in steps)
                     / sum(s.payload.get("embed_s", math.inf) for s in steps)}
        return digests, named


class StreamDesk:
    """One caller scoring held-out desk transactions one call at a time."""

    name = "stream-desk"

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.scoring = tr.TrainingConfig(**DESK_SCORING)
        self.next = 0   # the stream continues across set-ups of one run

    def setup(self, workdir: str, outcome: Outcome):
        profiles, txns, _ = _desk_data(self.scale, self.seed)
        train, test = datagen.holdout_split(txns, HOLDOUT_BOUNDARY)
        g = gr.build_graph(train, profiles)
        split = gr.split_edges(g, SPLIT_RATIOS, seed=0)
        # A short fixed training budget: latency does not depend on weights.
        budget = self.scale.stream_budget
        short = gr.EdgeSplit(
            split.message,
            {d: split.supervision[d][:budget] for d in gr.DIRECTIONS},
            {d: split.validation[d][:budget // 2] for d in gr.DIRECTIONS})
        params, _ = tr.fit(g, short, tr.TrainingConfig(
            **DESK_TRAINING, max_epochs=1, patience=1))
        path = os.path.join(workdir, "model.bin")
        md.save_model(params, path)
        return {"dir": workdir, "g": g, "params": params, "test": test,
                "model": path}

    def setup_digests(self, state) -> dict:
        return {"model.bin": sha256_file(state["model"])}

    def step(self, state, outcome: Outcome) -> Step | None:
        k = self.next
        if k >= len(state["test"]):
            return None
        self.next += 1
        txn = state["test"][k]
        t0 = time.perf_counter()
        try:
            results = tr.score_transactions(state["params"], state["g"], [txn],
                                            self.scoring)
        except Exception as e:  # noqa: BLE001  (counted as failed, not fatal)
            outcome.problems.append(f"stream call {k} raised {e!r}")
            results = []
        t1 = time.perf_counter()
        check_records(state["g"].customer_index, [_txn_dict(txn)],
                      [dataclasses.asdict(r) for r in results], outcome,
                      f"stream call {k}")
        return Step(items=1, item_s=t1 - t0, latency_s=t1 - t0,
                    start=t0, payload=(txn, results))

    def finish(self, state, steps, outcome: Outcome):
        results = [r for s in steps for r in s.payload[1]]
        path = os.path.join(state["dir"], "scores.jsonl")
        tr.write_results(path, results)
        return {"scores.jsonl": sha256_file(path)}, {"stream_calls": len(steps)}

    def batch_dependent_records(self, state, steps) -> tuple[int, int]:
        """Records whose y_hat differs between the single calls made in the
        run and one call scoring the same transactions as a batch."""
        txns = [s.payload[0] for s in steps]
        batch = tr.score_transactions(state["params"], state["g"], txns,
                                      self.scoring)
        single = [r for s in steps for r in s.payload[1]]
        by_key = {(r.txn_id, r.direction): r.y_hat for r in single}
        differ = sum(by_key.get((r.txn_id, r.direction)) != r.y_hat
                     for r in batch)
        return differ, len(batch)


WORKLOADS = {cls.name: cls for cls in (TrainDesk, Quickstart, StreamDesk)}
