"""Command-line pipeline: data generation through drift reports.

Every command writes a manifest beside its primary output recording the
effective configuration, sha256 digests of the inputs, and the output
paths, so any artifact can be traced back to exactly what produced it.
Option values resolve as: built-in default, then the --config JSON file,
then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, analytics, datagen, evaluation
from . import graph as gr
from . import model as md
from . import training as tr
from .errors import (AmlGraphError, ConfigError, DimensionError, IngestError,
                     MetricError, NumericalError, SamplingError)


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _require(path: str) -> str:
    if not os.path.isfile(path):
        raise IngestError(f"input file not found: {path}")
    return path


def write_manifest(manifest_path: str, command: str, config: dict,
                   inputs: list[str], outputs: list[str]) -> None:
    body = {
        "tool": "amlgraph",
        "version": __version__,
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "inputs": {p: _sha256(p) for p in sorted(inputs)},
        "outputs": sorted(outputs),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(_require(path), "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return obj


def _effective(args, names: dict) -> dict:
    """Merge defaults, config file and explicit flags, in that order."""
    file_cfg = _load_config_file(args.config)
    unknown = set(file_cfg) - set(names)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for name, default in names.items():
        cli = getattr(args, name.replace("-", "_"))
        if cli is not None:
            out[name] = cli
        elif name in file_cfg:
            out[name] = file_cfg[name]
        else:
            out[name] = default
    return out


def _num(cfg: dict, key: str, cast):
    """cfg[key] as `cast` (int or float). An int key takes only an int, a
    float key an int or a finite float; anything else, bools, numeric
    strings, NaN and infinities included, is a config error naming the key."""
    value = cfg[key]
    kinds = (int,) if cast is int else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config key {key!r}: expected {cast.__name__}, "
                          f"got {value!r}")
    try:
        out = cast(value)
    except OverflowError as e:
        raise ConfigError(f"config key {key!r}: {value!r} is out of range") from e
    if cast is float and not np.isfinite(out):
        raise ConfigError(f"config key {key!r}: {value!r} is not finite")
    return out


GEN_DEFAULTS = {
    "n-customers": 5000, "n-transactions": 25000, "n-communities": 8,
    "d-customer": 66, "d-transaction": 12, "anomaly-rate": 0.02,
    "external-rate": 0.05, "seed": 0, "holdout-boundary": None,
}


def cmd_gen_data(args) -> int:
    cfg = _effective(args, GEN_DEFAULTS)
    os.makedirs(args.out_dir, exist_ok=True)
    sc = datagen.SyntheticConfig(
        n_customers=_num(cfg, "n-customers", int),
        n_transactions=_num(cfg, "n-transactions", int),
        n_communities=_num(cfg, "n-communities", int),
        d_customer=_num(cfg, "d-customer", int),
        d_transaction=_num(cfg, "d-transaction", int),
        anomaly_rate=_num(cfg, "anomaly-rate", float),
        external_rate=_num(cfg, "external-rate", float),
        seed=_num(cfg, "seed", int))
    profiles, txns, labels = datagen.generate(sc)
    paths = {name: os.path.join(args.out_dir, name) for name in
             ("profiles.jsonl", "transactions.jsonl", "labels.jsonl")}
    gr.write_profiles(paths["profiles.jsonl"], profiles)
    gr.write_transactions(paths["transactions.jsonl"], txns)
    datagen.write_labels(paths["labels.jsonl"], labels)
    outputs = list(paths.values())
    if cfg["holdout-boundary"] is not None:
        train, test = datagen.holdout_split(txns, _num(cfg, "holdout-boundary", float))
        for name, part in (("transactions_train.jsonl", train),
                           ("transactions_test.jsonl", test)):
            path = os.path.join(args.out_dir, name)
            gr.write_transactions(path, part)
            outputs.append(path)
    write_manifest(os.path.join(args.out_dir, "manifest.json"),
                   "gen-data", cfg, [], outputs)
    print(f"wrote {len(profiles)} profiles, {len(txns)} transactions "
          f"({sum(l.anomaly for l in labels)} flagged) to {args.out_dir}")
    return 0


def cmd_build_graph(args) -> int:
    profiles = gr.load_profiles(_require(args.profiles))
    txns = gr.load_transactions(_require(args.transactions))
    g = gr.build_graph(txns, profiles)
    gr.save_graph(g, args.out)
    write_manifest(args.out + ".manifest.json", "build-graph", {},
                   [args.profiles, args.transactions], [args.out])
    print(f"graph: {g.n_customers} customers, {g.n_transactions} transactions, "
          f"{g.edges(gr.OUTGOING).size} outgoing / {g.edges(gr.INCOMING).size} "
          f"incoming edges -> {args.out}")
    return 0


TRAIN_DEFAULTS = {
    "encoder": "gat", "layers": 3, "hidden": 32, "heads": 4, "lr": 0.001,
    "batch-size": 256, "negatives": 1, "fanout": 32, "epochs": 40,
    "patience": 6, "dropout": 0.0, "seed": 0, "message-ratio": 0.5,
    "supervision-ratio": 0.3, "validation-ratio": 0.2,
}


def _training_config(cfg: dict) -> tr.TrainingConfig:
    return tr.TrainingConfig(
        encoder=str(cfg["encoder"]), num_layers=_num(cfg, "layers", int),
        hidden=_num(cfg, "hidden", int), heads=_num(cfg, "heads", int),
        learning_rate=_num(cfg, "lr", float), batch_size=_num(cfg, "batch-size", int),
        negatives=_num(cfg, "negatives", int), fanout=_num(cfg, "fanout", int),
        max_epochs=_num(cfg, "epochs", int), patience=_num(cfg, "patience", int),
        dropout=_num(cfg, "dropout", float), seed=_num(cfg, "seed", int))


def cmd_train(args) -> int:
    cfg = _effective(args, TRAIN_DEFAULTS)
    g = gr.load_graph(_require(args.graph))
    tc = _training_config(cfg)
    ratios = (_num(cfg, "message-ratio", float), _num(cfg, "supervision-ratio", float),
              _num(cfg, "validation-ratio", float))
    split = gr.split_edges(g, ratios, seed=tc.seed)
    params, history = tr.fit(g, split, tc)
    md.save_model(params, args.out)
    log_path = args.out + ".metrics.log"
    tr.write_metrics_log(log_path, history)
    report = tr.evaluate_split(params, g, split, tc)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"held_out_link_auc={report['roc_auc']:.6f} "
                 f"held_out_ap={report['average_precision']:.6f}\n")
    write_manifest(args.out + ".manifest.json", "train", cfg,
                   [args.graph], [args.out, log_path])
    print(f"trained {tc.encoder} for {len(history)} epochs; "
          f"best val_loss={min(h['val_loss'] for h in history):.6f}; "
          f"held-out link auc={report['roc_auc']:.4f} -> {args.out}")
    return 0


def _load_model(path: str, graph_path: str, g: gr.BipartiteGraph) -> md.ModelParams:
    """The model at `path`, refused unless it takes the graph's feature widths."""
    params = md.load_model(_require(path))
    if (params.d_c, params.d_t) != (g.d_customer, g.d_transaction):
        raise IngestError(
            f"{path} takes {params.d_c} customer and {params.d_t} transaction "
            f"features, but {graph_path} has {g.d_customer} and {g.d_transaction}")
    return params


SCORE_DEFAULTS = {"fanout": 32, "seed": 0}


def cmd_score(args) -> int:
    cfg = _effective(args, SCORE_DEFAULTS)
    g = gr.load_graph(_require(args.graph))
    params = _load_model(args.model, args.graph, g)
    new_txns = gr.load_transactions(_require(args.transactions))
    tc = tr.TrainingConfig(fanout=_num(cfg, "fanout", int),
                           seed=_num(cfg, "seed", int))
    results = tr.score_transactions(params, g, new_txns, tc)
    tr.write_results(args.out, results)
    write_manifest(args.out + ".manifest.json", "score", cfg,
                   [args.graph, args.model, args.transactions], [args.out])
    cold = sum(r.cold_start for r in results)
    print(f"scored {len(results)} direction records "
          f"({cold} cold-start) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    results = tr.read_results(_require(args.scores))
    labels = {lab.txn_id: lab.anomaly
              for lab in datagen.load_labels(_require(args.labels))}
    per_txn: dict[str, float] = {}
    for r in results:
        if r.cold_start or r.anomaly_score is None:
            continue
        prev = per_txn.get(r.txn_id)
        if prev is None or r.anomaly_score > prev:
            per_txn[r.txn_id] = r.anomaly_score
    missing = [t for t in per_txn if t not in labels]
    if missing:
        raise IngestError(f"{len(missing)} scored transactions missing from "
                          f"labels, e.g. {missing[0]!r}")
    if not per_txn:
        raise IngestError("no scorable records in the scores file")
    ids = sorted(per_txn)
    scores = np.array([per_txn[t] for t in ids])
    flags = np.array([int(labels[t]) for t in ids])
    flagged = scores[flags == 1]
    normal = scores[flags == 0]
    report = {
        "n_transactions": len(ids),
        "n_flagged": int(flags.sum()),
        "roc_auc": evaluation.roc_auc(scores, flags),
        "average_precision": evaluation.average_precision(scores, flags),
        "median_anomaly_flagged": float(np.median(flagged)) if flagged.size else None,
        "median_anomaly_normal": float(np.median(normal)) if normal.size else None,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs = [args.out]
    if args.roc:
        curve = evaluation.roc_curve(scores, flags)
        with open(args.roc, "w", encoding="utf-8") as fh:
            fh.write(evaluation.export_roc(curve))
        outputs.append(args.roc)
    write_manifest(args.out + ".manifest.json", "evaluate", {},
                   [args.scores, args.labels], outputs)
    print(f"evaluated {report['n_transactions']} transactions: "
          f"auc={report['roc_auc']:.4f} ap={report['average_precision']:.4f}")
    return 0


def cmd_embed(args) -> int:
    cfg = _effective(args, {"layer": None})
    layer = None if cfg["layer"] is None else _num(cfg, "layer", int)
    g = gr.load_graph(_require(args.graph))
    params = _load_model(args.model, args.graph, g)
    analytics.export_embeddings(params, g, args.out, layer=layer)
    write_manifest(args.out + ".manifest.json", "embed", cfg,
                   [args.graph, args.model], [args.out])
    print(f"wrote embeddings for {g.n_customers + g.n_transactions} nodes "
          f"-> {args.out}")
    return 0


def cmd_diverge(args) -> int:
    cfg = _effective(args, {"threshold": analytics.DIVERGENCE_THRESHOLD})
    threshold = _num(cfg, "threshold", float)
    snapshots = []
    for path in args.embeddings:
        customers, _ = analytics.read_embeddings(_require(path))
        if not customers:
            raise IngestError(f"{path}: no customer embeddings")
        snapshots.append(customers)
    report = analytics.divergence_report(snapshots, threshold=threshold)
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in report:
            fh.write(json.dumps({
                "customer_id": rec.customer_id,
                "min_similarity": rec.min_similarity,
                "diverging": rec.diverging,
                "similarity": [[float(v) for v in row]
                               for row in rec.similarity],
            }) + "\n")
    write_manifest(args.out + ".manifest.json", "diverge", cfg,
                   list(args.embeddings), [args.out])
    n_div = sum(r.diverging for r in report)
    print(f"compared {len(report)} customers across {len(snapshots)} "
          f"snapshots: {n_div} diverging -> {args.out}")
    return 0


def _add_config_opt(p):
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags override)")


class _Parser(argparse.ArgumentParser):
    """Route usage mistakes through the config-error exit code."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="amlgraph",
        description="Bipartite transaction-graph anomaly scoring pipeline")
    parser.add_argument("--version", action="version",
                        version=f"amlgraph {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out-dir", required=True)
    _add_config_opt(p)
    p.add_argument("--n-customers", type=int)
    p.add_argument("--n-transactions", type=int)
    p.add_argument("--n-communities", type=int)
    p.add_argument("--d-customer", type=int)
    p.add_argument("--d-transaction", type=int)
    p.add_argument("--anomaly-rate", type=float)
    p.add_argument("--external-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--holdout-boundary", type=float,
                   help="also write train/test transaction files split at "
                        "this timestamp")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("build-graph", help="build and snapshot the graph")
    p.add_argument("--profiles", required=True)
    p.add_argument("--transactions", required=True)
    p.add_argument("--out", required=True)
    _add_config_opt(p)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("train", help="train the link-prediction model")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True)
    _add_config_opt(p)
    p.add_argument("--encoder", choices=("gat", "sage", "gin"))
    p.add_argument("--layers", type=int)
    p.add_argument("--hidden", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--fanout", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--message-ratio", type=float)
    p.add_argument("--supervision-ratio", type=float)
    p.add_argument("--validation-ratio", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("score", help="anomaly-score new transactions")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--transactions", required=True)
    p.add_argument("--out", required=True)
    _add_config_opt(p)
    p.add_argument("--fanout", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="compare scores against truth labels")
    p.add_argument("--scores", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--roc", default=None, help="also write the ROC curve here")
    _add_config_opt(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("embed", help="export node embeddings")
    p.add_argument("--graph", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layer", type=int)
    _add_config_opt(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("diverge", help="flag drifting customer embeddings")
    p.add_argument("--embeddings", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float)
    _add_config_opt(p)
    p.set_defaults(func=cmd_diverge)
    return parser


def main(argv=None) -> int:
    """Exit codes: 0 success, 1 usage/config, 2 data error, 3 numerical."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # each command checks its results for non-finite values itself, so
        # numpy's floating-point warnings would only add stderr lines
        with np.errstate(all="ignore"):
            return args.func(args)
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ConfigError, DimensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (IngestError, MetricError, SamplingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AmlGraphError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
