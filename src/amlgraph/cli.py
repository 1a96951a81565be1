"""Command-line pipeline: data generation through drift reports.

Every command writes a manifest beside its primary output recording the
effective configuration, sha256 digests of the inputs, and the output
paths, so any artifact can be traced back to exactly what produced it.
Each command declares its options once, in one table (`_options`): flag
-> (type, default, config field). The table makes the flags, the accepted
--config keys, and the typed config. An option that sets a field of
`TrainingConfig` or `SyntheticConfig` takes that field's type and default,
so the CLI's defaults are the dataclasses'. Option values resolve as:
default, then the --config JSON file, then explicit command-line flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import typing

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


def _cast(key: str, value, kind):
    """A config value as `kind` (int, float or str). An int key takes only
    an int, a float key an int or a finite float, a str key a str; anything
    else, bools, numeric strings, NaN and infinities included, is a config
    error naming the key."""
    kinds = {int: (int,), float: (int, float), str: (str,)}[kind]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"config key {key!r}: expected {kind.__name__}, "
                          f"got {value!r}")
    try:
        out = kind(value)
    except OverflowError as e:
        raise ConfigError(f"config key {key!r}: {value!r} is out of range") from e
    if kind is float and not np.isfinite(out):
        raise ConfigError(f"config key {key!r}: {value!r} is not finite")
    return out


class _Options(typing.NamedTuple):
    """One command's options: `table` maps each flag (also its --config
    key) to (type, default, field of the `config` dataclass or None)."""
    config: type | None
    table: dict


def _options(config, spec: dict) -> _Options:
    """A flag whose spec is a field name of `config` takes that field's
    type and default; any other spec is the (type, default) of a flag that
    sets no field."""
    fields = {}
    if config is not None:
        hints = typing.get_type_hints(config)
        fields = {f.name: (hints[f.name], f.default, f.name)
                  for f in dataclasses.fields(config)}
    return _Options(config, {flag: fields[s] if isinstance(s, str) else (*s, None)
                             for flag, s in spec.items()})


GEN_OPTIONS = _options(datagen.SyntheticConfig, {
    "n-customers": "n_customers", "n-transactions": "n_transactions",
    "n-communities": "n_communities", "d-customer": "d_customer",
    "d-transaction": "d_transaction", "anomaly-rate": "anomaly_rate",
    "external-rate": "external_rate", "seed": "seed",
    "holdout-boundary": (float, None)})
TRAIN_OPTIONS = _options(tr.TrainingConfig, {
    "encoder": "encoder", "layers": "num_layers", "hidden": "hidden",
    "heads": "heads", "lr": "learning_rate", "batch-size": "batch_size",
    "negatives": "negatives", "fanout": "fanout", "epochs": "max_epochs",
    "patience": "patience", "dropout": "dropout", "seed": "seed",
    "message-ratio": (float, 0.5), "supervision-ratio": (float, 0.3),
    "validation-ratio": (float, 0.2)})
SCORE_OPTIONS = _options(tr.TrainingConfig, {"fanout": "fanout", "seed": "seed"})
EMBED_OPTIONS = _options(None, {"layer": (int, None)})
DIVERGE_OPTIONS = _options(None, {"threshold": (float, analytics.DIVERGENCE_THRESHOLD)})
NO_OPTIONS = _options(None, {})
# argparse settings beyond the type, by flag
_FLAG_EXTRAS = {"encoder": {"choices": md.KINDS}, "holdout-boundary": {
    "help": "also write train/test transaction files split at this timestamp"}}


def _resolve(args, options: _Options) -> tuple[dict, object]:
    """Merge each option's default, the --config file and the explicit
    flags, in that order. Returns the typed values (what the manifest
    records) and the options' config dataclass built from them and
    validated (None if the command has none). An option whose default is
    None may stay None."""
    config, table = options
    file_cfg = {}
    if args.config is not None:
        try:
            with open(_require(args.config), "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"{args.config}: not valid JSON: {e}") from e
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: config must be a JSON object")
    unknown = set(file_cfg) - set(table)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for flag, (kind, default, _) in table.items():
        cli = getattr(args, flag.replace("-", "_"))
        value = cli if cli is not None else file_cfg.get(flag, default)
        values[flag] = (None if value is None and default is None
                        else _cast(flag, value, kind))
    if config is None:
        return values, None
    built = config(**{field: values[flag]
                      for flag, (_, _, field) in table.items() if field})
    built.validate()
    return values, built


def cmd_gen_data(args) -> int:
    values, sc = _resolve(args, GEN_OPTIONS)
    os.makedirs(args.out_dir, exist_ok=True)
    profiles, txns, labels = datagen.generate(sc)
    paths = {name: os.path.join(args.out_dir, name) for name in
             ("profiles.jsonl", "transactions.jsonl", "labels.jsonl")}
    gr.write_profiles(paths["profiles.jsonl"], profiles)
    gr.write_transactions(paths["transactions.jsonl"], txns)
    datagen.write_labels(paths["labels.jsonl"], labels)
    outputs = list(paths.values())
    if values["holdout-boundary"] is not None:
        train, test = datagen.holdout_split(txns, values["holdout-boundary"])
        for name, part in (("transactions_train.jsonl", train),
                           ("transactions_test.jsonl", test)):
            path = os.path.join(args.out_dir, name)
            gr.write_transactions(path, part)
            outputs.append(path)
    write_manifest(os.path.join(args.out_dir, "manifest.json"),
                   "gen-data", values, [], outputs)
    print(f"wrote {len(profiles)} profiles, {len(txns)} transactions "
          f"({sum(l.anomaly for l in labels)} flagged) to {args.out_dir}")
    return 0


def cmd_build_graph(args) -> int:
    values, _ = _resolve(args, NO_OPTIONS)
    profiles = gr.load_profiles(_require(args.profiles))
    txns = gr.load_transactions(_require(args.transactions))
    g = gr.build_graph(txns, profiles)
    gr.save_graph(g, args.out)
    write_manifest(args.out + ".manifest.json", "build-graph", values,
                   [args.profiles, args.transactions], [args.out])
    print(f"graph: {g.n_customers} customers, {g.n_transactions} transactions, "
          f"{g.edges(gr.OUTGOING).size} outgoing / {g.edges(gr.INCOMING).size} "
          f"incoming edges -> {args.out}")
    return 0


def cmd_train(args) -> int:
    values, tc = _resolve(args, TRAIN_OPTIONS)
    g = gr.load_graph(_require(args.graph))
    ratios = (values["message-ratio"], values["supervision-ratio"],
              values["validation-ratio"])
    split = gr.split_edges(g, ratios, seed=tc.seed)
    params, history = tr.fit(g, split, tc)
    md.save_model(params, args.out)
    log_path = args.out + ".metrics.log"
    tr.write_metrics_log(log_path, history)
    report = tr.evaluate_split(params, g, split, tc)
    with open(log_path, "a", encoding="utf-8") as fh:
        fh.write(f"held_out_link_auc={report['roc_auc']:.6f} "
                 f"held_out_ap={report['average_precision']:.6f}\n")
    write_manifest(args.out + ".manifest.json", "train", values,
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


def cmd_score(args) -> int:
    values, tc = _resolve(args, SCORE_OPTIONS)
    g = gr.load_graph(_require(args.graph))
    params = _load_model(args.model, args.graph, g)
    new_txns = gr.load_transactions(_require(args.transactions))
    results = tr.score_transactions(params, g, new_txns, tc)
    tr.write_results(args.out, results)
    write_manifest(args.out + ".manifest.json", "score", values,
                   [args.graph, args.model, args.transactions], [args.out])
    cold = sum(r.cold_start for r in results)
    print(f"scored {len(results)} direction records "
          f"({cold} cold-start) -> {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    values, _ = _resolve(args, NO_OPTIONS)
    results = tr.read_results(_require(args.scores))
    labels: dict[str, bool] = {}
    for lab in datagen.load_labels(_require(args.labels)):
        if lab.txn_id in labels:
            raise IngestError(f"{args.labels}: txn_id {lab.txn_id!r} is repeated")
        labels[lab.txn_id] = lab.anomaly
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
    write_manifest(args.out + ".manifest.json", "evaluate", values,
                   [args.scores, args.labels], outputs)
    print(f"evaluated {report['n_transactions']} transactions: "
          f"auc={report['roc_auc']:.4f} ap={report['average_precision']:.4f}")
    return 0


def cmd_embed(args) -> int:
    values, _ = _resolve(args, EMBED_OPTIONS)
    g = gr.load_graph(_require(args.graph))
    params = _load_model(args.model, args.graph, g)
    analytics.export_embeddings(params, g, args.out, layer=values["layer"])
    write_manifest(args.out + ".manifest.json", "embed", values,
                   [args.graph, args.model], [args.out])
    print(f"wrote embeddings for {g.n_customers + g.n_transactions} nodes "
          f"-> {args.out}")
    return 0


def cmd_diverge(args) -> int:
    values, _ = _resolve(args, DIVERGE_OPTIONS)
    snapshots = []
    for path in args.embeddings:
        customers, _ = analytics.read_embeddings(_require(path))
        if not customers:
            raise IngestError(f"{path}: no customer embeddings")
        snapshots.append(customers)
    report = analytics.divergence_report(snapshots, threshold=values["threshold"])
    with open(args.out, "w", encoding="utf-8") as fh:
        for rec in report:
            fh.write(json.dumps({
                "customer_id": rec.customer_id,
                "min_similarity": rec.min_similarity,
                "diverging": rec.diverging,
                "similarity": rec.similarity.tolist(),
            }) + "\n")
    write_manifest(args.out + ".manifest.json", "diverge", values,
                   list(args.embeddings), [args.out])
    n_div = sum(r.diverging for r in report)
    print(f"compared {len(report)} customers across {len(snapshots)} "
          f"snapshots: {n_div} diverging -> {args.out}")
    return 0


def _command(sub, name: str, summary: str, func, options, *required: str):
    """A subcommand with its required path flags, --config, and one flag
    per entry of its option table."""
    p = sub.add_parser(name, help=summary)
    for flag in required:
        p.add_argument(flag, required=True)
    p.add_argument("--config", default=None,
                   help="JSON file of option defaults (flags override)")
    for flag, (kind, _, _) in options.table.items():
        p.add_argument("--" + flag, type=kind, **_FLAG_EXTRAS.get(flag, {}))
    p.set_defaults(func=func)
    return p


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
    _command(sub, "gen-data", "generate a synthetic dataset", cmd_gen_data,
             GEN_OPTIONS, "--out-dir")
    _command(sub, "build-graph", "build and snapshot the graph", cmd_build_graph,
             NO_OPTIONS, "--profiles", "--transactions", "--out")
    _command(sub, "train", "train the link-prediction model", cmd_train,
             TRAIN_OPTIONS, "--graph", "--out")
    _command(sub, "score", "anomaly-score new transactions", cmd_score,
             SCORE_OPTIONS, "--graph", "--model", "--transactions", "--out")
    p = _command(sub, "evaluate", "compare scores against truth labels",
                 cmd_evaluate, NO_OPTIONS, "--scores", "--labels", "--out")
    p.add_argument("--roc", default=None, help="also write the ROC curve here")
    _command(sub, "embed", "export node embeddings", cmd_embed, EMBED_OPTIONS,
             "--graph", "--model", "--out")
    p = _command(sub, "diverge", "flag drifting customer embeddings", cmd_diverge,
                 DIVERGE_OPTIONS, "--out")
    p.add_argument("--embeddings", nargs="+", required=True)
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
