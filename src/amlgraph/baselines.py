"""Non-graph and unsupervised baselines for the link-prediction task.

The feed-forward baseline sees only the raw feature triple (source
customer, destination customer, transaction) with zeros standing in for
the EXTERNAL side; it measures how much the graph structure itself
contributes. The unsupervised baseline (DGI) pretrains the same encoder
by contrasting true node features against row-shuffled ones, then
freezes it and fits only a decoder on the supervision edges; its
held-out rows are scored on the graph model's path, each hiding its edge.
"""

from __future__ import annotations

from copy import copy, deepcopy
from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .errors import ConfigError
from .graph import (DIRECTIONS, BipartiteGraph, EdgeSplit, as_rng, full_fanout,
                    full_subgraph, sample_negatives)
from .model import ModelParams, _glorot, encode, init_params
from .ndtensor import (BatchNormState, Tensor, add, batch_norm, bce, concat,
                       dropout, matmul, mean_rows, relu, sigmoid, transpose2d)
from .training import (AdamState, TrainingConfig, _check_pairs, _held_out_pairs,
                       _pair_embeddings, descend, link_loss, predict_pairs,
                       run_epochs, validate_fit_config)

MLP_WIDTHS = (128, 64, 32, 16)


@dataclass
class MlpConfig:
    widths: tuple = MLP_WIDTHS
    learning_rate: float = 0.01
    batch_size: int = 512
    dropout: float = 0.1
    max_epochs: int = 40
    patience: int = 6
    seed: int = 0

    def validate(self) -> None:
        if not self.widths:
            raise ConfigError("need at least one hidden width")
        if any(w < 1 for w in self.widths):
            raise ConfigError("hidden widths must be positive")
        validate_fit_config(self)


class MlpParams:
    """Fully connected tower; hidden layers relu -> batch norm -> dropout."""

    def __init__(self, d_in: int, widths: tuple, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.d_in = d_in
        self.widths = tuple(widths)
        self.layers = []
        self.bn = []
        prev = d_in
        for w in widths:
            self.layers.append({"w": _glorot(rng, (prev, w)),
                                "b": Tensor(np.zeros((1, w)), requires_grad=True)})
            self.bn.append({"gamma": Tensor(np.ones(w), requires_grad=True),
                            "beta": Tensor(np.zeros(w), requires_grad=True),
                            "state": BatchNormState(w)})
            prev = w
        self.out = {"w": _glorot(rng, (prev, 1)),
                    "b": Tensor(np.zeros((1, 1)), requires_grad=True)}

    def parameters(self) -> list[Tensor]:
        out = []
        for layer, bn in zip(self.layers, self.bn):
            out.extend([layer["w"], layer["b"], bn["gamma"], bn["beta"]])
        out.extend([self.out["w"], self.out["b"]])
        return out

    def copy(self) -> "MlpParams":
        return deepcopy(self)


def mlp_forward(params: MlpParams, x: Tensor, training: bool = False,
                rng=None, dropout_p: float = 0.0) -> Tensor:
    if x.shape[1] != params.d_in:
        raise ConfigError(f"expected {params.d_in} input columns, got {x.shape[1]}")
    h = x
    for layer, bn in zip(params.layers, params.bn):
        h = add(matmul(h, layer["w"]), layer["b"])
        h = relu(h)
        h = batch_norm(h, bn["gamma"], bn["beta"], bn["state"], training)
        if training and dropout_p > 0.0:
            h = dropout(h, dropout_p, rng, training)
    return sigmoid(add(matmul(h, params.out["w"]), params.out["b"]))


def mlp_predict(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Link likelihood per feature-triple row (inference mode)."""
    y = mlp_forward(params, Tensor(np.asarray(x, dtype=np.float64)))
    return y.data[:, 0]


def _customer_rows(g: BipartiteGraph, idx: np.ndarray) -> np.ndarray:
    """x_c rows with zeros where the index is -1 (EXTERNAL side)."""
    rows = np.zeros((idx.size, g.d_customer))
    known = idx >= 0
    rows[known] = g.x_c[idx[known]]
    return rows


def triple_features(g: BipartiteGraph, src_idx, dst_idx, txn_idx) -> np.ndarray:
    """src || dst || txn standardized features, EXTERNAL sides zeroed."""
    src_idx = np.asarray(src_idx, dtype=np.int64)
    dst_idx = np.asarray(dst_idx, dtype=np.int64)
    txn_idx = np.asarray(txn_idx, dtype=np.int64)
    return np.hstack([_customer_rows(g, src_idx), _customer_rows(g, dst_idx),
                      g.x_t[txn_idx]])


def real_triples(g: BipartiteGraph, txns: np.ndarray) -> np.ndarray:
    return triple_features(g, g.o_src[txns], g.i_dst[txns], txns)


def corrupt_triples(g: BipartiteGraph, txns: np.ndarray, rng) -> np.ndarray:
    """Same transactions, both customers redrawn uniformly; no rejection."""
    src = rng.integers(0, g.n_customers, size=txns.size)
    dst = rng.integers(0, g.n_customers, size=txns.size)
    return triple_features(g, src, dst, txns)


def _non_validation_txns(g: BipartiteGraph, split: EdgeSplit) -> np.ndarray:
    held = np.zeros(g.n_transactions, dtype=bool)
    for d in DIRECTIONS:
        held[split.validation[d]] = True
    return np.flatnonzero(~held).astype(np.int64)


def _validation_txns(split: EdgeSplit) -> np.ndarray:
    return np.unique(np.concatenate([split.validation[d] for d in DIRECTIONS]))


def mlp_fit(g: BipartiteGraph, split: EdgeSplit, config: MlpConfig
            ) -> tuple[MlpParams, list[dict]]:
    """Train real-vs-corrupted triple classification with early stopping.

    Positives are every transaction outside the validation split; each
    batch gets an equal number of freshly corrupted triples. The monitor
    loss uses the validation transactions with a fixed corruption seed.
    """
    config.validate()
    train = _non_validation_txns(g, split)
    val = _validation_txns(split)
    if train.size == 0 or val.size == 0:
        raise ConfigError("need both training and validation transactions")
    params = MlpParams(2 * g.d_customer + g.d_transaction, config.widths,
                       seed=config.seed)
    adam = AdamState(params.parameters())
    rng = as_rng(np.random.SeedSequence([config.seed, 1]))
    val_rng = as_rng(np.random.SeedSequence([config.seed, 2]))
    x_val = np.vstack([real_triples(g, val), corrupt_triples(g, val, val_rng)])
    y_val = np.concatenate([np.ones(val.size), np.zeros(val.size)]).reshape(-1, 1)

    def train_epoch(epoch):
        perm = rng.permutation(train)
        losses = []
        for lo in range(0, train.size, config.batch_size):
            batch = perm[lo:lo + config.batch_size]
            x = np.vstack([real_triples(g, batch),
                           corrupt_triples(g, batch, rng)])
            y = np.concatenate([np.ones(batch.size),
                                np.zeros(batch.size)]).reshape(-1, 1)
            losses.append(descend(
                params.parameters(), adam, config.learning_rate,
                lambda: bce(mlp_forward(params, Tensor(x), training=True,
                                        rng=rng, dropout_p=config.dropout), y)))
        val_loss = float(bce(mlp_forward(params, Tensor(x_val)), y_val).data)
        return {"epoch": epoch, "train_loss": float(np.mean(losses)),
                "val_loss": val_loss}, val_loss

    return run_epochs(config.max_epochs, config.patience, train_epoch,
                      params.copy)


def mlp_eval_scores(params: MlpParams, g: BipartiteGraph,
                    rows: list[tuple[str, int, int, int]]) -> np.ndarray:
    """Score (direction, customer, txn) rows by substituting the candidate;
    rows are checked as `predict_pairs` checks them (`_check_pairs`)."""
    out, cs, ts = _check_pairs(g, *([r[i] for r in rows] for i in range(3)))
    return mlp_predict(params, triple_features(g, np.where(out, cs, g.o_src[ts]),
                                               np.where(out, g.i_dst[ts], cs), ts))


# ---------------------------------------------------------------------------
# unsupervised pretraining baseline


def shuffle_rows(x: np.ndarray, rng) -> np.ndarray:
    """Feature corruption: same rows, randomly reassigned to nodes."""
    return x[rng.permutation(x.shape[0])]


def _discriminate(z: Tensor, w_disc: Tensor, summary: Tensor) -> Tensor:
    return sigmoid(matmul(matmul(z, w_disc), transpose2d(summary)))


def dgi_pretrain(g: BipartiteGraph, config: TrainingConfig
                 ) -> tuple[ModelParams, list[dict]]:
    """Contrastive pretraining of the encoder on the full graph.

    Each epoch encodes the true features and a row-shuffled corruption,
    summarizes the true embeddings by a sigmoid mean, and trains a
    bilinear discriminator to tell the two apart. Early stopping watches
    the contrastive loss itself.
    """
    config.validate()
    params = init_params(config.encoder, g.d_customer, g.d_transaction,
                         config.num_layers, config.hidden, config.heads,
                         seed=config.seed)
    rng = as_rng(np.random.SeedSequence([config.seed, 8]))
    w_disc = _glorot(rng, (config.hidden, config.hidden))
    sub = full_subgraph(g, config.num_layers)
    tensors = params.parameters() + [w_disc]
    adam = AdamState(tensors)

    def contrastive_loss():
        z_c, z_t = encode(params, sub, g.x_c, g.x_t, training=True,
                          rng=rng, dropout_p=config.dropout)
        fake_c, fake_t = encode(params, sub, shuffle_rows(g.x_c, rng),
                                shuffle_rows(g.x_t, rng), training=True,
                                rng=rng, dropout_p=config.dropout)
        real = concat([z_c, z_t], axis=0)
        fake = concat([fake_c, fake_t], axis=0)
        summary = sigmoid(mean_rows(real))
        return nd.add(bce(_discriminate(real, w_disc, summary), 1.0),
                      bce(_discriminate(fake, w_disc, summary), 0.0))

    def train_epoch(epoch):
        value = descend(tensors, adam, config.learning_rate, contrastive_loss)
        return {"epoch": epoch, "train_loss": value}, value

    return run_epochs(config.max_epochs, config.patience, train_epoch, params.copy)


def dgi_embeddings(params: ModelParams, g: BipartiteGraph
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Frozen full-graph embeddings (inference mode, deterministic)."""
    sub = full_subgraph(g, params.num_layers)
    z_c, z_t = encode(params, sub, g.x_c, g.x_t)
    return z_c.data, z_t.data


DGI_DECODER_LR = 0.01
DGI_DECODER_EPOCHS = 100


def dgi_downstream(params: ModelParams, g: BipartiteGraph, msg_g: BipartiteGraph,
                   split: EdgeSplit, config: TrainingConfig
                   ) -> tuple[Tensor, list[dict]]:
    """Fit only the decoder over frozen embeddings: supervision edges and
    fresh non-edges read `dgi_embeddings`; the `_held_out_pairs` that
    validate it are embedded once, as `dgi_eval_scores` embeds them."""
    z_c, z_t = dgi_embeddings(params, msg_g)
    rng = as_rng(np.random.SeedSequence([config.seed, 9]))
    w = Tensor(np.zeros((config.hidden, 1)), requires_grad=True)
    adam = AdamState([w])
    sup = split.supervision
    if all(sup[d].size == 0 for d in DIRECTIONS):
        raise ConfigError("no supervision edges in either direction")
    *pairs, y_val = _held_out_pairs(g, split, [config.seed, 10], 1)
    if not len(y_val):
        raise ConfigError("no validation edges in either direction")
    x_val = np.multiply(*_pair_embeddings(params, msg_g, *pairs,
                                          TrainingConfig(fanout=full_fanout(msg_g))))

    def train_epoch(epoch):
        losses = []
        for d in DIRECTIONS:
            if sup[d].size == 0:
                continue
            pos_t = rng.permutation(sup[d])
            pos = z_c[g.edge_endpoints(d)[pos_t]] * z_t[pos_t]
            neg_c, neg_t = sample_negatives(g, pos_t.size * config.negatives,
                                            d, rng)
            neg = z_c[neg_c] * z_t[neg_t]
            losses.append(descend([w], adam, DGI_DECODER_LR, lambda: link_loss(
                sigmoid(matmul(Tensor(pos), w)),
                nd.reshape(sigmoid(matmul(Tensor(neg), w)),
                           (pos_t.size, config.negatives)))))
        val_loss = float(bce(sigmoid(matmul(Tensor(x_val), Tensor(w.data))), y_val[:, None]).data)
        return {"epoch": epoch, "train_loss": float(np.mean(losses)),
                "val_loss": val_loss}, val_loss

    # adam_step rebinds w.data, so the snapshot must read it at call time
    best_w, history = run_epochs(DGI_DECODER_EPOCHS, config.patience,
                                 train_epoch, lambda: w.data.copy())
    return Tensor(best_w, requires_grad=True), history


def dgi_eval_scores(params: ModelParams, w: Tensor, msg_g: BipartiteGraph,
                    rows: list[tuple[str, int, int, int]]) -> np.ndarray:
    """`predict_pairs` of (direction, customer, txn) rows of `msg_g` with
    DGI's encoder and decoder `w`, at a cap no row exceeds: a row reads
    every edge but its own, so one that hides none gets the bits of its
    `dgi_embeddings` product through `w`."""
    model = copy(params)
    model.w_dec = w
    return predict_pairs(model, msg_g, rows, TrainingConfig(fanout=full_fanout(msg_g)))
