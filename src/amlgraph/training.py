"""Self-supervised link-prediction training loop and production scoring.

Message passing only ever sees the message split: supervision and
validation edges are withheld from the graph the sampler walks. On top
of that, every step severs the predicted direction's real edges for all
transactions in the batch (negatives included), so a prediction can
never peek at the edge it is asked to make.

Scoring, validation and evaluation share one path (`_row_embeddings`),
on which a (customer, transaction, direction) row hides only its own
edge: a new transaction is attached by its counterpart edge only, and a
transaction of the graph loses only its edge in the row's direction.
The reference graph is never changed. Every model's held-out rows come
from `_held_out_pairs`; the DGI baseline scores them on this path too.
A node's neighbor sample is a pure function of (seed, node, relation,
surviving edges); each `train_step` draws one sampler seed from its rng,
every other path samples at `config.seed`, so no result depends on what
else shares the call.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import ndtensor as nd
from .errors import ConfigError, NumericalError
from .evaluation import average_precision, roc_auc
from .graph import (DIRECTIONS, INCOMING, OUTGOING, BipartiteGraph, EdgeSplit,
                    RawTransaction, _flat_neighbors, _seed_ids, as_rng, check_direction,
                    chunk_parts, read_records, resolve_transactions, sample_negatives,
                    sample_neighborhood, sample_records)
from .model import ModelParams, anomaly_score, decode, encode, init_params
from .ndtensor import Tensor, bce, gather_rows, reshape, scale, zero_grad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# sampled input rows of one scoring encode: about 150 records at 2 layers,
# which amortizes per-op overhead, and about 1 MB per array at any depth.
# Also the most records sampled in one call, as each has at least one row;
# each call also samples one cut of part 0, the graph as it stands.
_SCORE_CHUNK_ROWS = 1 << 12
# part 0's customer and transaction seeds per sampler call, at most each:
# part 0 cannot be cut into chunks, and its rows set an encode's peak memory
_PART0_SEEDS = 1 << 10


@dataclass
class TrainingConfig:
    """Hyperparameters; defaults match the CLI's shipped configuration."""
    encoder: str = "gat"
    num_layers: int = 3
    hidden: int = 32
    heads: int = 4
    learning_rate: float = 0.001
    batch_size: int = 256
    negatives: int = 1          # negatives sampled per positive
    fanout: int = 32
    max_epochs: int = 40
    patience: int = 6
    dropout: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.num_layers < 1:
            raise ConfigError("num_layers must be >= 1")
        if self.negatives < 1:
            raise ConfigError("negatives must be >= 1")
        if self.fanout < 1:
            raise ConfigError("fanout must be >= 1")
        validate_fit_config(self)


def validate_fit_config(config) -> None:
    """Checks on the fields every trainer's config shares."""
    if not 0 < config.learning_rate < np.inf:
        raise ConfigError("learning_rate must be positive and finite")
    if config.batch_size < 2:
        raise ConfigError("batch_size must be >= 2 (batch norm needs it)")
    if not 0.0 <= config.dropout < 1.0:
        raise ConfigError("dropout must be in [0, 1)")
    if config.max_epochs < 1:
        raise ConfigError("max_epochs must be >= 1")
    if config.patience < 0:
        raise ConfigError("patience must be >= 0")
    if config.seed < 0:
        raise ConfigError("seed must be >= 0")


class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.step_count = 0


def adam_step(state: AdamState, params: list[Tensor], lr: float) -> None:
    """Bias-corrected Adam update in place; missing gradients count as zero."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1 ** t
    c2 = 1.0 - ADAM_BETA2 ** t
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        state.m[i] = ADAM_BETA1 * state.m[i] + (1 - ADAM_BETA1) * g
        state.v[i] = ADAM_BETA2 * state.v[i] + (1 - ADAM_BETA2) * g * g
        p.data = p.data - lr * (state.m[i] / c1) / (np.sqrt(state.v[i] / c2) + ADAM_EPS)


def descend(tensors: list[Tensor], adam: AdamState, lr: float, loss_fn) -> float:
    """One gradient step: record `loss_fn()` on a tape, backpropagate, Adam.

    Returns the loss; a non-finite loss raises NumericalError before any
    parameter moves.
    """
    zero_grad(tensors)
    with nd.Tape() as tape:
        loss = loss_fn()
    value = float(loss.data)
    if not np.isfinite(value):
        raise NumericalError(f"training loss is not finite ({value})")
    tape.backward(loss)
    adam_step(adam, tensors, lr)
    return value


def run_epochs(max_epochs: int, patience: int, epoch_fn, snapshot
               ) -> tuple[object, list[dict]]:
    """Early-stopping loop shared by every trainer.

    `epoch_fn(epoch)` trains one epoch and returns (history row, monitored
    loss). Keeps `snapshot()` of the best epoch (the initial state until a
    loss improves on infinity; NaN never does) and stops once the loss has
    failed to improve for `patience` consecutive epochs (at least one).
    Returns the best snapshot and one history row per epoch run.
    """
    best_loss, best, bad = np.inf, snapshot(), 0
    history: list[dict] = []
    for epoch in range(max_epochs):
        row, loss = epoch_fn(epoch)
        history.append(row)
        if loss < best_loss:
            best_loss, best, bad = loss, snapshot(), 0
        else:
            bad += 1
            if bad >= max(patience, 1):
                break
    return best, history


def link_loss(pos_preds: Tensor, neg_preds: Tensor) -> Tensor:
    """Mean over the batch of -log(y_pos) - sum_m log(1 - y_neg_m).

    neg_preds holds M columns per positive; with M=1 this is exactly
    bce(pos, 1) + bce(neg, 0).
    """
    if neg_preds.size % pos_preds.size != 0:
        raise ConfigError(f"negative count {neg_preds.size} is not a multiple "
                          f"of positive count {pos_preds.size}")
    m = neg_preds.size // pos_preds.size
    loss = bce(pos_preds, 1.0)
    neg_term = bce(neg_preds, 0.0)
    return nd.add(loss, scale(neg_term, float(m)) if m != 1 else neg_term)


def message_graph(g: BipartiteGraph, split: EdgeSplit) -> BipartiteGraph:
    """The graph whose only edges are the message split of each direction."""
    keep_out = np.zeros(g.n_transactions, dtype=bool)
    keep_out[split.message[OUTGOING]] = True
    keep_in = np.zeros(g.n_transactions, dtype=bool)
    keep_in[split.message[INCOMING]] = True
    return BipartiteGraph(
        g.customer_ids, g.txn_ids, g.x_c, g.x_t,
        np.where(keep_out, g.o_src, -1), np.where(keep_in, g.i_dst, -1),
        g.timestamps, g.stats)


def train_step(params: ModelParams, g: BipartiteGraph, msg_g: BipartiteGraph,
               split: EdgeSplit, config: TrainingConfig, direction: str,
               adam: AdamState, rng, batch: np.ndarray | None = None) -> float:
    """One severed-link-prediction batch plus an Adam update; returns loss.
    The step's sampler seed is one draw from `rng`."""
    check_direction(direction)
    sup = split.supervision[direction]
    if sup.size == 0:
        raise ConfigError(f"no supervision edges for direction {direction!r}")
    rng = as_rng(rng)
    if batch is None:
        take = min(config.batch_size, sup.size)
        batch = rng.choice(sup, size=take, replace=False)
    pos_t = np.asarray(batch, dtype=np.int64)
    pos_c = g.edge_endpoints(direction)[pos_t]
    neg_c, neg_t = sample_negatives(g, pos_t.size * config.negatives,
                                    direction, rng)
    sample_seed = int(rng.integers(2 ** 63))
    removed = np.zeros(msg_g.n_transactions, dtype=bool)
    removed[pos_t] = removed[neg_t] = True
    sub = sample_neighborhood(
        msg_g, np.stack([np.concatenate([pos_c, neg_c]),
                         np.concatenate([pos_t, neg_t])], axis=1),
        config.fanout, params.num_layers, sample_seed,
        **{"removed_out" if direction == OUTGOING else "removed_in": removed})

    def loss_fn():
        z_c, z_t = encode(params, sub, msg_g.x_c, msg_g.x_t, training=True,
                          rng=rng, dropout_p=config.dropout)
        c_at, t_at = sub.levels_c[0].searchsorted, sub.levels_t[0].searchsorted
        y_pos = decode(params.w_dec, gather_rows(z_c, c_at(pos_c)), gather_rows(z_t, t_at(pos_t)))
        y_neg = decode(params.w_dec, gather_rows(z_c, c_at(neg_c)), gather_rows(z_t, t_at(neg_t)))
        return link_loss(y_pos, reshape(y_neg, (pos_t.size, config.negatives)))

    return descend(params.parameters(), adam, config.learning_rate, loss_fn)


def validation_loss(params: ModelParams, msg_g: BipartiteGraph, pairs,
                    config: TrainingConfig) -> float:
    """Deterministic held-out loss over `_held_out_pairs` rows `pairs`:
    each direction's `link_loss` over its validation edges and their
    negatives (scored by `_score_pairs`), weighted by the edge count."""
    labels = pairs[3]
    if not len(labels):
        raise ConfigError("no validation edges in either direction")
    y = _score_pairs(params, msg_g, *pairs[:3], config)
    # each direction's block of positives, then its block of negatives
    ys = np.split(y, np.flatnonzero(np.diff(labels)) + 1)
    return sum(float(link_loss(Tensor(pos[:, None]), Tensor(neg.reshape(len(pos), -1))).data)
               * len(pos) for pos, neg in zip(ys[::2], ys[1::2])) / int(labels.sum())


def fit(g: BipartiteGraph, split: EdgeSplit, config: TrainingConfig
        ) -> tuple[ModelParams, list[dict]]:
    """Train with per-step direction alternation and early stopping.

    Keeps the parameters of the best validation epoch; stops once the
    validation loss has failed to improve for `patience` consecutive
    epochs (at least one). History holds one record per epoch.
    """
    config.validate()
    if all(split.supervision[d].size == 0 for d in DIRECTIONS):
        raise ConfigError("no supervision edges in either direction")
    params = init_params(config.encoder, g.d_customer, g.d_transaction,
                         config.num_layers, config.hidden, config.heads,
                         seed=config.seed)
    adam = AdamState(params.parameters())
    msg_g = message_graph(g, split)
    rng = as_rng(np.random.SeedSequence([config.seed, 1]))
    val_pairs = _held_out_pairs(g, split, [config.seed, 2], config.negatives)
    if not len(val_pairs[3]):   # refused before training, not after its first epoch
        raise ConfigError("no validation edges in either direction")

    def train_epoch(epoch):
        chunks = []
        for d in DIRECTIONS:
            sup = split.supervision[d]
            perm = rng.permutation(sup) if sup.size else sup
            chunks.append([(d, perm[lo:lo + config.batch_size])
                           for lo in range(0, sup.size, config.batch_size)])
        # alternate outgoing, incoming, ...; leftovers of the longer side last
        interleaved = [b for pair in itertools.zip_longest(*chunks)
                       for b in pair if b is not None]

        losses = []
        for d, batch in interleaved:
            if batch.size < 2:
                continue  # batch norm cannot run on a single row
            losses.append(train_step(params, g, msg_g, split, config, d,
                                     adam, rng, batch=batch))
        val = validation_loss(params, msg_g, val_pairs, config)
        train_loss = float(np.mean(losses)) if losses else float("nan")
        return {"epoch": epoch, "train_loss": train_loss, "val_loss": val}, val

    return run_epochs(config.max_epochs, config.patience, train_epoch, params.copy)


# ---------------------------------------------------------------------------
# held-out evaluation shared by all models


def _held_out_pairs(g: BipartiteGraph, split: EdgeSplit, seed, per_positive: int):
    """Held-out (directions, customers, txns, labels) rows, the one pair
    builder of every model: for each direction with validation edges, its
    validation edges (label 1), then `per_positive` uniform non-edges per
    edge (label 0), drawn from `np.random.SeedSequence(seed)`."""
    rng = as_rng(np.random.SeedSequence(seed))
    directions, blocks = [], [(np.empty(0, dtype=np.int64),) * 3]
    for d in DIRECTIONS:
        val = split.validation[d]
        if val.size:
            neg_c, neg_t = sample_negatives(g, val.size * per_positive, d, rng)
            directions += [d] * (val.size + neg_t.size)
            blocks += [(g.edge_endpoints(d)[val], val, np.ones(val.size, dtype=np.int64)),
                       (neg_c, neg_t, np.zeros(neg_t.size, dtype=np.int64))]
    return (directions, *(np.concatenate(column) for column in zip(*blocks)))


def build_eval_examples(g: BipartiteGraph, split: EdgeSplit, negatives_seed: int
                        ) -> list[tuple[str, int, int, int]]:
    """(direction, customer, txn, label) rows of `_held_out_pairs`, one
    non-edge per validation edge. The same rows serve every model for a
    fair comparison.
    """
    directions, *columns = _held_out_pairs(g, split, [negatives_seed, 4], 1)
    return list(zip(directions, *(c.tolist() for c in columns)))


def predict_pairs(params: ModelParams, msg_g: BipartiteGraph,
                  rows: list[tuple[str, int, int, int]], config: TrainingConfig
                  ) -> np.ndarray:
    """Link likelihood for (direction, customer, txn) rows of `msg_g`,
    each hiding only its own edge (`_score_pairs`)."""
    return _score_pairs(params, msg_g, *([r[i] for r in rows] for i in range(3)), config)


def evaluate_split(params: ModelParams, g: BipartiteGraph, split: EdgeSplit,
                   config: TrainingConfig) -> dict:
    """Held-out AUC/AP on the `build_eval_examples` rows."""
    *pairs, labels = _held_out_pairs(g, split, [config.seed, 4], 1)
    scores = _score_pairs(params, message_graph(g, split), *pairs, config)
    return {"roc_auc": roc_auc(scores, labels),
            "average_precision": average_precision(scores, labels),
            "examples": len(labels)}


# ---------------------------------------------------------------------------
# production scoring


@dataclass(frozen=True)
class AnomalyResult:
    txn_id: str
    direction: str
    customer_id: str
    y_hat: float | None
    anomaly_score: float | None
    cold_start: bool


def _row_embeddings(params: ModelParams, g: BipartiteGraph, customers, txns,
                    directions, counterparts, hides, near, config: TrainingConfig,
                    x_new: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row's (customer, transaction) embeddings, which `decode` makes
    its link likelihood, for rows (customer, transaction, direction).

    A row hides only its own edge: its transaction reads `g` holding only
    its counterpart edge (to counterparts[i], -1 for none), and its
    customer reads `g` less that transaction's edge in the row's direction,
    which `g` holds where hides[i]. Transaction g.n_transactions + k is
    new, with features x_new[k]. A row whose transaction is new, or that
    hides an edge, is its own `sample_records` part, and so is its
    customer where near[i] (hides[i], and the customer's embedding may
    read the hidden edge); all else reads part 0, `g` as it stands. Each
    chunk of whole parts is encoded once; products are row-exact, so each
    row's embeddings, and so its score, are bit-identical to those of the
    row alone, in any batch or order.
    """
    own = (txns >= g.n_transactions) | hides   # rows sampled as their own part
    on_c, on_t = ~near, ~own   # rows reading part 0's customer, transaction
    seeds_c, seeds_t = np.unique(customers[on_c]), np.unique(txns[on_t])
    z_c, z_t = np.empty((2, len(txns), params.w_dec.shape[0]))
    z0_c, z0_t = np.empty((len(seeds_c), z_c.shape[1])), np.empty((len(seeds_t), z_c.shape[1]))
    parted = own.nonzero()[0]
    calls = max(-(-len(parted) // _SCORE_CHUNK_ROWS),
                -(-max(len(seeds_c), len(seeds_t)) // _PART0_SEEDS), 1)
    for k in range(calls):
        block = parted[k * _SCORE_CHUNK_ROWS:(k + 1) * _SCORE_CHUNK_ROWS]
        cut = slice(k * _PART0_SEEDS, (k + 1) * _PART0_SEEDS)
        union, parts = sample_records(
            g, seeds_c[cut], txns[block], [directions[i] for i in block.tolist()],
            counterparts[block], config.fanout, params.num_layers, config.seed,
            seed_txns=seeds_t[cut], record_customers=np.where(near[block], customers[block], -1))
        for a, b, chunk in chunk_parts(union, parts, _SCORE_CHUNK_ROWS):
            zc, zt = encode(params, chunk, g.x_c, g.x_t, x_new=x_new)
            zc, zt = zc.data, zt.data
            if a == 0:   # part 0's seeds lead level 0
                n_c, n_t = len(seeds_c[cut]), len(seeds_t[cut])
                z0_c[cut], zc = zc[:n_c], zc[n_c:]
                z0_t[cut], zt = zt[:n_t], zt[n_t:]
            # part p is block[p - 1], its seeds the chunk's next level-0 rows
            rows = block[max(a, 1) - 1:b - 1]
            z_t[rows] = zt
            z_c[rows[near[rows]]] = zc
    z_c[on_c] = z0_c[seeds_c.searchsorted(customers[on_c])]
    z_t[on_t] = z0_t[seeds_t.searchsorted(txns[on_t])]
    return z_c, z_t


def _check_pairs(g: BipartiteGraph, directions, customers, txns):
    """The row check of every pair scorer: (whether each row is OUTGOING,
    customers, txns as int arrays); an unknown direction, or an index
    outside `g`, raises ConfigError."""
    for d in set(directions):
        check_direction(d)
    return (np.array([d == OUTGOING for d in directions], dtype=bool),
            _seed_ids(customers, g.n_customers, "customer"),
            _seed_ids(txns, g.n_transactions, "transaction"))


def _score_pairs(params: ModelParams, msg_g: BipartiteGraph, directions, customers,
                 txns, config: TrainingConfig) -> np.ndarray:
    """Link likelihood of (direction, customer, transaction) rows of
    `msg_g`, each hiding only its own edge (`_pair_embeddings`)."""
    z_c, z_t = _pair_embeddings(params, msg_g, directions, customers, txns, config)
    return decode(params.w_dec, Tensor(z_c), Tensor(z_t)).data[:, 0]


def _pair_embeddings(params: ModelParams, msg_g: BipartiteGraph, directions, customers,
                     txns, config: TrainingConfig) -> tuple[np.ndarray, np.ndarray]:
    """`_row_embeddings` of (direction, customer, transaction) rows of
    `msg_g`, each counterpart the transaction's other end in `msg_g`.
    Rows are checked by `_check_pairs`.

    A row's hidden edge changes the layer-h embedding of a node only if the
    node lies within h - 1 hops of the edge's ends, and a sample is a pure
    function of the node, so a customer farther than L - 1 hops, in
    `msg_g`, reads part 0 with the same bits (at 2 layers: a customer other
    than the transaction's two ends)."""
    outgoing, customers, txns = _check_pairs(msg_g, directions, customers, txns)
    counterparts = np.where(outgoing, msg_g.i_dst[txns], msg_g.o_src[txns])
    ends = np.where(outgoing, msg_g.o_src[txns], msg_g.i_dst[txns])
    hides = ends >= 0
    near = np.zeros(len(txns), dtype=bool)
    at = hides.nonzero()[0]
    near[at] = _within_hops(msg_g, ends[at], txns[at], customers[at], params.num_layers - 1)
    return _row_embeddings(params, msg_g, customers, txns, directions, counterparts,
                           hides, near, config)


def _within_hops(g: BipartiteGraph, ends, txns, customers, hops: int) -> np.ndarray:
    """Whether customers[i] lies within `hops` hops, in `g`, of customer
    ends[i] or transaction txns[i] (a breadth-first search per row, over
    keys row * n + node)."""
    n_c, n_t = g.n_customers, g.n_transactions
    rows = np.arange(len(txns))
    seen_c = front_c = rows * n_c + ends
    seen_t = front_t = rows * n_t + txns
    for hop in range(hops):
        r, t = np.divmod(front_t, n_t)
        reached_c = np.concatenate([(r * n_c + e)[e >= 0] for e in (g.o_src[t], g.i_dst[t])])
        reached_t = [np.empty(0, dtype=np.int64)]
        if hop + 1 < hops:   # the last hop's transactions reach no customer
            r, c = np.divmod(front_c, n_c)
            for indptr, indices in ((g.out_indptr, g.out_indices), (g.in_indptr, g.in_indices)):
                nbrs, counts = _flat_neighbors(indptr, indices, c)
                reached_t.append(r.repeat(counts) * n_t + nbrs)
        front_c = np.setdiff1d(reached_c, seen_c)
        front_t = np.setdiff1d(np.concatenate(reached_t), seen_t)
        seen_c, seen_t = np.union1d(seen_c, front_c), np.union1d(seen_t, front_t)
    return np.isin(rows * n_c + customers, seen_c)


def score_transactions(params: ModelParams, g: BipartiteGraph,
                       new_transactions: list[RawTransaction],
                       config: TrainingConfig) -> list[AnomalyResult]:
    """Anomaly-score each direction of each new transaction.

    Each record is scored alone (`_row_embeddings`): it sees the reference
    graph `g`, unchanged, plus its transaction attached by its counterpart
    (non-predicted) edge only. A transaction `build_graph` would refuse,
    or whose id is in `g` or repeated, raises IngestError
    (`resolve_transactions`). A non-finite score raises NumericalError.
    """
    x_new, ends, cold = resolve_transactions(g, new_transactions)
    # each record's transaction row and side (0 source, 1 dest), transaction
    # by transaction; an EXTERNAL side has no edge to predict
    k, side = np.nonzero((ends >= 0) | cold)
    warm = ~cold[k, side]
    y_hat = np.full(len(k), np.nan)
    none = np.zeros(warm.sum(), dtype=bool)   # a new transaction hides no edge
    z_c, z_t = _row_embeddings(params, g, ends[k, side][warm], g.n_transactions + k[warm],
                               [DIRECTIONS[s] for s in side[warm]], ends[k, 1 - side][warm],
                               none, none, config, x_new)
    y_hat[warm] = decode(params.w_dec, Tensor(z_c), Tensor(z_t)).data[:, 0]
    if not np.isfinite(y_hat[warm]).all():
        raise NumericalError("a score is not finite: the model, graph or "
                             "transactions hold values too large to encode")
    return [AnomalyResult(t.txn_id, DIRECTIONS[s], (t.source_customer, t.dest_customer)[s],
                          y if w else None, float(anomaly_score(y)) if w else None, not w)
            for t, s, y, w in zip([new_transactions[i] for i in k.tolist()], side.tolist(),
                                  y_hat.tolist(), warm.tolist())]


def write_results(path: str, results: list[AnomalyResult]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps({
                "txn_id": r.txn_id, "direction": r.direction,
                "customer_id": r.customer_id, "y_hat": r.y_hat,
                "anomaly_score": r.anomaly_score, "cold_start": r.cold_start,
            }) + "\n")


def _parse_result(obj: dict) -> AnomalyResult:
    r = AnomalyResult(obj["txn_id"], obj["direction"], obj["customer_id"],
                      obj["y_hat"], obj["anomaly_score"], obj["cold_start"])
    for score in (r.y_hat, r.anomaly_score):
        if score is not None and (type(score) not in (int, float)
                                  or not np.isfinite(score)):
            raise ValueError(f"score {score!r} is not a finite number or null")
    if type(r.txn_id) is not str or type(r.customer_id) is not str:
        raise ValueError(f"txn_id {r.txn_id!r} or customer_id "
                         f"{r.customer_id!r} is not a string")
    if r.direction not in DIRECTIONS or type(r.cold_start) is not bool:
        raise ValueError(f"direction {r.direction!r} or cold_start "
                         f"{r.cold_start!r} is invalid")
    return r


def read_results(path: str) -> list[AnomalyResult]:
    """Records as `write_results` writes them; a field of the wrong type
    raises IngestError naming the file and line."""
    return read_records(path, _parse_result)


def write_metrics_log(path: str, history: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in history:
            fh.write(f"epoch={row['epoch']} train_loss={row['train_loss']:.6f} "
                     f"val_loss={row['val_loss']:.6f}\n")
