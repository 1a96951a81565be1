"""Bipartite graph encoders (GAT, SAGE, GIN) and the link decoder.

Every layer computes fresh embeddings for both node types. A node type
always aggregates over the two relations pointing at it (customers from
OUT_REV and IN_FWD, transactions from OUT_FWD and IN_REV), each relation
with its own parameters, plus a destination-type self projection.

Attention (GAT) is normalized per relation: each destination node's
softmax segment holds that relation's incoming edges together with the
node's self term, so the coefficients of one segment sum to one. The
per-relation aggregations are then summed before the activation.

Hidden layers apply ReLU, then batch norm, then dropout; the final layer
returns the raw aggregation so embeddings are unconstrained reals.
"""

from __future__ import annotations

import struct
from copy import deepcopy
from typing import BinaryIO

import numpy as np

from .errors import ConfigError, DimensionError, IngestError
from .graph import IN_FWD, IN_REV, OUT_FWD, OUT_REV, RELATIONS, Subgraph
from .ndtensor import (BatchNormState, Tensor, add, batch_norm, bytes_left,
                       dropout, gat_aggregate, gather_rows, hadamard, matmul,
                       prefix_rows, read_array, relu, segment_sum, sigmoid,
                       write_array)

KINDS = ("gat", "sage", "gin")

# relations feeding each destination type; both sources are the other type
DEST_RELATIONS = {"c": (OUT_REV, IN_FWD), "t": (OUT_FWD, IN_REV)}

_CKPT_MAGIC = b"AMLC"
_CKPT_VERSION = 1


def _glorot(rng, shape) -> Tensor:
    bound = np.sqrt(6.0 / (shape[0] + shape[1]))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _attn_vec(rng, hidden, d_head) -> Tensor:
    bound = np.sqrt(6.0 / (2 * d_head + 1))
    return Tensor(rng.uniform(-bound, bound, size=(1, hidden)), requires_grad=True)


class ModelParams:
    """Per-layer relation weights, batch-norm sites, and the decoder row."""

    def __init__(self, kind: str, d_c: int, d_t: int, num_layers: int,
                 hidden: int, heads: int):
        self.kind = kind
        self.d_c = d_c
        self.d_t = d_t
        self.num_layers = num_layers
        self.hidden = hidden
        self.heads = heads
        self.layers: list[dict[str, Tensor]] = []
        self.bn: list[dict] = []
        self.w_dec: Tensor | None = None

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            out.extend((f"layer{i}.{k}", v) for k, v in layer.items())
        for i, site in enumerate(self.bn):
            for tau in ("c", "t"):
                out.append((f"bn{i}.{tau}.gamma", site[tau]["gamma"]))
                out.append((f"bn{i}.{tau}.beta", site[tau]["beta"]))
        out.append(("decoder.w", self.w_dec))
        return out

    def copy(self) -> "ModelParams":
        return deepcopy(self)


def _layer_spec(kind: str, dc_in: int, dt_in: int,
                hidden: int) -> list[tuple[str, tuple[int, int]]]:
    """(name, shape) of one layer's parameters, in initialization order."""
    src_dim = {OUT_FWD: dc_in, IN_REV: dc_in, OUT_REV: dt_in, IN_FWD: dt_in}
    rel_prefix = {"gat": "w_", "sage": "w_nbr_", "gin": "w_proj_"}[kind]
    self_prefix = "w_proj_self_" if kind == "gin" else "w_self_"
    spec = [(f"{rel_prefix}{rel}", (src_dim[rel], hidden)) for rel in RELATIONS]
    spec += [(f"{self_prefix}c", (dc_in, hidden)), (f"{self_prefix}t", (dt_in, hidden))]
    if kind == "gat":
        for rel in RELATIONS:
            spec += [(f"a_dst_{rel}", (1, hidden)), (f"a_src_{rel}", (1, hidden))]
    elif kind == "gin":
        for tau in ("c", "t"):
            spec += [(f"mlp_w1_{tau}", (hidden, hidden)), (f"mlp_b1_{tau}", (1, hidden)),
                     (f"mlp_w2_{tau}", (hidden, hidden)), (f"mlp_b2_{tau}", (1, hidden))]
    return spec


def _checkpoint_floats(kind: str, d_c: int, d_t: int, num_layers: int,
                       hidden: int) -> int:
    """Float64 values a checkpoint of these sizes stores: the parameters
    and, per batch-norm site, gamma, beta and both running statistics."""
    def layer(dc_in, dt_in):
        return sum(r * c for _, (r, c) in _layer_spec(kind, dc_in, dt_in, hidden))
    return (layer(d_c, d_t) + hidden
            + (num_layers - 1) * (layer(hidden, hidden) + 2 * 4 * hidden))


def init_params(kind: str, d_c: int, d_t: int, num_layers: int = 3,
                hidden: int = 32, heads: int = 4, seed: int = 0) -> ModelParams:
    """Build freshly initialized parameters; deterministic per seed."""
    if kind not in KINDS:
        raise ConfigError(f"unknown encoder kind {kind!r}, expected one of {KINDS}")
    if num_layers < 1 or hidden < 1:
        raise ConfigError("num_layers and hidden must be positive")
    if kind != "gat":
        heads = 1
    if heads < 1:
        raise ConfigError("heads must be positive")
    if hidden % heads != 0:
        raise ConfigError(f"hidden ({hidden}) must be divisible by heads ({heads})")
    rng = np.random.default_rng(seed)
    params = ModelParams(kind, d_c, d_t, num_layers, hidden, heads)
    for l in range(num_layers):
        p: dict[str, Tensor] = {}
        for name, shape in _layer_spec(kind, d_c if l == 0 else hidden,
                                       d_t if l == 0 else hidden, hidden):
            if name.startswith("a_"):
                p[name] = _attn_vec(rng, hidden, hidden // heads)
            elif name.startswith("mlp_b"):
                p[name] = Tensor(np.zeros(shape), requires_grad=True)
            else:
                p[name] = _glorot(rng, shape)
        params.layers.append(p)
    for _ in range(num_layers - 1):
        params.bn.append({tau: {"gamma": Tensor(np.ones(hidden), requires_grad=True),
                                "beta": Tensor(np.zeros(hidden), requires_grad=True),
                                "state": BatchNormState(hidden)}
                          for tau in ("c", "t")})
    params.w_dec = _glorot(rng, (hidden, 1))
    return params


def _gat_dest(params, p, dest: str, edges, z_src, z_self, n_out, attention):
    """Attention-weighted aggregation into `dest`: one `gat_aggregate` per
    relation, the two summed; stores each relation's coefficients in
    `attention` (see `encode`)."""
    h_self = matmul(prefix_rows(z_self, n_out), p[f"w_self_{dest}"])
    agg = None
    for rel in DEST_RELATIONS[dest]:
        src, dst = edges[rel]
        contrib, edge_alpha, self_alpha = gat_aggregate(
            matmul(z_src, p[f"w_{rel}"]), h_self, p[f"a_src_{rel}"],
            p[f"a_dst_{rel}"], src, dst, params.heads)
        attention[rel] = (edge_alpha, self_alpha, dst)
        agg = contrib if agg is None else add(agg, contrib)
    return agg


def _sage_dest(params, p, dest: str, edges, z_src, z_self, n_out, attention):
    out = matmul(prefix_rows(z_self, n_out), p[f"w_self_{dest}"])
    for rel in DEST_RELATIONS[dest]:
        src, dst = edges[rel]
        total = segment_sum(gather_rows(z_src, src), dst, n_out)
        counts = np.bincount(dst, minlength=n_out).astype(np.float64)
        inv = Tensor((1.0 / np.maximum(counts, 1.0))[:, None])
        out = add(out, matmul(hadamard(total, inv), p[f"w_nbr_{rel}"]))
    return out


def _gin_dest(params, p, dest: str, edges, z_src, z_self, n_out, attention):
    pre = matmul(prefix_rows(z_self, n_out), p[f"w_proj_self_{dest}"])
    for rel in DEST_RELATIONS[dest]:
        src, dst = edges[rel]
        pre = add(pre, segment_sum(gather_rows(matmul(z_src, p[f"w_proj_{rel}"]), src),
                                   dst, n_out))
    hidden = relu(add(matmul(pre, p[f"mlp_w1_{dest}"]), p[f"mlp_b1_{dest}"]))
    return add(matmul(hidden, p[f"mlp_w2_{dest}"]), p[f"mlp_b2_{dest}"])


_DEST_FN = {"gat": _gat_dest, "sage": _sage_dest, "gin": _gin_dest}


def _feature_rows(x: np.ndarray, x_new: np.ndarray | None,
                  ids: np.ndarray) -> np.ndarray:
    """Rows `ids` of `x` with `x_new` appended, without building the stack:
    an id at or past len(x) reads x_new[id - len(x)]."""
    if x_new is None:
        return x[ids]
    out = np.empty((len(ids), x.shape[1]))
    old = ids < len(x)
    out[old] = x[ids[old]]
    out[~old] = x_new[ids[~old] - len(x)]
    return out


def encode(params: ModelParams, sub: Subgraph, x_c: np.ndarray,
           x_t: np.ndarray, training: bool = False, rng=None,
           dropout_p: float = 0.0, capture: list | None = None,
           x_new: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Run all layers over the sampled structure; returns seed embeddings.

    The subgraph must be exactly `num_layers` deep. Inputs to the first
    layer are the (standardized) raw features of its deepest level;
    transaction ids from len(x_t) on read the rows of `x_new`, so appended
    transactions need no copy of `x_t`. Outputs are final-layer embeddings
    for the level-0 nodes of each type, rows following the sorted seed
    arrays.
    A layer's output rows are the first rows of its input (see
    `Subgraph`), so each self term reads `z[:n_out]`.
    `capture`, when a list, receives one (c_ids, z_c, t_ids, z_t,
    attention) numpy snapshot per layer. attention is empty for sage and
    gin; for gat attention[relation] = (edge_alpha, self_alpha, edge_dst):
    edge e's and output node i's self coefficients under head k are
    edge_alpha[e, k] and self_alpha[i, k], and edge_dst[e] is e's output node.
    """
    L = params.num_layers
    if sub.depth != L:
        raise DimensionError(f"subgraph depth {sub.depth} != model layers {L}")
    if training and rng is None:
        raise ConfigError("training mode needs an rng for dropout")
    # features enter at level L, outputs land at level 0
    z_c = Tensor(x_c[sub.levels_c[L]])
    z_t = Tensor(_feature_rows(x_t, x_new, sub.levels_t[L]))
    dest_fn = _DEST_FN[params.kind]
    for i in range(L):
        edges = sub.layers[i]
        out_level = L - 1 - i
        n_c_out = len(sub.levels_c[out_level])
        n_t_out = len(sub.levels_t[out_level])
        p = params.layers[i]
        attention: dict = {}
        new_c = dest_fn(params, p, "c", edges, z_t, z_c, n_c_out, attention)
        new_t = dest_fn(params, p, "t", edges, z_c, z_t, n_t_out, attention)
        if i < L - 1:
            site = params.bn[i]
            new_c = relu(new_c)
            new_t = relu(new_t)
            new_c = batch_norm(new_c, site["c"]["gamma"], site["c"]["beta"],
                               site["c"]["state"], training)
            new_t = batch_norm(new_t, site["t"]["gamma"], site["t"]["beta"],
                               site["t"]["state"], training)
            if dropout_p > 0.0 and training:
                new_c = dropout(new_c, dropout_p, rng, training)
                new_t = dropout(new_t, dropout_p, rng, training)
        z_c, z_t = new_c, new_t
        if capture is not None:
            capture.append((sub.levels_c[out_level], z_c.data.copy(),
                            sub.levels_t[out_level], z_t.data.copy(), attention))
    return z_c, z_t


def decode(w_dec: Tensor, z_c: Tensor, z_t: Tensor) -> Tensor:
    """Link likelihood: sigmoid of the weighted Hadamard product, no bias."""
    if z_c.shape != z_t.shape:
        raise DimensionError(f"embedding shapes differ: {z_c.shape} vs {z_t.shape}")
    if z_c.shape[1] != w_dec.shape[0]:
        raise DimensionError(f"decoder expects dim {w_dec.shape[0]}, got {z_c.shape[1]}")
    return sigmoid(matmul(hadamard(z_c, z_t), w_dec))


def anomaly_score(y_hat):
    """Complement of the link likelihood."""
    return 1.0 - y_hat


# ---------------------------------------------------------------------------
# checkpoints


def _write_str(fh: BinaryIO, s: str) -> None:
    b = s.encode("utf-8")
    fh.write(struct.pack("<I", len(b)))
    fh.write(b)


def _read_str(fh: BinaryIO) -> str:
    (n,) = struct.unpack("<I", fh.read(4))
    if n > bytes_left(fh):
        raise ValueError(f"string of {n} bytes runs past the end of the file")
    return fh.read(n).decode("utf-8")


def save_model(params: ModelParams, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        _write_str(fh, params.kind)
        fh.write(struct.pack("<5I", params.d_c, params.d_t, params.num_layers,
                             params.hidden, params.heads))
        for _, tensor in params.named_parameters():
            write_array(fh, tensor.data)
        for site in params.bn:
            for tau in ("c", "t"):
                write_array(fh, site[tau]["state"].running_mean)
                write_array(fh, site[tau]["state"].running_var)


def _read_param(fh: BinaryIO, path: str, name: str, shape) -> np.ndarray:
    arr = read_array(fh)
    if arr.shape != shape:
        raise IngestError(f"{path}: shape mismatch for {name}")
    if not np.all(np.isfinite(arr)):
        raise IngestError(f"{path}: corrupt checkpoint: {name} is not finite")
    return arr


def load_model(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise IngestError(f"{path}: not a model checkpoint")
        try:
            (version,) = struct.unpack("<I", fh.read(4))
            if version != _CKPT_VERSION:
                raise IngestError(f"{path}: unsupported checkpoint version {version}")
            kind = _read_str(fh)
            d_c, d_t, num_layers, hidden, heads = struct.unpack("<5I", fh.read(20))
            if kind in KINDS:  # size the header before init_params allocates it
                need = 8 * _checkpoint_floats(kind, d_c, d_t, num_layers, hidden)
                left = bytes_left(fh)
                if need > left:
                    raise IngestError(f"{path}: corrupt checkpoint: its header needs "
                                      f"{need} bytes of arrays, {left} left")
            try:  # a header init_params refuses is corrupt data here
                params = init_params(kind, d_c, d_t, num_layers, hidden, heads)
            except ConfigError as e:
                raise IngestError(f"{path}: corrupt checkpoint: {e}") from e
            for name, tensor in params.named_parameters():
                tensor.data = _read_param(fh, path, name, tensor.shape)
            for i, site in enumerate(params.bn):
                for tau in ("c", "t"):
                    state, name = site[tau]["state"], f"bn{i}.{tau}"
                    for stat in ("running_mean", "running_var"):
                        setattr(state, stat, _read_param(
                            fh, path, f"{name}.{stat}", getattr(state, stat).shape))
                    if np.any(state.running_var < 0):
                        raise IngestError(f"{path}: corrupt checkpoint: "
                                          f"{name}.running_var is negative")
        except (struct.error, ValueError) as e:
            raise IngestError(f"{path}: truncated or corrupt checkpoint: {e}") from e
    return params
