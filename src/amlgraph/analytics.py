"""Embedding analytics: drift reports and export.

Embedding snapshots taken after retraining on successive periods let a
reviewer watch one customer's behavior move: pairwise cosine matrices
flag customers whose representation swung away from any earlier period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, IngestError, NumericalError
from .graph import BipartiteGraph, full_subgraph
from .model import ModelParams, encode

DIVERGENCE_THRESHOLD = 0.8


def cosine_similarity(a, b) -> float:
    """Cosine of two finite vectors. Where the plain formula overflows or
    underflows, it is taken again over each vector divided by its largest
    coordinate, which leaves the cosine unchanged."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ConfigError(f"vector lengths differ: {a.size} vs {b.size}")
    if not (a.any() and b.any()):
        raise NumericalError("cosine similarity of a zero vector is undefined")
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        sim = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    if np.isfinite(sim):
        return sim
    a, b = a / np.abs(a).max(), b / np.abs(b).max()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


@dataclass(frozen=True)
class CustomerDrift:
    customer_id: str
    similarity: np.ndarray      # (k, k) pairwise cosine across snapshots
    min_similarity: float       # smallest off-diagonal entry
    diverging: bool


def divergence_report(snapshots: Sequence[Mapping[str, np.ndarray]],
                      customer_ids: Sequence[str] | None = None,
                      threshold: float = DIVERGENCE_THRESHOLD
                      ) -> list[CustomerDrift]:
    """Pairwise embedding similarity per customer across snapshots.

    A customer is flagged as diverging when any snapshot pair falls
    below the threshold. Diagonals are exactly 1 and the matrix is
    mirrored, so symmetry is structural. Customers must appear in every
    snapshot, with embeddings as wide as the first snapshot's (else
    IngestError); the ids default to the first snapshot's, sorted.
    """
    k = len(snapshots)
    if k < 2:
        raise ConfigError(f"need at least two snapshots, got {k}")
    if customer_ids is None:
        customer_ids = sorted(snapshots[0].keys())
    report = []
    for cid in customer_ids:
        vecs = []
        for idx, snap in enumerate(snapshots):
            if cid not in snap:
                raise IngestError(f"customer {cid!r} missing from snapshot {idx}")
            vecs.append(snap[cid])
            if np.size(vecs[-1]) != np.size(vecs[0]):
                raise IngestError(f"snapshot {idx} embeddings are not as wide as snapshot 0's")
        m = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                m[i, j] = m[j, i] = cosine_similarity(vecs[i], vecs[j])
        off = m[~np.eye(k, dtype=bool)]
        lowest = float(off.min())
        report.append(CustomerDrift(cid, m, lowest, lowest < threshold))
    return report


def compute_embeddings(params: ModelParams, g: BipartiteGraph,
                       layer: int | None = None):
    """Full-graph embeddings of every node at the chosen layer.

    Layers count from 0; the default is the final one. Returns
    (customer_ids, z_c, txn_ids, z_t) with rows in graph node order; a
    non-finite embedding raises NumericalError.
    """
    if layer is None:
        layer = params.num_layers - 1
    if not 0 <= layer < params.num_layers:
        raise ConfigError(f"layer must be in [0, {params.num_layers - 1}], "
                          f"got {layer}")
    sub = full_subgraph(g, params.num_layers)
    capture: list = []
    encode(params, sub, g.x_c, g.x_t, capture=capture)
    c_idx, z_c, t_idx, z_t, _ = capture[layer]
    if not (np.all(np.isfinite(z_c)) and np.all(np.isfinite(z_t))):
        raise NumericalError("an embedding is not finite: the model or graph "
                             "holds values too large to encode")
    c_ids = [g.customer_ids[i] for i in c_idx]
    t_ids = [g.txn_ids[i] for i in t_idx]
    return c_ids, z_c, t_ids, z_t


def export_embeddings(params: ModelParams, g: BipartiteGraph, path: str,
                      layer: int | None = None) -> None:
    """Write one tab-delimited row per node: type, id, coordinates."""
    c_ids, z_c, t_ids, z_t = compute_embeddings(params, g, layer)
    with open(path, "w", encoding="utf-8") as fh:
        width = z_c.shape[1]
        fh.write("node_type\tnode_id\t" +
                 "\t".join(f"v{i}" for i in range(width)) + "\n")
        for ids, z, kind in ((c_ids, z_c, "customer"), (t_ids, z_t, "transaction")):
            for nid, row in zip(ids, z):
                fh.write(kind + "\t" + nid + "\t" +
                         "\t".join(repr(float(v)) for v in row) + "\n")


def read_embeddings(path: str) -> tuple[dict, dict]:
    """Inverse of export_embeddings: ({customer: vec}, {transaction: vec}).

    Text that is not UTF-8, a header without coordinate columns, a
    malformed row, a non-finite coordinate and a second row of one node
    raise IngestError naming the file (and line).
    """
    tables: dict[str, dict[str, np.ndarray]] = {"customer": {}, "transaction": {}}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:2] != ["node_type", "node_id"]:
                raise IngestError(f"{path}: not an embedding export")
            if len(header) < 3:
                raise IngestError(f"{path}: embedding export has no coordinate columns")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != len(header):
                    raise IngestError(f"{path}:{lineno}: wrong column count")
                kind, nid = parts[0], parts[1]
                try:
                    vec = np.array([float(v) for v in parts[2:]])
                except ValueError as e:
                    raise IngestError(f"{path}:{lineno}: bad embedding value: {e}") from e
                if not np.all(np.isfinite(vec)):
                    raise IngestError(f"{path}:{lineno}: non-finite embedding value")
                if kind not in tables:
                    raise IngestError(f"{path}:{lineno}: unknown node type {kind!r}")
                if nid in tables[kind]:
                    raise IngestError(f"{path}:{lineno}: {kind} {nid!r} is repeated")
                tables[kind][nid] = vec
        except UnicodeDecodeError as e:
            raise IngestError(f"{path}: not UTF-8 text: {e}") from e
    return tables["customer"], tables["transaction"]
