"""Embedding analytics: drift reports and export.

Embedding snapshots taken after retraining on successive periods let a
reviewer watch one customer's behavior move: pairwise cosine matrices
flag customers whose representation swung away from any earlier period.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ConfigError, IngestError, NumericalError
from .graph import BipartiteGraph, full_subgraph
from .model import ModelParams, encode

DIVERGENCE_THRESHOLD = 0.8
_BLOCK_ROWS = 256   # embedding rows formatted or parsed at once
_FIELD_BREAK = re.compile("[\t\n\r]")   # ends a field or line of the export


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
    IngestError); the ids default to the first snapshot's, sorted. Each
    entry has the bits of `cosine_similarity` of the two embeddings.
    """
    k = len(snapshots)
    if k < 2:
        raise ConfigError(f"need at least two snapshots, got {k}")
    if customer_ids is None:
        customer_ids = sorted(snapshots[0].keys())
    vecs = []   # per customer, its flat embedding in each snapshot
    for cid in customer_ids:
        row = []
        for idx, snap in enumerate(snapshots):
            if cid not in snap:
                fault = f"customer {cid!r} missing from snapshot {idx}"
            elif row and np.size(snap[cid]) != row[0].size:
                fault = f"snapshot {idx} embeddings are not as wide as snapshot 0's"
            else:
                row.append(np.ravel(snap[cid]))
                continue
            _pair_cosines(vecs, k)   # an earlier customer's zero vector is refused first
            raise IngestError(fault)
        vecs.append(row)
    sims = _pair_cosines(vecs, k)
    lowest = sims[:, ~np.eye(k, dtype=bool)].min(axis=1).tolist()
    return [CustomerDrift(cid, m, low, low < threshold)
            for cid, m, low in zip(customer_ids, sims, lowest)]


def _pair_cosines(vecs: list[list[np.ndarray]], k: int) -> np.ndarray:
    """(customers, k, k) cosine matrices of each customer's k embeddings.

    Customers of one width are stacked, and each snapshot pair is one
    `vecdot` (row-wise `a @ b`) over the product of `linalg.norm`s, which
    has the bits of `cosine_similarity`'s plain formula. Where that is
    not finite, the entry is `cosine_similarity` itself, which rescales
    or refuses a zero vector.
    """
    sims = np.tile(np.eye(k), (len(vecs), 1, 1))
    widths = np.array([row[0].size for row in vecs], dtype=np.int64)
    pairs = list(itertools.combinations(range(k), 2))
    for width in np.unique(widths):
        sel = np.flatnonzero(widths == width)
        z = [np.array([vecs[n][idx] for n in sel.tolist()], dtype=np.float64)
             for idx in range(k)]
        with np.errstate(all="ignore"):
            norms = [np.sqrt(np.vecdot(a, a)) for a in z]
            cos = [np.vecdot(z[i], z[j]) / (norms[i] * norms[j]) for i, j in pairs]
        for (i, j), c in zip(pairs, cos):
            for r in np.flatnonzero(~np.isfinite(c)).tolist():
                c[r] = cosine_similarity(z[i][r], z[j][r])
            sims[sel, i, j] = sims[sel, j, i] = c
    return sims


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
    """Write one tab-delimited row per node: type, id, coordinates, each
    coordinate its float `repr`. Rows are formatted and written a block
    of `_BLOCK_ROWS` at a time. An id holding a tab or line break, which
    no field of the export can hold, raises IngestError before any write."""
    c_ids, z_c, t_ids, z_t = compute_embeddings(params, g, layer)
    for kind, ids in (("customer", c_ids), ("transaction", t_ids)):
        if _FIELD_BREAK.search("".join(ids)):
            nid = next(nid for nid in ids if _FIELD_BREAK.search(nid))
            raise IngestError(f"{kind} id {nid!r} holds a tab or line break: "
                              "the export cannot hold it")
    with open(path, "w", encoding="utf-8") as fh:
        width = z_c.shape[1]
        fh.write("node_type\tnode_id\t" +
                 "\t".join(f"v{i}" for i in range(width)) + "\n")
        for ids, z, kind in ((c_ids, z_c, "customer"), (t_ids, z_t, "transaction")):
            for lo in range(0, len(ids), _BLOCK_ROWS):
                fh.write("".join(
                    f"{kind}\t{nid}\t" + "\t".join(map(repr, row)) + "\n"
                    for nid, row in zip(ids[lo:lo + _BLOCK_ROWS],
                                        z[lo:lo + _BLOCK_ROWS].tolist())))


def read_embeddings(path: str) -> tuple[dict, dict]:
    """Inverse of export_embeddings: ({customer: vec}, {transaction: vec}).

    Text that is not UTF-8, a header without coordinate columns, a
    malformed row, a non-finite coordinate and a second row of one node
    raise IngestError naming the file (and line). Lines are read a block
    of `_BLOCK_ROWS` at a time (`_read_block`), and the file's first
    fault is refused, as a line-by-line reader refuses it.
    """
    tables: dict[str, dict[str, np.ndarray]] = {"customer": {}, "transaction": {}}
    lineno, block = 2, []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:2] != ["node_type", "node_id"]:
                raise IngestError(f"{path}: not an embedding export")
            if len(header) < 3:
                raise IngestError(f"{path}: embedding export has no coordinate columns")
            for line in fh:
                block.append(line)
                if len(block) == _BLOCK_ROWS:
                    _read_block(path, lineno, block, len(header), tables)
                    lineno, block = lineno + len(block), []
        except UnicodeDecodeError as e:
            if block:   # the lines decoded before the bad bytes are read first
                _read_block(path, lineno, block, len(header), tables)
            raise IngestError(f"{path}: not UTF-8 text: {e}") from e
    _read_block(path, lineno, block, len(header), tables)
    return tables["customer"], tables["transaction"]


def _read_block(path: str, lineno: int, lines: list[str], width: int,
                tables: dict[str, dict[str, np.ndarray]]) -> None:
    """Add the rows of `lines`, the file's lines from `lineno` on, to
    `tables`. A block without a fault is parsed in one numpy call (it
    parses each value as `float` does) and each row is a view of it; a
    block with one is read line by line, and its first fault raises
    IngestError naming the file and line."""
    rows = [line.rstrip("\n").split("\t") for line in lines]
    if all(len(parts) == width for parts in rows):
        try:
            z = np.array([parts[2:] for parts in rows], dtype=np.float64)
        except ValueError:
            z = None
        keys = {(parts[0], parts[1]) for parts in rows}
        if (z is not None and np.isfinite(z).all() and len(keys) == len(rows)
                and all(kind in tables and nid not in tables[kind] for kind, nid in keys)):
            for parts, vec in zip(rows, z):
                tables[parts[0]][parts[1]] = vec
            return
    for lineno, parts in enumerate(rows, start=lineno):
        if len(parts) != width:
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
