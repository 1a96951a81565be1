"""Directed bipartite customer-transaction graph: build, split, sample.

Customers and transactions are the two node types. A transaction carries
at most one outgoing edge (spending customer -> transaction) and at most
one incoming edge (transaction -> receiving customer); a counterpart
outside the institution (``EXTERNAL``) simply produces no edge on that
side. Message passing uses four relations: each edge set together with
its exact transpose, so both node types can aggregate from both
directions.

Node indices are canonical: customers and transactions are each sorted
by id at build time, so the same records in any order produce a
bitwise-identical graph.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import ConfigError, IngestError, SamplingError
from .ndtensor import bytes_left, read_array, write_array

EXTERNAL = "EXTERNAL"

OUTGOING = "outgoing"
INCOMING = "incoming"
DIRECTIONS = (OUTGOING, INCOMING)

OUT_FWD = "out_fwd"  # customer -> transaction over the outgoing edge set
OUT_REV = "out_rev"  # transpose of OUT_FWD
IN_FWD = "in_fwd"    # transaction -> customer over the incoming edge set
IN_REV = "in_rev"    # transpose of IN_FWD

RELATIONS = (OUT_FWD, OUT_REV, IN_FWD, IN_REV)

_MAGIC = b"BPGR"
_VERSION = 1
_STD_FLOOR = 1e-12


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed or a Generator; always return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ConfigError(f"direction must be one of {DIRECTIONS}, got {direction!r}")


@dataclass(frozen=True)
class CustomerProfile:
    customer_id: str
    features: np.ndarray


@dataclass(frozen=True)
class RawTransaction:
    txn_id: str
    source_customer: str
    dest_customer: str
    timestamp: float
    features: np.ndarray


class BipartiteGraph:
    """Immutable store of nodes, standardized features, and adjacency.

    ``o_src[t]`` is the customer index spending into transaction t (or -1),
    ``i_dst[t]`` the customer index receiving from it (or -1). Per-customer
    adjacency is kept in CSR form with neighbor lists sorted ascending.
    The id -> index dicts ``customer_index`` and ``txn_index`` are built on
    first use, so a graph that is never looked up by id never pays for them.
    New transactions are scored against a graph as it stands: they are
    resolved into a block (`resolve_transactions`), never appended.
    """

    def __init__(self, customer_ids, txn_ids, x_c, x_t, o_src, i_dst,
                 timestamps, stats):
        self.customer_ids: tuple[str, ...] = tuple(customer_ids)
        self.txn_ids: tuple[str, ...] = tuple(txn_ids)
        self.x_c = x_c
        self.x_t = x_t
        self.o_src = o_src
        self.i_dst = i_dst
        self.timestamps = timestamps
        self.stats = stats  # raw-space feature means/stds, keys c_mean/c_std/t_mean/t_std
        self.out_indptr, self.out_indices = _csr(o_src, self.n_customers)
        self.in_indptr, self.in_indices = _csr(i_dst, self.n_customers)

    @functools.cached_property
    def customer_index(self) -> dict[str, int]:
        return {cid: i for i, cid in enumerate(self.customer_ids)}

    @functools.cached_property
    def txn_index(self) -> dict[str, int]:
        return {tid: i for i, tid in enumerate(self.txn_ids)}

    @property
    def n_customers(self) -> int:
        return len(self.customer_ids)

    @property
    def n_transactions(self) -> int:
        return len(self.txn_ids)

    @property
    def d_customer(self) -> int:
        return self.x_c.shape[1]

    @property
    def d_transaction(self) -> int:
        return self.x_t.shape[1]

    def edge_endpoints(self, direction: str) -> np.ndarray:
        check_direction(direction)
        return self.o_src if direction == OUTGOING else self.i_dst

    def edges(self, direction: str) -> np.ndarray:
        """Transaction indices that carry an edge in the given direction."""
        ends = self.edge_endpoints(direction)
        return np.flatnonzero(ends >= 0).astype(np.int64)

    def standardize_transaction_features(self, raw: np.ndarray) -> np.ndarray:
        return (raw - self.stats["t_mean"]) / self.stats["t_std"]


def _csr(endpoint: np.ndarray, n_customers: int) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices): each customer's transactions, ascending (a stable
    sort by customer keeps the transactions of one customer in order)."""
    txns = np.flatnonzero(endpoint >= 0).astype(np.int64)
    owners = endpoint[txns]
    indptr = np.zeros(n_customers + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(np.bincount(owners, minlength=n_customers))
    return indptr, txns[np.argsort(owners, kind="stable")]


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    mean = x.mean(axis=0) if len(x) else np.zeros(x.shape[1])
    std = x.std(axis=0) if len(x) else np.ones(x.shape[1])
    std = np.where(std < _STD_FLOOR, 1.0, std)
    return (x - mean) / std, mean, std


def _feature_row(kind: str, rid: str, features, width: int) -> np.ndarray:
    """`features` as a float row, refused unless it has `width` finite
    values; the error names the record as `kind` (customer or
    transaction) and its id."""
    f = np.asarray(features, dtype=np.float64)
    if f.shape != (width,):
        raise IngestError(f"{kind} {rid!r} has {f.shape} features, expected ({width},)")
    if not np.all(np.isfinite(f)):
        raise IngestError(f"{kind} {rid!r} has non-finite features")
    return f


def _transaction_row(t: RawTransaction, width: int) -> np.ndarray:
    """The record check of every transaction, built or scored, for one
    record: its features as a float row (see `_feature_row`), refused
    unless its timestamp is finite and one side at least is not EXTERNAL.
    `build_graph` and `resolve_transactions` make this check as one array
    check over all their records (`_transaction_block`), and run it record
    by record only to name the first record that fails."""
    f = _feature_row("transaction", t.txn_id, t.features, width)
    if not np.isfinite(float(t.timestamp)):
        raise IngestError(f"transaction {t.txn_id!r} has a non-finite timestamp")
    if t.source_customer == EXTERNAL and t.dest_customer == EXTERNAL:
        raise IngestError(f"transaction {t.txn_id!r} has no known endpoint")
    return f


def _rows(rows: list, width: int) -> np.ndarray | None:
    """`rows` as one (len(rows), width) float array when each row is
    `width` finite values, as `_feature_row` requires; else None."""
    try:
        x = np.array(rows, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    return x if x.shape == (len(rows), width) and np.isfinite(x).all() else None


def _transaction_block(transactions: Sequence[RawTransaction], width: int,
                       index: dict[str, int], present: dict | None = None):
    """(raw features, timestamps, sides) of `transactions` when every
    record passes `_transaction_row`, from one array check; else None, and
    the caller's record loop names the first record that fails. With
    `present` (ids a record may not take), a record whose id is in it or
    repeated fails too. No records give None, as a loop over them is free.

    timestamps is a list of floats; sides[k] holds the (source, dest)
    customer indices of record k in `index`, -1 for EXTERNAL and -2 for a
    customer `index` lacks.
    """
    raw = _rows([t.features for t in transactions], width)
    try:
        timestamps = [float(t.timestamp) for t in transactions]
        sides = [(index.get(t.source_customer, -1 if t.source_customer == EXTERNAL else -2),
                  index.get(t.dest_customer, -1 if t.dest_customer == EXTERNAL else -2))
                 for t in transactions]
        if present is not None:
            tids = [t.txn_id for t in transactions]
            if len(set(tids)) < len(tids) or not present.keys().isdisjoint(tids):
                return None
    except (TypeError, ValueError, OverflowError):
        return None
    if raw is None or not all(map(math.isfinite, timestamps)) or (-1, -1) in sides:
        return None
    return raw, timestamps, np.array(sides, dtype=np.int64)


def build_graph(transactions: Sequence[RawTransaction],
                profiles: Sequence[CustomerProfile]) -> BipartiteGraph:
    """Assemble the graph; node order is canonical (sorted by id)."""
    if not profiles:
        raise IngestError("no customer profiles given")
    profiles = sorted(profiles, key=lambda p: p.customer_id)
    ids = [p.customer_id for p in profiles]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise IngestError(f"duplicate customer id {a!r}")
    if EXTERNAL in set(ids):
        raise IngestError(f"{EXTERNAL!r} is reserved and cannot be a customer id")
    d_c = len(profiles[0].features)
    raw_c = _rows([p.features for p in profiles], d_c)
    if raw_c is None:   # name the first profile that fails
        raw_c = np.array([_feature_row("customer", p.customer_id, p.features, d_c)
                          for p in profiles])

    transactions = sorted(transactions, key=lambda t: t.txn_id)
    tids = [t.txn_id for t in transactions]
    for a, b in zip(tids, tids[1:]):
        if a == b:
            raise IngestError(f"duplicate transaction id {a!r}")
    index = {cid: i for i, cid in enumerate(ids)}
    d_t = len(transactions[0].features) if transactions else 0
    block = _transaction_block(transactions, d_t, index)
    if block is not None and (block[2] >= -1).all():
        raw_t, timestamps, sides = block
        timestamps = np.array(timestamps)
        o_src, i_dst = sides.T.copy()
    else:   # name the first transaction that fails, in id order
        n_t = len(transactions)
        raw_t = np.zeros((n_t, d_t))
        o_src = np.full(n_t, -1, dtype=np.int64)
        i_dst = np.full(n_t, -1, dtype=np.int64)
        timestamps = np.zeros(n_t)
        for j, t in enumerate(transactions):
            raw_t[j] = _transaction_row(t, d_t)
            timestamps[j] = float(t.timestamp)
            for side, cid, arr in (("source", t.source_customer, o_src),
                                   ("dest", t.dest_customer, i_dst)):
                if cid == EXTERNAL:
                    continue
                if cid not in index:
                    raise IngestError(f"transaction {t.txn_id!r} {side} references "
                                      f"unknown customer {cid!r}")
                arr[j] = index[cid]

    x_c, c_mean, c_std = _standardize(raw_c)
    x_t, t_mean, t_std = _standardize(raw_t)
    stats = {"c_mean": c_mean, "c_std": c_std, "t_mean": t_mean, "t_std": t_std}
    return BipartiteGraph(ids, tids, x_c, x_t, o_src, i_dst, timestamps, stats)


def resolve_transactions(g: BipartiteGraph, transactions: Sequence[RawTransaction]
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New transactions as a block against the reference graph, which
    stays untouched: (features, ends, cold).

    Row k is transaction k: its features standardized with the reference
    statistics, its (source, dest) customer indices (-1 for EXTERNAL or a
    customer the graph does not know) and its (source, dest) cold flags (a
    customer the graph does not know). Each transaction passes
    `build_graph`'s record check, and an id already in the graph or
    repeated raises IngestError.
    """
    block = _transaction_block(transactions, g.d_transaction, g.customer_index,
                               g.txn_index)
    if block is not None:
        raw, _, sides = block
        return g.standardize_transaction_features(raw), np.maximum(sides, -1), sides == -2
    # name the first transaction that fails, in order
    seen = set()
    raw = np.zeros((len(transactions), g.d_transaction))
    ends = np.full((len(transactions), 2), -1, dtype=np.int64)
    cold = np.zeros((len(transactions), 2), dtype=bool)
    for k, t in enumerate(transactions):
        if t.txn_id in g.txn_index or t.txn_id in seen:
            raise IngestError(f"transaction id {t.txn_id!r} already present")
        seen.add(t.txn_id)
        raw[k] = _transaction_row(t, g.d_transaction)
        for side, cid in enumerate((t.source_customer, t.dest_customer)):
            if cid in g.customer_index:
                ends[k, side] = g.customer_index[cid]
            else:
                cold[k, side] = cid != EXTERNAL
    return g.standardize_transaction_features(raw), ends, cold


# ---------------------------------------------------------------------------
# edge splits


@dataclass(frozen=True)
class EdgeSplit:
    """Disjoint, exhaustive partition of each direction's edges.

    Values are sorted transaction-index arrays keyed by direction.
    """
    message: dict
    supervision: dict
    validation: dict


def split_edges(g: BipartiteGraph, ratios: tuple[float, float, float],
                seed) -> EdgeSplit:
    """Partition edges into message/supervision/validation per direction."""
    msg, sup, val = ratios
    if min(ratios) < 0:
        raise ConfigError(f"split ratios must be non-negative, got {ratios}")
    if abs(msg + sup + val - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must sum to 1, got {ratios}")
    rng = as_rng(seed)
    out = {"message": {}, "supervision": {}, "validation": {}}
    for direction in DIRECTIONS:
        edges = g.edges(direction)
        perm = rng.permutation(edges)
        n = len(perm)
        c1 = int(round(msg * n))
        c2 = int(round((msg + sup) * n))
        out["message"][direction] = np.sort(perm[:c1])
        out["supervision"][direction] = np.sort(perm[c1:c2])
        out["validation"][direction] = np.sort(perm[c2:])
    return EdgeSplit(out["message"], out["supervision"], out["validation"])


# ---------------------------------------------------------------------------
# negative sampling


def sample_negatives(g: BipartiteGraph, count: int, direction: str, seed
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random (customer, transaction) non-edges of one direction.

    Pairs colliding with a real edge are redrawn; exceeding 100x`count`
    total draws aborts (the graph is too dense to reject-sample).
    """
    check_direction(direction)
    if count < 1:
        raise ConfigError(f"need at least one negative, got {count}")
    rng = as_rng(seed)
    real = g.edge_endpoints(direction)
    c_out = np.empty(count, dtype=np.int64)
    t_out = np.empty(count, dtype=np.int64)
    pending = np.arange(count)
    budget = 100 * count
    drawn = 0
    while pending.size:
        k = min(pending.size, budget - drawn)
        if k <= 0:
            raise SamplingError(
                f"negative sampling failed after {budget} draws; graph too dense")
        c = rng.integers(0, g.n_customers, size=k)
        t = rng.integers(0, g.n_transactions, size=k)
        drawn += k
        ok = real[t] != c
        sel = pending[:k]
        c_out[sel[ok]] = c[ok]
        t_out[sel[ok]] = t[ok]
        pending = np.concatenate([sel[~ok], pending[k:]])
    return c_out, t_out


# ---------------------------------------------------------------------------
# layered neighborhood sampling


@dataclass(frozen=True)
class Subgraph:
    """Layered sample around seed nodes, one row per sampled node.

    ``levels_c[h]``/``levels_t[h]`` hold the global ids of the nodes known
    after h hops. Each level is a prefix of the next (level 0 is the sorted
    seeds, then each hop's newly reached nodes, sorted), so a node keeps
    its row in every level. ``layers[i]`` maps each relation to (src, dst):
    layer i reads level depth-i and writes level depth-i-1, and src and dst
    are rows of the source and destination type. A transaction has at most
    one edge per relation, so its row names the edge: the edge's id is
    ``levels_t[-1]`` at its transaction end. Output row r of a layer is its
    input row r. Layer i's arrays are a prefix of layer i-1's: the edges
    found at hops 0..depth-i-1, in the order found.
    """
    depth: int
    levels_c: tuple
    levels_t: tuple
    layers: tuple


def _flat_neighbors(indptr, indices, frontier):
    """All CSR rows of `frontier`, flattened, plus per-row counts."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    starts = indptr[frontier].repeat(counts)
    offsets = np.arange(total, dtype=np.int64) - (counts.cumsum() - counts).repeat(counts)
    return indices[starts + offsets], counts


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of a uint64 array (wraps modulo 2**64)."""
    x = x + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _cap(owners_frontier, nbrs, counts, fanout, seed, relation):
    """Bottom-k: an owner with more than `fanout` surviving edges keeps,
    in row order, the `fanout` whose splitmix64 keys over (seed, relation,
    owner, position in the surviving row) are smallest. So a sample is a
    pure function of (seed, owner, relation, surviving row), and an owner
    within the cap keeps every edge for every seed. Returns the kept
    (nbrs, counts).
    """
    over = counts > fanout
    if not over.any():
        return nbrs, counts
    n_over = counts[over]
    group = np.arange(n_over.size).repeat(n_over)
    # position in the owner's row, and each key's rank once sorted
    pos = np.arange(group.size) - (n_over.cumsum() - n_over).repeat(n_over)
    base = _splitmix64(_splitmix64(np.array([seed], dtype=np.uint64))
                       ^ np.uint64(relation))
    owner_key = _splitmix64(base ^ owners_frontier[over].astype(np.uint64))
    keys = _splitmix64(owner_key[group] + pos.astype(np.uint64) * _GOLDEN)
    chosen = np.lexsort((keys, group))[pos < fanout]
    keep = (~over).repeat(counts)
    keep[np.flatnonzero(~keep)[chosen]] = True
    return nbrs[keep], np.minimum(counts, fanout)


def _keep_edges(nbrs, counts, keep):
    """The flattened rows' (nbrs, counts) where `keep` holds (None: all)."""
    if keep is None or keep.all():
        return nbrs, counts
    owner_pos = np.arange(len(counts)).repeat(counts)
    new_counts = np.bincount(owner_pos[keep], minlength=len(counts))
    return nbrs[keep], new_counts


# (source, destination) node type of each relation
_REL_ENDS = {OUT_FWD: ("c", "t"), OUT_REV: ("t", "c"),
             IN_FWD: ("t", "c"), IN_REV: ("c", "t")}


def _insert_sorted(at, *pairs):
    """np.insert(a, at, v) for each (a, v) of `pairs`, for non-decreasing
    `at`: v[j] lands at at[j] + j and a's items fill the other places, in
    order. It skips np.insert's general index handling, the larger part of
    its cost on the sampler's short arrays."""
    pos = at + np.arange(len(at))
    old = np.ones(len(pairs[0][0]) + len(at), dtype=bool)
    old[pos] = False
    out = []
    for a, v in pairs:
        merged = np.empty(len(old), dtype=a.dtype)
        merged[old] = a
        merged[pos] = v
        out.append(merged)
    return out


class _Rows:
    """Rows of node keys in the order `grow` first reaches them, -1 for a
    key without one: part 0's keys (below `n`) on a dense map, the
    records' keys (from `n` up) sorted beside their rows, as a record's few
    rows would leave a dense map empty. `blocks` holds the (part, id) of
    each grow's keys; the sorted keys end in a sentinel no key reaches."""

    def __init__(self, n):
        self.n, self.blocks, self.size = n, [], 0
        self.dense = np.full(n, -1, dtype=np.int64)
        self.keys, self.rows = np.array([np.iinfo(np.int64).max]), np.array([-1])

    def __getitem__(self, keys):
        dense = keys < self.n
        if dense.all():
            return self.dense[keys]
        pos = self.keys.searchsorted(keys)
        out = np.where(self.keys[pos] == keys, self.rows[pos], -1)
        out[dense] = self.dense[keys[dense]]
        return out

    def grow(self, *reached):
        """Give the next rows to the keys in `reached` without one yet;
        returns those keys, sorted, as a new block."""
        reached = np.concatenate(reached)
        new = np.sort(reached[self[reached] < 0])
        if len(new) > 1:   # drop repeats; faster than np.unique's hashing
            first = np.empty(len(new), dtype=bool)
            first[0] = True
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new[first]
        rows = np.arange(self.size, self.size + len(new))
        self.size += len(new)
        split = new.searchsorted(self.n)
        self.dense[new[:split]] = rows[:split]
        if split < len(new):
            self.keys, self.rows = _insert_sorted(self.keys.searchsorted(new[split:]),
                                                  (self.keys, new[split:]),
                                                  (self.rows, rows[split:]))
        part = new // self.n   # faster than np.divmod
        self.blocks.append((part, new - part * self.n))
        return new


def _check_sampling(fanout, num_layers, seed) -> None:
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 2 ** 64):
        raise ConfigError(f"sampling seed must be an int in [0, 2**64), got {seed!r}")
    if fanout < 1:
        raise ConfigError(f"fanout must be >= 1, got {fanout}")
    if num_layers < 1:
        raise ConfigError(f"need at least one layer, got {num_layers}")


def _seed_ids(ids, n: int, what: str) -> np.ndarray:
    """`ids` as a flat int array, refused unless each is in [0, n)."""
    ids = np.asarray(ids, dtype=np.int64).ravel()
    if len(ids) and (ids.min() < 0 or ids.max() >= n):
        raise ConfigError(f"{what} index out of range")
    return ids


def _sample(g, seeds_c, seeds_t, fanout, num_layers, seed, removed_out=None,
            removed_in=None, records=None):
    """The hop loop of every sampler: a union of parts over node keys
    part * n + id (n past every id of the key's type), so the sample is the
    block-diagonal union of each part's sample.

    Part 0 is the graph as it stands, less the `removed_*` edges, seeded
    with seeds_c and seeds_t; its keys are the node ids. Part p >= 1 is a
    record, records = (txns, customers, owner_out, owner_in), seeded with
    txns[p-1] and customers[p-1] (-1 for none): a transaction past the
    graph's gains an edge to each owner_*[p-1] (-1 for none), at the end of
    that owner's row; one of the graph loses its edges whose owner is -1.
    Each hop appends the keys it reaches first, sorted, so within a hop's
    block nodes go by (part, id). Returns the Subgraph and the part of each
    customer and transaction row.
    """
    _check_sampling(fanout, num_layers, seed)
    txns, customers, owner_out, owner_in = records or (np.empty(0, dtype=np.int64),) * 4
    n_c, n_t = g.n_customers, max(g.n_transactions, int(txns.max(initial=-1)) + 1)
    # per part: its record's transaction and owners (none for part 0)
    txn_of, owner_out, owner_in = (np.concatenate([[-1], a])
                                   for a in (txns, owner_out, owner_in))
    new = txn_of >= g.n_transactions
    hides = not new[1:].all()   # else every record is new: none hides an edge of `g`
    gains = ([np.where(new, owner, -1) for owner in (owner_out, owner_in)] if hides
             else (owner_out, owner_in))
    # each transaction's customer per direction, the removed edges gone
    ends_out, ends_in = (ends if removed is None else np.where(removed, -1, ends)
                         for ends, removed in ((g.o_src, removed_out), (g.i_dst, removed_in)))
    row_c, row_t = _Rows(n_c), _Rows(n_t)
    parts = np.arange(1, len(txn_of))
    front_c = row_c.grow(seeds_c, (parts * n_c + customers)[customers >= 0])
    front_t = row_t.grow(seeds_t, parts * n_t + txns)
    # per relation, each hop's edges: (customer keys, txn keys)
    found = {rel: [] for rel in RELATIONS}

    for _ in range(num_layers):
        part_c, ids_c = row_c.blocks[-1]
        part_t, ids_t = row_t.blocks[-1]
        for rel, indptr, indices, removed, owner, gain in (
                (OUT_REV, g.out_indptr, g.out_indices, removed_out, owner_out, gains[0]),
                (IN_FWD, g.in_indptr, g.in_indices, removed_in, owner_in, gains[1])):
            nbrs, counts = _flat_neighbors(indptr, indices, ids_c)
            nbrs, counts = _keep_edges(nbrs, counts, None if removed is None else ~removed[nbrs])
            if hides:   # a record's hidden edge leaves its customer's row
                hidden = np.where(owner[part_c] < 0, txn_of[part_c], -1).repeat(counts)
                nbrs, counts = _keep_edges(nbrs, counts, nbrs != hidden)
            at = np.flatnonzero(ids_c == gain[part_c])
            if len(at):   # a record's counterpart edge ends its owner's row
                nbrs, = _insert_sorted(counts.cumsum()[at], (nbrs, txn_of[part_c[at]]))
                counts = counts + np.bincount(at, minlength=len(counts))
            nbrs, counts = _cap(ids_c, nbrs, counts, fanout, seed, RELATIONS.index(rel))
            found[rel].append((front_c.repeat(counts), nbrs + (part_c * n_t).repeat(counts)))
        graph = ids_t != txn_of[part_t]   # else a record's own transaction
        for rel, ends, owner in ((OUT_FWD, ends_out, owner_out), (IN_REV, ends_in, owner_in)):
            custs = owner[part_t]
            custs[graph] = ends[ids_t[graph]]
            keep = custs >= 0
            found[rel].append((custs[keep] + part_t[keep] * n_c, front_t[keep]))
        front_t = row_t.grow(found[OUT_REV][-1][1], found[IN_FWD][-1][1])
        front_c = row_c.grow(found[OUT_FWD][-1][0], found[IN_REV][-1][0])

    # every relation's edges as rows, in one lookup per node type
    rows_c, rows_t = (row[np.concatenate(keys)] for row, keys in zip(
        (row_c, row_t), zip(*(hop for per_hop in found.values() for hop in per_hop))))
    edges, at = {}, 0   # relation -> ((src, dst), edges up to each hop)
    for rel, per_hop in found.items():
        ends = list(itertools.accumulate(len(t) for _, t in per_hop))
        rows = (rows_t[at:at + ends[-1]], rows_c[at:at + ends[-1]])
        edges[rel], at = (rows if _REL_ENDS[rel][0] == "t" else rows[::-1], ends), at + ends[-1]
    parts, nodes = [], []
    for rows in (row_c, row_t):
        part, ids = (np.concatenate(a) for a in zip(*rows.blocks))
        parts.append(part)
        nodes.append((ids, list(itertools.accumulate(len(ids) for _, ids in rows.blocks))))
    return _subgraph(num_layers, *nodes, edges), tuple(parts)


def sample_neighborhood_nodes(g: BipartiteGraph, seed_customers, seed_txns,
                              fanout: int, num_layers: int, seed,
                              removed_out: np.ndarray | None = None,
                              removed_in: np.ndarray | None = None) -> Subgraph:
    """Breadth-wise layered sampling from explicit seed node sets.

    Each node's neighbor sample is drawn once (at the hop the node is
    first expanded) and reused by every layer, capped at `fanout` per
    node per relation. `removed_out`/`removed_in` are boolean masks over
    transactions whose edge in that direction is treated as absent
    before sampling. Each hop appends the nodes it reaches first to the
    levels, and each edge is localized once (see `Subgraph`).

    A node's sample is a pure function of (`seed`, node, relation,
    surviving edges) (see `_cap`), whatever else is sampled with it; so
    severing equals rebuilding. `seed` is an int in [0, 2**64): training
    draws one per step, inference passes `config.seed`.
    """
    return _sample(g, _seed_ids(seed_customers, g.n_customers, "seed customer"),
                   _seed_ids(seed_txns, g.n_transactions, "seed transaction"),
                   fanout, num_layers, seed, removed_out, removed_in)[0]


def sample_records(g: BipartiteGraph, customers, txns, directions, counterparts,
                   fanout: int, num_layers: int, seed, seed_txns=(),
                   record_customers=None
                   ) -> tuple[Subgraph, tuple[np.ndarray, np.ndarray]]:
    """Sample the graph as it stands and scored records in one pass, as
    one block-diagonal union of parts, each `g` with at most one edge
    added or removed. Part 0 is `g` seeded with `customers` and
    `seed_txns`: the nodes, edges and edge order of
    `sample_neighborhood_nodes` so seeded. Part p >= 1, seeded with
    txns[p-1] and record_customers[p-1] (-1, the default, for none), is `g`
    with that transaction holding only its edge opposite directions[p-1],
    to customer counterparts[p-1] (-1 for none). A transaction from
    g.n_transactions on is new (n_transactions + k for row k of a
    `resolve_transactions` block), its edge at the end of that customer's
    row; one of `g` loses its edge in directions[p-1], and its counterpart
    must be its other end in `g`. So part p equals the record's seeds
    sampled on `g` rebuilt that way: `_cap` hashes node ids, not part keys.

    The union is hop-major: the parts' seeds, then each hop's newly reached
    nodes, sorted by (part, node) within the hop, so its levels are
    prefixes as in any sample, and level 0 holds part 0's sorted seeds,
    then each record's in record order. No edge joins two parts. Returns
    (union, (part_c, part_t)), the part of each customer and transaction row.
    """
    customers = _seed_ids(customers, g.n_customers, "seed customer")
    seed_txns = _seed_ids(seed_txns, g.n_transactions, "seed transaction")
    txns = _seed_ids(txns, np.iinfo(np.int64).max, "record transaction")
    # each record's counterpart and customer, -1 for none
    counterparts, record_customers = (np.asarray(a, dtype=np.int64).ravel() for a in (
        counterparts, np.full(len(txns), -1) if record_customers is None else record_customers))
    if not len(txns) == len(directions) == len(counterparts) == len(record_customers):
        raise ConfigError("record transactions, directions, counterparts and customers "
                          "differ in length")
    for direction in set(directions):
        check_direction(direction)
    _seed_ids(np.concatenate([counterparts, record_customers]) + 1, g.n_customers + 1,
              "counterpart or record customer")
    # the counterpart edge is the direction not predicted
    predicts_out = np.array([d == OUTGOING for d in directions], dtype=bool)
    known = (txns < g.n_transactions).nonzero()[0]
    if len(known) and (counterparts[known] != np.where(
            predicts_out[known], g.i_dst[txns[known]], g.o_src[txns[known]])).any():
        raise ConfigError("record counterpart is not its transaction's other end in the graph")
    owners = (np.where(predicts_out, -1, counterparts),
              np.where(predicts_out, counterparts, -1))
    return _sample(g, customers, seed_txns, fanout, num_layers, seed,
                   records=(txns, record_customers, *owners))


def chunk_parts(sub: Subgraph, parts, max_rows: int):
    """Cut a `sample_records` union into unions of consecutive whole parts.

    A chunk closes before the part that would take its rows (of both
    types) past `max_rows`, so a part that alone holds more is a chunk of
    its own, and a part without rows (part 0 seeded with no customers)
    joins the next; a union within the budget is one chunk, `sub` itself.
    Yields (lo, hi, union of parts lo..hi-1): its rows of each node type
    and edges of each relation in their order in `sub`, so each part keeps
    its rows and edges in order.
    """
    rows = np.bincount(np.concatenate(parts))
    ends = np.cumsum(rows)
    if len(rows) and ends[-1] <= max_rows:   # one chunk: the union as it is
        yield 0, len(rows), sub
        return
    # rows and edges grouped by part, in order within one; the part of an edge is its
    # destination's. Grouping once keeps a chunk's cost to its own rows and edges.
    part_of = dict(zip("ct", parts))
    part_of.update({rel: part_of[dst_tau][sub.layers[0][rel][1]]
                    for rel, (_, dst_tau) in _REL_ENDS.items()})
    groups = {key: (np.argsort(part, kind="stable"),
                    np.concatenate([[0], np.cumsum(np.bincount(part, minlength=len(rows)))]))
              for key, part in part_of.items()}
    new_row = {tau: np.empty(len(part), dtype=np.int64) for tau, part in zip("ct", parts)}
    lo = 0
    while lo < len(rows):
        start = ends[lo] - rows[lo]
        hi = max(int(np.searchsorted(ends, start, side="right")) + 1,
                 int(np.searchsorted(ends, start + max_rows, side="right")))
        take = {key: np.sort(order[first[lo]:first[hi]])
                for key, (order, first) in groups.items()}
        nodes = []
        for tau, levels in zip("ct", (sub.levels_c, sub.levels_t)):
            new_row[tau][take[tau]] = np.arange(len(take[tau]))
            nodes.append((levels[-1][take[tau]],
                          np.searchsorted(take[tau], [len(level) for level in levels])))
        edges = {}
        for rel, (src_tau, dst_tau) in _REL_ENDS.items():
            src, dst = (a[take[rel]] for a in sub.layers[0][rel])
            # edges up to hop k are layer depth-1-k
            hops = [len(sub.layers[sub.depth - 1 - k][rel][0]) for k in range(sub.depth)]
            edges[rel] = ((new_row[src_tau][src], new_row[dst_tau][dst]),
                          np.searchsorted(take[rel], hops))
        yield lo, hi, _subgraph(sub.depth, *nodes, edges)
        lo = hi


def _subgraph(depth, nodes_c, nodes_t, edges) -> Subgraph:
    """The Subgraph whose levels are prefixes of nodes_c = (ids, level
    lengths) and nodes_t, and whose layer j holds each relation's edges
    up to hop depth-1-j, from edges[rel] = (arrays, lengths up to each hop)."""
    levels = [tuple(ids[:n] for n in ends) for ids, ends in (nodes_c, nodes_t)]
    layers = tuple({rel: tuple(a[:ends[depth - 1 - j]] for a in arrays)
                    for rel, (arrays, ends) in edges.items()} for j in range(depth))
    return Subgraph(depth, *levels, layers)


def sample_neighborhood(g: BipartiteGraph, seed_edges, fanout: int,
                        num_layers: int, seed,
                        removed_out: np.ndarray | None = None,
                        removed_in: np.ndarray | None = None) -> Subgraph:
    """Layered sample seeded by the endpoints of (customer, txn) pairs."""
    pairs = np.asarray(seed_edges, dtype=np.int64).reshape(-1, 2)
    return sample_neighborhood_nodes(g, pairs[:, 0], pairs[:, 1], fanout,
                                     num_layers, seed, removed_out, removed_in)


def full_fanout(g: BipartiteGraph) -> int:
    """A cap no CSR row of `g` exceeds: a sample at it keeps every edge."""
    return max(1, int(np.diff(g.out_indptr).max()), int(np.diff(g.in_indptr).max()))


def full_subgraph(g: BipartiteGraph, num_layers: int) -> Subgraph:
    """Every node at every level with every edge, for full-batch encoding:
    the sampler seeded with every node, at `full_fanout`."""
    return sample_neighborhood_nodes(g, np.arange(g.n_customers),
                                     np.arange(g.n_transactions), full_fanout(g),
                                     num_layers, seed=0)


# ---------------------------------------------------------------------------
# ingestion: line-delimited records


def read_records(path: str, parse) -> list:
    """`parse(obj)` of every non-blank JSON line of a file, in order.

    A line that is not JSON, lacks a field or holds a value of the wrong
    type raises IngestError naming the file and line.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for n, line in enumerate(fh, 1):
                if line.strip():
                    out.append(parse(json.loads(line)))
        except UnicodeDecodeError as e:
            raise IngestError(f"{path}: not UTF-8 text: {e}") from e
        except KeyError as e:
            raise IngestError(f"{path}:{n}: missing field {e}") from e
        except (TypeError, ValueError, OverflowError) as e:
            raise IngestError(f"{path}:{n}: bad record: {e}") from e
    return out


def load_profiles(path: str) -> list[CustomerProfile]:
    return read_records(path, lambda obj: CustomerProfile(
        customer_id=str(obj["customer_id"]),
        features=np.asarray(obj["features"], dtype=np.float64)))


def load_transactions(path: str) -> list[RawTransaction]:
    return read_records(path, lambda obj: RawTransaction(
        txn_id=str(obj["txn_id"]),
        source_customer=str(obj["source"]),
        dest_customer=str(obj["dest"]),
        timestamp=float(obj["timestamp"]),
        features=np.asarray(obj["features"], dtype=np.float64)))


def write_profiles(path: str, profiles: Iterable[CustomerProfile]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for p in profiles:
            fh.write(json.dumps({"customer_id": p.customer_id,
                                 "features": list(map(float, p.features))}) + "\n")


def write_transactions(path: str, txns: Iterable[RawTransaction]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in txns:
            fh.write(json.dumps({"txn_id": t.txn_id,
                                 "source": t.source_customer,
                                 "dest": t.dest_customer,
                                 "timestamp": float(t.timestamp),
                                 "features": list(map(float, t.features))}) + "\n")


# ---------------------------------------------------------------------------
# snapshot persistence


def _write_strings(fh: BinaryIO, items: Sequence[str]) -> None:
    fh.write(struct.pack("<I", len(items)))
    for s in items:
        b = s.encode("utf-8")
        fh.write(struct.pack("<I", len(b)))
        fh.write(b)


def _read_strings(fh: BinaryIO) -> list[str]:
    (n,) = struct.unpack("<I", fh.read(4))
    left = bytes_left(fh)   # once: seeking to the end drops the read buffer
    out = []
    for _ in range(n):
        (ln,) = struct.unpack("<I", fh.read(4))
        if ln > left:
            raise ValueError(f"string of {ln} bytes runs past the end of the file")
        out.append(fh.read(ln).decode("utf-8"))
    return out


def _write_ints(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.int64)
    fh.write(struct.pack("<Q", arr.size))
    fh.write(arr.astype("<i8").tobytes())


def _read_ints(fh: BinaryIO) -> np.ndarray:
    (n,) = struct.unpack("<Q", fh.read(8))
    if 8 * n > bytes_left(fh):
        raise ValueError(f"{n} integers run past the end of the file")
    return np.frombuffer(fh.read(8 * n), dtype="<i8").astype(np.int64)


def save_graph(g: BipartiteGraph, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        _write_strings(fh, g.customer_ids)
        _write_strings(fh, g.txn_ids)
        write_array(fh, g.x_c)
        write_array(fh, g.x_t)
        _write_ints(fh, g.o_src)
        _write_ints(fh, g.i_dst)
        write_array(fh, g.timestamps)
        for key in ("c_mean", "c_std", "t_mean", "t_std"):
            write_array(fh, g.stats[key])


def load_graph(path: str) -> BipartiteGraph:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise IngestError(f"{path}: not a graph snapshot")
        try:
            (version,) = struct.unpack("<I", fh.read(4))
            if version != _VERSION:
                raise IngestError(f"{path}: unsupported snapshot version {version}")
            customer_ids = _read_strings(fh)
            txn_ids = _read_strings(fh)
            x_c = read_array(fh)
            x_t = read_array(fh)
            o_src = _read_ints(fh)
            i_dst = _read_ints(fh)
            timestamps = read_array(fh)
            stats = {key: read_array(fh)
                     for key in ("c_mean", "c_std", "t_mean", "t_std")}
        except (struct.error, ValueError) as e:
            raise IngestError(f"{path}: truncated or corrupt graph snapshot: {e}") from e
    _check_snapshot(path, customer_ids, txn_ids, x_c, x_t, o_src, i_dst,
                    timestamps, stats)
    return BipartiteGraph(customer_ids, txn_ids, x_c, x_t, o_src, i_dst,
                          timestamps, stats)


def _check_snapshot(path, customer_ids, txn_ids, x_c, x_t, o_src, i_dst,
                    timestamps, stats):
    """Ids are unique and no customer is EXTERNAL (as `build_graph`
    requires), array shapes agree with the id lists, endpoints are in
    range, and features, timestamps and statistics are finite with
    positive stds.

    Runs before the CSR build, so a corrupt endpoint can neither index out
    of bounds later nor size an allocation.
    """
    def bad(what):
        return IngestError(f"{path}: corrupt graph snapshot: {what}")

    for kind, ids in (("customer", customer_ids), ("transaction", txn_ids)):
        if len(set(ids)) < len(ids):
            raise bad(f"a {kind} id is repeated")
    if EXTERNAL in customer_ids:
        raise bad(f"{EXTERNAL!r} is a customer id")
    n_c, n_t = len(customer_ids), len(txn_ids)
    for name, x, n in (("x_c", x_c, n_c), ("x_t", x_t, n_t)):
        if x.ndim != 2 or x.shape[0] != n:
            raise bad(f"{name} has shape {x.shape}, expected {n} rows")
    for name, arr in (("o_src", o_src), ("i_dst", i_dst), ("timestamps", timestamps)):
        if arr.shape != (n_t,):
            raise bad(f"{name} has shape {arr.shape}, expected ({n_t},)")
    for name, ends in (("o_src", o_src), ("i_dst", i_dst)):
        if n_t and (ends.min() < -1 or ends.max() >= n_c):
            raise bad(f"{name} holds a customer index outside [-1, {n_c})")
    for key, d in (("c_mean", x_c.shape[1]), ("c_std", x_c.shape[1]),
                   ("t_mean", x_t.shape[1]), ("t_std", x_t.shape[1])):
        if stats[key].shape != (d,):
            raise bad(f"{key} has shape {stats[key].shape}, expected ({d},)")
    for name, arr in (("x_c", x_c), ("x_t", x_t), ("timestamps", timestamps),
                      *stats.items()):
        if not np.all(np.isfinite(arr)):
            raise bad(f"{name} holds a non-finite value")
    for key in ("c_std", "t_std"):
        if np.any(stats[key] <= 0):
            raise bad(f"{key} holds a non-positive value")
