"""Synthetic customer/transaction generator with planted anomalies.

Customers belong to communities and, inside each community, to small
rings of habitual counterparties. Ring membership shapes the edge
structure but is absent from every feature, so it rewards models that
read the graph. Community membership leaks weakly into profiles,
amounts and activity hours. Anomalous transactions pair customers from
different communities and carry out-of-distribution amounts; the truth
is written to a separate labels file that the pipeline never reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import EXTERNAL, CustomerProfile, RawTransaction, read_records

AGGREGATE_DIMS = 4   # appended to each profile from warm-up activity
PROFILE_SEPARATION = 0.15   # spread of the community profile prototypes
AMOUNT_SEPARATION = 0.08    # step in mean log-amount from one community to the next


@dataclass
class SyntheticConfig:
    n_customers: int = 5000
    n_transactions: int = 25000
    n_communities: int = 8
    d_customer: int = 66
    d_transaction: int = 12
    anomaly_rate: float = 0.02
    external_rate: float = 0.05
    ring_size: int = 5
    in_ring_rate: float = 0.9
    in_community_rate: float = 0.05
    activity_skew: float = 1.2
    time_span: float = 100.0
    warmup_fraction: float = 0.2
    seed: int = 0

    def validate(self) -> None:
        if self.n_communities < 1:
            raise ConfigError("need at least one community")
        if self.n_customers < 2 * self.n_communities:
            raise ConfigError("need at least two customers per community")
        if self.n_transactions < 1:
            raise ConfigError("need at least one transaction")
        if self.d_customer < AGGREGATE_DIMS + 1:
            raise ConfigError(f"d_customer must be > {AGGREGATE_DIMS}")
        if self.d_transaction < 3:
            raise ConfigError("d_transaction must be >= 3 (amount and hour)")
        for name in ("anomaly_rate", "external_rate", "in_ring_rate",
                     "in_community_rate", "warmup_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.anomaly_rate + self.external_rate > 1.0:
            raise ConfigError("anomaly_rate + external_rate must not exceed 1")
        if self.in_ring_rate + self.in_community_rate > 1.0:
            raise ConfigError("in_ring_rate + in_community_rate must not exceed 1")
        if self.anomaly_rate > 0.0 and self.n_communities < 2:
            raise ConfigError("cross-community anomalies need >= 2 communities")
        if self.ring_size < 2:
            raise ConfigError("ring_size must be >= 2")
        if self.activity_skew < 0:
            raise ConfigError("activity_skew must be >= 0")
        if self.time_span <= 0:
            raise ConfigError("time_span must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class TxnLabel:
    txn_id: str
    anomaly: bool
    src_community: int
    dst_community: int   # -1 when the side is EXTERNAL


def _choice_cdf(members: np.ndarray, exclude: int, weights: np.ndarray):
    """(pool, cdf) of `_pick_other`: `members` less `exclude`, and the CDF
    that `Generator.choice(pool.size, p=w / w.sum())` builds over their
    weights w. The cdf is None when `exclude` is the only member."""
    pool = members[members != exclude]
    if pool.size == 0:
        return members[:1], None
    w = weights[pool]
    cdf = (w / w.sum()).cumsum()
    cdf /= cdf[-1]
    return pool, cdf


def _pick_other(rng, pool: np.ndarray, cdf: np.ndarray | None) -> int:
    """Activity-proportional member of a `_choice_cdf` pool.

    The draw-order contract: it takes one `rng.random()`, the one draw
    `rng.choice(pool.size, p=w / w.sum())` takes, and picks the member
    `choice` picks from it, so every later draw of `generate` is the same
    as with `choice`. It draws nothing when cdf is None.
    """
    if cdf is None:
        return int(pool[0])
    return int(pool[cdf.searchsorted(rng.random(), side="right")])


def assign_structure(config: SyntheticConfig
                     ) -> tuple[np.ndarray, list[np.ndarray], np.ndarray]:
    """Deterministic community and ring membership per customer index."""
    n, k = config.n_customers, config.n_communities
    community = np.arange(n, dtype=np.int64) % k
    ring_of = np.zeros(n, dtype=np.int64)
    rings: list[np.ndarray] = []
    for c in range(k):
        members = np.flatnonzero(community == c)
        for lo in range(0, members.size, config.ring_size):
            chunk = members[lo:lo + config.ring_size]
            if chunk.size == 1 and rings:
                rings[-1] = np.concatenate([rings[-1], chunk])
                ring_of[chunk] = len(rings) - 1
                continue
            ring_of[chunk] = len(rings)
            rings.append(chunk)
    return community, rings, ring_of


def generate(config: SyntheticConfig
             ) -> tuple[list[CustomerProfile], list[RawTransaction], list[TxnLabel]]:
    """Deterministically build profiles, transactions and truth labels."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    n, k = config.n_customers, config.n_communities
    community, rings, ring_of = assign_structure(config)
    by_community = [np.flatnonzero(community == c) for c in range(k)]

    d_profile = config.d_customer - AGGREGATE_DIMS
    prototypes = rng.normal(0.0, PROFILE_SEPARATION, size=(k, d_profile))
    base_profiles = prototypes[community] + rng.normal(size=(n, d_profile))

    mu_amount = 2.0 + AMOUNT_SEPARATION * np.arange(k)
    peak_hour = (3.0 * np.arange(k)) % 24.0

    # heavy-tailed per-customer activity; skew 0 degenerates to uniform
    activity = np.exp(rng.normal(0.0, config.activity_skew, size=n))
    timestamps = rng.uniform(0.0, config.time_span, size=config.n_transactions)
    kinds = rng.uniform(size=config.n_transactions)
    src_all = rng.choice(n, size=config.n_transactions,
                         p=activity / activity.sum())

    # Only the RNG calls stay in the loop, in their order: ids, features,
    # labels and aggregates are built from its arrays afterwards.
    n_t = config.n_transactions
    anomalous = kinds < config.anomaly_rate
    external = ~anomalous & (kinds < config.anomaly_rate + config.external_rate)
    in_community = config.in_ring_rate + config.in_community_rate
    anomaly_mean = float(mu_amount.mean()) + 3.5
    everyone = np.arange(n)
    ring_cdfs = {}   # each customer's ring pool and CDF, by customer
    dst_all = np.empty(n_t, dtype=np.int64)
    log_amount = np.empty(n_t)
    hour = np.empty(n_t)
    features = np.empty((n_t, config.d_transaction))
    external_src = np.zeros(n_t, dtype=bool)   # else the dest side is EXTERNAL
    noise_dims = config.d_transaction - 3
    for j, (src, com, anom, ext) in enumerate(zip(
            src_all.tolist(), community[src_all].tolist(), anomalous.tolist(),
            external.tolist())):
        if anom:
            other_com = int((com + 1 + rng.integers(k - 1)) % k)
            dst_all[j] = _pick_other(rng, *_choice_cdf(by_community[other_com], src,
                                                       activity))
            log_amount[j] = rng.normal(anomaly_mean, 0.5)
            hour[j] = rng.uniform(0.0, 24.0)
        else:
            u = rng.uniform()
            ring = rings[ring_of[src]]
            if u < config.in_ring_rate and ring.size > 1:
                if src not in ring_cdfs:
                    ring_cdfs[src] = _choice_cdf(ring, src, activity)
                dst_all[j] = _pick_other(rng, *ring_cdfs[src])
            elif u < in_community:
                dst_all[j] = _pick_other(rng, *_choice_cdf(by_community[com], src, activity))
            else:
                dst_all[j] = _pick_other(rng, *_choice_cdf(everyone, src, activity))
            log_amount[j] = rng.normal(mu_amount[com], 0.5)
            hour[j] = rng.normal(peak_hour[com], 2.0) % 24.0
        if noise_dims:
            features[j, 3:] = rng.normal(size=noise_dims)
        if ext:
            external_src[j] = rng.uniform() < 0.5

    features[:, 0] = np.exp(log_amount)
    features[:, 1] = np.sin(2.0 * np.pi * hour / 24.0)
    features[:, 2] = np.cos(2.0 * np.pi * hour / 24.0)
    src_ext, dst_ext = external & external_src, external & ~external_src
    names = np.array([f"c{i:06d}" for i in range(n)] + [EXTERNAL], dtype=object)
    txn_ids = [f"t{j:07d}" for j in range(n_t)]
    transactions = [RawTransaction(*record) for record in zip(
        txn_ids, names[np.where(src_ext, n, src_all)].tolist(),
        names[np.where(dst_ext, n, dst_all)].tolist(), timestamps.tolist(), features)]
    labels = [TxnLabel(*label) for label in zip(
        txn_ids, anomalous.tolist(), np.where(src_ext, -1, community[src_all]).tolist(),
        np.where(dst_ext, -1, community[dst_all]).tolist())]

    # warm-up aggregates: early-window activity folded into the profile;
    # bincount adds in transaction order
    warm = timestamps < config.warmup_fraction * config.time_span
    src_warm, dst_warm = warm & ~src_ext, warm & ~dst_ext
    agg = np.column_stack([
        np.bincount(src_all[src_warm], minlength=n), np.bincount(dst_all[dst_warm], minlength=n),
        np.bincount(src_all[src_warm], weights=features[src_warm, 0], minlength=n),
        np.bincount(dst_all[dst_warm], weights=features[dst_warm, 0], minlength=n)])
    rows = np.hstack([base_profiles, np.log1p(agg)])
    profiles = [CustomerProfile(cid, row) for cid, row in zip(names[:n].tolist(), rows)]
    return profiles, transactions, labels


def holdout_split(transactions: list[RawTransaction], boundary: float
                  ) -> tuple[list[RawTransaction], list[RawTransaction]]:
    """Time split: strictly earlier than the boundary trains, the rest tests."""
    train = [t for t in transactions if t.timestamp < boundary]
    test = [t for t in transactions if t.timestamp >= boundary]
    return train, test


def write_labels(path: str, labels: list[TxnLabel]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lab in labels:
            fh.write(json.dumps({
                "txn_id": lab.txn_id, "anomaly": lab.anomaly,
                "src_community": lab.src_community,
                "dst_community": lab.dst_community}) + "\n")


def _parse_label(obj: dict) -> TxnLabel:
    label = TxnLabel(obj["txn_id"], obj["anomaly"], obj["src_community"],
                     obj["dst_community"])
    if type(label.txn_id) is not str or type(label.anomaly) is not bool:
        raise ValueError(f"txn_id {label.txn_id!r} is not a string or anomaly "
                         f"{label.anomaly!r} is not a bool")
    if not all(type(c) is int for c in (label.src_community, label.dst_community)):
        raise ValueError(f"communities {label.src_community!r}, "
                         f"{label.dst_community!r} are not integers")
    return label


def load_labels(path: str) -> list[TxnLabel]:
    """Labels as `write_labels` writes them; a field of the wrong type
    (an `anomaly` that is not a JSON bool, a community that is not an
    integer) raises IngestError naming the file and line."""
    return read_records(path, _parse_label)
