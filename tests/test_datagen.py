import os

import numpy as np
import pytest

import amlgraph.cli as cli
import amlgraph.datagen as dg
import amlgraph.graph as gr
from amlgraph.errors import ConfigError


def small_cfg(**over):
    base = dict(n_customers=200, n_transactions=1500, n_communities=4,
                d_customer=8, d_transaction=4, anomaly_rate=0.03,
                external_rate=0.05, ring_size=5, seed=0)
    base.update(over)
    return dg.SyntheticConfig(**base)


def reference_generate(config):
    """`generate` as it was written record by record, with `Generator.choice`
    picking each counterpart: the reference the array form must equal."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 11]))
    n, k = config.n_customers, config.n_communities
    community, rings, ring_of = dg.assign_structure(config)
    by_community = [np.flatnonzero(community == c) for c in range(k)]

    def pick_other(members, exclude, weights):
        pool = members[members != exclude]
        if pool.size == 0:
            return int(members[0])
        w = weights[pool]
        return int(pool[rng.choice(pool.size, p=w / w.sum())])

    d_profile = config.d_customer - dg.AGGREGATE_DIMS
    prototypes = rng.normal(0.0, dg.PROFILE_SEPARATION, size=(k, d_profile))
    base_profiles = prototypes[community] + rng.normal(size=(n, d_profile))
    mu_amount = 2.0 + dg.AMOUNT_SEPARATION * np.arange(k)
    peak_hour = (3.0 * np.arange(k)) % 24.0
    activity = np.exp(rng.normal(0.0, config.activity_skew, size=n))
    timestamps = rng.uniform(0.0, config.time_span, size=config.n_transactions)
    kinds = rng.uniform(size=config.n_transactions)
    src_all = rng.choice(n, size=config.n_transactions, p=activity / activity.sum())

    transactions, labels = [], []
    noise_dims = config.d_transaction - 3
    for j in range(config.n_transactions):
        src = int(src_all[j])
        com = int(community[src])
        anomalous = kinds[j] < config.anomaly_rate
        external = (not anomalous
                    and kinds[j] < config.anomaly_rate + config.external_rate)
        if anomalous:
            other_com = int((com + 1 + rng.integers(k - 1)) % k)
            dst = pick_other(by_community[other_com], src, activity)
            log_amount = rng.normal(float(mu_amount.mean()) + 3.5, 0.5)
            hour = rng.uniform(0.0, 24.0)
        else:
            u = rng.uniform()
            ring = rings[ring_of[src]]
            if u < config.in_ring_rate and ring.size > 1:
                dst = pick_other(ring, src, activity)
            elif u < config.in_ring_rate + config.in_community_rate:
                dst = pick_other(by_community[com], src, activity)
            else:
                dst = pick_other(np.arange(n), src, activity)
            log_amount = rng.normal(mu_amount[com], 0.5)
            hour = rng.normal(peak_hour[com], 2.0) % 24.0
        features = np.empty(config.d_transaction)
        features[0] = np.exp(log_amount)
        features[1] = np.sin(2.0 * np.pi * hour / 24.0)
        features[2] = np.cos(2.0 * np.pi * hour / 24.0)
        if noise_dims:
            features[3:] = rng.normal(size=noise_dims)
        src_id, dst_id = f"c{src:06d}", f"c{dst:06d}"
        src_com, dst_com = com, int(community[dst])
        if external:
            if rng.uniform() < 0.5:
                src_id, src_com = gr.EXTERNAL, -1
            else:
                dst_id, dst_com = gr.EXTERNAL, -1
        transactions.append(gr.RawTransaction(f"t{j:07d}", src_id, dst_id,
                                              float(timestamps[j]), features))
        labels.append(dg.TxnLabel(f"t{j:07d}", bool(anomalous), src_com, dst_com))

    warmup_end = config.warmup_fraction * config.time_span
    agg = np.zeros((n, dg.AGGREGATE_DIMS))
    for txn in transactions:
        if txn.timestamp >= warmup_end:
            continue
        amount = float(txn.features[0])
        if txn.source_customer != gr.EXTERNAL:
            i = int(txn.source_customer[1:])
            agg[i, 0] += 1.0
            agg[i, 2] += amount
        if txn.dest_customer != gr.EXTERNAL:
            i = int(txn.dest_customer[1:])
            agg[i, 1] += 1.0
            agg[i, 3] += amount
    profiles = [gr.CustomerProfile(
        f"c{i:06d}", np.concatenate([base_profiles[i], np.log1p(agg[i])]))
        for i in range(n)]
    return profiles, transactions, labels


def _fields(record):
    """Every field of a record, arrays as (dtype, shape, bytes), each value
    with its type, so that equal fields are equal byte for byte."""
    return [(type(v), (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v)
            for v in vars(record).values()]


# The config grid of the reference comparison: seeds, a ring of 2 with a
# merged leftover member (202 customers over 4 communities), anomaly and
# external rates at 0 and high, no activity skew, no noise dimensions, and
# a single community.
REFERENCE_GRID = [dict(seed=s) for s in range(4)] + [
    dict(ring_size=2, n_customers=202), dict(anomaly_rate=0.0), dict(anomaly_rate=0.3),
    dict(external_rate=0.0), dict(external_rate=0.5), dict(activity_skew=0.0),
    dict(d_transaction=3), dict(n_communities=1, anomaly_rate=0.0)]


class TestReferenceGenerator:
    @pytest.mark.parametrize("over", REFERENCE_GRID, ids=lambda o: ",".join(
        f"{k}={v}" for k, v in o.items()))
    def test_every_field_equals_reference(self, over):
        cfg = small_cfg(**over)
        got, want = dg.generate(cfg), reference_generate(cfg)
        for records, expected in zip(got, want):
            assert len(records) == len(expected)
            for a, b in zip(records, expected):
                assert type(a) is type(b) and _fields(a) == _fields(b)

    def test_gen_data_files_equal_reference(self, tmp_path, monkeypatch):
        argv = ["gen-data", "--n-customers", "202", "--n-transactions", "900",
                "--n-communities", "4", "--d-transaction", "5", "--seed", "3",
                "--holdout-boundary", "60"]
        assert cli.main(argv + ["--out-dir", str(tmp_path / "new")]) == 0
        monkeypatch.setattr(dg, "generate", reference_generate)
        assert cli.main(argv + ["--out-dir", str(tmp_path / "ref")]) == 0
        names = sorted(os.listdir(tmp_path / "ref"))
        assert sorted(os.listdir(tmp_path / "new")) == names
        for name in names:
            if name != "manifest.json":   # it names its own directory
                assert ((tmp_path / "new" / name).read_bytes()
                        == (tmp_path / "ref" / name).read_bytes()), name


class TestGenerate:
    def test_counts_and_ids(self):
        cfg = small_cfg()
        profiles, txns, labels = dg.generate(cfg)
        assert len(profiles) == cfg.n_customers
        assert len(txns) == len(labels) == cfg.n_transactions
        assert [p.customer_id for p in profiles] == sorted(
            p.customer_id for p in profiles)
        assert all(t.txn_id == lab.txn_id for t, lab in zip(txns, labels))

    def test_zero_anomaly_rate_means_zero_flags(self):
        _, _, labels = dg.generate(small_cfg(anomaly_rate=0.0))
        assert not any(lab.anomaly for lab in labels)

    def test_anomaly_count_near_expectation(self):
        cfg = small_cfg(n_transactions=5000)
        _, _, labels = dg.generate(cfg)
        count = sum(lab.anomaly for lab in labels)
        expected = cfg.n_transactions * cfg.anomaly_rate
        slack = 4.0 * np.sqrt(expected * (1.0 - cfg.anomaly_rate))
        assert abs(count - expected) < slack

    def test_activity_skew_concentrates_sources(self):
        def top_decile_share(skew):
            _, txns, _ = dg.generate(small_cfg(activity_skew=skew,
                                               external_rate=0.0))
            counts = np.zeros(200)
            for t in txns:
                counts[int(t.source_customer[1:])] += 1
            counts.sort()
            return counts[-20:].sum() / counts.sum()

        assert top_decile_share(2.0) > 2.0 * top_decile_share(0.0)

    def test_anomalies_cross_community_never_external(self):
        _, txns, labels = dg.generate(small_cfg())
        flagged = [(t, lab) for t, lab in zip(txns, labels) if lab.anomaly]
        assert flagged
        for t, lab in flagged:
            assert t.source_customer != gr.EXTERNAL
            assert t.dest_customer != gr.EXTERNAL
            assert lab.src_community != lab.dst_community
            assert lab.src_community >= 0 and lab.dst_community >= 0

    def test_normal_txns_respect_ring_structure(self):
        cfg = small_cfg(anomaly_rate=0.0, external_rate=0.0,
                        n_transactions=4000)
        community, rings, ring_of = dg.assign_structure(cfg)
        _, txns, _ = dg.generate(cfg)
        same_ring = same_com = 0
        for t in txns:
            s, d = int(t.source_customer[1:]), int(t.dest_customer[1:])
            same_com += community[s] == community[d]
            same_ring += ring_of[s] == ring_of[d]
        n = len(txns)
        assert same_ring / n > cfg.in_ring_rate - 0.05
        assert same_com / n > cfg.in_ring_rate + cfg.in_community_rate - 0.05

    def test_external_sides_appear_and_are_labeled(self):
        _, txns, labels = dg.generate(small_cfg(external_rate=0.2))
        ext = [(t, lab) for t, lab in zip(txns, labels)
               if gr.EXTERNAL in (t.source_customer, t.dest_customer)]
        assert len(ext) > 0.1 * len(txns)
        for t, lab in ext:
            if t.source_customer == gr.EXTERNAL:
                assert lab.src_community == -1
            else:
                assert lab.dst_community == -1

    def test_anomalous_amounts_out_of_distribution(self):
        _, txns, labels = dg.generate(small_cfg(n_transactions=4000))
        amounts = np.array([t.features[0] for t in txns])
        flags = np.array([lab.anomaly for lab in labels])
        assert np.median(amounts[flags]) > 10 * np.median(amounts[~flags])

    def test_profile_aggregates_match_warmup_activity(self):
        cfg = small_cfg()
        profiles, txns, _ = dg.generate(cfg)
        warm_end = cfg.warmup_fraction * cfg.time_span
        agg = np.zeros((cfg.n_customers, dg.AGGREGATE_DIMS))
        for t in txns:
            if t.timestamp >= warm_end:
                continue
            if t.source_customer != gr.EXTERNAL:
                i = int(t.source_customer[1:])
                agg[i, 0] += 1.0
                agg[i, 2] += t.features[0]
            if t.dest_customer != gr.EXTERNAL:
                i = int(t.dest_customer[1:])
                agg[i, 1] += 1.0
                agg[i, 3] += t.features[0]
        for i, p in enumerate(profiles):
            assert np.array_equal(np.asarray(p.features)[-dg.AGGREGATE_DIMS:],
                                  np.log1p(agg[i]))

    def test_bitwise_deterministic(self, tmp_path):
        cfg = small_cfg()
        pa, ta, la = dg.generate(cfg)
        pb, tb, lb = dg.generate(cfg)
        assert la == lb
        for x, y in zip(pa, pb):
            assert x.customer_id == y.customer_id
            assert np.array_equal(np.asarray(x.features), np.asarray(y.features))
        f1, f2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        gr.write_transactions(str(f1), ta)
        gr.write_transactions(str(f2), tb)
        assert f1.read_bytes() == f2.read_bytes()

    def test_feeds_build_graph(self):
        profiles, txns, _ = dg.generate(small_cfg())
        g = gr.build_graph(txns, profiles)
        assert g.n_customers == 200
        assert g.n_transactions == 1500


class TestHoldout:
    def test_boundary_semantics(self):
        txns = [gr.RawTransaction(f"t{i}", "a", "b", float(i), [0.0])
                for i in range(10)]
        train, test = dg.holdout_split(txns, 4.0)
        assert [t.txn_id for t in train] == [f"t{i}" for i in range(4)]
        assert [t.txn_id for t in test] == [f"t{i}" for i in range(4, 10)]
        assert all(t.timestamp < 4.0 for t in train)
        assert all(t.timestamp >= 4.0 for t in test)

    def test_extreme_boundaries(self):
        txns = [gr.RawTransaction("t0", "a", "b", 1.0, [0.0])]
        assert dg.holdout_split(txns, 0.0) == ([], txns)
        assert dg.holdout_split(txns, 5.0) == (txns, [])


class TestLabelsFile:
    def test_round_trip(self, tmp_path):
        _, _, labels = dg.generate(small_cfg(n_transactions=50))
        path = str(tmp_path / "labels.jsonl")
        dg.write_labels(path, labels)
        assert dg.load_labels(path) == labels

    def test_bad_record_rejected(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"txn_id": "t0"}\n')
        from amlgraph.errors import IngestError
        with pytest.raises(IngestError):
            dg.load_labels(str(path))


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_communities", 0), ("n_customers", 7), ("n_transactions", 0),
        ("d_customer", 4), ("d_transaction", 2), ("anomaly_rate", -0.1),
        ("anomaly_rate", 1.5), ("external_rate", 2.0), ("ring_size", 1),
        ("time_span", 0.0), ("seed", -1), ("warmup_fraction", 1.2),
        ("activity_skew", -0.5)])
    def test_bad_values(self, field, value):
        cfg = small_cfg()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_rate_sum_checked(self):
        with pytest.raises(ConfigError):
            small_cfg(anomaly_rate=0.6, external_rate=0.6).validate()
        with pytest.raises(ConfigError):
            small_cfg(in_ring_rate=0.8, in_community_rate=0.3).validate()

    def test_anomalies_need_two_communities(self):
        with pytest.raises(ConfigError):
            small_cfg(n_communities=1, anomaly_rate=0.1).validate()
