"""Acceptance gate: nine end-to-end checks, one [PASS]/[FAIL] line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The desk-scale comparison (check 4) trains three models on a
40k-transaction graph and takes a few minutes on a laptop CPU.
"""

import math
import os
import time
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

import amlgraph.analytics as an
import amlgraph.baselines as bl
import amlgraph.datagen as dg
import amlgraph.evaluation as ev
import amlgraph.graph as gr
import amlgraph.model as md
import amlgraph.ndtensor as nd
import amlgraph.training as tr


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}", flush=True)


def make_graph(seed=0, n_c=6, n_t=12, d_c=5, d_t=3):
    rng = np.random.default_rng(seed)
    profiles = [gr.CustomerProfile(f"c{i:02d}", rng.normal(size=d_c))
                for i in range(n_c)]
    txns = []
    for j in range(n_t):
        src = int(rng.integers(-1, n_c))
        dst = int(rng.integers(-1, n_c))
        if src < 0 and dst < 0:
            dst = int(rng.integers(0, n_c))
        txns.append(gr.RawTransaction(
            f"t{j:03d}",
            "EXTERNAL" if src < 0 else f"c{src:02d}",
            "EXTERNAL" if dst < 0 else f"c{dst:02d}",
            float(j), rng.normal(size=d_t)))
    return gr.build_graph(txns, profiles)


@pytest.fixture(scope="module")
def small():
    """Shared holdout run: generate, train on the early window, keep all."""
    cfg = dg.SyntheticConfig(n_customers=1500, n_transactions=9000,
                             n_communities=8, external_rate=0.02, seed=0)
    profiles, txns, labels = dg.generate(cfg)
    train_txns, test_txns = dg.holdout_split(txns, 80.0)
    g = gr.build_graph(train_txns, profiles)
    tc = tr.TrainingConfig(encoder="gat", num_layers=2, hidden=32, heads=4,
                           batch_size=256, fanout=32, learning_rate=0.002,
                           max_epochs=20, patience=6, seed=0)
    split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=0)
    params, history = tr.fit(g, split, tc)
    return SimpleNamespace(cfg=cfg, profiles=profiles, labels=labels,
                           train_txns=train_txns, test_txns=test_txns,
                           g=g, tc=tc, split=split, params=params,
                           history=history)


class TestAcceptance:
    def test_1_gradient_check(self):
        """Analytic gradients of every parameter of each encoder plus the
        decoder match central finite differences on an 18-node graph."""
        g = make_graph(seed=31, n_c=6, n_t=12)
        t0 = time.perf_counter()
        worst = {}
        for kind in ("gat", "sage", "gin"):
            heads = 2 if kind == "gat" else 1
            params = md.init_params(kind, g.d_customer, g.d_transaction,
                                    2, 8, heads, seed=13)
            sub = gr.full_subgraph(g, 2)
            rng = np.random.default_rng(14)
            md.encode(params, sub, g.x_c, g.x_t, training=True, rng=rng)
            pc = rng.integers(0, g.n_customers, size=4)
            pt = rng.integers(0, g.n_transactions, size=4)
            nc = rng.integers(0, g.n_customers, size=4)
            nt = rng.integers(0, g.n_transactions, size=4)

            def forward():
                zc, zt = md.encode(params, sub, g.x_c, g.x_t)
                y_pos = md.decode(params.w_dec, nd.gather_rows(zc, pc),
                                  nd.gather_rows(zt, pt))
                y_neg = md.decode(params.w_dec, nd.gather_rows(zc, nc),
                                  nd.gather_rows(zt, nt))
                return tr.link_loss(y_pos, y_neg)

            nd.zero_grad(params.parameters())
            with nd.Tape() as tape:
                loss = forward()
            tape.backward(loss)

            h = 1e-5
            kind_worst = 0.0
            for name, t in params.named_parameters():
                analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
                fd = np.zeros_like(t.data)
                flat, fdf = t.data.reshape(-1), fd.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    up = forward().data.item()
                    flat[i] = orig - h
                    dn = forward().data.item()
                    flat[i] = orig
                    fdf[i] = (up - dn) / (2 * h)
                scale = max(np.abs(fd).max(), 1e-6)
                err = np.abs(analytic - fd).max() / scale
                kind_worst = max(kind_worst, err)
            worst[kind] = kind_worst
        elapsed = time.perf_counter() - t0
        ok = all(v < 1e-4 for v in worst.values()) and elapsed < 60.0
        detail = (" ".join(f"{k} {v:.2e}" for k, v in worst.items())
                  + f" max rel err on 18-node graph, {elapsed:.1f}s")
        _report("1 gradient-check", ok, detail)
        assert ok, detail

    def test_2_attention_normalization(self):
        """Per-destination, per-head attention sums to one on 100 random
        sampled subgraphs across all four relations."""
        g = make_graph(seed=7, n_c=10, n_t=24)
        max_dev, n_sums = 0.0, 0
        for trial in range(100):
            rng = np.random.default_rng(trial)
            params = md.init_params("gat", g.d_customer, g.d_transaction,
                                    1, 8, 2, seed=trial)
            seeds_c = rng.choice(g.n_customers, size=3, replace=False)
            seeds_t = rng.choice(g.n_transactions, size=4, replace=False)
            fanout = int(rng.integers(2, 7))
            sub = gr.sample_neighborhood_nodes(g, seeds_c, seeds_t, fanout,
                                               1, seed=1000 + trial)
            capture = []
            md.encode(params, sub, g.x_c, g.x_t, capture=capture)
            for rel in gr.RELATIONS:
                edge_alpha, self_alpha, edge_dst = capture[0][4][rel]
                sums = self_alpha.copy()
                np.add.at(sums, edge_dst, edge_alpha)
                max_dev = max(max_dev, float(np.abs(sums - 1.0).max()))
                n_sums += sums.size
        ok = max_dev <= 1e-9
        detail = (f"max |sum - 1| = {max_dev:.2e} over {n_sums} "
                  f"destination/head sums, 100 subgraphs, 4 relations")
        _report("2 attention-normalization", ok, detail)
        assert ok, detail

    def test_3_severing_invariance(self, small):
        """Scoring an edge with it severed equals scoring on a graph that
        was rebuilt from raw records without that edge."""
        g, params, tc = small.g, small.params, small.tc
        max_dev, checked = 0.0, 0
        for d in gr.DIRECTIONS:
            ends = g.edge_endpoints(d)
            for t in small.split.supervision[d][:6]:
                t = int(t)
                c = int(ends[t])
                row = [(d, c, t, 1)]
                y_with = tr.predict_pairs(params, g, row, tc)[0]
                txn_id = g.txn_ids[t]
                rebuilt = []
                for rec in small.train_txns:
                    if rec.txn_id == txn_id:
                        rec = gr.RawTransaction(
                            rec.txn_id,
                            "EXTERNAL" if d == gr.OUTGOING else rec.source_customer,
                            "EXTERNAL" if d == gr.INCOMING else rec.dest_customer,
                            rec.timestamp, rec.features)
                    rebuilt.append(rec)
                g2 = gr.build_graph(rebuilt, small.profiles)
                y_without = tr.predict_pairs(params, g2, row, tc)[0]
                max_dev = max(max_dev, abs(float(y_with) - float(y_without)))
                checked += 1
        ok = max_dev <= 1e-9
        detail = f"max |y_masked - y_rebuilt| = {max_dev:.2e} over {checked} edges"
        _report("3 severing-invariance", ok, detail)
        assert ok, detail

    def test_4_desk_scale_ordering(self):
        """At 5000 customers / 40000 transactions / 8 communities the
        attention model beats the feature-only MLP by five points, stays
        at or above the frozen-embedding two-stage, and trains quickly."""
        cfg = dg.SyntheticConfig(n_customers=5000, n_transactions=40000,
                                 n_communities=8, external_rate=0.02, seed=0)
        profiles, txns, _ = dg.generate(cfg)
        g = gr.build_graph(txns, profiles)
        tc = tr.TrainingConfig(encoder="gat", num_layers=2, hidden=32,
                               heads=4, batch_size=256, fanout=32,
                               learning_rate=0.002, max_epochs=40,
                               patience=8, seed=0)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=0)
        rows = tr.build_eval_examples(g, split, tc.seed)
        y_true = np.array([r[3] for r in rows])
        msg_g = tr.message_graph(g, split)

        t0 = time.perf_counter()
        params, _ = tr.fit(g, split, tc)
        t_gat = time.perf_counter() - t0
        gat_auc = ev.roc_auc(tr.predict_pairs(params, msg_g, rows, tc), y_true)

        t0 = time.perf_counter()
        mlp_params, _ = bl.mlp_fit(g, split, bl.MlpConfig(max_epochs=30,
                                                          patience=8, seed=0))
        t_mlp = time.perf_counter() - t0
        mlp_auc = ev.roc_auc(bl.mlp_eval_scores(mlp_params, g, rows), y_true)

        t0 = time.perf_counter()
        dgi_params, _ = bl.dgi_pretrain(msg_g, tc)
        w, _ = bl.dgi_downstream(dgi_params, g, msg_g, split, tc)
        t_dgi = time.perf_counter() - t0
        dgi_auc = ev.roc_auc(bl.dgi_eval_scores(dgi_params, w, msg_g, rows),
                             y_true)

        t_train = t_gat + t_mlp + t_dgi
        ok = (gat_auc >= 0.85 and gat_auc - mlp_auc >= 0.05
              and gat_auc >= dgi_auc and t_train < 900.0)
        detail = (f"gat {gat_auc:.4f} mlp {mlp_auc:.4f} dgi {dgi_auc:.4f} "
                  f"(gap {100 * (gat_auc - mlp_auc):+.1f}pp), training "
                  f"{t_train:.0f}s = {t_gat:.0f}+{t_mlp:.0f}+{t_dgi:.0f}")
        _report("4 desk-scale-ordering", ok, detail)
        assert ok, detail

    def test_5_planted_anomaly_scoring(self, small):
        """Held-out window: flagged cross-community transactions score
        higher anomaly than normal ones and are separable at AUC 0.7."""
        results = tr.score_transactions(small.params, small.g,
                                        small.test_txns, small.tc)
        by_txn = {}
        for r in results:
            if not r.cold_start and r.anomaly_score is not None:
                by_txn[r.txn_id] = max(by_txn.get(r.txn_id, 0.0),
                                       r.anomaly_score)
        flags = {lab.txn_id: lab.anomaly for lab in small.labels}
        ids = sorted(by_txn)
        y = np.array([by_txn[t] for t in ids])
        f = np.array([flags[t] for t in ids])
        auc = ev.roc_auc(y, f.astype(int))
        med_flag = float(np.median(y[f]))
        med_norm = float(np.median(y[~f]))
        ok = med_flag > med_norm and auc >= 0.7
        detail = (f"median flagged {med_flag:.4f} > normal {med_norm:.4f}, "
                  f"AUC {auc:.4f} over {len(ids)} scored ({int(f.sum())} flagged)")
        _report("5 planted-anomaly-scoring", ok, detail)
        assert ok, detail

    def test_6_metric_oracles(self):
        """AUC and AP equal brute-force enumeration exactly on one
        thousand random instances; the four-point hand case gives 0.75."""

        def auc_oracle(scores, labels):
            pos, neg = scores[labels == 1], scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            return (wins + 0.5 * ties) / (len(pos) * len(neg))

        def ap_oracle(scores, labels):
            order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            tp, total = 0, 0.0
            for rank, i in enumerate(order, start=1):
                if labels[i] == 1:
                    tp += 1
                    total += tp / rank
            return total / labels.sum()

        rng = np.random.default_rng(123)
        mismatches = 0
        for trial in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            if trial % 2:
                scores = rng.integers(0, 6, size=n) / 5.0
            else:
                scores = rng.random(n)
            if ev.roc_auc(scores, labels) != auc_oracle(scores, labels):
                mismatches += 1
            if ev.average_precision(scores, labels) != ap_oracle(scores, labels):
                mismatches += 1
        hand = ev.roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        ok = mismatches == 0 and hand == 0.75
        detail = (f"{mismatches} mismatches in 1000 trials (n <= 50), "
                  f"hand case AUC = {hand}")
        _report("6 metric-oracles", ok, detail)
        assert ok, detail

    def test_7_pipeline_determinism(self, tmp_path):
        """Two identically configured generate/train/score pipelines leave
        byte-identical checkpoints and score files."""
        import amlgraph.cli as cli

        def pipeline(root):
            os.makedirs(root, exist_ok=True)
            data = os.path.join(root, "data")
            graph = os.path.join(root, "graph.bin")
            model = os.path.join(root, "model.bin")
            scores = os.path.join(root, "scores.jsonl")
            steps = [
                ["gen-data", "--n-customers", "80", "--n-transactions", "600",
                 "--n-communities", "4", "--d-customer", "8",
                 "--d-transaction", "4", "--seed", "11",
                 "--holdout-boundary", "80.0", "--out-dir", data],
                ["build-graph", "--profiles",
                 os.path.join(data, "profiles.jsonl"), "--transactions",
                 os.path.join(data, "transactions_train.jsonl"),
                 "--out", graph],
                ["train", "--graph", graph, "--out", model, "--encoder",
                 "gat", "--layers", "2", "--hidden", "8", "--heads", "2",
                 "--batch-size", "32", "--epochs", "2", "--fanout", "8",
                 "--seed", "3"],
                ["score", "--graph", graph, "--model", model,
                 "--transactions",
                 os.path.join(data, "transactions_test.jsonl"),
                 "--out", scores, "--fanout", "8"],
            ]
            for step in steps:
                assert cli.main(step) == 0, step[0]
            return model, scores

        m1, s1 = pipeline(str(tmp_path / "a"))
        m2, s2 = pipeline(str(tmp_path / "b"))
        same_model = open(m1, "rb").read() == open(m2, "rb").read()
        same_scores = open(s1, "rb").read() == open(s2, "rb").read()
        ok = same_model and same_scores
        detail = (f"checkpoint identical: {same_model}, "
                  f"score file identical: {same_scores}")
        _report("7 pipeline-determinism", ok, detail)
        assert ok, detail

    def test_8_loss_composition(self):
        """With one negative per positive the pair loss equals the sum of
        the two cross-entropy terms; the all-half case gives 2 ln 2."""
        rng = np.random.default_rng(5)
        max_dev = 0.0
        for _ in range(50):
            n = int(rng.integers(1, 33))
            pos = nd.Tensor(rng.uniform(0.02, 0.98, size=(n, 1)))
            neg = nd.Tensor(rng.uniform(0.02, 0.98, size=(n, 1)))
            combined = float(tr.link_loss(pos, neg).data)
            split_sum = (float(nd.bce(pos, np.ones((n, 1))).data)
                         + float(nd.bce(neg, np.zeros((n, 1))).data))
            max_dev = max(max_dev, abs(combined - split_sum))
        half = nd.Tensor(np.array([[0.5]]))
        hand = float(tr.link_loss(half, half).data)
        hand_dev = abs(hand - 2.0 * math.log(2.0))
        ok = max_dev <= 1e-12 and hand_dev <= 1e-12
        detail = (f"max |combined - split| = {max_dev:.1e} over 50 batches, "
                  f"|loss(0.5, 0.5) - 2 ln 2| = {hand_dev:.1e}")
        _report("8 loss-composition", ok, detail)
        assert ok, detail

    def test_9_divergence_analytics(self, small):
        """Identical neighborhoods across snapshots keep cosine similarity
        at one; replacing every counterparty with a fresh community drops
        it strictly below the stable customer's."""
        g, params = small.g, small.params
        k = small.cfg.n_communities
        incident = defaultdict(list)
        partners = defaultdict(set)
        for rec in small.train_txns:
            a, b = rec.source_customer, rec.dest_customer
            for side, other in ((a, b), (b, a)):
                if side != gr.EXTERNAL:
                    incident[side].append(rec)
                    if other != gr.EXTERNAL:
                        partners[side].add(other)

        def community(cid):
            return int(cid[1:]) % k

        flip = max((c for c in incident if community(c) == 0),
                   key=lambda c: len(incident[c]))
        stable = max((c for c in incident
                      if community(c) == 2 and flip not in partners[c]),
                     key=lambda c: len(incident[c]))
        fresh = [f"c{i:06d}" for i in range(small.cfg.n_customers)
                 if i % k == 4 and f"c{i:06d}" not in partners[flip]][:5]

        flipped_ids = {rec.txn_id for rec in incident[flip]}
        snapshot_b = [rec for rec in small.train_txns
                      if rec.txn_id not in flipped_ids]
        for j, old in enumerate(incident[flip]):
            snapshot_b.append(gr.RawTransaction(
                old.txn_id, flip, fresh[j % len(fresh)],
                old.timestamp, old.features))
        g_b = gr.build_graph(snapshot_b, small.profiles)

        def embed(graph):
            c_ids, z_c, _, _ = an.compute_embeddings(params, graph)
            return dict(zip(c_ids, z_c))

        report = an.divergence_report([embed(g), embed(g_b)], [stable, flip])
        drift = {d.customer_id: d for d in report}
        mat = drift[stable].similarity
        symmetric = bool(np.all(mat == mat.T))
        unit_diag = bool(np.all(np.diag(mat) == 1.0))
        sim_stable = drift[stable].min_similarity
        sim_flip = drift[flip].min_similarity
        ok = (symmetric and unit_diag and sim_stable >= 0.99
              and sim_flip < sim_stable)
        detail = (f"stable {sim_stable:.6f} vs flipped {sim_flip:.6f} "
                  f"({len(flipped_ids)} edges rewired), matrices symmetric "
                  f"with unit diagonal: {symmetric and unit_diag}")
        _report("9 divergence-analytics", ok, detail)
        assert ok, detail
