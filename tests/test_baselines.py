import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amlgraph.baselines as bl
import amlgraph.graph as gr
import amlgraph.ndtensor as nd
import amlgraph.training as tr
from amlgraph.errors import ConfigError
from amlgraph.model import init_params
from amlgraph.ndtensor import Tensor


def community_graph(n_customers=24, n_txns=120, seed=7, d_c=5, d_t=3,
                    external_every=0):
    rng = np.random.default_rng(seed)
    half = n_customers // 2
    profiles = [gr.CustomerProfile(f"c{i:03d}",
                                   rng.normal(loc=3.0 * (i >= half), scale=0.5,
                                              size=d_c))
                for i in range(n_customers)]
    txns = []
    for j in range(n_txns):
        com = j % 2
        lo, hi = (0, half) if com == 0 else (half, n_customers)
        src, dst = rng.choice(np.arange(lo, hi), size=2, replace=False)
        dst_id = f"c{dst:03d}"
        if external_every and j % external_every == 0:
            dst_id = gr.EXTERNAL
        txns.append(gr.RawTransaction(
            f"t{j:04d}", f"c{src:03d}", dst_id, float(j),
            rng.normal(loc=2.0 * com, scale=0.5, size=d_t)))
    return gr.build_graph(txns, profiles)


def small_tc(**over):
    base = dict(encoder="gat", num_layers=2, hidden=8, heads=2,
                learning_rate=0.01, batch_size=16, negatives=1, fanout=8,
                max_epochs=10, patience=4, dropout=0.0, seed=0)
    base.update(over)
    return tr.TrainingConfig(**base)


def edge_list_subgraph(g, num_layers):
    """Every node and edge, built straight from o_src/i_dst (oracle)."""
    all_c = np.arange(g.n_customers, dtype=np.int64)
    all_t = np.arange(g.n_transactions, dtype=np.int64)
    out_t, in_t = g.edges(gr.OUTGOING), g.edges(gr.INCOMING)
    rels = {gr.OUT_FWD: (g.o_src[out_t], out_t),
            gr.OUT_REV: (out_t, g.o_src[out_t]),
            gr.IN_FWD: (in_t, g.i_dst[in_t]),
            gr.IN_REV: (g.i_dst[in_t], in_t)}
    return gr.Subgraph(num_layers, (all_c,) * (num_layers + 1),
                       (all_t,) * (num_layers + 1), (rels,) * num_layers)


class TestFullSubgraph:
    def test_relation_edge_counts(self):
        """Each relation of each layer holds exactly the graph's edges of
        its direction, with the endpoints o_src/i_dst name."""
        g = community_graph(external_every=5)
        sub = gr.full_subgraph(g, 2)
        expect = {gr.OUT_FWD: ("c", "t", g.o_src), gr.OUT_REV: ("t", "c", g.o_src),
                  gr.IN_FWD: ("t", "c", g.i_dst), gr.IN_REV: ("c", "t", g.i_dst)}
        levels = {"c": sub.levels_c, "t": sub.levels_t}
        for h, layer in enumerate(sub.layers):
            for rel, (src_tau, dst_tau, ends) in expect.items():
                src, dst = layer[rel]
                src_ids = levels[src_tau][sub.depth - h][src]
                dst_ids = levels[dst_tau][sub.depth - h - 1][dst]
                cust, txn = (src_ids, dst_ids) if src_tau == "c" else (dst_ids, src_ids)
                real = np.flatnonzero(ends >= 0)
                assert sorted(zip(txn.tolist(), cust.tolist())) == \
                    list(zip(real.tolist(), ends[real].tolist()))

    def test_encode_matches_exhaustive_sampling(self):
        """The sampler at a cap no row exceeds encodes bit-identically to a
        subgraph built straight from the edge lists, forward and backward,
        for every encoder at 1-3 layers."""
        g = community_graph(external_every=5)
        for kind in ("gat", "sage", "gin"):
            for layers in (1, 2, 3):
                params = init_params(kind, g.d_customer, g.d_transaction, layers,
                                     8, 2 if kind == "gat" else 1, seed=layers)
                runs = [self._forward_backward(params, g, sub) for sub in
                        (gr.full_subgraph(g, layers), edge_list_subgraph(g, layers))]
                assert any(a is not None for a in runs[0][2:])   # backward ran
                for a, b in zip(*runs):
                    np.testing.assert_array_equal(a, b)

    @staticmethod
    def _forward_backward(params, g, sub):
        """Embeddings, then the gradient of every parameter of their mean."""
        from amlgraph.model import encode
        nd.zero_grad(params.parameters())
        with nd.Tape() as tape:
            z_c, z_t = encode(params, sub, g.x_c, g.x_t, training=True,
                              rng=np.random.default_rng(0))
            loss = nd.mean_rows(nd.transpose2d(
                nd.add(nd.mean_rows(z_c), nd.mean_rows(z_t))))
        tape.backward(loss)
        return [z_c.data, z_t.data] + [p.grad for p in params.parameters()]


class TestMlpForward:
    def warmed(self, d_in=6, widths=(5, 4), seed=0, rows=12):
        params = bl.MlpParams(d_in, widths, seed=seed)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(rows, d_in))
        with nd.Tape() as tape:
            out = bl.mlp_forward(params, Tensor(x), training=True,
                                 rng=np.random.default_rng(2), dropout_p=0.0)
            loss = nd.sum_all(out)
        tape.backward(loss)
        return params, x

    def test_gradients_match_finite_differences(self):
        params, x = self.warmed()
        y = (np.arange(12) % 2).astype(np.float64).reshape(-1, 1)

        def loss_value():
            return float(nd.bce(bl.mlp_forward(params, Tensor(x)), y).data)

        tensors = params.parameters()
        nd.zero_grad(tensors)
        with nd.Tape() as tape:
            loss = nd.bce(bl.mlp_forward(params, Tensor(x)), y)
        tape.backward(loss)
        h = 1e-5
        for t in tensors:
            fd = np.zeros_like(t.data)
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_value()
                flat[i] = orig - h
                down = loss_value()
                flat[i] = orig
                fd.reshape(-1)[i] = (up - down) / (2 * h)
            scale = max(np.abs(fd).max(), 1e-6)
            assert np.abs(t.grad - fd).max() / scale < 1e-4

    def test_zero_parameters_predict_half(self):
        params = bl.MlpParams(4, (3,), seed=0)
        for t in params.parameters():
            t.data[...] = 0.0
        assert np.array_equal(bl.mlp_predict(params, np.ones((5, 4))),
                              np.full(5, 0.5))

    def test_input_width_checked(self):
        params = bl.MlpParams(4, (3,), seed=0)
        with pytest.raises(ConfigError):
            bl.mlp_predict(params, np.ones((2, 5)))

    def test_copy_is_deep(self):
        params, _ = self.warmed()
        dup = params.copy()
        dup.layers[0]["w"].data[0, 0] += 1.0
        dup.bn[0]["state"].running_mean[0] += 1.0
        assert params.layers[0]["w"].data[0, 0] != dup.layers[0]["w"].data[0, 0]
        assert params.bn[0]["state"].running_mean[0] != \
            dup.bn[0]["state"].running_mean[0]


class TestTripleFeatures:
    def test_layout_and_external_zeros(self):
        g = community_graph(external_every=3)
        t_ext = int(np.flatnonzero(g.i_dst < 0)[0])
        x = bl.triple_features(g, [g.o_src[t_ext]], [g.i_dst[t_ext]], [t_ext])
        d = g.d_customer
        assert np.array_equal(x[0, :d], g.x_c[g.o_src[t_ext]])
        assert np.array_equal(x[0, d:2 * d], np.zeros(d))
        assert np.array_equal(x[0, 2 * d:], g.x_t[t_ext])

    def test_corrupt_keeps_transaction_features(self):
        g = community_graph()
        txns = np.arange(10, dtype=np.int64)
        x = bl.corrupt_triples(g, txns, np.random.default_rng(0))
        assert np.array_equal(x[:, 2 * g.d_customer:], g.x_t[txns])


class TestMlpFit:
    def test_loss_decreases_and_beats_chance(self):
        g = community_graph(n_customers=30, n_txns=200)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        cfg = bl.MlpConfig(widths=(16, 8), batch_size=64, max_epochs=12,
                           patience=12, seed=0)
        params, history = bl.mlp_fit(g, split, cfg)
        assert history[-1]["val_loss"] < history[0]["val_loss"]
        rows = tr.build_eval_examples(g, split, negatives_seed=0)
        scores = bl.mlp_eval_scores(params, g, rows)
        labels = np.array([r[3] for r in rows])
        from amlgraph.evaluation import roc_auc
        assert roc_auc(scores, labels) > 0.6

    def test_deterministic(self):
        g = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        cfg = bl.MlpConfig(widths=(8,), batch_size=32, max_epochs=3,
                           patience=3, seed=1)
        pa, ha = bl.mlp_fit(g, split, cfg)
        pb, hb = bl.mlp_fit(g, split, cfg)
        assert ha == hb
        for ta, tb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_training_excludes_validation_txns(self):
        g = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        train = bl._non_validation_txns(g, split)
        val = bl._validation_txns(split)
        assert not set(train.tolist()) & set(val.tolist())
        assert train.size + val.size == g.n_transactions

    def test_eval_rows_substitute_candidate(self):
        g = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        rows = tr.build_eval_examples(g, split, negatives_seed=0)
        d, c, t, label = rows[0]
        assert d == gr.OUTGOING and label == 1
        params = bl.MlpParams(2 * g.d_customer + g.d_transaction, (4,), seed=0)
        x = bl.triple_features(g, [c], [g.i_dst[t]], [t])
        assert np.array_equal(bl.mlp_eval_scores(params, g, [rows[0]]),
                              bl.mlp_predict(params, x))


class TestDgi:
    def test_shuffle_preserves_column_multisets(self):
        x = np.random.default_rng(0).normal(size=(50, 4))
        shuffled = bl.shuffle_rows(x, np.random.default_rng(1))
        assert not np.array_equal(x, shuffled)
        assert np.array_equal(np.sort(x, axis=0), np.sort(shuffled, axis=0))

    def test_pretrain_loss_decreases(self):
        g = community_graph()
        cfg = small_tc(max_epochs=15, patience=15, learning_rate=0.02)
        _, history = bl.dgi_pretrain(g, cfg)
        losses = [row["train_loss"] for row in history]
        assert min(losses[5:]) < losses[0]

    def test_embeddings_frozen_and_deterministic(self):
        g = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=5)
        cfg = small_tc(max_epochs=3, patience=3)
        params, _ = bl.dgi_pretrain(g, cfg)
        msg = tr.message_graph(g, split)
        before_c, before_t = bl.dgi_embeddings(params, msg)
        w, history = bl.dgi_downstream(params, g, msg, split, cfg)
        after_c, after_t = bl.dgi_embeddings(params, msg)
        assert np.array_equal(before_c, after_c)
        assert np.array_equal(before_t, after_t)
        assert all(np.isfinite(row["val_loss"]) for row in history)

    def test_downstream_scores_learn(self):
        g = community_graph(n_customers=30, n_txns=200)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=5)
        cfg = small_tc(max_epochs=20, patience=20, learning_rate=0.02)
        params, _ = bl.dgi_pretrain(g, cfg)
        msg = tr.message_graph(g, split)
        w, _ = bl.dgi_downstream(params, g, msg, split, cfg)
        rows = tr.build_eval_examples(g, split, negatives_seed=1)
        scores = bl.dgi_eval_scores(params, w, msg, rows)
        labels = np.array([r[3] for r in rows])
        assert np.all((scores > 0) & (scores < 1))
        from amlgraph.evaluation import roc_auc
        assert roc_auc(scores, labels) > 0.55

    def test_pretrain_deterministic(self):
        g = community_graph()
        cfg = small_tc(max_epochs=3, patience=3)
        pa, ha = bl.dgi_pretrain(g, cfg)
        pb, hb = bl.dgi_pretrain(g, cfg)
        assert ha == hb
        for ta, tb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(ta.data, tb.data)


def without_edge(g, direction, t):
    """`g` rebuilt with transaction t's edge in `direction` gone."""
    o_src, i_dst = g.o_src.copy(), g.i_dst.copy()
    (o_src if direction == gr.OUTGOING else i_dst)[t] = -1
    return gr.BipartiteGraph(g.customer_ids, g.txn_ids, g.x_c, g.x_t, o_src, i_dst,
                             g.timestamps, g.stats)


def frozen_product(params, w, g, rows):
    """Each row's `dgi_embeddings` product of `g` through `w`."""
    z_c, z_t = bl.dgi_embeddings(params, g)
    cs, ts = (np.array([r[i] for r in rows], dtype=np.int64) for i in (1, 2))
    return nd.sigmoid(nd.matmul(Tensor(z_c[cs] * z_t[ts]), Tensor(w.data))).data[:, 0]


class TestDgiSharedPath:
    """DGI's held-out rows are scored on the graph model's path: a row
    reads every message edge but its own."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_hide_only_their_own_edge(self, data):
        layers = data.draw(st.integers(1, 3), label="layers")
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="graph"))
        n_c = 8
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(n_c)]

        def side():   # customer 0 is a hub; about one side in seven is EXTERNAL
            if rng.random() < 0.15:
                return gr.EXTERNAL
            return f"c{0 if rng.random() < 0.4 else rng.integers(n_c)}"

        txns = []
        for j in range(50):
            src, dst = side(), side()
            txns.append(gr.RawTransaction(f"t{j:03d}", src, "c1" if src == dst == gr.EXTERNAL
                                          else dst, float(j), rng.normal(size=2)))
        g = gr.build_graph(txns, profiles)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=1)
        msg = tr.message_graph(g, split)
        params = init_params("gat", g.d_customer, g.d_transaction, layers, 8, 2, seed=layers)
        w = Tensor(rng.normal(size=(8, 1)))
        rows = tr.build_eval_examples(g, split, data.draw(st.integers(0, 99), label="seed"))
        rows += [(d, int(msg.edge_endpoints(d)[t]), int(t), 1) for d in gr.DIRECTIONS
                 for t in split.message[d][:5]]
        hides = np.array([msg.edge_endpoints(d)[t] >= 0 for d, _, t, _ in rows])
        assert hides.any() and not hides.all()
        y = bl.dgi_eval_scores(params, w, msg, rows)
        assert y[~hides].tobytes() == frozen_product(
            params, w, msg, [r for r, h in zip(rows, hides) if not h]).tobytes()
        for row, y_row in zip([r for r, h in zip(rows, hides) if h], y[hides]):
            rebuilt = without_edge(msg, row[0], row[2])
            assert y_row.tobytes() == frozen_product(params, w, rebuilt, [row]).tobytes()


class TestPairScorersRefuseBadRows:
    """Every pair scorer refuses the same malformed rows with ConfigError."""

    @pytest.fixture(scope="class")
    def models(self):
        g = community_graph(external_every=5)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        msg = tr.message_graph(g, split)
        cfg = small_tc()
        params = init_params("gat", g.d_customer, g.d_transaction, 2, 8, 2, seed=0)
        mlp = bl.MlpParams(2 * g.d_customer + g.d_transaction, (4,), seed=0)
        return msg, {
            "gat": lambda rows: tr.predict_pairs(params, msg, rows, cfg),
            "mlp": lambda rows: bl.mlp_eval_scores(mlp, msg, rows),
            "dgi": lambda rows: bl.dgi_eval_scores(params, Tensor(np.ones((8, 1))), msg, rows)}

    @pytest.mark.parametrize("scorer", ["gat", "mlp", "dgi"])
    @pytest.mark.parametrize("bad,match", [
        (("sideways", 0, 0), "direction"), (("OUTGOING", 0, 0), "direction"),
        ((gr.OUTGOING, -1, 0), "customer index"), ((gr.INCOMING, "n_c", 0), "customer index"),
        ((gr.OUTGOING, 0, -1), "transaction index"),
        ((gr.INCOMING, 0, "n_t"), "transaction index")])
    def test_bad_row_rejected(self, models, scorer, bad, match):
        msg, score = models
        n = {"n_c": msg.n_customers, "n_t": msg.n_transactions}
        d, c, t = (n.get(v, v) for v in bad)
        good = (gr.OUTGOING, 0, int(msg.edges(gr.OUTGOING)[0]), 1)
        assert np.isfinite(score[scorer]([good])).all()
        with pytest.raises(ConfigError, match=match):
            score[scorer]([good, (d, c, t, 1)])


class TestMlpConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("widths", ()), ("widths", (0,)), ("learning_rate", 0.0),
        ("batch_size", 1), ("dropout", 1.0), ("max_epochs", 0),
        ("patience", -1), ("seed", -1)])
    def test_bad_values_rejected(self, field, value):
        cfg = bl.MlpConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()
