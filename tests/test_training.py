import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amlgraph.graph as gr
import amlgraph.model as md
import amlgraph.ndtensor as nd
import amlgraph.training as tr
from amlgraph.errors import ConfigError, IngestError, NumericalError
from amlgraph.model import init_params
from amlgraph.ndtensor import Tensor
from test_graph import edge_txns


def community_graph(n_customers=24, n_txns=120, seed=7, d_c=5, d_t=3):
    """Two communities; transactions stay inside their community."""
    rng = np.random.default_rng(seed)
    half = n_customers // 2
    profiles = []
    for i in range(n_customers):
        com = 0 if i < half else 1
        feat = rng.normal(loc=3.0 * com, scale=0.5, size=d_c)
        profiles.append(gr.CustomerProfile(f"c{i:03d}", feat))
    txns = []
    for j in range(n_txns):
        com = j % 2
        lo, hi = (0, half) if com == 0 else (half, n_customers)
        src, dst = rng.choice(np.arange(lo, hi), size=2, replace=False)
        feat = rng.normal(loc=2.0 * com, scale=0.5, size=d_t)
        txns.append(gr.RawTransaction(f"t{j:04d}", f"c{src:03d}", f"c{dst:03d}",
                                      float(j), feat))
    return gr.build_graph(txns, profiles), txns


def small_config(**over):
    base = dict(encoder="gat", num_layers=2, hidden=8, heads=2,
                learning_rate=0.01, batch_size=16, negatives=1, fanout=8,
                max_epochs=4, patience=2, dropout=0.0, seed=0)
    base.update(over)
    return tr.TrainingConfig(**base)


class TestAdam:
    def test_first_step_closed_form(self):
        p = Tensor(np.array([[1.0, -2.0], [0.5, 3.0]]), requires_grad=True)
        g = np.array([[0.3, -0.1], [2.0, 0.0]])
        p.grad = g.copy()
        state = tr.AdamState([p])
        tr.adam_step(state, [p], lr=0.01)
        expected = np.array([[1.0, -2.0], [0.5, 3.0]]) - 0.01 * g / (np.abs(g) + 1e-8)
        assert np.allclose(p.data, expected, atol=1e-12)

    def test_zero_gradient_is_identity(self):
        p = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        p.grad = np.zeros((1, 2))
        q = Tensor(np.array([[5.0]]), requires_grad=True)  # grad never set
        state = tr.AdamState([p, q])
        for _ in range(3):
            tr.adam_step(state, [p, q], lr=0.1)
        assert np.array_equal(p.data, [[1.0, 2.0]])
        assert np.array_equal(q.data, [[5.0]])

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        p = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        ref = p.data.copy()
        m = np.zeros((3, 4))
        v = np.zeros((3, 4))
        state = tr.AdamState([p])
        for t in range(1, 6):
            g = rng.normal(size=(3, 4))
            p.grad = g.copy()
            tr.adam_step(state, [p], lr=0.003)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            ref = ref - 0.003 * mhat / (np.sqrt(vhat) + 1e-8)
            assert np.array_equal(p.data, ref)


class TestLinkLoss:
    def test_hand_value_at_half(self):
        pos = Tensor(np.array([[0.5]]))
        neg = Tensor(np.array([[0.5]]))
        loss = tr.link_loss(pos, neg)
        assert abs(float(loss.data) - 2.0 * np.log(2.0)) < 1e-12

    def test_single_negative_is_plain_bce_sum(self):
        rng = np.random.default_rng(3)
        pos = Tensor(rng.uniform(0.05, 0.95, size=(7, 1)))
        neg = Tensor(rng.uniform(0.05, 0.95, size=(7, 1)))
        loss = tr.link_loss(pos, neg)
        direct = nd.add(nd.bce(pos, 1.0), nd.bce(neg, 0.0))
        assert float(loss.data) == float(direct.data)

    def test_multiple_negatives_scale(self):
        rng = np.random.default_rng(4)
        pos = Tensor(rng.uniform(0.1, 0.9, size=(5, 1)))
        neg = Tensor(rng.uniform(0.1, 0.9, size=(5, 3)))
        loss = float(tr.link_loss(pos, neg).data)
        expected = -np.mean(np.log(pos.data)) - 3.0 * np.mean(np.log1p(-neg.data))
        assert abs(loss - expected) < 1e-10

    def test_gradient_flows_to_predictions(self):
        pos = Tensor(np.array([[0.6], [0.4]]), requires_grad=True)
        neg = Tensor(np.array([[0.3], [0.2]]), requires_grad=True)
        with nd.Tape() as tape:
            loss = tr.link_loss(pos, neg)
        tape.backward(loss)
        assert np.all(pos.grad < 0)   # raising y_pos lowers the loss
        assert np.all(neg.grad > 0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            tr.link_loss(Tensor(np.ones((3, 1)) * 0.5),
                         Tensor(np.ones((4, 1)) * 0.5))


class TestMessageGraph:
    def test_only_message_edges_remain(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=11)
        msg = tr.message_graph(g, split)
        for d in gr.DIRECTIONS:
            assert np.array_equal(msg.edges(d), np.sort(split.message[d]))
        assert msg.x_c is g.x_c and msg.x_t is g.x_t

    def test_severed_batch_absent_from_message_passing(self, monkeypatch):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=11)
        msg = tr.message_graph(g, split)
        cfg = small_config(fanout=8)
        params = init_params("gat", g.d_customer, g.d_transaction, 2, 8, 2)
        batch = split.supervision[gr.OUTGOING][:8]
        calls = []

        def recording_sample(*args, **kwargs):
            calls.append((args, kwargs, gr.sample_neighborhood(*args, **kwargs)))
            return calls[-1][2]

        monkeypatch.setattr(tr, "sample_neighborhood", recording_sample)
        tr.train_step(params, g, msg, split, cfg, gr.OUTGOING,
                      tr.AdamState(params.parameters()), np.random.default_rng(0),
                      batch=batch)
        (args, kwargs, sub), = calls
        pairs = np.asarray(args[1])
        assert pairs[:8, 1].tolist() == batch.tolist()
        assert np.array_equal(pairs[:8, 0], g.o_src[batch])
        neg_t = pairs[8:, 1]
        severed = set(batch.tolist()) | set(neg_t.tolist())
        assert set(np.flatnonzero(kwargs["removed_out"]).tolist()) == severed
        assert kwargs.get("removed_in") is None
        for i in range(sub.depth):
            for rel in (gr.OUT_FWD, gr.OUT_REV):
                assert not severed & set(edge_txns(sub, i, rel).tolist())


class TestTrainStep:
    def test_loss_decreases(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=1)
        cfg = small_config()
        params = init_params(cfg.encoder, g.d_customer, g.d_transaction,
                             cfg.num_layers, cfg.hidden, cfg.heads, seed=0)
        msg = tr.message_graph(g, split)
        adam = tr.AdamState(params.parameters())
        rng = np.random.default_rng(5)
        losses = []
        for step in range(60):
            d = gr.DIRECTIONS[step % 2]
            losses.append(tr.train_step(params, g, msg, split, cfg, d, adam, rng))
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) - 0.1

    def test_deterministic(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=1)
        cfg = small_config()

        def run():
            params = init_params(cfg.encoder, g.d_customer, g.d_transaction,
                                 cfg.num_layers, cfg.hidden, cfg.heads, seed=0)
            msg = tr.message_graph(g, split)
            adam = tr.AdamState(params.parameters())
            rng = np.random.default_rng(9)
            out = [tr.train_step(params, g, msg, split, cfg,
                                 gr.DIRECTIONS[s % 2], adam, rng)
                   for s in range(6)]
            return out, params

        la, pa = run()
        lb, pb = run()
        assert la == lb
        for ta, tb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_empty_supervision_rejected(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (1.0, 0.0, 0.0), seed=1)
        cfg = small_config()
        params = init_params(cfg.encoder, g.d_customer, g.d_transaction,
                             cfg.num_layers, cfg.hidden, cfg.heads)
        msg = tr.message_graph(g, split)
        adam = tr.AdamState(params.parameters())
        with pytest.raises(ConfigError):
            tr.train_step(params, g, msg, split, cfg, gr.OUTGOING, adam,
                          np.random.default_rng(0))


class TestDescend:
    def test_one_adam_step_returns_loss(self):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        p.grad = np.full((1, 2), 1e6)   # stale gradient must not leak in
        adam = tr.AdamState([p])
        value = tr.descend([p], adam, 0.1,
                           lambda: nd.sum_all(nd.hadamard(p, p)))
        assert value == 5.0
        np.testing.assert_array_equal(p.grad, [[2.0, -4.0]])
        # the first Adam step moves each coordinate by lr against its sign
        np.testing.assert_allclose(p.data, [[0.9, -1.9]], rtol=0, atol=1e-9)
        assert adam.step_count == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_loss_moves_nothing(self, bad):
        p = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        adam = tr.AdamState([p])
        with pytest.raises(NumericalError):
            tr.descend([p], adam, 0.1,
                       lambda: nd.scale(nd.sum_all(nd.hadamard(p, p)), bad))
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])
        assert adam.step_count == 0


class TestRunEpochs:
    """The shared early-stop loop on scripted losses. The snapshot is
    the index of the last epoch run, -1 before the first."""

    @staticmethod
    def drive(losses, patience, max_epochs=None):
        state = {"epoch": -1}

        def epoch_fn(epoch):
            state["epoch"] = epoch
            return {"epoch": epoch, "loss": losses[epoch]}, losses[epoch]

        best, history = tr.run_epochs(
            len(losses) if max_epochs is None else max_epochs, patience,
            epoch_fn, lambda: state["epoch"])
        return best, [row["epoch"] for row in history]

    def test_returns_best_snapshot_not_last(self):
        assert self.drive([3.0, 1.0, 2.0, 2.5], patience=5) == (1, [0, 1, 2, 3])

    def test_stops_after_patience_bad_epochs(self):
        # the counter resets on every improvement
        best, epochs = self.drive([3.0, 4.0, 2.0, 5.0, 6.0, 0.1], patience=2)
        assert (best, epochs) == (2, [0, 1, 2, 3, 4])

    def test_patience_zero_behaves_like_one(self):
        losses = [3.0, 1.0, 2.0, 0.5]
        assert self.drive(losses, patience=0) == self.drive(losses, patience=1)
        assert self.drive(losses, patience=0) == (1, [0, 1, 2])

    def test_nan_never_improves(self):
        assert self.drive([np.nan, np.nan], patience=5) == (-1, [0, 1])
        assert self.drive([2.0, np.nan, 1.0], patience=5) == (2, [0, 1, 2])
        assert self.drive([2.0, np.nan, 1.0], patience=1) == (0, [0, 1])

    def test_stops_at_max_epochs(self):
        losses = [5.0, 4.0, 3.0, 2.0, 1.0]
        assert self.drive(losses, patience=1, max_epochs=3) == (2, [0, 1, 2])


class TestFit:
    def test_history_and_best_checkpoint(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=2)
        cfg = small_config(max_epochs=5, patience=5)
        params, history = tr.fit(g, split, cfg)
        assert [row["epoch"] for row in history] == list(range(len(history)))
        assert all(np.isfinite(row["val_loss"]) for row in history)
        msg = tr.message_graph(g, split)
        pairs = tr._held_out_pairs(g, split, [cfg.seed, 2], cfg.negatives)
        best = tr.validation_loss(params, msg, pairs, cfg)
        assert best == min(row["val_loss"] for row in history)

    def test_patience_zero_stops_at_first_regression(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=2)
        cfg = small_config(max_epochs=30, patience=0, learning_rate=0.05)
        _, history = tr.fit(g, split, cfg)
        vals = [row["val_loss"] for row in history]
        for i in range(1, len(vals) - 1):
            assert vals[i] < min(vals[:i])     # improved, so training went on
        if len(history) < cfg.max_epochs:
            assert vals[-1] >= min(vals[:-1])  # the one allowed regression

    def test_deterministic_end_to_end(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=2)
        cfg = small_config(max_epochs=3)
        pa, ha = tr.fit(g, split, cfg)
        pb, hb = tr.fit(g, split, cfg)
        assert ha == hb
        for ta, tb in zip(pa.parameters(), pb.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_single_direction_graph_trains(self):
        rng = np.random.default_rng(0)
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3))
                    for i in range(10)]
        txns = [gr.RawTransaction(f"t{j}", f"c{j % 10}", gr.EXTERNAL,
                                  float(j), rng.normal(size=2))
                for j in range(40)]
        g = gr.build_graph(txns, profiles)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=0)
        cfg = small_config(max_epochs=2, batch_size=4)
        params, history = tr.fit(g, split, cfg)
        assert len(history) == 2

    def test_validation_required(self, monkeypatch):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.7, 0.3, 0.0), seed=2)
        steps = []
        monkeypatch.setattr(tr, "train_step", lambda *a, **k: steps.append(1) or 0.0)
        with pytest.raises(ConfigError, match="no validation edges in either direction"):
            tr.fit(g, split, small_config())
        assert steps == []   # refused before the first step


def old_build_eval_examples(g, split, negatives_seed):
    """The per-row loop `build_eval_examples` was: the reference of the
    one pair builder's evaluation rows."""
    rng = gr.as_rng(np.random.SeedSequence([negatives_seed, 4]))
    rows = []
    for d in gr.DIRECTIONS:
        val = split.validation[d]
        if val.size == 0:
            continue
        ends = g.edge_endpoints(d)
        for t in val:
            rows.append((d, int(ends[t]), int(t), 1))
        neg_c, neg_t = gr.sample_negatives(g, val.size, d, rng)
        rows.extend((d, int(c), int(t), 0) for c, t in zip(neg_c, neg_t))
    return rows


def old_validation_negatives(g, split, config):
    """The draws `fit`'s validation negatives were: the reference of the
    one pair builder's validation rows."""
    rng = gr.as_rng(np.random.SeedSequence([config.seed, 2]))
    negs = {}
    for d in gr.DIRECTIONS:
        n = split.validation[d].size * config.negatives
        negs[d] = gr.sample_negatives(g, n, d, rng) if n else (np.empty(0, np.int64),) * 2
    return negs


def old_validation_loss(params, g, msg_g, split, config, val_negs):
    """`validation_loss` as it was over `old_validation_negatives`."""
    blocks = [(d, cs, ts) for d in gr.DIRECTIONS
              for cs, ts in ((g.edge_endpoints(d)[split.validation[d]], split.validation[d]),
                             val_negs[d])]
    y = tr._score_pairs(params, msg_g, [d for d, _, ts in blocks for _ in range(len(ts))],
                        *(np.concatenate([b[i] for b in blocks]) for i in (1, 2)), config)
    ys = np.split(y, np.cumsum([len(ts) for _, _, ts in blocks])[:-1])
    total, count = 0.0, 0
    for y_pos, y_neg in zip(ys[::2], ys[1::2]):
        if len(y_pos):
            loss = tr.link_loss(Tensor(y_pos[:, None]), Tensor(y_neg.reshape(len(y_pos), -1)))
            total, count = total + float(loss.data) * len(y_pos), count + len(y_pos)
    return total / count


def random_split(data, n_c=10, n_t=60):
    """A small random graph and split; where `one_way`, every destination
    is EXTERNAL, so the incoming direction has no validation edge."""
    rng = np.random.default_rng(data.draw(st.integers(0, 99), label="graph"))
    one_way = data.draw(st.booleans(), label="one way")
    profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(n_c)]
    txns = [gr.RawTransaction(f"t{j:03d}", f"c{rng.integers(n_c)}",
                              gr.EXTERNAL if one_way or rng.random() < 0.15
                              else f"c{rng.integers(n_c)}", float(j), rng.normal(size=2))
            for j in range(n_t)]
    g = gr.build_graph(txns, profiles)
    val = data.draw(st.sampled_from([0.1, 0.2, 0.4]), label="validation share")
    split = gr.split_edges(g, (0.9 - val, 0.1, val),
                           seed=data.draw(st.integers(0, 2 ** 32), label="split"))
    assert not one_way or split.validation[gr.INCOMING].size == 0
    return g, split


class TestHeldOutPairs:
    """`_held_out_pairs` is the one pair builder: it gives the rows and
    draws of the loops it replaced, bitwise, and so `fit` the same
    validation losses."""

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_match_reference_loops(self, data):
        g, split = random_split(data)
        seed = data.draw(st.integers(0, 2 ** 32), label="seed")
        negatives = data.draw(st.integers(1, 3), label="negatives")
        assert tr.build_eval_examples(g, split, seed) == old_build_eval_examples(g, split, seed)
        directions, cs, ts, labels = tr._held_out_pairs(g, split, [seed, 2], negatives)
        assert cs.dtype == ts.dtype == labels.dtype == np.int64
        negs = old_validation_negatives(g, split, small_config(seed=seed, negatives=negatives))
        expect = []
        for d in gr.DIRECTIONS:
            val = split.validation[d]
            expect += [(d, int(c), int(t), 1) for c, t in zip(g.edge_endpoints(d)[val], val)]
            expect += [(d, int(c), int(t), 0) for c, t in zip(*negs[d])]
        assert list(zip(directions, cs.tolist(), ts.tolist(), labels.tolist())) == expect

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_fit_validation_losses_match_reference(self, data):
        g, split = random_split(data)
        cfg = small_config(max_epochs=2, batch_size=8,
                           negatives=data.draw(st.integers(1, 3), label="negatives"),
                           seed=data.draw(st.integers(0, 2 ** 32), label="seed"))
        seen = []
        real = tr.validation_loss

        def spy(params, msg_g, pairs, config):
            seen.append((real(params, msg_g, pairs, config), old_validation_loss(
                params, g, msg_g, split, config, old_validation_negatives(g, split, config))))
            return seen[-1][0]

        with mock.patch.object(tr, "validation_loss", side_effect=spy):
            _, history = tr.fit(g, split, cfg)
        assert [row["val_loss"] for row in history] == [new for new, _ in seen]
        assert [new.hex() for new, _ in seen] == [old.hex() for _, old in seen]


class TestEvaluateSplit:
    def test_learns_better_than_chance(self):
        g, _ = community_graph(n_customers=30, n_txns=200)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        cfg = small_config(max_epochs=6, patience=6, batch_size=32)
        params, _ = tr.fit(g, split, cfg)
        report = tr.evaluate_split(params, g, split, cfg)
        n_val = sum(split.validation[d].size for d in gr.DIRECTIONS)
        assert report["examples"] == 2 * n_val
        assert report["roc_auc"] > 0.6

    def test_examples_balanced_and_valid(self):
        g, _ = community_graph()
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=3)
        rows = tr.build_eval_examples(g, split, negatives_seed=0)
        labels = [r[3] for r in rows]
        assert sum(labels) * 2 == len(labels)
        for d, c, t, label in rows:
            real = int(g.edge_endpoints(d)[t])
            assert (real == c) == bool(label)


def severed_forward(params, msg, row, cfg):
    """One pair alone: (c, t) seeded, only t's edge in the row's direction
    severed, then encoded and decoded."""
    d, c, t = row[:3]
    removed = np.zeros(msg.n_transactions, dtype=bool)
    removed[t] = True
    sub = gr.sample_neighborhood(
        msg, [(c, t)], cfg.fanout, params.num_layers, cfg.seed,
        **{"removed_out" if d == gr.OUTGOING else "removed_in": removed})
    z_c, z_t = md.encode(params, sub, msg.x_c, msg.x_t)
    return md.decode(params.w_dec, z_c, z_t).data[0, 0]


class TestPredictPairs:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_scored_independently(self, data):
        """Each evaluation row hides only its own edge: it has the bits it
        has scored alone, in any order and beside any other rows, and the
        bits of the one-pair severed forward."""
        layers = data.draw(st.integers(1, 3), label="layers")
        negatives = data.draw(st.sampled_from([1, 2]), label="negatives")
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="graph"))
        n_c, n_t = 8, 60
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(n_c)]

        def side():   # customer 0 is a hub; about one side in seven is EXTERNAL
            if rng.random() < 0.15:
                return gr.EXTERNAL
            return f"c{0 if rng.random() < 0.4 else rng.integers(n_c)}"

        txns = []
        for j in range(n_t):
            src, dst = side(), side()
            if src == dst == gr.EXTERNAL:
                dst = "c1"
            txns.append(gr.RawTransaction(f"t{j:03d}", src, dst, float(j),
                                          rng.normal(size=2)))
        g = gr.build_graph(txns, profiles)
        split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=1)
        msg = tr.message_graph(g, split)
        cfg = small_config(num_layers=layers, fanout=2, negatives=negatives,
                           seed=data.draw(st.integers(0, 2 ** 63), label="seed"))
        assert np.diff(msg.out_indptr).max() > cfg.fanout   # the cap truncates
        params = init_params("gat", g.d_customer, g.d_transaction, layers, 8, 2, seed=2)
        # validation edges and negatives, as `validation_loss` scores them,
        # and message edges scored with their own edge hidden
        directions, *columns = tr._held_out_pairs(g, split, [cfg.seed, 2], cfg.negatives)
        rows = list(zip(directions, *(c.tolist() for c in columns)))
        rows += [(d, int(msg.edge_endpoints(d)[t]), int(t), 1) for d in gr.DIRECTIONS
                 for t in split.message[d][:4]]
        alone = [tr.predict_pairs(params, msg, [row], cfg)[0] for row in rows]
        subset = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1),
                           label="subset")
        for picked in (list(range(len(rows))), subset):
            y = tr.predict_pairs(params, msg, [rows[i] for i in picked], cfg)
            assert y.tobytes() == np.array([alone[i] for i in picked]).tobytes()
        for row, y in zip(rows, alone):
            assert y.tobytes() == severed_forward(params, msg, row, cfg).tobytes()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_far_customer_reads_part_zero(self, data):
        """A row's customer is sampled in its own part only if it lies within
        L - 1 hops, in the message graph, of the hidden edge's customer or
        transaction; a farther one is seeded in part 0, with the bits of
        the one-pair severed forward."""
        layers = data.draw(st.integers(1, 3), label="layers")
        rng = np.random.default_rng(data.draw(st.integers(0, 99), label="graph"))
        n_c = 10
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(n_c)]
        # customer 0 is a hub trading with 1, 4 and 7; the rest trade in pairs
        # (2r, 2r + 1), so 8 and 9 are far from every other customer
        ends = [(0, 1 + j % (n_c - 1)) if j % 3 == 0 else
                (int(2 * r), int(2 * r + 1)) for j, r in enumerate(rng.integers(0, n_c // 2, 45))]
        txns = [gr.RawTransaction(f"t{j:03d}", f"c{a}", f"c{b}", float(j), rng.normal(size=2))
                for j, (a, b) in enumerate(ends)]
        g = gr.build_graph(txns, profiles)
        split = gr.split_edges(g, (0.6, 0.2, 0.2), seed=1)
        msg = tr.message_graph(g, split)
        cfg = small_config(num_layers=layers, fanout=2,
                           seed=data.draw(st.integers(0, 2 ** 63), label="seed"))
        assert np.diff(msg.out_indptr).max() > cfg.fanout   # the cap truncates
        params = init_params("gat", g.d_customer, g.d_transaction, layers, 8, 2, seed=2)
        hidden = data.draw(st.lists(st.sampled_from(
            [(d, t) for d in gr.DIRECTIONS for t in msg.edges(d).tolist()]),
            min_size=1, max_size=3, unique=True), label="hidden edges")

        def hops_to(d, t):   # customer -> hops from the edge's customer or transaction
            dist = {("c", int(msg.edge_endpoints(d)[t])): 0, ("t", t): 0}
            front, hop = list(dist), 0
            while front:
                hop, reached = hop + 1, []
                for kind, node in front:
                    if kind == "t":
                        nbrs = [("c", int(e)) for e in (msg.o_src[node], msg.i_dst[node]) if e >= 0]
                    else:
                        nbrs = [("t", u) for u in range(msg.n_transactions)
                                if node in (msg.o_src[u], msg.i_dst[u])]
                    reached += [v for v in nbrs if v not in dist]
                    dist.update((v, hop) for v in nbrs if v not in dist)
                front = reached
            return {node: h for (kind, node), h in dist.items() if kind == "c"}

        calls = []

        def spy(*args, **kwargs):
            calls.append((args[1].tolist(), kwargs["record_customers"].tolist()))
            return gr.sample_records(*args, **kwargs)

        seen = set()
        for d, t in hidden:
            dist = hops_to(d, t)
            for c in range(n_c):
                row = (d, c, t, 0)
                calls.clear()
                with mock.patch.object(tr, "sample_records", side_effect=spy):
                    y = tr.predict_pairs(params, msg, [row], cfg)
                near = dist.get(c, 2 * n_c) <= layers - 1
                seen.add(near)
                assert calls == ([([], [c])] if near else [([c], [-1])])
                assert y[0].tobytes() == severed_forward(params, msg, row, cfg).tobytes()
        assert seen == {True, False}

    @pytest.mark.parametrize("bad", ["sideways", "OUTGOING"])
    def test_unknown_direction_rejected(self, trained, bad):
        g, params, cfg = trained
        t = int(g.edges(gr.OUTGOING)[0])
        rows = [(gr.OUTGOING, 0, t, 1), (bad, 0, t, 1)]
        with pytest.raises(ConfigError, match="direction"):
            tr.predict_pairs(params, g, rows, cfg)

    @pytest.mark.parametrize("what,at", [("customer", -1), ("customer", None),
                                         ("transaction", -1), ("transaction", None)])
    def test_index_out_of_range_rejected(self, trained, what, at):
        """Beside a row that hides its edge, so a bad index cannot borrow
        that row's sample."""
        g, params, cfg = trained
        t0, t1 = (int(t) for t in g.edges(gr.OUTGOING)[:2])
        n = g.n_customers if what == "customer" else g.n_transactions
        bad = n if at is None else at
        row = (gr.OUTGOING, bad, t1, 1) if what == "customer" else (gr.OUTGOING, 0, bad, 1)
        with pytest.raises(ConfigError, match=f"{what} index out of range"):
            tr.predict_pairs(params, g, [(gr.OUTGOING, 0, t0, 1), row], cfg)


@pytest.fixture(scope="module")
def trained():
    g, txns = community_graph()
    split = gr.split_edges(g, (0.5, 0.3, 0.2), seed=4)
    cfg = small_config(max_epochs=2)
    params, _ = tr.fit(g, split, cfg)
    return g, params, cfg


class TestScoring:
    def test_record_per_known_direction(self, trained):
        g, params, cfg = trained
        new = [gr.RawTransaction("n0", "c000", "c001", 999.0, [0.1, 0.2, 0.3]),
               gr.RawTransaction("n1", gr.EXTERNAL, "c002", 999.0, [0.1, 0.2, 0.3])]
        results = tr.score_transactions(params, g, new, cfg)
        keys = [(r.txn_id, r.direction) for r in results]
        assert keys == [("n0", gr.OUTGOING), ("n0", gr.INCOMING),
                        ("n1", gr.INCOMING)]
        for r in results:
            assert not r.cold_start
            assert 0.0 < r.y_hat < 1.0
            assert r.anomaly_score == 1.0 - r.y_hat

    def test_cold_start_flagged(self, trained):
        g, params, cfg = trained
        new = [gr.RawTransaction("n0", "ghost", "c001", 999.0, [0.0, 0.0, 0.0])]
        results = tr.score_transactions(params, g, new, cfg)
        out = [r for r in results if r.direction == gr.OUTGOING][0]
        inc = [r for r in results if r.direction == gr.INCOMING][0]
        assert out.cold_start and out.y_hat is None and out.anomaly_score is None
        assert not inc.cold_start and inc.y_hat is not None

    @given(data_seed=st.integers(0, 2 ** 32 - 1), size=st.integers(2, 8),
           sample_seed=st.integers(0, 2 ** 63), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_transactions_scored_independently(self, trained, data_seed, size,
                                               sample_seed, data):
        """Each record of a batch, in any order, has the bits it has when
        its transaction is scored alone, at a fanout that truncates."""
        g, params, cfg = trained
        cfg = dataclasses.replace(cfg, fanout=2, seed=sample_seed)
        # most customers have more edges than the cap on both sides
        for indptr in (g.out_indptr, g.in_indptr):
            assert np.mean(np.diff(indptr) > cfg.fanout) > 0.5
        rng = np.random.default_rng(data_seed)
        ends = [f"c{i:03d}" for i in range(24)] + [gr.EXTERNAL, "ghost"]
        new = []
        for j in range(size):
            src, dst = rng.choice(len(ends), size=2, replace=False)
            new.append(gr.RawTransaction(f"n{j}", ends[src], ends[dst], 999.0,
                                         rng.normal(size=3)))
        batch = [new[i] for i in data.draw(st.permutations(range(size)))]
        together = tr.score_transactions(params, g, batch, cfg)
        alone = [r for t in batch for r in tr.score_transactions(params, g, [t], cfg)]
        assert together == alone

    @pytest.mark.parametrize("wide", [False, True])
    def test_chunking_changes_no_bit(self, trained, monkeypatch, wide):
        """Records encoded in chunks of any size score bit-identically;
        the row budget is varied from one record per encode to all."""
        g, params, cfg = trained
        cfg = dataclasses.replace(cfg, fanout=2)
        if wide:   # products of widths where plain BLAS is not row-exact
            cfg = dataclasses.replace(cfg, num_layers=3, hidden=32)
            params = init_params("gat", g.d_customer, g.d_transaction, 3, 32, 2,
                                 seed=4)
        assert np.diff(g.out_indptr).max() > cfg.fanout   # the cap truncates
        rng = np.random.default_rng(8)
        ends = [f"c{i:03d}" for i in range(24)] + [gr.EXTERNAL, "ghost"]
        new = []
        for j in range(15):
            src, dst = rng.choice(len(ends), size=2, replace=False)
            new.append(gr.RawTransaction(f"n{j}", ends[src], ends[dst], 999.0,
                                         rng.normal(size=3)))
        encodes = []

        def counting_encode(*args, **kwargs):
            encodes.append(1)
            return md.encode(*args, **kwargs)

        samples = []

        def counting_sample(*args, **kwargs):
            samples.append(1)
            return gr.sample_records(*args, **kwargs)

        monkeypatch.setattr(tr, "encode", counting_encode)
        monkeypatch.setattr(tr, "sample_records", counting_sample)
        budgets = (1, 2, 7, 40, 150, tr._SCORE_CHUNK_ROWS)
        runs, calls, sampled = [], [], []
        for rows in budgets:
            monkeypatch.setattr(tr, "_SCORE_CHUNK_ROWS", rows)
            encodes.clear()
            samples.clear()
            runs.append(tr.score_transactions(params, g, new, cfg))
            calls.append(len(encodes))
            sampled.append(len(samples))
        warm = sum(r.y_hat is not None for r in runs[0])
        # part 0 (the customers decoded against) and one per record, then
        # ever fewer, down to one encode of part 0 with every record
        assert warm > 7 and calls[0] == 1 + warm and calls[-1] == 1
        assert calls == sorted(calls, reverse=True) and len(set(calls)) >= 4
        # one sampler call per block of at most `rows` records
        assert sampled == [-(-warm // rows) for rows in budgets]
        assert all(run == runs[0] for run in runs[1:])

    def test_deterministic(self, trained):
        g, params, cfg = trained
        new = [gr.RawTransaction("n0", "c000", "c013", 999.0, [0.1, 0.2, 0.3])]
        ra = tr.score_transactions(params, g, new, cfg)
        rb = tr.score_transactions(params, g, new, cfg)
        assert [(r.y_hat, r.anomaly_score) for r in ra] == \
               [(r.y_hat, r.anomaly_score) for r in rb]

    def test_empty_input(self, trained):
        g, params, cfg = trained
        assert tr.score_transactions(params, g, [], cfg) == []

    def test_reference_graph_untouched(self):
        g, _ = community_graph(seed=5)

        def arrays():
            out = {name: getattr(g, name) for name in (
                "x_c", "x_t", "o_src", "i_dst", "timestamps", "out_indptr",
                "out_indices", "in_indptr", "in_indices")}
            out.update({f"stats.{k}": v for k, v in g.stats.items()})
            return out

        before = {name: arr.copy() for name, arr in arrays().items()}
        for arr in arrays().values():
            arr.flags.writeable = False  # an in-place write raises
        rng = np.random.default_rng(5)
        new = [gr.RawTransaction("x0", "c000", "c001", 500.0, rng.normal(size=3)),
               gr.RawTransaction("x1", "c000", "ghost", 501.0, rng.normal(size=3)),
               gr.RawTransaction("x2", gr.EXTERNAL, "c005", 502.0, rng.normal(size=3))]
        params = init_params("gat", g.d_customer, g.d_transaction, 2, 8, 2, seed=0)
        results = tr.score_transactions(params, g, new, small_config(fanout=2))
        assert len(results) == 5   # one cold
        for name, arr in arrays().items():
            assert arr.dtype == before[name].dtype, name
            assert arr.tobytes() == before[name].tobytes(), name
        assert g.n_transactions == 120

    @pytest.mark.parametrize("ids", [["t0000"], ["n0", "n0"]],
                             ids=["in-graph", "repeated"])
    def test_duplicate_id_rejected(self, trained, ids):
        g, params, cfg = trained
        new = [gr.RawTransaction(tid, "c000", "c001", 999.0, [0.1, 0.2, 0.3])
               for tid in ids]
        with pytest.raises(IngestError, match="already present"):
            tr.score_transactions(params, g, new, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, trained, bad):
        g, params, cfg = trained
        new = [gr.RawTransaction("n0", "c000", "c001", 999.0, [0.1, bad, 0.3])]
        with pytest.raises(IngestError, match="non-finite features"):
            tr.score_transactions(params, g, new, cfg)

    @pytest.mark.parametrize("source,dest,timestamp,message", [
        ("c000", "c001", np.nan, "has a non-finite timestamp"),
        ("c000", "c001", np.inf, "has a non-finite timestamp"),
        (gr.EXTERNAL, gr.EXTERNAL, 999.0, "has no known endpoint")],
        ids=["nan-timestamp", "inf-timestamp", "both-external"])
    def test_refused_as_build_graph_refuses(self, trained, source, dest,
                                            timestamp, message):
        """A transaction `build_graph` refuses is refused, with its message."""
        g, params, cfg = trained
        t = gr.RawTransaction("n0", source, dest, timestamp, [0.1, 0.2, 0.3])
        profiles = [gr.CustomerProfile(c, g.x_c[i])
                    for i, c in enumerate(g.customer_ids)]
        errors = []
        for call in (lambda: gr.build_graph([t], profiles),
                     lambda: tr.score_transactions(params, g, [t], cfg)):
            with pytest.raises(IngestError) as e:
                call()
            errors.append(str(e.value))
        assert errors[0] == errors[1] == f"transaction 'n0' {message}"

    def test_results_round_trip(self, trained, tmp_path):
        g, params, cfg = trained
        new = [gr.RawTransaction("n0", "c000", "ghost", 999.0, [0.1, 0.2, 0.3])]
        results = tr.score_transactions(params, g, new, cfg)
        path = str(tmp_path / "scores.jsonl")
        tr.write_results(path, results)
        assert tr.read_results(path) == results


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("num_layers", 0), ("batch_size", 1), ("negatives", 0), ("fanout", 0),
        ("learning_rate", 0.0), ("learning_rate", float("nan")),
        ("learning_rate", float("inf")), ("learning_rate", float("-inf")),
        ("dropout", 1.0), ("dropout", -0.1),
        ("max_epochs", 0), ("patience", -1), ("seed", -1)])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            small_config(**{field: value}).validate()
