"""Encoders and decoder: formula oracles, invariants, gradient checks."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlgraph import graph as gr
from amlgraph import model as md
from amlgraph import ndtensor as nd
from amlgraph.errors import ConfigError, DimensionError, IngestError
from test_ndtensor import reference_gat_relation


def make_graph(seed=0, n_c=6, n_t=18, d_c=5, d_t=3):
    rng = np.random.default_rng(seed)
    profiles = [gr.CustomerProfile(f"c{i:02d}", rng.normal(size=d_c)) for i in range(n_c)]
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


def full_sub(g, depth, seeds_c=None, seeds_t=None):
    if seeds_c is None:
        seeds_c = np.arange(g.n_customers)
    if seeds_t is None:
        seeds_t = np.arange(g.n_transactions)
    return gr.sample_neighborhood_nodes(g, seeds_c, seeds_t, fanout=10 ** 6,
                                        num_layers=depth, seed=0)


def captured_attention(params, sub, g, layer=0):
    """The per-relation attention `encode` records for one layer."""
    capture = []
    md.encode(params, sub, g.x_c, g.x_t, capture=capture)
    return capture[layer][4]


def warm_bn(params, sub, g, seed=5):
    """Populate running stats so inference-mode batch norm is non-trivial."""
    rng = np.random.default_rng(seed)
    md.encode(params, sub, g.x_c, g.x_t, training=True, rng=rng)


class TestDecode:
    def test_zero_embedding_gives_half(self):
        w = nd.Tensor(np.random.default_rng(0).normal(size=(4, 1)), requires_grad=True)
        z0 = nd.Tensor(np.zeros((3, 4)))
        z = nd.Tensor(np.random.default_rng(1).normal(size=(3, 4)))
        np.testing.assert_allclose(md.decode(w, z0, z).data, 0.5, atol=1e-15)

    def test_zero_weights_give_half(self):
        w = nd.Tensor(np.zeros((4, 1)))
        rng = np.random.default_rng(2)
        a, b = nd.Tensor(rng.normal(size=(5, 4))), nd.Tensor(rng.normal(size=(5, 4)))
        np.testing.assert_allclose(md.decode(w, a, b).data, 0.5, atol=1e-15)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        w = nd.Tensor(rng.normal(size=(6, 1)))
        a, b = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
        got = md.decode(w, nd.Tensor(a), nd.Tensor(b)).data
        expect = 1.0 / (1.0 + np.exp(-((a * b) @ w.data)))
        np.testing.assert_allclose(got, expect, atol=1e-12)

    def test_argument_symmetry(self):
        rng = np.random.default_rng(4)
        w = nd.Tensor(rng.normal(size=(6, 1)))
        a, b = nd.Tensor(rng.normal(size=(7, 6))), nd.Tensor(rng.normal(size=(7, 6)))
        np.testing.assert_array_equal(md.decode(w, a, b).data, md.decode(w, b, a).data)

    def test_dim_mismatch(self):
        w = nd.Tensor(np.zeros((4, 1)))
        with pytest.raises(DimensionError):
            md.decode(w, nd.Tensor(np.zeros((2, 4))), nd.Tensor(np.zeros((2, 3))))
        with pytest.raises(DimensionError):
            md.decode(w, nd.Tensor(np.zeros((2, 5))), nd.Tensor(np.zeros((2, 5))))

    def test_anomaly_score_is_complement(self):
        y = np.random.default_rng(5).uniform(size=10)
        np.testing.assert_allclose(md.anomaly_score(y) + y, 1.0, atol=1e-15)
        assert md.anomaly_score(0.5) == 0.5


class TestInit:
    def test_deterministic(self):
        a = md.init_params("gat", 5, 3, 2, 8, 2, seed=7)
        b = md.init_params("gat", 5, 3, 2, 8, 2, seed=7)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_bad_config(self):
        with pytest.raises(ConfigError):
            md.init_params("tree", 5, 3)
        with pytest.raises(ConfigError):
            md.init_params("gat", 5, 3, hidden=10, heads=4)

    def test_heads_forced_to_one_for_non_gat(self):
        p = md.init_params("sage", 5, 3, 2, 8, heads=4)
        assert p.heads == 1


class TestAttention:
    def test_sums_to_one_random_subgraphs(self):
        g = make_graph(seed=11, n_c=8, n_t=40)
        params = md.init_params("gat", g.d_customer, g.d_transaction, 1, 8, 2, seed=1)
        for trial in range(20):
            rng = np.random.default_rng(trial)
            seeds_c = rng.choice(g.n_customers, size=3, replace=False)
            sub = gr.sample_neighborhood_nodes(g, seeds_c, [], fanout=3,
                                               num_layers=1, seed=trial)
            attention = captured_attention(params, sub, g)
            for rel in (gr.OUT_REV, gr.IN_FWD):
                edge_alpha, self_alpha, edge_dst = attention[rel]
                sums = self_alpha.copy()
                np.add.at(sums, edge_dst, edge_alpha)
                np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_one_neighbor_plus_self(self):
        g = gr.build_graph(
            [gr.RawTransaction("t", "A", "EXTERNAL", 0.0, np.array([1.0, 2.0]))],
            [gr.CustomerProfile("A", np.array([0.5, -1.0, 2.0]))])
        params = md.init_params("gat", 3, 2, 1, 8, 2, seed=2)
        sub = full_sub(g, 1)
        edge_alpha, self_alpha, _ = captured_attention(params, sub, g)[gr.OUT_REV]
        assert edge_alpha.shape == (1, 2)
        np.testing.assert_allclose(edge_alpha + self_alpha, 1.0, atol=1e-12)

    def test_identical_neighbors_equal_coefficients(self):
        feats = np.array([3.0, -1.0])
        txns = [gr.RawTransaction(f"t{j}", "A", "EXTERNAL", float(j), feats.copy())
                for j in range(4)]
        g = gr.build_graph(txns, [gr.CustomerProfile("A", np.array([1.0, 2.0, 3.0]))])
        params = md.init_params("gat", 3, 2, 1, 8, 2, seed=3)
        sub = full_sub(g, 1)
        edge_alpha, _, _ = captured_attention(params, sub, g)[gr.OUT_REV]
        spread = edge_alpha.max(axis=0) - edge_alpha.min(axis=0)
        np.testing.assert_allclose(spread, 0.0, atol=1e-12)

    def test_three_neighbor_direct_formula(self):
        rng = np.random.default_rng(13)
        txns = [gr.RawTransaction(f"t{j}", "A", "EXTERNAL", float(j), rng.normal(size=2))
                for j in range(3)]
        g = gr.build_graph(txns, [gr.CustomerProfile("A", rng.normal(size=3))])
        params = md.init_params("gat", 3, 2, 1, 8, 2, seed=4)
        sub = full_sub(g, 1)
        z_c, z_t = g.x_c[sub.levels_c[1]], g.x_t[sub.levels_t[1]]
        edge_alpha, self_alpha, _ = captured_attention(params, sub, g)[gr.OUT_REV]

        p = params.layers[0]
        heads, dh = 2, 4
        h_self = z_c @ p["w_self_c"].data       # (1, 8)
        h_src = z_t @ p["w_out_rev"].data       # (3, 8)
        a_dst = p["a_dst_out_rev"].data[0]
        a_src = p["a_src_out_rev"].data[0]

        def leaky(x):
            return np.where(x > 0, x, 0.2 * x)

        for k in range(heads):
            blk = slice(k * dh, (k + 1) * dh)
            e = [leaky(a_dst[blk] @ h_self[0, blk] + a_src[blk] @ h_src[j, blk])
                 for j in range(3)]
            e_self = leaky(a_dst[blk] @ h_self[0, blk] + a_src[blk] @ h_self[0, blk])
            ex = np.exp(np.array(e + [e_self]))
            alpha = ex / ex.sum()
            # rows of edge_alpha follow the localized edge order (src_local asc)
            order = np.argsort(sub.layers[0][gr.OUT_REV][0])
            np.testing.assert_allclose(edge_alpha[order, k], alpha[:3], atol=1e-12)
            np.testing.assert_allclose(self_alpha[0, k], alpha[3], atol=1e-12)

    def test_non_gat_rejected(self):
        """sage and gin compute no attention, so every layer records none."""
        g = make_graph(seed=12)
        sub = full_sub(g, 2)
        for kind in ("sage", "gin"):
            params = md.init_params(kind, g.d_customer, g.d_transaction, 2, 8)
            capture = []
            md.encode(params, sub, g.x_c, g.x_t, capture=capture)
            assert [rec[4] for rec in capture] == [{}, {}]

    def test_every_relation_every_layer(self):
        g = make_graph(seed=14, n_c=8, n_t=40)
        params = md.init_params("gat", g.d_customer, g.d_transaction, 3, 8, 2, seed=6)
        sub = gr.sample_neighborhood_nodes(g, [0, 3], [5], fanout=3,
                                           num_layers=3, seed=2)
        capture = []
        md.encode(params, sub, g.x_c, g.x_t, capture=capture)
        for i, (c_ids, _, t_ids, _, attention) in enumerate(capture):
            assert set(attention) == set(gr.RELATIONS)
            for rel, (edge_alpha, self_alpha, edge_dst) in attention.items():
                n_out = len(c_ids if rel in md.DEST_RELATIONS["c"] else t_ids)
                assert self_alpha.shape == (n_out, 2)
                assert edge_alpha.shape == (len(edge_dst), 2)
                np.testing.assert_array_equal(edge_dst, sub.layers[i][rel][1])
                sums = self_alpha.copy()
                np.add.at(sums, edge_dst, edge_alpha)
                np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_capture_changes_nothing(self):
        g = make_graph(seed=15, n_c=8, n_t=40)
        sub = full_sub(g, 2)
        for kind, heads in (("gat", 2), ("sage", 1), ("gin", 1)):
            params = md.init_params(kind, g.d_customer, g.d_transaction, 2, 8,
                                    heads, seed=7)
            warm_bn(params, sub, g)
            plain = md.encode(params, sub, g.x_c, g.x_t)
            capture = []
            captured = md.encode(params, sub, g.x_c, g.x_t, capture=capture)
            snapshots = (capture[-1][1], capture[-1][3])
            for a, b, snap in zip(plain, captured, snapshots):
                assert a.data.tobytes() == b.data.tobytes()
                assert a.data.tobytes() == snap.tobytes()


def reference_gat_dest(params, p, dest, edges, z_src, z_self, n_out, attention):
    """`_gat_dest` through the op chain `gat_aggregate` replaced (forward only)."""
    h_self = nd.matmul(nd.prefix_rows(z_self, n_out), p[f"w_self_{dest}"]).data
    agg = None
    for rel in md.DEST_RELATIONS[dest]:
        src, dst = edges[rel]
        h_src = nd.matmul(z_src, p[f"w_{rel}"]).data
        contrib, edge_alpha, self_alpha = reference_gat_relation(
            h_src, h_self, p[f"a_src_{rel}"].data, p[f"a_dst_{rel}"].data, src, dst,
            params.heads)
        attention[rel] = (edge_alpha, self_alpha, dst)
        agg = contrib if agg is None else agg + contrib
    return nd.Tensor(agg)


class TestFusedAttention:
    """`encode` with the fused relation op against the op chain it replaced."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_encode_bitwise_equals_op_chain(self, data):
        layers = data.draw(st.integers(1, 3), label="layers")
        heads = data.draw(st.sampled_from([1, 2, 4]), label="heads")
        fanout = data.draw(st.integers(1, 3), label="fanout")
        g = make_graph(seed=data.draw(st.integers(0, 99), label="graph"), n_c=6, n_t=40)
        assert np.diff(g.out_indptr).max() > fanout   # the cap truncates
        params = md.init_params("gat", g.d_customer, g.d_transaction, layers, 8, heads,
                                seed=data.draw(st.integers(0, 99), label="init"))
        warm_bn(params, full_sub(g, layers), g)
        # two seeds of each type: training-mode batch norm needs two rows
        seeds_c = data.draw(st.lists(st.integers(0, g.n_customers - 1), min_size=2,
                                     max_size=4, unique=True), label="seeds_c")
        seeds_t = data.draw(st.lists(st.integers(0, g.n_transactions - 1), min_size=2,
                                     max_size=6, unique=True), label="seeds_t")
        sub = gr.sample_neighborhood_nodes(g, seeds_c, seeds_t, fanout, layers, seed=4)
        training = data.draw(st.booleans(), label="training")

        def run():
            capture = []
            out = md.encode(params.copy(), sub, g.x_c, g.x_t, training=training,
                            rng=np.random.default_rng(9), dropout_p=0.3, capture=capture)
            return out, capture

        (z_c, z_t), capture = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(md._DEST_FN, "gat", reference_gat_dest)
            (ref_c, ref_t), ref_capture = run()
        assert z_c.data.tobytes() == ref_c.data.tobytes()
        assert z_t.data.tobytes() == ref_t.data.tobytes()
        for got, want in zip(capture, ref_capture, strict=True):
            assert set(got[4]) == set(want[4]) == set(gr.RELATIONS)
            for rel in gr.RELATIONS:
                for a, b in zip(got[4][rel], want[4][rel], strict=True):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_tape_records_per_relation(self):
        """A relation records its source projection and one gat_aggregate;
        the second relation into a node type adds one add."""
        g = make_graph(seed=16)
        params = md.init_params("gat", g.d_customer, g.d_transaction, 1, 8, 2, seed=8)
        with nd.Tape() as tape:
            md.encode(params, full_sub(g, 1), g.x_c, g.x_t)
        kinds = sorted(rule.__qualname__.split(".")[0] for _, _, rule in tape._records)
        # per node type: the self projection (its input rows are features,
        # so their prefix_rows is not recorded), then per relation
        assert kinds == sorted(2 * ["matmul"] + 4 * ["matmul", "gat_aggregate"]
                               + 2 * ["add"])


class TestLayerSemantics:
    def test_isolated_node_self_term_only(self):
        # one customer, no transactions touching it in either direction
        g = gr.build_graph(
            [gr.RawTransaction("t", "B", "EXTERNAL", 0.0, np.array([1.0, 1.0]))],
            [gr.CustomerProfile("A", np.array([1.0, -2.0, 0.5])),
             gr.CustomerProfile("B", np.array([0.0, 1.0, 1.0]))])
        a = g.customer_index["A"]
        sub = gr.sample_neighborhood_nodes(g, [a], [], fanout=8, num_layers=1, seed=0)

        params = md.init_params("gat", 3, 2, 1, 8, 2, seed=5)
        zc, _ = md.encode(params, sub, g.x_c, g.x_t)
        # each incident relation contributes its own self term with alpha=1
        expect = 2.0 * g.x_c[[a]] @ params.layers[0]["w_self_c"].data
        np.testing.assert_allclose(zc.data, expect, atol=1e-12)

        params = md.init_params("sage", 3, 2, 1, 8, seed=6)
        zc, _ = md.encode(params, sub, g.x_c, g.x_t)
        np.testing.assert_allclose(zc.data, g.x_c[[a]] @ params.layers[0]["w_self_c"].data,
                                   atol=1e-12)

        params = md.init_params("gin", 3, 2, 1, 8, seed=7)
        zc, _ = md.encode(params, sub, g.x_c, g.x_t)
        p = params.layers[0]
        pre = g.x_c[[a]] @ p["w_proj_self_c"].data
        h = np.maximum(pre @ p["mlp_w1_c"].data + p["mlp_b1_c"].data, 0)
        np.testing.assert_allclose(zc.data, h @ p["mlp_w2_c"].data + p["mlp_b2_c"].data,
                                   atol=1e-12)

    def test_output_shapes(self):
        g = make_graph(seed=21)
        sub = full_sub(g, 2)
        for kind, heads in (("gat", 2), ("sage", 1), ("gin", 1)):
            params = md.init_params(kind, g.d_customer, g.d_transaction, 2, 8, heads)
            zc, zt = md.encode(params, sub, g.x_c, g.x_t)
            assert zc.shape == (g.n_customers, 8)
            assert zt.shape == (g.n_transactions, 8)

    def test_sage_direct_oracle(self):
        g = make_graph(seed=22, n_c=5, n_t=12)
        sub = full_sub(g, 1)
        params = md.init_params("sage", g.d_customer, g.d_transaction, 1, 8, seed=8)
        zc, zt = md.encode(params, sub, g.x_c, g.x_t)
        p = params.layers[0]
        for c in range(g.n_customers):
            expect = g.x_c[c] @ p["w_self_c"].data
            outs = np.flatnonzero(g.o_src == c)
            if len(outs):
                expect = expect + g.x_t[outs].mean(axis=0) @ p["w_nbr_out_rev"].data
            ins = np.flatnonzero(g.i_dst == c)
            if len(ins):
                expect = expect + g.x_t[ins].mean(axis=0) @ p["w_nbr_in_fwd"].data
            np.testing.assert_allclose(zc.data[c], expect, atol=1e-10)
        for t in range(g.n_transactions):
            expect = g.x_t[t] @ p["w_self_t"].data
            if g.o_src[t] >= 0:
                expect = expect + g.x_c[g.o_src[t]] @ p["w_nbr_out_fwd"].data
            if g.i_dst[t] >= 0:
                expect = expect + g.x_c[g.i_dst[t]] @ p["w_nbr_in_rev"].data
            np.testing.assert_allclose(zt.data[t], expect, atol=1e-10)

    def test_gin_direct_oracle(self):
        g = make_graph(seed=23, n_c=5, n_t=12)
        sub = full_sub(g, 1)
        params = md.init_params("gin", g.d_customer, g.d_transaction, 1, 8, seed=9)
        zc, _ = md.encode(params, sub, g.x_c, g.x_t)
        p = params.layers[0]
        for c in range(g.n_customers):
            pre = g.x_c[c] @ p["w_proj_self_c"].data
            for t in np.flatnonzero(g.o_src == c):
                pre = pre + g.x_t[t] @ p["w_proj_out_rev"].data
            for t in np.flatnonzero(g.i_dst == c):
                pre = pre + g.x_t[t] @ p["w_proj_in_fwd"].data
            h = np.maximum(pre @ p["mlp_w1_c"].data + p["mlp_b1_c"].data[0], 0)
            expect = h @ p["mlp_w2_c"].data + p["mlp_b2_c"].data[0]
            np.testing.assert_allclose(zc.data[c], expect, atol=1e-10)

    def test_permuting_edge_lists_invariant(self):
        g = make_graph(seed=24, n_c=8, n_t=40)
        sub = full_sub(g, 2)
        rng = np.random.default_rng(1)
        shuffled_layers = []
        for layer in sub.layers:
            new = {}
            for rel, (src, dst) in layer.items():
                perm = rng.permutation(len(src))
                new[rel] = (src[perm], dst[perm])
            shuffled_layers.append(new)
        sub2 = gr.Subgraph(sub.depth, sub.levels_c, sub.levels_t,
                           tuple(shuffled_layers))
        for kind in md.KINDS:
            params = md.init_params(kind, g.d_customer, g.d_transaction, 2, 8,
                                    2 if kind == "gat" else 1, seed=10)
            za = md.encode(params, sub, g.x_c, g.x_t)
            zb = md.encode(params, sub2, g.x_c, g.x_t)
            np.testing.assert_allclose(za[0].data, zb[0].data, atol=1e-9)
            np.testing.assert_allclose(za[1].data, zb[1].data, atol=1e-9)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_sampled_equals_full_when_cap_not_binding(self, data):
        """A node's inference embedding has the same bits sampled alone, with
        other seeds and, at a fanout no row exceeds, inside `full_subgraph`;
        at a truncating fanout it has the same bits alone and with others."""
        kind = data.draw(st.sampled_from(md.KINDS), label="kind")
        layers = data.draw(st.integers(1, 3), label="layers")
        g = make_graph(seed=data.draw(st.integers(0, 99), label="graph"), n_c=8, n_t=40)
        params = md.init_params(kind, g.d_customer, g.d_transaction, layers, 8,
                                2 if kind == "gat" else 1, seed=11)
        full = gr.full_subgraph(g, layers)
        warm_bn(params, full, g)
        full_z = [z.data for z in md.encode(params, full, g.x_c, g.x_t)]
        cap = int(max(np.diff(g.out_indptr).max(), np.diff(g.in_indptr).max()))
        fanout = data.draw(st.sampled_from([1, 2, cap]), label="fanout")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        seeds_c = data.draw(st.lists(st.integers(0, g.n_customers - 1), max_size=4,
                                     unique=True), label="seeds_c")
        seeds_t = data.draw(st.lists(st.integers(0, g.n_transactions - 1),
                                     min_size=0 if seeds_c else 1, max_size=4,
                                     unique=True), label="seeds_t")

        def embed(cs, ts):
            """{node: embedding} of each type for one sample of seeds cs, ts."""
            sub = gr.sample_neighborhood_nodes(g, cs, ts, fanout, layers, seed)
            return [dict(zip(level.tolist(), z.data)) for level, z in
                    zip((sub.levels_c[0], sub.levels_t[0]),
                        md.encode(params, sub, g.x_c, g.x_t))]

        together = embed(seeds_c, seeds_t)
        for tau, seeds in enumerate((seeds_c, seeds_t)):
            for node in seeds:
                alone = embed(*(([node], []) if tau == 0 else ([], [node])))[tau][node]
                assert alone.tobytes() == together[tau][node].tobytes()
                if fanout == cap:
                    assert alone.tobytes() == full_z[tau][node].tobytes()

    def test_shallow_subgraph_rejected(self):
        """A subgraph must be exactly as deep as the model: shallower and
        deeper ones are both refused."""
        g = make_graph(seed=26)
        params = md.init_params("sage", g.d_customer, g.d_transaction, 3, 8)
        for depth in (2, 4):
            with pytest.raises(DimensionError):
                md.encode(params, full_sub(g, depth), g.x_c, g.x_t)


def with_record(g, x_new, txn, counterpart, direction):
    """`g` rebuilt with the appended transactions (feature rows `x_new`,
    indices n_transactions on) whose one edge is transaction `txn`'s edge
    to `counterpart` (-1 for none) opposite the predicted `direction`."""
    n_new = len(x_new)
    ends = {gr.OUTGOING: np.full(n_new, -1), gr.INCOMING: np.full(n_new, -1)}
    other = gr.INCOMING if direction == gr.OUTGOING else gr.OUTGOING
    ends[other][txn - g.n_transactions] = counterpart
    return gr.BipartiteGraph(
        g.customer_ids, g.txn_ids + tuple(f"n{j}" for j in range(n_new)), g.x_c,
        np.vstack([g.x_t, x_new]), np.concatenate([g.o_src, ends[gr.OUTGOING]]),
        np.concatenate([g.i_dst, ends[gr.INCOMING]]),
        np.concatenate([g.timestamps, np.full(n_new, 99.0)]), g.stats)


class TestRecordSampler:
    """`sample_records` cut by `chunk_parts`: part 0 is the reference graph
    seeded with the customers records decode against, with the nodes and
    edges of their sample alone; each record is a part with the nodes and
    edges of the reference graph rebuilt with the appended transactions
    and that record's counterpart edge only. Each part's encoded rows have
    the bits of its sample alone; batched scoring relies on it."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_record_rows_equal_records_alone(self, data):
        kind = data.draw(st.sampled_from(md.KINDS), label="kind")
        heads = data.draw(st.sampled_from([1, 2, 4]), label="heads") if kind == "gat" else 1
        layers = data.draw(st.integers(1, 4), label="layers")
        fanout = data.draw(st.integers(1, 3), label="fanout")
        hidden = data.draw(st.sampled_from([8, 32]), label="hidden")
        g = make_graph(seed=data.draw(st.integers(0, 99), label="graph"), n_c=6, n_t=40)
        assert np.diff(g.out_indptr).max() > fanout   # the cap truncates
        params = md.init_params(kind, g.d_customer, g.d_transaction, layers,
                                hidden, heads, seed=3)
        warm_bn(params, full_sub(g, layers), g)
        # appended transactions: hub counterparts, self-transfers, EXTERNAL sides
        hub = int(np.argmax(np.diff(g.out_indptr) + np.diff(g.in_indptr)))
        side = st.sampled_from([hub, hub, *range(g.n_customers), -1])
        ends = data.draw(st.lists(st.tuples(side, side).filter(lambda e: e != (-1, -1)),
                                  min_size=1, max_size=5), label="ends")
        x_new = np.stack([np.full(g.d_transaction, 0.1 * j) for j in range(len(ends))])
        # records may repeat a transaction, in one direction or both
        records = data.draw(st.lists(st.tuples(st.integers(0, len(ends) - 1),
                                               st.sampled_from(gr.DIRECTIONS)),
                                     min_size=1, max_size=8), label="records")
        txns = [g.n_transactions + j for j, _ in records]
        directions = [d for _, d in records]
        # the counterpart is the side the record does not predict
        counterparts = [ends[j][1 if d == gr.OUTGOING else 0] for j, d in records]
        # part 0's customers: none, the hub, or any subset
        customers = data.draw(st.one_of(
            st.just([]), st.just([hub]),
            st.lists(st.integers(0, g.n_customers - 1), unique=True)), label="customers")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")

        rebuilt = [with_record(g, x_new, txn, c, d)
                   for txn, c, d in zip(txns, counterparts, directions)]
        alone = [gr.sample_neighborhood_nodes(g2, [], [txn], fanout, layers, seed)
                 for g2, txn in zip(rebuilt, txns)]
        part0 = gr.sample_neighborhood_nodes(g, customers, [], fanout, layers, seed)
        union, parts = gr.sample_records(g, customers, txns, directions, counterparts,
                                         fanout, layers, seed)
        assert union.levels_c[0].tolist() == sorted(customers)
        assert union.levels_t[0].tolist() == txns
        for levels in (union.levels_c, union.levels_t):
            for h in range(union.depth):
                assert levels[h].tolist() == levels[h + 1][:len(levels[h])].tolist()
        # a budget of one row makes each part a chunk: the sample alone
        # (part 0 without customers has no rows and joins the first record)
        firsts = [0, 1] if customers else [0]
        chunks = list(gr.chunk_parts(union, parts, 1))
        assert [lo for lo, _, _ in chunks] == firsts + list(range(2, len(records) + 1))
        for (_, _, chunk), sub in zip(chunks, ([part0] if customers else []) + alone,
                                      strict=True):
            for got, want in ((chunk.levels_c, sub.levels_c),
                              (chunk.levels_t, sub.levels_t)):
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
            for got, want in zip(chunk.layers, sub.layers, strict=True):
                assert {rel: [a.tolist() for a in arrays] for rel, arrays in got.items()} == \
                       {rel: [a.tolist() for a in arrays] for rel, arrays in want.items()}

        rows = [len(s.levels_c[-1]) + len(s.levels_t[-1]) for s in [part0, *alone]]
        budget = data.draw(st.integers(1, sum(rows) + 1), label="budget")
        z_part0, encoded, at = None, [], 0
        for lo, hi, chunk in gr.chunk_parts(union, parts, budget):
            # greedy: the chunk fits unless it is one part with rows, the next would not
            assert lo == at < hi
            assert sum(rows[lo:hi]) <= budget or np.count_nonzero(rows[lo:hi]) == 1
            assert hi == len(rows) or sum(rows[lo:hi + 1]) > budget
            assert chunk.levels_t[0].tolist() == txns[max(lo, 1) - 1:hi - 1]
            z_c, z_t = md.encode(params, chunk, g.x_c, g.x_t, x_new=x_new)
            if lo == 0:
                z_part0 = z_c.data
            encoded.extend(z_t.data)
            at = hi
        assert at == len(records) + 1
        # a union within the budget is its own chunk: `sub` itself
        for budget in (sum(rows), sum(rows) + 1):
            (lo, hi, chunk), = gr.chunk_parts(union, parts, budget)
            assert (lo, hi) == (0, len(records) + 1) and chunk is union
        if customers:
            assert z_part0.tobytes() == md.encode(params, part0, g.x_c, g.x_t)[0].data.tobytes()
        else:
            assert z_part0.shape == (0, hidden)
        for row, sub, g2 in zip(encoded, alone, rebuilt, strict=True):
            assert row.tobytes() == md.encode(params, sub, g2.x_c, g2.x_t)[1].data[0].tobytes()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_graph_transaction_rows_equal_rebuilt_graph(self, data):
        """A record of a transaction in the reference graph hides its edge
        in the record's direction: its part has the nodes, edges, order and
        encoded bits of the graph rebuilt with that side EXTERNAL."""
        layers = data.draw(st.integers(1, 3), label="layers")
        fanout = data.draw(st.integers(1, 3), label="fanout")
        g = make_graph(seed=data.draw(st.integers(0, 99), label="graph"), n_c=6, n_t=40)
        hub = int(np.argmax(np.diff(g.out_indptr) + np.diff(g.in_indptr)))
        # transaction 0 a self-transfer of the hub, transaction 1 with both sides
        o_src, i_dst = g.o_src.copy(), g.i_dst.copy()
        o_src[0] = i_dst[0] = hub
        o_src[1], i_dst[1] = max(o_src[1], 0), max(i_dst[1], 1)
        g = gr.BipartiteGraph(g.customer_ids, g.txn_ids, g.x_c, g.x_t, o_src, i_dst,
                              g.timestamps, g.stats)
        assert np.diff(g.out_indptr).max() > fanout   # the cap truncates
        params = md.init_params("gat", g.d_customer, g.d_transaction, layers, 8, 2, seed=3)
        warm_bn(params, full_sub(g, layers), g)
        edges = [(t, d) for d in gr.DIRECTIONS for t in g.edges(d).tolist()]
        records = [(0, gr.OUTGOING), (0, gr.INCOMING), (1, gr.OUTGOING), (1, gr.INCOMING)]
        records += data.draw(st.lists(st.sampled_from(edges), max_size=4), label="records")
        records = data.draw(st.permutations(records), label="order")
        # each record's customer: none, the hub, the end it loses, or any
        ends = {d: g.edge_endpoints(d) for d in gr.DIRECTIONS}
        custs = [data.draw(st.sampled_from([-1, hub, int(ends[d][t]), *range(g.n_customers)]),
                           label="customer") for t, d in records]
        seeds_c = data.draw(st.lists(st.integers(0, g.n_customers - 1), unique=True),
                            label="part-0 customers")
        seeds_t = data.draw(st.lists(st.integers(0, g.n_transactions - 1), unique=True),
                            label="part-0 transactions")
        seed = data.draw(st.integers(0, 2 ** 64 - 1), label="seed")
        txns = [t for t, _ in records]
        directions = [d for _, d in records]
        other = {gr.OUTGOING: g.i_dst, gr.INCOMING: g.o_src}
        counterparts = [int(other[d][t]) for t, d in records]

        def rebuilt(t, d):
            o, i = g.o_src.copy(), g.i_dst.copy()
            (o if d == gr.OUTGOING else i)[t] = -1
            return gr.BipartiteGraph(g.customer_ids, g.txn_ids, g.x_c, g.x_t, o, i,
                                     g.timestamps, g.stats)

        graphs = [g] + [rebuilt(t, d) for t, d in records]
        alone = [gr.sample_neighborhood_nodes(g, seeds_c, seeds_t, fanout, layers, seed)]
        alone += [gr.sample_neighborhood_nodes(g2, [c] if c >= 0 else [], [t], fanout,
                                               layers, seed)
                  for g2, (t, _), c in zip(graphs[1:], records, custs)]
        union, parts = gr.sample_records(g, seeds_c, txns, directions, counterparts,
                                         fanout, layers, seed, seed_txns=seeds_t,
                                         record_customers=custs)
        chunks = list(gr.chunk_parts(union, parts, 1))
        if not seeds_c and not seeds_t:   # part 0 has no rows: it joins the next
            alone = alone[1:]
        for (_, _, chunk), sub in zip(chunks, alone, strict=True):
            for got, want in ((chunk.levels_c, sub.levels_c), (chunk.levels_t, sub.levels_t)):
                assert [a.tolist() for a in got] == [a.tolist() for a in want]
            for got, want in zip(chunk.layers, sub.layers, strict=True):
                assert {rel: [a.tolist() for a in arrays] for rel, arrays in got.items()} == \
                       {rel: [a.tolist() for a in arrays] for rel, arrays in want.items()}
        # encoded together, each part's seed rows have the bits they have alone
        z_c, z_t = (z.data for z in md.encode(params, union, g.x_c, g.x_t))
        at_c, at_t = len(seeds_c), len(seeds_t)
        if seeds_c or seeds_t:
            w_c, w_t = md.encode(params, alone[0], g.x_c, g.x_t)
            assert z_c[:at_c].tobytes() == w_c.data.tobytes()
            assert z_t[:at_t].tobytes() == w_t.data.tobytes()
        for g2, sub, c in zip(graphs[1:], alone[-len(records):], custs):
            w_c, w_t = md.encode(params, sub, g2.x_c, g2.x_t)
            assert z_t[at_t].tobytes() == w_t.data[0].tobytes()
            at_t += 1
            if c >= 0:
                assert z_c[at_c].tobytes() == w_c.data[0].tobytes()
                at_c += 1
        assert (at_c, at_t) == (len(z_c), len(z_t))

    def test_bad_records_rejected(self):
        g = make_graph(seed=28)
        n, out = g.n_transactions, gr.OUTGOING
        t = int(np.flatnonzero(g.o_src >= 0)[0])
        for customers, txns, directions, counterparts in (
                ([], [-1], [out], [0]),                # transaction index out of range
                ([], [t], [out], [int(g.i_dst[t] != 0)]),  # not its other end in g
                ([], [n], ["sideways"], [0]),
                ([], [n, n], [out], [0, 0]),           # mismatched lengths
                ([], [n, n + 1], [out, out], [0]),
                ([], [n], [out], [g.n_customers]),     # counterpart out of range
                ([], [n], [out], [-2]),
                ([g.n_customers], [n], [out], [0]),    # part-0 customer out of range
                ([0, -1], [n], [out], [0])):
            with pytest.raises(ConfigError):
                gr.sample_records(g, customers, txns, directions, counterparts,
                                  fanout=2, num_layers=1, seed=0)
        for record_customers in ([g.n_customers], [-2], [0, 0]):
            with pytest.raises(ConfigError):
                gr.sample_records(g, [], [t], [out], [int(g.i_dst[t])], fanout=2,
                                  num_layers=1, seed=0, record_customers=record_customers)


class TestGradients:
    def check_kind(self, kind, tol=1e-4):
        g = make_graph(seed=31, n_c=6, n_t=12)  # 18 nodes total
        heads = 2 if kind == "gat" else 1
        params = md.init_params(kind, g.d_customer, g.d_transaction, 2, 8, heads, seed=13)
        sub = full_sub(g, 2)
        warm_bn(params, sub, g)
        rng = np.random.default_rng(14)
        pc = rng.integers(0, g.n_customers, size=6)
        pt = rng.integers(0, g.n_transactions, size=6)
        targets = (rng.random(6) > 0.5).astype(float)[:, None]

        def forward():
            zc, zt = md.encode(params, sub, g.x_c, g.x_t, training=False)
            y = md.decode(params.w_dec, nd.gather_rows(zc, pc), nd.gather_rows(zt, pt))
            return nd.bce(y, targets)

        tensors = params.parameters()
        nd.zero_grad(tensors)
        with nd.Tape() as tape:
            loss = forward()
        tape.backward(loss)

        h = 1e-5
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
            assert err < tol, f"{kind} {name}: rel err {err:.2e}"

    def test_gat_gradients(self):
        self.check_kind("gat")

    def test_sage_gradients(self):
        self.check_kind("sage")

    def test_gin_gradients(self):
        self.check_kind("gin")


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        g = make_graph(seed=41)
        params = md.init_params("gat", g.d_customer, g.d_transaction, 2, 8, 2, seed=15)
        warm_bn(params, full_sub(g, 2), g)
        path = str(tmp_path / "model.bin")
        md.save_model(params, path)
        loaded = md.load_model(path)
        for (na, ta), (nb, tb) in zip(params.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes(), na
        for sa, sb in zip(params.bn, loaded.bn):
            for tau in ("c", "t"):
                np.testing.assert_array_equal(sa[tau]["state"].running_mean,
                                              sb[tau]["state"].running_mean)
                np.testing.assert_array_equal(sa[tau]["state"].running_var,
                                              sb[tau]["state"].running_var)
        sub = full_sub(g, 2)
        a = md.encode(params, sub, g.x_c, g.x_t)
        b = md.encode(loaded, sub, g.x_c, g.x_t)
        assert a[0].data.tobytes() == b[0].data.tobytes()

    def test_copy_is_deep(self):
        params = md.init_params("sage", 4, 3, 2, 8, seed=16)
        dup = params.copy()
        dup.layers[0]["w_self_c"].data += 1.0
        assert not np.array_equal(dup.layers[0]["w_self_c"].data,
                                  params.layers[0]["w_self_c"].data)

    def test_bad_file(self, tmp_path):
        p = tmp_path / "x.bin"
        p.write_bytes(b"JUNKJUNK")
        with pytest.raises(Exception):
            md.load_model(str(p))

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        md.save_model(md.init_params("gat", 2, 2, 1, 2, 1, seed=0), str(path))
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(IngestError):
                md.load_model(str(path))

    @pytest.mark.parametrize("kind", md.KINDS)
    @pytest.mark.parametrize("field,value", [
        ("d_c", 1 << 20), ("hidden", 1 << 20), ("num_layers", 1 << 30)])
    def test_oversized_header_rejected_before_allocation(
            self, tmp_path, monkeypatch, kind, field, value):
        """Sizes the rest of the file cannot hold are refused before
        init_params allocates them."""
        path = tmp_path / "model.bin"
        md.save_model(md.init_params(kind, 3, 2, 2, 4, 2, seed=0), str(path))
        blob = bytearray(path.read_bytes())
        fields = ("d_c", "d_t", "num_layers", "hidden", "heads")
        struct.pack_into("<I", blob, 12 + len(kind) + 4 * fields.index(field), value)
        path.write_bytes(bytes(blob))

        class Allocated(Exception):
            pass

        def init_params(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(md, "init_params", init_params)
        with pytest.raises(IngestError, match="header"):
            md.load_model(str(path))

    def test_header_size_matches_saved_arrays(self, tmp_path):
        """The header check counts exactly the floats a checkpoint holds."""
        for kind in md.KINDS:
            for layers in (1, 3):
                params = md.init_params(kind, 5, 3, layers, 8, 2, seed=0)
                floats = sum(t.size for t in params.parameters()) + sum(
                    site[tau]["state"].running_mean.size * 2
                    for site in params.bn for tau in ("c", "t"))
                assert md._checkpoint_floats(kind, 5, 3, layers, 8) == floats

    @pytest.mark.parametrize("site,value", [
        ("decoder.w", np.nan), ("layer0.w_self_c", np.inf),
        ("bn0.c.running_mean", np.nan), ("bn0.t.running_var", -1.0)])
    def test_non_finite_rejected(self, tmp_path, site, value):
        params = md.init_params("gat", 3, 2, 2, 4, 2, seed=17)
        named = dict(params.named_parameters())
        if site in named:
            named[site].data[0, 0] = value
        else:
            layer, tau, stat = site.split(".")
            getattr(params.bn[int(layer[2:])][tau]["state"], stat)[0] = value
        path = str(tmp_path / "model.bin")
        md.save_model(params, path)
        with pytest.raises(IngestError, match=site):
            md.load_model(path)
