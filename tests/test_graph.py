"""Graph construction, splits, neighborhood sampling, severing, negatives."""

import dataclasses
import os
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlgraph import graph as gr
from amlgraph.errors import ConfigError, IngestError, SamplingError


def toy_graph():
    profiles = [gr.CustomerProfile(f"c{i}", np.arange(3.0) + i) for i in range(4)]
    txns = [
        gr.RawTransaction("t0", "c0", "c1", 10.0, np.array([1.0, 0.0])),
        gr.RawTransaction("t1", "c1", "c2", 20.0, np.array([0.0, 1.0])),
        gr.RawTransaction("t2", "EXTERNAL", "c0", 30.0, np.array([2.0, 2.0])),
        gr.RawTransaction("t3", "c2", "EXTERNAL", 40.0, np.array([3.0, 1.0])),
        gr.RawTransaction("t4", "c0", "c2", 50.0, np.array([1.0, 1.0])),
    ]
    return gr.build_graph(txns, profiles)


def random_records(rng, n_c=8, n_t=40, d_c=4, d_t=3):
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
    return txns, profiles


def bfs_levels(g, seeds_c, seeds_t, hops, removed_out=None, removed_in=None):
    """Exact breadth-first expansion over both directions (oracle)."""
    def out_ok(t):
        return g.o_src[t] >= 0 and (removed_out is None or not removed_out[t])

    def in_ok(t):
        return g.i_dst[t] >= 0 and (removed_in is None or not removed_in[t])

    cs, ts = set(map(int, seeds_c)), set(map(int, seeds_t))
    levels = [(set(cs), set(ts))]
    for _ in range(hops):
        nc, nt = set(cs), set(ts)
        for t in range(g.n_transactions):
            if out_ok(t) and g.o_src[t] in cs:
                nt.add(t)
            if in_ok(t) and g.i_dst[t] in cs:
                nt.add(t)
        for t in ts:
            if out_ok(t):
                nc.add(int(g.o_src[t]))
            if in_ok(t):
                nc.add(int(g.i_dst[t]))
        cs, ts = nc, nt
        levels.append((set(cs), set(ts)))
    return levels


def edge_txns(sub, i, rel):
    """The transaction index of each edge of `rel` in layer i: a
    transaction has at most one edge per relation, so its row names it."""
    src, dst = sub.layers[i][rel]
    return sub.levels_t[-1][src if rel in (gr.OUT_REV, gr.IN_FWD) else dst]


def subgraphs_equal(a, b):
    if a.depth != b.depth:
        return False
    for x, y in zip(a.levels_c + a.levels_t, b.levels_c + b.levels_t):
        if not np.array_equal(x, y):
            return False
    for la, lb in zip(a.layers, b.layers):
        for rel in gr.RELATIONS:
            for u, v in zip(la[rel], lb[rel]):
                if not np.array_equal(u, v):
                    return False
    return True


class TestBuild:
    def test_single_transfer(self):
        g = gr.build_graph(
            [gr.RawTransaction("t", "A", "B", 0.0, np.array([1.0]))],
            [gr.CustomerProfile("A", np.array([0.0])),
             gr.CustomerProfile("B", np.array([1.0]))])
        assert g.n_customers == 2 and g.n_transactions == 1
        assert (g.o_src >= 0).sum() == 1 and (g.i_dst >= 0).sum() == 1
        assert g.o_src[0] == g.customer_index["A"]
        assert g.i_dst[0] == g.customer_index["B"]

    def test_external_deposit(self):
        g = gr.build_graph(
            [gr.RawTransaction("t", "EXTERNAL", "A", 0.0, np.array([1.0]))],
            [gr.CustomerProfile("A", np.array([0.0]))])
        assert g.n_transactions == 1
        assert (g.o_src >= 0).sum() == 0 and (g.i_dst >= 0).sum() == 1

    def test_edge_count_equals_endpoint_count(self):
        rng = np.random.default_rng(5)
        txns, profiles = random_records(rng, n_t=1000 // 2)
        g = gr.build_graph(txns, profiles)
        expected = sum((t.source_customer != "EXTERNAL") + (t.dest_customer != "EXTERNAL")
                       for t in txns)
        assert (g.o_src >= 0).sum() + (g.i_dst >= 0).sum() == expected

    def test_adjacency_matches_endpoints(self):
        g = toy_graph()
        for c in range(g.n_customers):
            np.testing.assert_array_equal(
                g.out_indices[g.out_indptr[c]:g.out_indptr[c + 1]],
                np.flatnonzero(g.o_src == c))
            np.testing.assert_array_equal(
                g.in_indices[g.in_indptr[c]:g.in_indptr[c + 1]],
                np.flatnonzero(g.i_dst == c))

    def test_record_order_irrelevant(self):
        rng = np.random.default_rng(6)
        txns, profiles = random_records(rng)
        g1 = gr.build_graph(txns, profiles)
        order = rng.permutation(len(txns))
        g2 = gr.build_graph([txns[i] for i in order], list(reversed(profiles)))
        assert g1.customer_ids == g2.customer_ids
        assert g1.txn_ids == g2.txn_ids
        np.testing.assert_array_equal(g1.x_c, g2.x_c)
        np.testing.assert_array_equal(g1.x_t, g2.x_t)
        np.testing.assert_array_equal(g1.o_src, g2.o_src)
        np.testing.assert_array_equal(g1.out_indices, g2.out_indices)

    def test_standardization(self):
        g = toy_graph()
        np.testing.assert_allclose(g.x_t.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(g.x_t.std(axis=0), 1.0, atol=1e-12)
        raw = g.x_t * g.stats["t_std"] + g.stats["t_mean"]
        np.testing.assert_allclose(raw[g.txn_index["t3"]], [3.0, 1.0], atol=1e-12)

    def test_duplicate_txn_rejected(self):
        p = [gr.CustomerProfile("A", np.array([0.0]))]
        t = gr.RawTransaction("t", "A", "EXTERNAL", 0.0, np.array([1.0]))
        with pytest.raises(IngestError):
            gr.build_graph([t, t], p)

    def test_missing_profile_rejected(self):
        with pytest.raises(IngestError):
            gr.build_graph([gr.RawTransaction("t", "A", "B", 0.0, np.array([1.0]))],
                           [gr.CustomerProfile("A", np.array([0.0]))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_timestamp_rejected(self, bad):
        # save_graph would write it and load_graph refuse it
        with pytest.raises(IngestError, match="timestamp"):
            gr.build_graph([gr.RawTransaction("t", "A", "EXTERNAL", bad, np.array([1.0]))],
                           [gr.CustomerProfile("A", np.array([0.0]))])

    def test_fully_external_rejected(self):
        with pytest.raises(IngestError):
            gr.build_graph(
                [gr.RawTransaction("t", "EXTERNAL", "EXTERNAL", 0.0, np.array([1.0]))],
                [gr.CustomerProfile("A", np.array([0.0]))])


class TestSplit:
    def test_all_message(self):
        g = toy_graph()
        s = gr.split_edges(g, (1.0, 0.0, 0.0), seed=0)
        for d in gr.DIRECTIONS:
            np.testing.assert_array_equal(s.message[d], g.edges(d))
            assert s.supervision[d].size == 0 and s.validation[d].size == 0

    def test_exact_sizes_at_divisible_counts(self):
        rng = np.random.default_rng(7)
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=2)) for i in range(5)]
        txns = [gr.RawTransaction(f"t{j:03d}", f"c{j % 5}", "EXTERNAL", float(j),
                                  rng.normal(size=2)) for j in range(100)]
        g = gr.build_graph(txns, profiles)
        s = gr.split_edges(g, (0.5, 0.3, 0.2), seed=1)
        assert len(s.message[gr.OUTGOING]) == 50
        assert len(s.supervision[gr.OUTGOING]) == 30
        assert len(s.validation[gr.OUTGOING]) == 20

    def test_partition_disjoint_exhaustive(self):
        g = toy_graph()
        for seed in range(10):
            s = gr.split_edges(g, (0.5, 0.3, 0.2), seed=seed)
            for d in gr.DIRECTIONS:
                parts = [s.message[d], s.supervision[d], s.validation[d]]
                merged = np.concatenate(parts)
                assert len(np.unique(merged)) == len(merged)
                np.testing.assert_array_equal(np.sort(merged), g.edges(d))

    def test_same_seed_identical(self):
        g = toy_graph()
        a = gr.split_edges(g, (0.5, 0.25, 0.25), seed=42)
        b = gr.split_edges(g, (0.5, 0.25, 0.25), seed=42)
        for d in gr.DIRECTIONS:
            np.testing.assert_array_equal(a.message[d], b.message[d])
            np.testing.assert_array_equal(a.supervision[d], b.supervision[d])

    def test_bad_ratios_rejected(self):
        g = toy_graph()
        with pytest.raises(ConfigError):
            gr.split_edges(g, (0.5, 0.3, 0.3), seed=0)
        with pytest.raises(ConfigError):
            gr.split_edges(g, (1.2, -0.1, -0.1), seed=0)


class TestNegatives:
    def test_enumerated_non_edges(self):
        g = gr.build_graph(
            [gr.RawTransaction("t0", "A", "EXTERNAL", 0.0, np.array([1.0])),
             gr.RawTransaction("t1", "EXTERNAL", "B", 0.0, np.array([2.0]))],
            [gr.CustomerProfile("A", np.array([0.0])),
             gr.CustomerProfile("B", np.array([1.0]))])
        # outgoing real edge: (A, t0). Non-edges: (A,t1),(B,t0),(B,t1)
        a = g.customer_index["A"]
        t0 = g.txn_index["t0"]
        seen = set()
        for seed in range(50):
            c, t = gr.sample_negatives(g, 4, gr.OUTGOING, seed)
            for ci, ti in zip(c, t):
                assert (ci, ti) != (a, t0)
                seen.add((int(ci), int(ti)))
        assert seen == {(0, 1), (1, 0), (1, 1)}

    def test_dense_graph_aborts(self):
        g = gr.build_graph(
            [gr.RawTransaction("t0", "A", "EXTERNAL", 0.0, np.array([1.0]))],
            [gr.CustomerProfile("A", np.array([0.0]))])
        with pytest.raises(SamplingError):
            gr.sample_negatives(g, 3, gr.OUTGOING, seed=0)

    def test_uniform_over_non_edges(self):
        rng = np.random.default_rng(8)
        profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=2)) for i in range(3)]
        txns = [gr.RawTransaction(f"t{j}", f"c{j % 3}", "EXTERNAL", float(j),
                                  rng.normal(size=2)) for j in range(4)]
        g = gr.build_graph(txns, profiles)
        real = {(int(g.o_src[t]), t) for t in range(4)}
        cells = [(c, t) for c in range(3) for t in range(4) if (c, t) not in real]
        counts = dict.fromkeys(cells, 0)
        n = 100_000
        c, t = gr.sample_negatives(g, n, gr.OUTGOING, seed=99)
        for ci, ti in zip(c, t):
            counts[(int(ci), int(ti))] += 1
        expect = n / len(cells)
        chi2 = sum((v - expect) ** 2 / expect for v in counts.values())
        df = len(cells) - 1
        assert chi2 < df + 4 * (2 * df) ** 0.5

    def test_deterministic(self):
        g = toy_graph()
        a = gr.sample_negatives(g, 10, gr.INCOMING, seed=3)
        b = gr.sample_negatives(g, 10, gr.INCOMING, seed=3)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestNeighborhood:
    def test_small_degree_keeps_all(self):
        g = toy_graph()
        c0 = g.customer_index["c0"]
        sub = gr.sample_neighborhood_nodes(g, [c0], [], fanout=32, num_layers=1, seed=0)
        # c0 spends into t0,t4 and receives t2
        got = set(map(int, sub.levels_t[1]))
        assert got == {g.txn_index["t0"], g.txn_index["t4"], g.txn_index["t2"]}

    def test_binding_cap_samples_exactly_fanout(self):
        rng = np.random.default_rng(9)
        profiles = [gr.CustomerProfile("hub", rng.normal(size=2))]
        txns = [gr.RawTransaction(f"t{j:03d}", "hub", "EXTERNAL", float(j),
                                  rng.normal(size=2)) for j in range(100)]
        g = gr.build_graph(txns, profiles)
        sub = gr.sample_neighborhood_nodes(g, [0], [], fanout=32, num_layers=1, seed=4)
        assert len(sub.levels_t[1]) == 32
        assert len(np.unique(sub.levels_t[1])) == 32

    def test_cap_keeps_each_edge_uniformly(self):
        """Over 2000 seeds, each of a degree-100 owner's edges is kept at
        fanout 10 with frequency 0.1 +- 0.03 (about 4.5 standard errors)."""
        rng = np.random.default_rng(9)
        profiles = [gr.CustomerProfile("hub", rng.normal(size=2))]
        txns = [gr.RawTransaction(f"t{j:03d}", "hub", "EXTERNAL", float(j),
                                  rng.normal(size=2)) for j in range(100)]
        g = gr.build_graph(txns, profiles)
        kept = np.zeros(g.n_transactions)
        for seed in range(2000):
            sub = gr.sample_neighborhood_nodes(g, [0], [], fanout=10,
                                               num_layers=1, seed=seed)
            assert len(sub.levels_t[1]) == 10
            kept[sub.levels_t[1]] += 1
        freq = kept / 2000
        assert np.all(np.abs(freq - 0.1) <= 0.03), (freq.min(), freq.max())

    @given(counts=st.lists(st.integers(0, 12), max_size=8),
           fanout=st.integers(1, 5), seed=st.integers(0, 2 ** 64 - 1),
           relation=st.integers(0, 3), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_cap_matches_reference_loop(self, counts, fanout, seed, relation,
                                        data):
        """The vectorized bottom-k equals a per-owner loop over Python ints."""
        mask = (1 << 64) - 1

        def splitmix64(x):
            x = (x + 0x9E3779B97F4A7C15) & mask
            x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
            x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
            return x ^ (x >> 31)

        owners = data.draw(st.lists(st.integers(0, 10 ** 6), min_size=len(counts),
                                    max_size=len(counts), unique=True))
        nbrs = np.arange(sum(counts), dtype=np.int64) * 3
        want_nbrs, start = [], 0
        for owner, count in zip(owners, counts):
            row = nbrs[start:start + count].tolist()
            start += count
            if count > fanout:
                h = splitmix64(splitmix64(splitmix64(seed) ^ relation) ^ owner)
                keys = [splitmix64((h + i * 0x9E3779B97F4A7C15) & mask)
                        for i in range(count)]
                ranked = sorted(range(count), key=lambda i: (keys[i], i))
                row = [row[i] for i in sorted(ranked[:fanout])]
            want_nbrs += row
        got_nbrs, got_counts = gr._cap(
            np.array(owners, dtype=np.int64), nbrs,
            np.array(counts, dtype=np.int64), fanout, seed, relation)
        assert got_nbrs.tolist() == want_nbrs
        assert got_counts.tolist() == [min(c, fanout) for c in counts]

    @pytest.mark.parametrize("seed", [-1, np.random.default_rng(0), 2 ** 64,
                                      1.0, True, None],
                             ids=["negative", "generator", "too-large", "float",
                                  "bool", "none"])
    def test_seed_must_be_non_negative_int(self, seed):
        g = toy_graph()
        with pytest.raises(ConfigError):
            gr.sample_neighborhood_nodes(g, [0], [], fanout=2, num_layers=1,
                                         seed=seed)

    def test_sample_independent_of_other_seeds(self):
        """A node's sample is a function of the node: sampling it with other
        seed nodes adds their samples, and drops none of its own edges."""
        rng = np.random.default_rng(17)
        txns, profiles = random_records(rng, n_c=6, n_t=120)
        g = gr.build_graph(txns, profiles)
        assert np.diff(g.out_indptr).max() > 3   # the cap truncates
        alone = gr.sample_neighborhood_nodes(g, [2], [], fanout=3, num_layers=1,
                                             seed=5)
        together = gr.sample_neighborhood_nodes(g, [0, 2, 5], [], fanout=3,
                                                num_layers=1, seed=5)
        pos = int(np.searchsorted(together.levels_c[0], 2))
        for rel in (gr.OUT_REV, gr.IN_FWD):
            own = together.layers[0][rel][1] == pos
            np.testing.assert_array_equal(edge_txns(together, 0, rel)[own],
                                          edge_txns(alone, 0, rel))

    def test_subset_of_true_neighborhood(self):
        rng = np.random.default_rng(10)
        txns, profiles = random_records(rng, n_c=10, n_t=60)
        g = gr.build_graph(txns, profiles)
        for seed in range(5):
            pair_c = int(rng.integers(0, g.n_customers))
            pair_t = int(rng.integers(0, g.n_transactions))
            sub = gr.sample_neighborhood(g, [(pair_c, pair_t)], fanout=2,
                                         num_layers=2, seed=seed)
            oracle = bfs_levels(g, [pair_c], [pair_t], 2)
            for h in range(3):
                assert set(map(int, sub.levels_c[h])) <= oracle[h][0]
                assert set(map(int, sub.levels_t[h])) <= oracle[h][1]

    def test_full_fanout_equals_bfs(self):
        rng = np.random.default_rng(11)
        txns, profiles = random_records(rng, n_c=10, n_t=60)
        g = gr.build_graph(txns, profiles)
        sub = gr.sample_neighborhood_nodes(g, [0, 3], [5], fanout=1000,
                                           num_layers=3, seed=0)
        oracle = bfs_levels(g, [0, 3], [5], 3)
        for h in range(4):
            assert set(map(int, sub.levels_c[h])) == oracle[h][0]
            assert set(map(int, sub.levels_t[h])) == oracle[h][1]

    def test_no_rng_when_cap_not_binding(self):
        rng = np.random.default_rng(12)
        txns, profiles = random_records(rng, n_c=10, n_t=60)
        g = gr.build_graph(txns, profiles)
        a = gr.sample_neighborhood_nodes(g, [1], [2], fanout=1000, num_layers=2, seed=0)
        b = gr.sample_neighborhood_nodes(g, [1], [2], fanout=1000, num_layers=2, seed=777)
        assert subgraphs_equal(a, b)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(13)
        txns, profiles = random_records(rng, n_c=6, n_t=80)
        g = gr.build_graph(txns, profiles)
        a = gr.sample_neighborhood_nodes(g, [0, 1], [], fanout=3, num_layers=2, seed=21)
        b = gr.sample_neighborhood_nodes(g, [0, 1], [], fanout=3, num_layers=2, seed=21)
        assert subgraphs_equal(a, b)

    def test_levels_nested_and_seeds_first(self):
        rng = np.random.default_rng(14)
        txns, profiles = random_records(rng)
        g = gr.build_graph(txns, profiles)
        sub = gr.sample_neighborhood(g, [(0, 0), (2, 5)], fanout=4, num_layers=3, seed=5)
        np.testing.assert_array_equal(sub.levels_c[0], [0, 2])
        np.testing.assert_array_equal(sub.levels_t[0], [0, 5])
        for levels in (sub.levels_c, sub.levels_t):
            for h in range(sub.depth):
                # each level is a prefix of the next; each hop appends its
                # newly reached nodes, sorted
                np.testing.assert_array_equal(levels[h], levels[h + 1][:len(levels[h])])
                assert np.all(np.diff(levels[h + 1][len(levels[h]):]) > 0)
            assert len(np.unique(levels[-1])) == len(levels[-1])
        for i in range(1, sub.depth):   # layer i's edges are a prefix of layer i-1's
            for rel in gr.RELATIONS:
                for a, b in zip(sub.layers[i][rel], sub.layers[i - 1][rel]):
                    np.testing.assert_array_equal(a, b[:len(a)])

    def test_localized_edges_consistent(self):
        # every (src_local, dst_local) pair decodes to a real edge, named by its transaction
        rng = np.random.default_rng(15)
        txns, profiles = random_records(rng)
        g = gr.build_graph(txns, profiles)
        sub = gr.sample_neighborhood_nodes(g, [0, 1, 2], [0, 1], fanout=3,
                                           num_layers=2, seed=6)
        for i, layer in enumerate(sub.layers):
            c_in, t_in = sub.levels_c[sub.depth - i], sub.levels_t[sub.depth - i]
            c_out, t_out = sub.levels_c[sub.depth - i - 1], sub.levels_t[sub.depth - i - 1]
            for rel, (src, dst) in layer.items():
                for s, d, e in zip(src, dst, edge_txns(sub, i, rel)):
                    if rel == gr.OUT_FWD:
                        assert g.o_src[t_out[d]] == c_in[s] and t_out[d] == e
                    elif rel == gr.OUT_REV:
                        assert g.o_src[t_in[s]] == c_out[d] and t_in[s] == e
                    elif rel == gr.IN_FWD:
                        assert g.i_dst[t_in[s]] == c_out[d] and t_in[s] == e
                    else:
                        assert g.i_dst[t_out[d]] == c_in[s] and t_out[d] == e

    def test_removed_mask_matches_rebuilt_graph(self):
        rng = np.random.default_rng(16)
        txns, profiles = random_records(rng, n_c=8, n_t=50)
        g = gr.build_graph(txns, profiles)
        victim = next(t for t in txns if t.source_customer != "EXTERNAL")
        vidx = g.txn_index[victim.txn_id]
        removed = np.zeros(g.n_transactions, dtype=bool)
        removed[vidx] = True
        rebuilt = gr.build_graph(
            [gr.RawTransaction(t.txn_id, "EXTERNAL" if t is victim else t.source_customer,
                               t.dest_customer, t.timestamp, t.features) for t in txns],
            profiles)
        seeds = ([int(g.o_src[vidx])], [vidx])
        a = gr.sample_neighborhood_nodes(g, *seeds, fanout=3, num_layers=2, seed=9,
                                         removed_out=removed)
        b = gr.sample_neighborhood_nodes(rebuilt, *seeds, fanout=3, num_layers=2, seed=9)
        assert subgraphs_equal(a, b)

    def test_bad_args(self):
        g = toy_graph()
        with pytest.raises(ConfigError):
            gr.sample_neighborhood_nodes(g, [0], [], fanout=0, num_layers=1, seed=0)
        with pytest.raises(ConfigError):
            gr.sample_neighborhood_nodes(g, [0], [], fanout=2, num_layers=0, seed=0)
        with pytest.raises(ConfigError):
            gr.sample_neighborhood_nodes(g, [99], [], fanout=2, num_layers=1, seed=0)


class TestRows:
    """`graph._Rows`, the sampler's row map: dense below n, sorted keys
    from n up, merged in as each grow reaches them."""

    @given(data=st.data(), n=st.integers(1, 12), parts=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_grow_matches_dict(self, data, n, parts):
        key = st.one_of(st.integers(0, n - 1), st.integers(n, n * (parts + 1) - 1))
        rows, ref, blocks = gr._Rows(n), {}, []
        every_key = np.arange(n * (parts + 1) + 2)
        for _ in range(data.draw(st.integers(1, 6), label="grows")):
            reached = data.draw(st.lists(st.lists(key, max_size=10), min_size=1, max_size=3),
                                label="reached")
            if ref and data.draw(st.booleans(), label="known keys"):
                reached.append(data.draw(st.lists(st.sampled_from(sorted(ref)), min_size=1),
                                         label="known"))
            new = rows.grow(*(np.array(r, dtype=np.int64) for r in reached))
            want = sorted({k for r in reached for k in r} - set(ref))
            assert new.tolist() == want
            ref.update((k, len(ref)) for k in want)
            blocks.append(([k // n for k in want], [k % n for k in want]))
            assert rows[every_key].tolist() == [ref.get(int(k), -1) for k in every_key]
            assert np.all(rows.keys[1:] > rows.keys[:-1])
            assert rows.keys[-1] == np.iinfo(np.int64).max
            assert [(p.tolist(), i.tolist()) for p, i in rows.blocks] == blocks


class TestSever:
    """Severing is the sampler's removed_out/removed_in mask; the oracle is
    the same records rebuilt with the severed endpoints set to EXTERNAL."""

    @staticmethod
    def mask(g, names):
        removed = np.zeros(g.n_transactions, dtype=bool)
        removed[[g.txn_index[n] for n in names]] = True
        return removed

    def test_sever_outgoing_keeps_incoming(self):
        g = toy_graph()
        t0 = g.txn_index["t0"]
        cut = gr.sample_neighborhood_nodes(g, [0, 1], [t0], fanout=32, num_layers=2,
                                           seed=0, removed_out=self.mask(g, ["t0"]))
        for i in range(cut.depth):
            assert t0 not in edge_txns(cut, i, gr.OUT_FWD)
            assert t0 not in edge_txns(cut, i, gr.OUT_REV)
        assert any(t0 in edge_txns(cut, i, gr.IN_FWD) for i in range(cut.depth))

    def test_sever_missing_edge_noop(self):
        g = toy_graph()
        sub = gr.sample_neighborhood_nodes(g, [0], [], fanout=32, num_layers=2, seed=0)
        # t3 is not among this neighborhood's incoming edges
        cut = gr.sample_neighborhood_nodes(g, [0], [], fanout=32, num_layers=2, seed=0,
                                           removed_in=self.mask(g, ["t3"]))
        assert subgraphs_equal(sub, cut)

    def test_other_direction_untouched(self):
        g = toy_graph()
        sub = gr.sample_neighborhood_nodes(g, [0, 1, 2], [], fanout=32,
                                           num_layers=2, seed=0)
        cut = gr.sample_neighborhood_nodes(g, [0, 1, 2], [], fanout=32, num_layers=2,
                                           seed=0, removed_in=self.mask(g, ["t1"]))
        t1 = g.txn_index["t1"]
        assert any(t1 in edge_txns(sub, i, gr.IN_FWD) for i in range(sub.depth))
        assert not any(t1 in edge_txns(cut, i, gr.IN_FWD) for i in range(cut.depth))
        for before, after in zip(sub.layers, cut.layers):
            for rel in (gr.OUT_FWD, gr.OUT_REV):
                for u, v in zip(before[rel], after[rel]):
                    np.testing.assert_array_equal(u, v)

    @given(data_seed=st.integers(0, 2 ** 32 - 1),
           sample_seed=st.integers(0, 2 ** 32 - 1),
           direction=st.sampled_from(gr.DIRECTIONS),
           fanout=st.integers(1, 4), num_layers=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_mask_equals_rebuilt_graph(self, data_seed, sample_seed, direction,
                                       fanout, num_layers):
        rng = np.random.default_rng(data_seed)
        txns, profiles = random_records(rng, n_c=8, n_t=60)
        g = gr.build_graph(txns, profiles)
        other = gr.INCOMING if direction == gr.OUTGOING else gr.OUTGOING
        # the other side stays known, so the rebuilt records stay valid
        severable = np.flatnonzero((g.edge_endpoints(direction) >= 0)
                                   & (g.edge_endpoints(other) >= 0))
        victims = rng.choice(severable, replace=False,
                             size=int(rng.integers(1, severable.size + 1)))
        removed = np.zeros(g.n_transactions, dtype=bool)
        removed[victims] = True
        cut = {g.txn_ids[v] for v in victims}
        side = "source_customer" if direction == gr.OUTGOING else "dest_customer"
        rebuilt = gr.build_graph(
            [dataclasses.replace(t, **{side: gr.EXTERNAL}) if t.txn_id in cut
             else t for t in txns], profiles)
        seeds_c = rng.choice(g.n_customers, size=2, replace=False)
        seeds_t = rng.choice(g.n_transactions, size=3, replace=False)
        mask = {"removed_out" if direction == gr.OUTGOING else "removed_in": removed}
        a = gr.sample_neighborhood_nodes(g, seeds_c, seeds_t, fanout, num_layers,
                                         sample_seed, **mask)
        b = gr.sample_neighborhood_nodes(rebuilt, seeds_c, seeds_t, fanout,
                                         num_layers, sample_seed)
        assert subgraphs_equal(a, b)


class TestResolve:
    def test_block_and_flags(self):
        g = toy_graph()
        new = [gr.RawTransaction("x0", "c0", "c3", 60.0, np.array([5.0, 5.0])),
               gr.RawTransaction("x1", "ghost", "c1", 61.0, np.array([1.0, 2.0])),
               gr.RawTransaction("x2", "EXTERNAL", "c2", 62.0, np.array([0.0, 0.0]))]
        x, ends, cold = gr.resolve_transactions(g, new)
        assert g.n_transactions == 5  # the reference graph is untouched
        idx = g.customer_index
        assert ends.tolist() == [[idx["c0"], idx["c3"]], [-1, idx["c1"]],
                                 [-1, idx["c2"]]]
        assert cold.tolist() == [[False, False], [True, False], [False, False]]
        for row, t in zip(x, new):
            assert row.tobytes() == g.standardize_transaction_features(t.features).tobytes()


def reference_build_graph(transactions, profiles):
    """`build_graph` as it was written, checking record by record: the
    reference of the array record check."""
    if not profiles:
        raise IngestError("no customer profiles given")
    profiles = sorted(profiles, key=lambda p: p.customer_id)
    ids = [p.customer_id for p in profiles]
    for a, b in zip(ids, ids[1:]):
        if a == b:
            raise IngestError(f"duplicate customer id {a!r}")
    if gr.EXTERNAL in set(ids):
        raise IngestError(f"{gr.EXTERNAL!r} is reserved and cannot be a customer id")
    d_c = len(profiles[0].features)
    raw_c = np.zeros((len(profiles), d_c))
    for i, p in enumerate(profiles):
        raw_c[i] = gr._feature_row("customer", p.customer_id, p.features, d_c)
    transactions = sorted(transactions, key=lambda t: t.txn_id)
    tids = [t.txn_id for t in transactions]
    for a, b in zip(tids, tids[1:]):
        if a == b:
            raise IngestError(f"duplicate transaction id {a!r}")
    index = {cid: i for i, cid in enumerate(ids)}
    n_t = len(transactions)
    d_t = len(transactions[0].features) if transactions else 0
    raw_t = np.zeros((n_t, d_t))
    o_src = np.full(n_t, -1, dtype=np.int64)
    i_dst = np.full(n_t, -1, dtype=np.int64)
    timestamps = np.zeros(n_t)
    for j, t in enumerate(transactions):
        raw_t[j] = gr._transaction_row(t, d_t)
        timestamps[j] = float(t.timestamp)
        for side, cid, arr in (("source", t.source_customer, o_src),
                               ("dest", t.dest_customer, i_dst)):
            if cid == gr.EXTERNAL:
                continue
            if cid not in index:
                raise IngestError(f"transaction {t.txn_id!r} {side} references "
                                  f"unknown customer {cid!r}")
            arr[j] = index[cid]
    x_c, c_mean, c_std = gr._standardize(raw_c)
    x_t, t_mean, t_std = gr._standardize(raw_t)
    stats = {"c_mean": c_mean, "c_std": c_std, "t_mean": t_mean, "t_std": t_std}
    return gr.BipartiteGraph(ids, tids, x_c, x_t, o_src, i_dst, timestamps, stats)


def reference_resolve(g, transactions):
    """`resolve_transactions` as it was written, record by record."""
    seen = set()
    raw = np.zeros((len(transactions), g.d_transaction))
    ends = np.full((len(transactions), 2), -1, dtype=np.int64)
    cold = np.zeros((len(transactions), 2), dtype=bool)
    for k, t in enumerate(transactions):
        if t.txn_id in g.txn_index or t.txn_id in seen:
            raise IngestError(f"transaction id {t.txn_id!r} already present")
        seen.add(t.txn_id)
        raw[k] = gr._transaction_row(t, g.d_transaction)
        for side, cid in enumerate((t.source_customer, t.dest_customer)):
            if cid in g.customer_index:
                ends[k, side] = g.customer_index[cid]
            else:
                cold[k, side] = cid != gr.EXTERNAL
    return g.standardize_transaction_features(raw), ends, cold


def _arrays(value):
    """A graph or a tuple of arrays as comparable (dtype, shape, bytes)."""
    if isinstance(value, gr.BipartiteGraph):
        value = (value.customer_ids, value.txn_ids, value.x_c, value.x_t, value.o_src,
                 value.i_dst, value.timestamps, *value.stats.values())
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
            for a in value]


def _outcome(fn, *args):
    """("ok", arrays) or ("refused", message) of one call."""
    try:
        return "ok", _arrays(fn(*args))
    except IngestError as e:
        return "refused", str(e)


# Ways to break one record, each a fault the record check names
FAULTS = ("width", "nan", "inf", "timestamp", "external", "unknown", "repeated",
          "present")


def _break(batch, k, fault, graph_ids, rng):
    t = batch[k]
    f = np.array(t.features, dtype=np.float64)
    if fault == "width":
        short = len(f) and rng.random() < 0.5
        return dataclasses.replace(t, features=f[:-1] if short else np.append(f, 0.0))
    if fault in ("nan", "inf"):
        bad = np.nan if fault == "nan" else -np.inf
        if len(f):
            f[int(rng.integers(len(f)))] = bad
        return dataclasses.replace(t, features=f if len(f) else np.array([bad]))
    if fault == "timestamp":
        return dataclasses.replace(t, timestamp=float(rng.choice([np.nan, np.inf, -np.inf])))
    if fault == "external":
        return dataclasses.replace(t, source_customer=gr.EXTERNAL, dest_customer=gr.EXTERNAL)
    if fault == "unknown":
        side = "source_customer" if rng.random() < 0.5 else "dest_customer"
        return dataclasses.replace(t, **{side: "ghost"})
    if fault == "repeated":
        return dataclasses.replace(t, txn_id=batch[int(rng.integers(len(batch)))].txn_id)
    return dataclasses.replace(t, txn_id=graph_ids[int(rng.integers(len(graph_ids)))])


class TestArrayRecordCheck:
    """`build_graph` and `resolve_transactions` check a batch as arrays, and
    refuse or return exactly what the record-by-record reference does."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8),
           faults=st.lists(st.tuples(st.integers(0, 7), st.sampled_from(FAULTS)),
                           max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_same_result_or_refusal_as_reference(self, seed, n, faults):
        rng = np.random.default_rng(seed)
        txns, profiles = random_records(rng, n_c=6, n_t=12)
        g = reference_build_graph(txns, profiles)
        batch, _ = random_records(rng, n_c=6, n_t=n)
        batch = [dataclasses.replace(t, txn_id=f"x{j}") for j, t in enumerate(batch)]
        for k, fault in faults:
            batch[k % n] = _break(batch, k % n, fault, g.txn_ids, rng)
        for fn, ref, args in ((gr.build_graph, reference_build_graph, (txns + batch, profiles)),
                              (gr.resolve_transactions, reference_resolve, (g, batch))):
            want = _outcome(ref, *args)
            assert _outcome(fn, *args) == want
            if not faults:
                assert want[0] == "ok"


def _first(arr, value):
    """A copy of `arr` whose first entry is `value`."""
    out = np.array(arr, dtype=np.float64)
    out.flat[0] = value
    return out


def _corrupt(g, field, value):
    """A stand-in graph for `save_graph` with one array (or stat) replaced."""
    attrs = {name: getattr(g, name) for name in (
        "customer_ids", "txn_ids", "x_c", "x_t", "o_src", "i_dst", "timestamps")}
    attrs["stats"] = dict(g.stats)
    (attrs["stats"] if field in g.stats else attrs)[field] = value
    return types.SimpleNamespace(**attrs)


INCONSISTENT_SNAPSHOTS = {
    "o_src_short": ("o_src", lambda g: g.o_src[:-1]),
    "i_dst_long": ("i_dst", lambda g: np.append(g.i_dst, -1)),
    "timestamps_short": ("timestamps", lambda g: g.timestamps[:-1]),
    "x_c_rows": ("x_c", lambda g: g.x_c[:-1]),
    "x_t_rows": ("x_t", lambda g: g.x_t[:-1]),
    "x_t_flat": ("x_t", lambda g: g.x_t.ravel()),
    "endpoint_high": ("o_src", lambda g: np.where(g.o_src == 0, g.n_customers, g.o_src)),
    "endpoint_huge": ("i_dst", lambda g: np.where(g.i_dst == 0, 2 ** 62, g.i_dst)),
    "endpoint_below": ("o_src", lambda g: np.where(g.o_src < 0, -2, g.o_src)),
    "c_std_short": ("c_std", lambda g: g.stats["c_std"][:-1]),
    "t_mean_long": ("t_mean", lambda g: np.append(g.stats["t_mean"], 0.0)),
    "x_c_nan": ("x_c", lambda g: _first(g.x_c, np.nan)),
    "x_t_inf": ("x_t", lambda g: _first(g.x_t, np.inf)),
    "timestamps_nan": ("timestamps", lambda g: _first(g.timestamps, np.nan)),
    "t_mean_nan": ("t_mean", lambda g: _first(g.stats["t_mean"], np.nan)),
    "c_std_inf": ("c_std", lambda g: _first(g.stats["c_std"], np.inf)),
    "c_std_zero": ("c_std", lambda g: _first(g.stats["c_std"], 0.0)),
    "t_std_negative": ("t_std", lambda g: _first(g.stats["t_std"], -1.0)),
    # build_graph refuses these; a snapshot must not bring them back
    "customer_id_repeated": ("customer_ids",
                             lambda g: g.customer_ids[:1] * 2 + g.customer_ids[2:]),
    "txn_id_repeated": ("txn_ids", lambda g: g.txn_ids[:-1] + g.txn_ids[-2:-1]),
    "customer_id_external": ("customer_ids",
                             lambda g: (gr.EXTERNAL,) + g.customer_ids[1:]),
}


class TestPersistence:
    def test_jsonl_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        txns, profiles = random_records(rng)
        tp, pp = str(tmp_path / "t.jsonl"), str(tmp_path / "p.jsonl")
        gr.write_transactions(tp, txns)
        gr.write_profiles(pp, profiles)
        t2, p2 = gr.load_transactions(tp), gr.load_profiles(pp)
        g1 = gr.build_graph(txns, profiles)
        g2 = gr.build_graph(t2, p2)
        np.testing.assert_array_equal(g1.x_t, g2.x_t)
        np.testing.assert_array_equal(g1.o_src, g2.o_src)

    def test_jsonl_errors(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        with pytest.raises(IngestError):
            gr.load_profiles(str(bad))
        bad.write_text('{"customer_id": "a"}\n')
        with pytest.raises(IngestError):
            gr.load_profiles(str(bad))

    @pytest.mark.parametrize("line", [
        '{"txn_id": "t", "source": "a", "dest": "b", "timestamp": 1.0, "features": ["x"]}',
        '{"txn_id": "t", "source": "a", "dest": "b", "timestamp": "noon", "features": [1.0]}',
        '{"txn_id": "t", "source": "a", "dest": "b", "timestamp": 1.0}',
        '["t", "a", "b", 1.0, [1.0]]',
    ])
    def test_transaction_bad_values_rejected(self, tmp_path, line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"txn_id": "ok", "source": "a", "dest": "b", '
                       '"timestamp": 0.0, "features": [1.0]}\n' + line + "\n")
        with pytest.raises(IngestError, match="bad.jsonl:2:"):
            gr.load_transactions(str(bad))

    def test_snapshot_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        txns, profiles = random_records(rng)
        g = gr.build_graph(txns, profiles)
        path = str(tmp_path / "g.bin")
        gr.save_graph(g, path)
        g2 = gr.load_graph(path)
        assert g.customer_ids == g2.customer_ids
        assert g.txn_ids == g2.txn_ids
        assert g.x_c.tobytes() == g2.x_c.tobytes()
        assert g.x_t.tobytes() == g2.x_t.tobytes()
        np.testing.assert_array_equal(g.o_src, g2.o_src)
        np.testing.assert_array_equal(g.i_dst, g2.i_dst)
        np.testing.assert_array_equal(g.out_indptr, g2.out_indptr)
        for k in g.stats:
            np.testing.assert_array_equal(g.stats[k], g2.stats[k])

    def test_snapshot_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "g.bin"
        gr.save_graph(toy_graph(), str(path))
        blob = path.read_bytes()
        for n in range(len(blob)):
            path.write_bytes(blob[:n])
            with pytest.raises(IngestError):
                gr.load_graph(str(path))

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_SNAPSHOTS))
    def test_snapshot_inconsistent_rejected(self, tmp_path, case):
        g = toy_graph()
        path = str(tmp_path / "g.bin")
        field, value = INCONSISTENT_SNAPSHOTS[case]
        gr.save_graph(_corrupt(g, field, value(g)), path)
        with pytest.raises(IngestError, match="corrupt graph snapshot"):
            gr.load_graph(path)

    def test_snapshot_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(IngestError):
            gr.load_graph(str(path))
