import numpy as np
import pytest

import amlgraph.analytics as an
import amlgraph.graph as gr
from amlgraph.errors import ConfigError, IngestError, NumericalError
from amlgraph.model import init_params


class TestCosine:
    def test_closed_forms(self):
        assert an.cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0
        assert abs(an.cosine_similarity([2.0, 0.0], [5.0, 0.0]) - 1.0) < 1e-15
        assert abs(an.cosine_similarity([1.0, 0.0], [1.0, 1.0])
                   - 1.0 / np.sqrt(2.0)) < 1e-12
        assert abs(an.cosine_similarity([1.0, 2.0], [-1.0, -2.0]) + 1.0) < 1e-15

    def test_matches_recomputation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=(2, 6))
            direct = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert abs(an.cosine_similarity(a, b) - direct) < 1e-12

    @pytest.mark.parametrize("scale", [1e200, 1e300, 1e-200, 1e-320])
    def test_extreme_magnitudes_finite(self, scale):
        """Vectors whose plain dot product or norms overflow or underflow
        still give the cosine of the same vectors at unit scale."""
        a, b = np.array([3.0, -1.0, 2.0]), np.array([1.0, 4.0, -2.0])
        got = an.cosine_similarity(scale * a, scale * b)
        assert abs(got - an.cosine_similarity(a, b)) < 1e-12
        assert an.cosine_similarity(scale * a, scale * a) == pytest.approx(1.0, abs=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(NumericalError):
            an.cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            an.cosine_similarity([1.0], [1.0, 2.0])


class TestDivergence:
    def snapshots(self, rot_angle):
        rng = np.random.default_rng(1)
        base = {f"c{i}": rng.normal(size=4) for i in range(5)}
        rot = {cid: v.copy() for cid, v in base.items()}
        rot["c3"] = -rot["c3"]  # flip one customer in later snapshots
        return [base, {c: v * (1 + rot_angle) for c, v in rot.items()}, rot]

    def test_matrix_properties(self):
        report = an.divergence_report(self.snapshots(0.05))
        assert [r.customer_id for r in report] == [f"c{i}" for i in range(5)]
        for r in report:
            assert np.array_equal(r.similarity, r.similarity.T)
            assert np.array_equal(np.diag(r.similarity), np.ones(3))

    def test_flagging_and_min(self):
        report = {r.customer_id: r for r in an.divergence_report(self.snapshots(0.05))}
        for cid, r in report.items():
            off = r.similarity[~np.eye(3, dtype=bool)]
            assert r.min_similarity == off.min()
            assert r.diverging == (r.min_similarity < 0.8)
        assert report["c3"].diverging            # sign flip: cosine -1
        assert not report["c0"].diverging        # pure scaling: cosine 1

    def test_entries_match_cosine(self):
        snaps = self.snapshots(0.2)
        report = an.divergence_report(snaps, customer_ids=["c1"])
        m = report[0].similarity
        for i in range(3):
            for j in range(i + 1, 3):
                expected = an.cosine_similarity(snaps[i]["c1"], snaps[j]["c1"])
                assert m[i, j] == expected

    def test_threshold_configurable(self):
        snaps = self.snapshots(0.0)[:2]
        strict = an.divergence_report(snaps, threshold=1.1)
        assert all(r.diverging for r in strict)

    def test_too_few_snapshots(self):
        with pytest.raises(ConfigError):
            an.divergence_report([{"c0": np.ones(2)}])

    def test_missing_customer(self):
        with pytest.raises(IngestError):
            an.divergence_report([{"c0": np.ones(2)}, {"c1": np.ones(2)}])


def toy_graph():
    rng = np.random.default_rng(4)
    profiles = [gr.CustomerProfile(f"c{i}", rng.normal(size=3)) for i in range(6)]
    txns = [gr.RawTransaction(f"t{j}", f"c{j % 6}", f"c{(j + 1) % 6}",
                              float(j), rng.normal(size=2)) for j in range(15)]
    return gr.build_graph(txns, profiles)


class TestEmbeddingExport:
    def test_round_trip_bitwise(self, tmp_path):
        g = toy_graph()
        params = init_params("sage", g.d_customer, g.d_transaction, 2, 8, 1)
        path = str(tmp_path / "emb.tsv")
        an.export_embeddings(params, g, path)
        customers, txns = an.read_embeddings(path)
        c_ids, z_c, t_ids, z_t = an.compute_embeddings(params, g)
        assert list(customers) == c_ids and list(txns) == t_ids
        for nid, row in zip(c_ids, z_c):
            assert np.array_equal(customers[nid], row)
        for nid, row in zip(t_ids, z_t):
            assert np.array_equal(txns[nid], row)

    def test_layer_selection(self):
        g = toy_graph()
        params = init_params("gat", g.d_customer, g.d_transaction, 2, 8, 2)
        _, z0, _, _ = an.compute_embeddings(params, g, layer=0)
        _, z1, _, _ = an.compute_embeddings(params, g, layer=1)
        assert not np.array_equal(z0, z1)
        _, z_default, _, _ = an.compute_embeddings(params, g)
        assert np.array_equal(z_default, z1)

    def test_invalid_layer(self):
        g = toy_graph()
        params = init_params("gin", g.d_customer, g.d_transaction, 2, 8, 1)
        with pytest.raises(ConfigError):
            an.compute_embeddings(params, g, layer=2)

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text("something\telse\n")
        with pytest.raises(IngestError):
            an.read_embeddings(str(path))

    @pytest.mark.parametrize("kind", ["customer", "transaction"])
    def test_repeated_node_rejected(self, tmp_path, kind):
        """A second row of one node is refused, not read over the first."""
        path = tmp_path / "emb.tsv"
        path.write_text(f"node_type\tnode_id\tv0\tv1\n{kind}\tx\t1.0\t0.0\n"
                        f"customer\ty\t1.0\t1.0\n{kind}\tx\t0.0\t1.0\n")
        with pytest.raises(IngestError, match=f"emb.tsv:4: {kind} 'x' is repeated"):
            an.read_embeddings(str(path))
