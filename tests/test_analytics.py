import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amlgraph.analytics as an
import amlgraph.graph as gr
from amlgraph import cli
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
            assert customers[nid].tobytes() == row.tobytes()
        for nid, row in zip(t_ids, z_t):
            assert txns[nid].tobytes() == row.tobytes()

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


# floats whose text is hard to round-trip: signed zeros, subnormals, the
# largest finite values, and values where `repr` switches to exponent form
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
               1e308, -1e308, 1e16, 9999999999999998.0, 1e-4, 1e-5, 0.0001000000000000001,
               1.0000000000000002, 0.1, -123456789.123]
# ids with characters `str.splitlines` breaks on but the file iterator does not
ODD_IDS = ["a\x0bb", "a\x1cb", "a\u2028b", "a\x85b", "\xe9"]


def line_reader(path):
    """The line-by-line embedding reader: the refusals `read_embeddings`
    must make, with the same messages and lines."""
    tables = {"customer": {}, "transaction": {}}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header[:2] != ["node_type", "node_id"]:
                raise IngestError(f"{path}: not an embedding export")
            if len(header) < 3:
                raise IngestError(f"{path}: embedding export has no coordinate columns")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split("\t")
                if len(parts) != len(header):
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
        except UnicodeDecodeError as e:
            raise IngestError(f"{path}: not UTF-8 text: {e}") from e
    return tables["customer"], tables["transaction"]


def export_arrays(path, c_ids, z_c, t_ids, z_t):
    """`export_embeddings` of the given rows in place of a model's."""
    with mock.patch.object(an, "compute_embeddings", return_value=(c_ids, z_c, t_ids, z_t)):
        an.export_embeddings(None, None, path)


def snapshot_lines(n_c, n_t, width=3, seed=0):
    """A valid export's lines (no newlines), header first."""
    rng = np.random.default_rng(seed)
    head = "node_type\tnode_id\t" + "\t".join(f"v{i}" for i in range(width))
    rows = [f"{kind}\t{kind[0]}{i}{ODD_IDS[i % len(ODD_IDS)]}\t" +
            "\t".join(map(repr, rng.normal(size=width).tolist()))
            for kind, n in (("customer", n_c), ("transaction", n_t)) for i in range(n)]
    return [head] + rows


def apply_fault(lines, index, fault):
    """lines[index] (file line index + 1) given one of the reader's faults."""
    line = lines[index]
    kind, nid, *values = line.split("\t")
    lines[index] = {
        "columns": "\t".join([kind, nid, *values[:-1]]),
        "value": "\t".join([kind, nid, *values[:-1], "0x1f"]),
        "non-finite": "\t".join([kind, nid, *values[:-1], "1e400"]),
        "type": "\t".join(["account", nid, *values]),
        "repeated": "\t".join(lines[1].split("\t")[:2] + values),
        "utf8": line,
    }[fault]
    return line.split("\t")[1] if fault == "utf8" else None


def write_lines(path, lines, bad_bytes_in=()):
    """The lines joined by "\n"; ids named in `bad_bytes_in` get a 0xff byte."""
    blob = ("\n".join(lines) + "\n").encode("utf-8")
    for nid in bad_bytes_in:
        blob = blob.replace(nid.encode("utf-8"), nid.encode("utf-8") + b"\xff", 1)
    path.write_bytes(blob)


def refusal(read, path):
    with pytest.raises(IngestError) as info:
        read(str(path))
    return str(info.value)


FAULTS = ["columns", "value", "non-finite", "type", "repeated", "utf8"]


class TestSnapshotBlocks:
    """`read_embeddings` reads and `export_embeddings` writes `_BLOCK_ROWS`
    rows at a time, with the bytes and refusals of one row at a time."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_export_read_bitwise(self, tmp_path_factory, data):
        """Export then read gives every row's bits back, ids in any order."""
        block = an._BLOCK_ROWS
        n_c, n_t = (data.draw(st.integers(0, 2 * block + 2), label=f"{k} rows") for k in "ct")
        width = data.draw(st.integers(1, 5), label="width")
        pool = EDGE_FLOATS + data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False), max_size=6), label="floats")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        z_c, z_t = (np.array(pool)[rng.integers(0, len(pool), size=(n, width))]
                    for n in (n_c, n_t))
        c_ids, t_ids = ([f"{k}{i}{ODD_IDS[i % len(ODD_IDS)]}" for i in rng.permutation(n)]
                        for k, n in (("c", n_c), ("t", n_t)))
        path = str(tmp_path_factory.mktemp("emb") / "emb.tsv")
        export_arrays(path, c_ids, z_c, t_ids, z_t)
        with open(path, encoding="utf-8") as fh:   # the row-at-a-time format
            assert fh.read().split("\n")[1:] == [
                f"{kind}\t{nid}\t" + "\t".join(repr(float(v)) for v in row)
                for ids, z, kind in ((c_ids, z_c, "customer"), (t_ids, z_t, "transaction"))
                for nid, row in zip(ids, z)] + [""]
        customers, txns = an.read_embeddings(path)
        for table, ids, z in ((customers, c_ids, z_c), (txns, t_ids, z_t)):
            assert list(table) == ids
            assert all(table[nid].tobytes() == row.tobytes() for nid, row in zip(ids, z))

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_refusals_match_line_reader(self, tmp_path_factory, data):
        """One or two faults past the first block: the first in the file is
        refused, with the line reader's message."""
        block = an._BLOCK_ROWS
        lines = snapshot_lines(2 * block, block)
        at = data.draw(st.lists(st.integers(block + 1, len(lines) - 1), min_size=1,
                                max_size=2, unique=True), label="faulty lines")
        faults = [data.draw(st.sampled_from(FAULTS), label="fault") for _ in at]
        bad_bytes = [apply_fault(lines, i, f) for i, f in zip(at, faults)]
        path = tmp_path_factory.mktemp("emb") / "emb.tsv"
        write_lines(path, lines, [nid for nid in bad_bytes if nid])
        assert refusal(an.read_embeddings, path) == refusal(line_reader, path)

    @pytest.mark.parametrize("faults, message", [
        ([("columns", 300)], "{path}:300: wrong column count"),
        ([("value", 300)],
         "{path}:300: bad embedding value: could not convert string to float: '0x1f'"),
        ([("non-finite", 300)], "{path}:300: non-finite embedding value"),
        ([("type", 300)], "{path}:300: unknown node type 'account'"),
        ([("repeated", 300)], "{path}:300: customer 'c0a\\x0bb' is repeated"),
        # two faults: the earlier line wins, in one block or across blocks
        ([("non-finite", 270), ("columns", 280)], "{path}:270: non-finite embedding value"),
        ([("repeated", 300), ("value", 600)], "{path}:300: customer 'c0a\\x0bb' is repeated"),
        ([("columns", 600), ("type", 520)], "{path}:520: unknown node type 'account'"),
        ([("type", 300), ("utf8", 700)], "{path}:300: unknown node type 'account'"),
        # bad bytes some 8 KB decoder chunks on, in the same block
        ([("type", 270), ("utf8", 480)], "{path}:270: unknown node type 'account'")],
        ids=["columns", "value", "non-finite", "type", "repeated", "same-block",
             "later-block", "earlier-block", "before-utf8", "before-utf8-same-block"])
    def test_diverge_refusal_past_first_block(self, tmp_path, capsys, faults, message):
        """Through `diverge`: exit 2, one stderr line naming the file and
        line, no output."""
        lines = snapshot_lines(2 * an._BLOCK_ROWS, an._BLOCK_ROWS)
        bad_bytes = [apply_fault(lines, lineno - 1, fault) for fault, lineno in faults]
        path = tmp_path / "emb.tsv"
        write_lines(path, lines, [nid for nid in bad_bytes if nid])
        good = tmp_path / "good.tsv"
        write_lines(good, snapshot_lines(2 * an._BLOCK_ROWS, an._BLOCK_ROWS))
        out = tmp_path / "drift.jsonl"
        assert cli.main(["diverge", "--embeddings", str(good), str(path),
                         "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert refusal(line_reader, path) == message.format(path=path)

    @pytest.mark.parametrize("kind", ["customer", "transaction"])
    @pytest.mark.parametrize("brk", ["\t", "\n", "\r"])
    def test_id_breaking_a_field_refused(self, tmp_path, kind, brk):
        """An id no field can hold is refused before anything is written;
        the reader would split its row."""
        ids = {"customer": [f"c{i}" for i in range(300)],
               "transaction": [f"t{i}" for i in range(300)]}
        ids[kind][280] = f"x{brk}1"
        path = tmp_path / "emb.tsv"
        message = f"{kind} id {ids[kind][280]!r} holds a tab or line break"
        with pytest.raises(IngestError, match=re.escape(message)):
            export_arrays(str(path), ids["customer"], np.ones((300, 2)),
                          ids["transaction"], np.ones((300, 2)))
        assert not path.exists()

    def test_bad_bytes_past_first_block(self, tmp_path):
        lines = snapshot_lines(2 * an._BLOCK_ROWS, an._BLOCK_ROWS)
        path = tmp_path / "emb.tsv"
        write_lines(path, lines, [lines[600].split("\t")[1]])
        got = refusal(an.read_embeddings, path)
        assert got.startswith(f"{path}: not UTF-8 text: ") and got == refusal(line_reader, path)


class TestVecdotExact:
    """`divergence_report` takes every snapshot pair's cosines with
    `np.vecdot` over stacked rows. That has `cosine_similarity`'s bits only
    if, on the BLAS in use, a row's `vecdot` equals its `a @ b` and the
    square root of a row's `vecdot` with itself equals `np.linalg.norm`,
    bitwise. If this fails on another BLAS or CPU, report it; do not loosen it."""

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 15, 16, 31, 32, 33, 64, 200, 513])
    @pytest.mark.parametrize("rows", [1, 2, 300])
    def test_rows_equal_dot_and_norm(self, width, rows):
        rng = np.random.default_rng(width * 1000 + rows)
        a, b = (rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-100, 100, (rows, 1))
                for _ in range(2))
        dots, norms = np.vecdot(a, b), np.sqrt(np.vecdot(a, a))
        for i in range(rows):
            assert dots[i].tobytes() == (a[i] @ b[i]).tobytes()
            assert norms[i].tobytes() == np.linalg.norm(a[i]).tobytes()

    def test_report_equals_cosine_loop(self):
        """Entries, minima and flags have the bits of a per-customer
        `cosine_similarity` loop, rows scaled to overflow or underflow (its
        rescaled path) and customers of other widths included."""
        rng = np.random.default_rng(5)
        snaps = [{} for _ in range(3)]
        for i in range(40):
            width = 32 if i % 7 else 5
            scale = {0: 1e200, 1: 1e-200, 2: 1e160}.get(i % 9, 1.0)
            for snap in snaps:
                snap[f"c{i:02d}"] = rng.normal(size=width) * scale
        with np.errstate(all="raise"):   # the plain formula warns on none of them
            report = an.divergence_report(snaps, threshold=0.1)
        assert [r.customer_id for r in report] == sorted(snaps[0])
        for r in report:
            vecs = [snap[r.customer_id] for snap in snaps]
            m = np.eye(3)
            for i in range(3):
                for j in range(i + 1, 3):
                    m[i, j] = m[j, i] = an.cosine_similarity(vecs[i], vecs[j])
            assert r.similarity.tobytes() == m.tobytes()
            low = float(m[~np.eye(3, dtype=bool)].min())
            assert (r.min_similarity, r.diverging) == (low, low < 0.1)
            assert np.isfinite(r.similarity).all()

    def test_zero_vector_refused_before_later_customer_missing(self):
        """A customer's zero vector is refused (NumericalError) before a
        later customer's absence (IngestError), and after an earlier one's."""
        one = np.ones(3)
        zero = {"a": one, "b": np.zeros(3), "c": one}
        with pytest.raises(NumericalError, match="zero vector"):
            an.divergence_report([zero, {"a": one, "b": one}])
        with pytest.raises(IngestError, match="customer 'a' missing from snapshot 1"):
            an.divergence_report([zero, {"b": one, "c": one}])

    def test_zero_vector_diverge_is_3(self, tmp_path, capsys):
        lines = snapshot_lines(2 * an._BLOCK_ROWS, 1)
        kind, nid, *values = lines[400].split("\t")
        lines[400] = "\t".join([kind, nid] + ["0.0"] * len(values))
        path, good = tmp_path / "zero.tsv", tmp_path / "good.tsv"
        write_lines(path, lines)
        write_lines(good, snapshot_lines(2 * an._BLOCK_ROWS, 1))
        out = tmp_path / "drift.jsonl"
        assert cli.main(["diverge", "--embeddings", str(good), str(path),
                         "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err == \
            "error: cosine similarity of a zero vector is undefined\n"
