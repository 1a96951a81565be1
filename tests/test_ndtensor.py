"""Autodiff core: finite-difference gradient checks and op semantics."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amlgraph import ndtensor as nd
from amlgraph.errors import ConfigError, DimensionError


FD_H = 1e-5
# A central difference rounds by about eps * |loss| / h; an FD gradient
# below this floor cannot be told from zero.
FD_FLOOR = 1e3 * np.finfo(np.float64).eps / FD_H


def fd_grad(fn, x: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central finite differences of a scalar-valued fn at x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = fn(x)
        flat[i] = orig - h
        fm = fn(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def check_grad(build, x0: np.ndarray, tol: float = 1e-6):
    """build(tensor) -> scalar Tensor; compares tape grad to FD grad.

    Where the FD gradient is below FD_FLOOR the tape gradient must be too;
    elsewhere the error relative to the largest FD gradient is below tol.
    """
    x = nd.Tensor(x0.copy(), requires_grad=True)
    with nd.Tape() as tape:
        loss = build(x)
    tape.backward(loss)
    assert x.grad is not None

    def scalar(arr):
        return build(nd.Tensor(arr)).data.item()

    ref = fd_grad(scalar, x0.copy())
    zero = np.abs(ref) < FD_FLOOR
    assert np.all(np.abs(x.grad[zero]) < FD_FLOOR), (
        f"grad {np.abs(x.grad[zero]).max()} where the FD grad is zero")
    err = np.abs(x.grad - ref)[~zero]
    assert zero.all() or err.max() / np.abs(ref).max() < tol, (
        f"grad mismatch: max abs err {err.max()}"
    )


RNG = np.random.default_rng(20240811)


def reference_gat_relation(h_src, h_self, a_src, a_dst, src, dst, heads):
    """The op chain gat_aggregate replaced, as numpy, for its forward's
    bits: per-head scores from separate row-exact block-diagonal products,
    the self terms concatenated after the edges, then one segment softmax
    and one scatter over both. Returns (out, edge_alpha, self_alpha)."""
    n, width = h_self.shape
    d_head = width // heads

    def head_dot(h, a):
        blocks = np.zeros((width, heads))
        blocks[np.arange(width), np.arange(width) // d_head] = a[0]
        return nd._row_exact(h, blocks)

    def leaky(x):
        return np.where(x > 0.0, x, nd.LEAKY_SLOPE * x)

    s_src, s_dst = head_dot(h_src, a_src), head_dot(h_self, a_dst)
    logits = np.concatenate([leaky(s_dst[dst] + s_src[src]),
                             leaky(s_dst + head_dot(h_self, a_src))])
    segments = np.concatenate([dst, np.arange(n)])
    m = np.full((n, heads), -np.inf)
    np.maximum.at(m, segments, logits)
    e = np.exp(logits - m[segments])
    denom = np.zeros((n, heads))
    np.add.at(denom, segments, e)
    alpha = e / denom[segments]
    values = np.concatenate([h_src[src], h_self]) * np.repeat(alpha, d_head, axis=1)
    out = np.zeros((n, width))
    np.add.at(out, segments, values)
    return out, alpha[:len(dst)], alpha[len(dst):]


def gat_inputs(rng, n_src, n, heads, d_head):
    """h_src, h_self, a_src, a_dst as arrays."""
    width = heads * d_head
    return (rng.normal(size=(n_src, width)), rng.normal(size=(n, width)),
            rng.normal(size=(1, width)), rng.normal(size=(1, width)))


def run_gat(arrays, src, dst, heads):
    out, edge_alpha, self_alpha = nd.gat_aggregate(
        *(nd.Tensor(x) for x in arrays), np.asarray(src), np.asarray(dst), heads)
    return out.data, edge_alpha, self_alpha


class TestTapeMechanics:
    def test_no_tape_no_grad(self):
        x = nd.Tensor(RNG.normal(size=(3, 3)), requires_grad=True)
        y = nd.relu(x)
        assert x.grad is None and y.grad is None

    def test_sum_gradient_is_ones(self):
        x = nd.Tensor(RNG.normal(size=(4, 5)), requires_grad=True)
        with nd.Tape() as tape:
            loss = nd.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((4, 5)))

    def test_fanout_accumulates(self):
        # loss = sum(x*x) + sum(x): grad = 2x + 1
        x0 = RNG.normal(size=(3,))
        x = nd.Tensor(x0, requires_grad=True)
        with nd.Tape() as tape:
            loss = nd.add(nd.sum_all(nd.hadamard(x, x)), nd.sum_all(x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x0 + 1, rtol=1e-12)

    def test_backward_accumulates_until_reset(self):
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with nd.Tape() as tape:
            loss = nd.sum_all(x)
        tape.backward(loss)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))
        nd.zero_grad([x])
        assert x.grad is None

    def test_nested_tape_rejected(self):
        with nd.Tape():
            with pytest.raises(ConfigError):
                with nd.Tape():
                    pass

    def test_nonscalar_backward_rejected(self):
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with nd.Tape() as tape:
            y = nd.relu(x)
        with pytest.raises(DimensionError):
            tape.backward(y)

    def test_replay_deterministic(self):
        x0 = RNG.normal(size=(6, 4))
        w0 = RNG.normal(size=(4, 2))

        def run():
            x = nd.Tensor(x0, requires_grad=True)
            w = nd.Tensor(w0, requires_grad=True)
            with nd.Tape() as tape:
                loss = nd.sum_all(nd.sigmoid(nd.matmul(x, w)))
            tape.backward(loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)


class TestGradients:
    def test_input_of_add_and_another_op(self):
        """add's backward hands one array to both inputs; a tensor that
        feeds add and another op must not see the other input's gradient
        land in its own: loss = s + u + 3s with s = x, u = 2x gives 6."""
        x = nd.Tensor(np.ones(3), requires_grad=True)
        with nd.Tape() as tape:
            s = nd.scale(x, 1.0)
            u = nd.scale(x, 2.0)
            v = nd.scale(s, 3.0)
            loss = nd.sum_all(nd.add(nd.add(s, u), v))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full(3, 6.0))

    def test_matmul(self):
        b = nd.Tensor(RNG.normal(size=(4, 3)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.matmul(x, b))),
                   RNG.normal(size=(5, 4)))

    def test_matmul_right(self):
        a = nd.Tensor(RNG.normal(size=(5, 4)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.matmul(a, x))),
                   RNG.normal(size=(4, 3)))

    def test_add_broadcast(self):
        b = nd.Tensor(RNG.normal(size=(1, 4)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.add(x, b))),
                   RNG.normal(size=(3, 4)))
        a = nd.Tensor(RNG.normal(size=(3, 4)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.add(a, x))),
                   RNG.normal(size=(1, 4)))

    def test_hadamard(self):
        b = nd.Tensor(RNG.normal(size=(3, 4)))
        check_grad(lambda x: nd.sum_all(nd.hadamard(x, b)), RNG.normal(size=(3, 4)))

    def test_scale(self):
        check_grad(lambda x: nd.sum_all(nd.scale(x, -2.5)), RNG.normal(size=(7,)))

    def test_relu(self):
        x0 = RNG.normal(size=(50,))
        x0[np.abs(x0) < 1e-3] = 0.5  # stay away from the kink
        check_grad(lambda x: nd.sum_all(nd.hadamard(nd.relu(x), nd.relu(x))), x0)

    def test_leaky_relu(self):
        x0 = RNG.normal(size=(50,))
        x0[np.abs(x0) < 1e-3] = -0.5
        check_grad(lambda x: nd.sum_all(nd.hadamard(nd.leaky_relu(x), nd.leaky_relu(x))), x0)

    def test_leaky_relu_slope(self):
        y = nd.leaky_relu(nd.Tensor([-10.0, 10.0]))
        np.testing.assert_allclose(y.data, [-2.0, 10.0])

    def test_sigmoid(self):
        check_grad(lambda x: nd.sum_all(nd.sigmoid(x)), RNG.normal(size=(20,)))

    def test_sigmoid_extreme_inputs_finite(self):
        y = nd.sigmoid(nd.Tensor([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data, [0.0, 0.5, 1.0], atol=1e-12)

    def test_concat(self):
        b = nd.Tensor(RNG.normal(size=(3, 2)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.concat([x, b], axis=1))),
                   RNG.normal(size=(3, 4)))

    def test_reshape(self):
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.reshape(x, (2, 6)))),
                   RNG.normal(size=(3, 4)))

    def test_transpose2d(self):
        w = nd.Tensor(RNG.normal(size=(3, 5)))
        check_grad(lambda x: nd.sum_all(nd.matmul(w, nd.transpose2d(x))),
                   RNG.normal(size=(4, 5)))

    def test_mean_rows(self):
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.mean_rows(x))),
                   RNG.normal(size=(6, 3)))

    def test_gather_rows(self):
        idx = np.array([0, 2, 2, 1, 0])
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.gather_rows(x, idx))),
                   RNG.normal(size=(3, 4)))

    def test_segment_sum(self):
        seg = np.array([0, 0, 1, 2, 2, 2])
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.segment_sum(x, seg, 3))),
                   RNG.normal(size=(6, 2)))

    def test_segment_softmax(self):
        seg = np.array([0, 0, 0, 1, 1, 2])
        w = nd.Tensor(RNG.normal(size=(6, 2)))
        check_grad(
            lambda x: nd.sum_all(nd.hadamard(nd.segment_softmax(x, seg, 3), w)),
            RNG.normal(size=(6, 2)))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gat_aggregate(self, heads):
        """All four inputs, on a relation with a repeated source row and a
        destination with no incoming edge, then on one with no edges.
        The a_dst gradient can be exactly zero: where the logits of a
        softmax segment share a side of the leaky ReLU, the destination's
        score shifts them all alike."""
        rng = np.random.default_rng(heads)   # leaves RNG to the later tests
        inputs = gat_inputs(rng, 5, 4, heads, 3)
        w = nd.Tensor(rng.normal(size=(4, 3 * heads)))
        for src, dst in (([0, 2, 2, 4, 1, 2], [0, 0, 1, 2, 2, 2]), ([], [])):
            for k in range(4):
                def build(x, k=k, src=src, dst=dst):
                    args = [x if j == k else nd.Tensor(a) for j, a in enumerate(inputs)]
                    out, _, _ = nd.gat_aggregate(*args, np.array(src, dtype=np.int64),
                                                 np.array(dst, dtype=np.int64), heads)
                    return nd.sum_all(nd.hadamard(nd.sigmoid(out), w))

                check_grad(build, inputs[k].copy())

    @staticmethod
    def check_rule(loss, x0, analytic, tol=1e-6):
        """analytic (an array like x0) against the FD gradient of loss at x0."""
        ref = fd_grad(loss, x0.copy())
        assert np.abs(analytic - ref).max() / max(np.abs(ref).max(), 1e-8) < tol

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_head_dot(self, heads):
        """The gradient rules gat_aggregate's backward applies to a per-head
        inner product: _head_dot_grad for the attention row, _head_scale of
        the attention row for the node rows."""
        rng = np.random.default_rng(heads)   # leaves RNG to the later tests
        width = 3 * heads
        a = rng.normal(size=(1, width))
        h = rng.normal(size=(5, width))
        g = nd.sigmoid(nd.Tensor(nd._head_dot(h, a, heads))).data
        g = g * (1.0 - g)     # upstream gradient of the sum of sigmoids
        self.check_rule(lambda x: nd.sigmoid(nd.Tensor(nd._head_dot(h, x, heads))).data.sum(),
                        a, nd._head_dot_grad(h, g))
        self.check_rule(lambda x: nd.sigmoid(nd.Tensor(nd._head_dot(x, a, heads))).data.sum(),
                        h, nd._head_scale(a, g))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_head_scale(self, heads):
        """The gradient rules gat_aggregate's backward applies to a per-head
        scaling: _head_scale by the coefficients for the values, _head_sums
        of gradient times values for the coefficients."""
        rng = np.random.default_rng(heads)   # leaves RNG to the later tests
        width = 3 * heads
        alpha = rng.uniform(0.1, 1.0, size=(5, heads))
        v = rng.normal(size=(5, width))
        g = nd.sigmoid(nd.Tensor(nd._head_scale(v, alpha))).data
        g = g * (1.0 - g)
        self.check_rule(lambda x: nd.sigmoid(nd.Tensor(nd._head_scale(x, alpha))).data.sum(),
                        v, nd._head_scale(g, alpha))
        self.check_rule(lambda x: nd.sigmoid(nd.Tensor(nd._head_scale(v, x))).data.sum(),
                        alpha, nd._head_sums(g * v, heads))

    def test_bce(self):
        x0 = RNG.uniform(0.1, 0.9, size=(8,))
        t = (RNG.random(8) > 0.5).astype(float)
        check_grad(lambda x: nd.bce(x, t), x0)

    def test_batch_norm_train(self):
        gamma = nd.Tensor(RNG.normal(size=(4,)))
        beta = nd.Tensor(RNG.normal(size=(4,)))

        def build(x):
            state = nd.BatchNormState(4)
            return nd.sum_all(nd.sigmoid(nd.batch_norm(x, gamma, beta, state, True)))

        check_grad(build, RNG.normal(size=(6, 4)))

    def test_batch_norm_affine_grads(self):
        x0 = RNG.normal(size=(6, 4))
        state = nd.BatchNormState(4)
        for which in ("gamma", "beta"):
            p0 = RNG.normal(size=(4,))

            def build(p, which=which):
                g = p if which == "gamma" else nd.Tensor(np.ones(4))
                b = p if which == "beta" else nd.Tensor(np.zeros(4))
                st0 = nd.BatchNormState(4)
                return nd.sum_all(
                    nd.sigmoid(nd.batch_norm(nd.Tensor(x0), g, b, st0, True)))

            check_grad(build, p0)
        assert state.running_var[0] == 1.0  # untouched instance

    def test_batch_norm_inference(self):
        state = nd.BatchNormState(3)
        state.running_mean = np.array([1.0, -1.0, 0.5])
        state.running_var = np.array([4.0, 0.25, 1.0])
        gamma = nd.Tensor(RNG.normal(size=(3,)))
        beta = nd.Tensor(RNG.normal(size=(3,)))
        check_grad(
            lambda x: nd.sum_all(nd.sigmoid(nd.batch_norm(x, gamma, beta, state, False))),
            RNG.normal(size=(5, 3)))


class TestScatter:
    """The scatter under gather_rows' backward and every segment op."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_equal_to_add_at(self, data):
        n = data.draw(st.integers(1, 12), label="n")
        ids = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=40),
                                 label="ids"), dtype=np.int64)
        width = data.draw(st.sampled_from([None, 1, 4, 32]), label="width")
        tail = () if width is None else (width,)
        values = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=len(ids)
                                    * (width or 1), max_size=len(ids) * (width or 1)))
        x = np.array(values, dtype=np.float64).reshape((len(ids),) + tail)
        want = np.zeros((n,) + tail)
        np.add.at(want, ids, x)
        got = nd._scatter_add(x, ids, n)
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tail", [(), (1,), (4,), (2, 3)])
    def test_empty_input_is_float_zeros(self, tail):
        got = nd._scatter_add(np.zeros((0,) + tail), np.zeros(0, dtype=np.int64), 3)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, np.zeros((3,) + tail))

    @pytest.mark.parametrize("ids", [[1, 0], [1, 1]])
    def test_negative_zero_becomes_zero(self, ids):
        """A bin's sum starts from 0.0, so a lone -0.0 term gives 0.0 with
        distinct ids (a row assignment) as with repeated ones."""
        x = np.array([[-0.0, 1.0], [-0.0, -0.0]])
        ids = np.array(ids)
        want = np.zeros((3, 2))
        np.add.at(want, ids, x)
        assert nd._scatter_add(x, ids, 3).tobytes() == want.tobytes()

    def test_higher_rank_rows(self):
        x = RNG.normal(size=(5, 2, 3))
        ids = np.array([0, 2, 2, 1, 0])
        want = np.zeros((3, 2, 3))
        np.add.at(want, ids, x)
        assert nd._scatter_add(x, ids, 3).tobytes() == want.tobytes()


class TestHeadOps:
    def test_head_dot_matches_per_head_sums(self):
        h = RNG.normal(size=(6, 8))
        a = RNG.normal(size=(1, 8))
        got = nd._head_dot(h, a, 4)
        want = (h * a).reshape(6, 4, 2).sum(axis=2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_head_scale_scales_each_block(self):
        v = RNG.normal(size=(3, 6))
        alpha = RNG.uniform(size=(3, 2))
        got = nd._head_scale(v, alpha)
        assert got.tobytes() == (v * np.repeat(alpha, 3, axis=1)).tobytes()

    def test_shape_errors(self):
        ok = [np.ones((2, 6)), np.ones((3, 6)), np.ones((1, 6)), np.ones((1, 6))]
        edges = (np.array([0, 1]), np.array([2, 0]))
        run_gat(ok, *edges, 2)
        for k, bad in ((0, np.ones((2, 4))), (1, np.ones((3, 4))),
                       (2, np.ones((1, 4))), (3, np.ones((2, 6)))):
            with pytest.raises(DimensionError):
                run_gat(ok[:k] + [bad] + ok[k + 1:], *edges, 2)
        with pytest.raises(DimensionError):
            run_gat(ok, *edges, 4)             # 6 columns do not split into 4 heads
        with pytest.raises(DimensionError):
            run_gat(ok, np.array([0, 1]), np.array([2]), 2)


class TestGatAggregate:
    """gat_aggregate against the op chain it replaced and its semantics."""

    @given(data=st.data(), heads=st.sampled_from([1, 2, 4]), d_head=st.integers(1, 9),
           n_src=st.integers(1, 60), n=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_forward_bitwise_equals_op_chain(self, data, heads, d_head, n_src, n, seed):
        rng = np.random.default_rng(seed)
        n_edges = data.draw(st.sampled_from([0, 1, 5, 40, 300]), label="edges")
        src = rng.integers(0, n_src, n_edges)    # repeats sources
        dst = rng.integers(0, data.draw(st.integers(1, n), label="reached"), n_edges)
        if data.draw(st.booleans(), label="sorted"):
            order = np.argsort(dst, kind="stable")
            src, dst = src[order], dst[order]
        arrays = [x * data.draw(st.sampled_from([1.0, 30.0]), label="scale")
                  for x in gat_inputs(rng, n_src, n, heads, d_head)]
        got = run_gat(arrays, src, dst, heads)
        want = reference_gat_relation(*arrays, src, dst, heads)
        for g, w in zip(got, want, strict=True):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_gradients_match_op_chain(self, heads):
        """The hand-written backward against the tape of the op chain, built
        from public ops (per-head sums as products with a 0/1 matrix);
        only the order of the gradient sums differs."""
        rng = np.random.default_rng(heads)
        n_src, n, d_head = 30, 20, 3
        arrays = gat_inputs(rng, n_src, n, heads, d_head)
        src, dst = rng.integers(0, n_src, 90), rng.integers(0, n - 3, 90)
        ones = np.zeros((heads * d_head, heads))
        ones[np.arange(heads * d_head), np.arange(heads * d_head) // d_head] = 1.0
        per_head, spread = nd.Tensor(ones), nd.Tensor(ones.T)
        w = nd.Tensor(rng.normal(size=(n, heads * d_head)))

        def chain(h_src, h_self, a_src, a_dst):
            def head_dot(h, a):
                return nd.matmul(nd.hadamard(h, a), per_head)

            s_src, s_dst = head_dot(h_src, a_src), head_dot(h_self, a_dst)
            logits = nd.concat([
                nd.leaky_relu(nd.add(nd.gather_rows(s_dst, dst), nd.gather_rows(s_src, src))),
                nd.leaky_relu(nd.add(s_dst, head_dot(h_self, a_src)))], axis=0)
            segments = np.concatenate([dst, np.arange(n)])
            alpha = nd.segment_softmax(logits, segments, n)
            values = nd.concat([nd.gather_rows(h_src, src), h_self], axis=0)
            return nd.segment_sum(nd.hadamard(values, nd.matmul(alpha, spread)),
                                  segments, n)

        def fused(*tensors):
            return nd.gat_aggregate(*tensors, src, dst, heads)[0]

        grads = []
        for build in (chain, fused):
            tensors = [nd.Tensor(x.copy(), requires_grad=True) for x in arrays]
            with nd.Tape() as tape:
                loss = nd.sum_all(nd.hadamard(nd.sigmoid(build(*tensors)), w))
            tape.backward(loss)
            grads.append([t.grad for t in tensors])
        for want, got in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_bits_do_not_depend_on_how_nodes_edges_interleave(self, heads):
        """Reordering edges so that each node keeps its own edges' order
        (here: one side of every edge is distinct, the other grouped) moves
        no bit of the output or of any gradient."""
        rng = np.random.default_rng(heads)
        arrays = gat_inputs(rng, 40, 40, heads, 5)
        w = rng.normal(size=(40, 5 * heads))
        distinct, grouped = rng.permutation(40)[:30], rng.integers(0, 6, 30)
        # a shuffle of the edges that keeps each grouped node's edges in order
        shuffled = rng.permutation(30)
        for node in np.unique(grouped):
            shuffled[grouped[shuffled] == node] = np.flatnonzero(grouped == node)
        for src, dst in ((distinct, grouped), (grouped, distinct)):
            runs = []
            # grouped destinations come unsorted, shuffled and sorted (no argsort)
            for order in (np.arange(30), shuffled, np.argsort(grouped, kind="stable")):
                tensors = [nd.Tensor(x, requires_grad=True) for x in arrays]
                with nd.Tape() as tape:
                    out, edge_alpha, _ = nd.gat_aggregate(*tensors, src[order], dst[order],
                                                          heads)
                    loss = nd.sum_all(nd.hadamard(out, nd.Tensor(w)))
                tape.backward(loss)
                runs.append([out.data, edge_alpha[np.argsort(order)]]
                            + [t.grad for t in tensors])
            for run in runs[1:]:
                for a, b in zip(runs[0], run, strict=True):
                    assert a.tobytes() == b.tobytes()

    @given(n=st.integers(1, 40), heads=st.sampled_from([1, 2, 4]), d_head=st.integers(1, 6),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_one_edge_per_destination(self, n, heads, d_head, seed):
        """A relation whose destinations each have one edge (every
        transaction destination): its softmax takes each edge's logit as
        the max, in destination order with the op chain's bits, and
        shuffled with the bits of the ordered edges, gradients too."""
        rng = np.random.default_rng(seed)
        arrays = gat_inputs(rng, n, n, heads, d_head)
        dst = np.sort(rng.permutation(n)[:rng.integers(0, n + 1)])
        src = rng.permutation(n)[:len(dst)]
        w = rng.normal(size=(n, heads * d_head))
        got = run_gat(arrays, src, dst, heads)
        for g, want in zip(got, reference_gat_relation(*arrays, src, dst, heads), strict=True):
            assert g.tobytes() == want.tobytes()
        runs = []
        for edges in (np.arange(len(dst)), rng.permutation(len(dst))):
            tensors = [nd.Tensor(x, requires_grad=True) for x in arrays]
            with nd.Tape() as tape:
                out, edge_alpha, _ = nd.gat_aggregate(*tensors, src[edges], dst[edges], heads)
                loss = nd.sum_all(nd.hadamard(out, nd.Tensor(w)))
            tape.backward(loss)
            runs.append([out.data, edge_alpha[np.argsort(edges)]] + [t.grad for t in tensors])
        for a, b in zip(*runs, strict=True):
            assert a.tobytes() == b.tobytes()

    def test_no_edges_gives_each_destination_itself(self):
        arrays = gat_inputs(RNG, 3, 4, 2, 3)
        out, edge_alpha, self_alpha = run_gat(arrays, [], [], 2)
        assert edge_alpha.shape == (0, 2)
        np.testing.assert_array_equal(self_alpha, np.ones((4, 2)))
        np.testing.assert_array_equal(out, arrays[1])

    def test_destination_without_edges_keeps_its_row(self):
        arrays = gat_inputs(RNG, 3, 3, 4, 2)
        out, _, self_alpha = run_gat(arrays, [0, 1, 2], [0, 0, 2], 4)
        np.testing.assert_array_equal(self_alpha[1], np.ones(4))
        np.testing.assert_array_equal(out[1], arrays[1][1])
        assert np.all(self_alpha[[0, 2]] < 1.0)

    def test_repeated_source_row(self):
        """Two edges from one source row into one destination are equal
        terms: equal coefficients, and the sum is the one-edge formula
        with that coefficient doubled."""
        arrays = gat_inputs(RNG, 2, 1, 2, 3)
        out, edge_alpha, self_alpha = run_gat(arrays, [1, 1], [0, 0], 2)
        assert edge_alpha[0].tobytes() == edge_alpha[1].tobytes()
        np.testing.assert_allclose(2 * edge_alpha[0] + self_alpha[0], 1.0, rtol=1e-14)
        want = (np.repeat(2 * edge_alpha[0], 3) * arrays[0][1]
                + np.repeat(self_alpha[0], 3) * arrays[1][0])
        np.testing.assert_allclose(out[0], want, rtol=1e-13)


# row counts on both sides of BLAS's switch from small-matrix to packed kernels
ROWS = st.one_of(st.integers(1, 40), st.integers(41, 1500))


class TestRowExact:
    """Each row of a forward product is bit-equal to the product of that
    row alone, at every row count, so batching rows changes no result."""

    @staticmethod
    def _check_rows(op, x, data):
        whole = op(x)
        for i in range(len(x)):
            assert op(x[i:i + 1]).tobytes() == whole[i:i + 1].tobytes(), i
        lo = data.draw(st.integers(0, len(x) - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, len(x)), label="hi")
        assert op(x[lo:hi]).tobytes() == whole[lo:hi].tobytes()

    @given(data=st.data(), m=ROWS,
           k=st.one_of(st.integers(0, 70), st.integers(250, 600)),
           n=st.one_of(st.just(1), st.integers(1, 40), st.sampled_from([64, 128])),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matmul(self, data, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(m, k)), nd.Tensor(rng.normal(size=(k, n)))
        self._check_rows(lambda x: nd.matmul(nd.Tensor(x), b).data, a, data)

    @given(data=st.data(), m=ROWS, heads=st.sampled_from([1, 2, 4]),
           d_head=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_head_dot(self, data, m, heads, d_head, seed):
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(m, heads * d_head))
        a = rng.normal(size=(1, heads * d_head))
        self._check_rows(lambda x: nd._head_dot(x, a, heads), h, data)

    @given(data=st.data(), n=st.one_of(st.integers(1, 40), st.integers(41, 400)),
           heads=st.sampled_from([1, 2, 4]), d_head=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gat_aggregate(self, data, n, heads, d_head, seed):
        """Each destination encoded alone, from only the source rows its
        edges read, has the bits of its row in the whole."""
        rng = np.random.default_rng(seed)
        n_src = data.draw(st.integers(1, 300), label="n_src")
        n_edges = data.draw(st.integers(0, 3 * n), label="edges")
        h_src, h_self, a_src, a_dst = gat_inputs(rng, n_src, n, heads, d_head)
        src, dst = rng.integers(0, n_src, n_edges), rng.integers(0, n, n_edges)
        whole = run_gat((h_src, h_self, a_src, a_dst), src, dst, heads)
        for i in data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8),
                           label="destinations"):
            mine = dst == i
            used, local = np.unique(src[mine], return_inverse=True)
            alone = run_gat((h_src[used], h_self[i:i + 1], a_src, a_dst),
                            local, np.zeros(len(local), dtype=np.int64), heads)
            assert alone[0].tobytes() == whole[0][i:i + 1].tobytes()
            assert alone[1].tobytes() == whole[1][mine].tobytes()
            assert alone[2].tobytes() == whole[2][i:i + 1].tobytes()

    @given(data=st.data(), m=ROWS, heads=st.sampled_from([1, 2, 4, 8]),
           side=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_head_dot_side_by_side(self, data, m, heads, side, seed):
        """Attention rows scored side by side, in one product with their
        block-diagonals next to each other, give column block by column
        block the bits of each row scored alone, at every row count. The
        product widths side*heads include those (1-4 mod 8) that BLAS
        rounds differently at different row counts."""
        d_head = data.draw(st.integers(-(-16 // heads), 48), label="d_head")
        rng = np.random.default_rng(seed)
        h = rng.normal(size=(m, heads * d_head))
        a = rng.normal(size=(side, heads * d_head))
        whole = nd._head_dot(h, a, heads)
        assert whole.shape == (m, side * heads)
        for j in range(side):
            alone = nd._head_dot(h, a[j:j + 1], heads)
            assert whole[:, j * heads:(j + 1) * heads].tobytes() == alone.tobytes(), j
        self._check_rows(lambda x: nd._head_dot(x, a, heads), h, data)

    def test_values_match_plain_product(self):
        a, b = RNG.normal(size=(5, 300)), RNG.normal(size=(300, 3))
        np.testing.assert_allclose(nd.matmul(nd.Tensor(a), nd.Tensor(b)).data,
                                   a @ b, rtol=1e-12)


class TestOpSemantics:
    def test_segment_softmax_matches_direct_formula(self):
        x = RNG.normal(size=(7,))
        seg = np.array([0, 1, 0, 1, 0, 2, 2])
        y = nd.segment_softmax(nd.Tensor(x), seg, 3).data
        for s in range(3):
            m = seg == s
            expect = np.exp(x[m]) / np.exp(x[m]).sum()
            np.testing.assert_allclose(y[m], expect, rtol=1e-12)

    def test_segment_softmax_sums_to_one(self):
        for trial in range(20):
            rng = np.random.default_rng(trial)
            n, k = rng.integers(2, 40), rng.integers(1, 5)
            seg = np.sort(rng.integers(0, k, size=n))
            x = nd.Tensor(rng.normal(size=(n,)) * 10)
            y = nd.segment_softmax(x, seg, k).data
            sums = np.zeros(k)
            np.add.at(sums, seg, y)
            present = np.isin(np.arange(k), seg)
            np.testing.assert_allclose(sums[present], 1.0, atol=1e-12)

    def test_segment_softmax_shift_invariant(self):
        x = RNG.normal(size=(6,))
        seg = np.array([0, 0, 1, 1, 1, 0])
        a = nd.segment_softmax(nd.Tensor(x), seg, 2).data
        b = nd.segment_softmax(nd.Tensor(x + 1000.0), seg, 2).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @given(data=st.data(), n=st.integers(1, 30), heads=st.sampled_from([1, 4]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_softmax_paths_match_unsorted_formula(self, data, n, heads, seed):
        """_softmax skips the argsort for segment ids in order; unsorted,
        repeated, in-order and one-per-segment ids all give the bits of the
        per-entry formula (maximum.at, add.at), with and without a last
        member per segment."""
        rng = np.random.default_rng(seed)
        if data.draw(st.booleans(), label="one per segment"):
            ids = rng.permutation(n)[:data.draw(st.integers(0, n), label="rows")]
        else:
            ids = rng.integers(0, n, data.draw(st.integers(0, 3 * n), label="rows"))
        if data.draw(st.booleans(), label="in order"):
            ids = np.sort(ids)
        d = rng.normal(size=(len(ids), heads)) * 30
        last = rng.normal(size=(n, heads)) * 30 if data.draw(st.booleans(), label="last") else None
        rows = d if last is None else np.concatenate([d, last])
        segments = ids if last is None else np.concatenate([ids, np.arange(n)])
        m = np.full((n, heads), -np.inf)
        np.maximum.at(m, segments, rows)
        e = np.exp(rows - m[segments])
        denom = np.zeros((n, heads))
        np.add.at(denom, segments, e)
        want = e / denom[segments]
        y, y_last = nd._softmax(d, ids, n, last)
        assert y.tobytes() == want[:len(ids)].tobytes()
        if last is not None:
            assert y_last.tobytes() == want[len(ids):].tobytes()

    def test_dropout_inference_identity(self):
        x = nd.Tensor(RNG.normal(size=(5, 5)))
        y = nd.dropout(x, 0.4, 0, training=False)
        assert y is x

    def test_dropout_zero_rate_identity(self):
        x = nd.Tensor(RNG.normal(size=(5, 5)))
        assert nd.dropout(x, 0.0, 0, training=True) is x

    def test_dropout_invalid_rate(self):
        x = nd.Tensor(np.ones(3))
        with pytest.raises(ConfigError):
            nd.dropout(x, 1.0, 0, training=True)
        with pytest.raises(ConfigError):
            nd.dropout(x, -0.1, 0, training=True)

    def test_dropout_seed_deterministic(self):
        x = nd.Tensor(RNG.normal(size=(10, 10)))
        a = nd.dropout(x, 0.5, 77, training=True).data
        b = nd.dropout(x, 0.5, 77, training=True).data
        np.testing.assert_array_equal(a, b)

    def test_dropout_expectation(self):
        # mean over 10^4 seeds approximates the identity
        x = nd.Tensor(np.full((4, 4), 2.0))
        acc = np.zeros((4, 4))
        for seed in range(10_000):
            acc += nd.dropout(x, 0.3, seed, training=True).data
        mean = acc / 10_000
        assert abs(mean.mean() - 2.0) / 2.0 < 0.01
        np.testing.assert_allclose(mean, x.data, rtol=0.05)

    def test_dropout_grad_masks_match(self):
        x = nd.Tensor(RNG.normal(size=(8, 8)), requires_grad=True)
        with nd.Tape() as tape:
            y = nd.dropout(x, 0.5, 5, training=True)
            loss = nd.sum_all(y)
        tape.backward(loss)
        keep = y.data != 0
        np.testing.assert_allclose(x.grad[keep], 2.0, rtol=1e-12)
        np.testing.assert_array_equal(x.grad[~keep], 0.0)

    def test_bce_hand_value(self):
        # -log(0.5) twice, averaged
        loss = nd.bce(nd.Tensor([0.5, 0.5]), np.array([1.0, 0.0]))
        assert abs(loss.data.item() - math.log(2.0)) < 1e-12

    def test_bce_clamps_at_zero_and_one(self):
        loss = nd.bce(nd.Tensor([0.0, 1.0]), np.array([1.0, 0.0]))
        expect = -math.log(nd.BCE_EPS)
        assert abs(loss.data.item() - expect) < 1e-9
        x = nd.Tensor([0.0, 1.0], requires_grad=True)
        with nd.Tape() as tape:
            loss = nd.bce(x, np.array([1.0, 0.0]))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, 0.0)  # flat outside the clamp

    def test_batch_norm_normalizes_batch(self):
        x = nd.Tensor(RNG.normal(loc=3.0, scale=2.0, size=(64, 5)))
        state = nd.BatchNormState(5)
        gamma = nd.Tensor(np.ones(5))
        beta = nd.Tensor(np.zeros(5))
        y = nd.batch_norm(x, gamma, beta, state, True).data
        np.testing.assert_allclose(y.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(y.var(axis=0), 1.0, atol=1e-4)

    def test_batch_norm_running_stats_update(self):
        x = RNG.normal(size=(32, 3))
        state = nd.BatchNormState(3)
        gamma, beta = nd.Tensor(np.ones(3)), nd.Tensor(np.zeros(3))
        nd.batch_norm(nd.Tensor(x), gamma, beta, state, True)
        np.testing.assert_allclose(state.running_mean, 0.1 * x.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(state.running_var,
                                   0.9 * 1.0 + 0.1 * x.var(axis=0), rtol=1e-12)

    def test_batch_norm_inference_uses_running_stats(self):
        state = nd.BatchNormState(2)
        state.running_mean = np.array([2.0, -2.0])
        state.running_var = np.array([4.0, 9.0])
        x = nd.Tensor([[4.0, 1.0]])
        y = nd.batch_norm(x, nd.Tensor(np.ones(2)), nd.Tensor(np.zeros(2)), state, False)
        np.testing.assert_allclose(
            y.data, [[2.0 / math.sqrt(4 + 1e-5), 3.0 / math.sqrt(9 + 1e-5)]], rtol=1e-12)

    def test_batch_norm_rejects_single_row_training(self):
        state = nd.BatchNormState(2)
        with pytest.raises(DimensionError):
            nd.batch_norm(nd.Tensor([[1.0, 2.0]]), nd.Tensor(np.ones(2)),
                          nd.Tensor(np.zeros(2)), state, True)

    def test_matmul_shape_errors(self):
        with pytest.raises(DimensionError):
            nd.matmul(nd.Tensor(np.ones((2, 3))), nd.Tensor(np.ones((4, 2))))
        with pytest.raises(DimensionError):
            nd.matmul(nd.Tensor(np.ones(3)), nd.Tensor(np.ones((3, 2))))


class TestSerialization:
    def test_round_trip(self):
        buf = io.BytesIO()
        arrs = [RNG.normal(size=s) for s in [(3, 4), (7,), (2, 3, 4), ()]]
        for a in arrs:
            nd.write_array(buf, a)
        buf.seek(0)
        for a in arrs:
            b = nd.read_array(buf)
            assert b.shape == np.asarray(a).shape
            np.testing.assert_array_equal(b, a)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              width=64), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_exact_bits(self, values):
        buf = io.BytesIO()
        a = np.array(values)
        nd.write_array(buf, a)
        buf.seek(0)
        b = nd.read_array(buf)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("header", [(2, 60000, 60000), (1 << 30,)])
    def test_oversized_header_rejected_before_reading(self, header):
        """A shape header larger than the rest of the file is refused
        without asking the file for that many bytes."""
        class Spy(io.BytesIO):
            largest = 0

            def read(self, size=-1):
                Spy.largest = max(Spy.largest, size)
                return super().read(size)

        buf = io.BytesIO()
        nd.write_array(buf, np.ones((2, 3)))
        raw = bytearray(buf.getvalue())
        struct.pack_into(f"<{len(header)}I", raw, 0, *header)
        spy = Spy(bytes(raw))
        with pytest.raises(ValueError):
            nd.read_array(spy)
        assert Spy.largest <= len(raw)
