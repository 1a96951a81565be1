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


def fd_grad(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
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
    """build(tensor) -> scalar Tensor; compares tape grad to FD grad."""
    x = nd.Tensor(x0.copy(), requires_grad=True)
    with nd.Tape() as tape:
        loss = build(x)
    tape.backward(loss)
    assert x.grad is not None

    def scalar(arr):
        return build(nd.Tensor(arr)).data.item()

    ref = fd_grad(scalar, x0.copy())
    denom = max(np.abs(ref).max(), 1e-8)
    assert np.abs(x.grad - ref).max() / denom < tol, (
        f"grad mismatch: max abs err {np.abs(x.grad - ref).max()}"
    )


RNG = np.random.default_rng(20240811)


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
    def test_head_dot(self, heads):
        width = 3 * heads
        a = nd.Tensor(RNG.normal(size=(1, width)))
        h = nd.Tensor(RNG.normal(size=(5, width)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.head_dot(x, a, heads))),
                   RNG.normal(size=(5, width)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.head_dot(h, x, heads))),
                   RNG.normal(size=(1, width)))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_head_scale(self, heads):
        width = 3 * heads
        alpha = nd.Tensor(RNG.uniform(0.1, 1.0, size=(5, heads)))
        v = nd.Tensor(RNG.normal(size=(5, width)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.head_scale(x, alpha))),
                   RNG.normal(size=(5, width)))
        check_grad(lambda x: nd.sum_all(nd.sigmoid(nd.head_scale(v, x))),
                   RNG.uniform(0.1, 1.0, size=(5, heads)))

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
        got = nd.head_dot(nd.Tensor(h), nd.Tensor(a), 4).data
        want = (h * a).reshape(6, 4, 2).sum(axis=2)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_head_scale_scales_each_block(self):
        v = RNG.normal(size=(3, 6))
        alpha = RNG.uniform(size=(3, 2))
        got = nd.head_scale(nd.Tensor(v), nd.Tensor(alpha)).data
        assert got.tobytes() == (v * np.repeat(alpha, 3, axis=1)).tobytes()

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            nd.head_dot(nd.Tensor(np.ones((2, 6))), nd.Tensor(np.ones((1, 4))), 2)
        with pytest.raises(DimensionError):
            nd.head_dot(nd.Tensor(np.ones((2, 6))), nd.Tensor(np.ones((1, 6))), 4)
        with pytest.raises(DimensionError):
            nd.head_scale(nd.Tensor(np.ones((2, 6))), nd.Tensor(np.ones((3, 2))))


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
        a = nd.Tensor(rng.normal(size=(1, heads * d_head)))
        self._check_rows(lambda x: nd.head_dot(nd.Tensor(x), a, heads).data, h, data)

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
