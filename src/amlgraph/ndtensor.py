"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is built on numpy arrays in row-major order. Operations run
eagerly; when a Tape is active (``with Tape() as tape:``) each op that
touches a grad-requiring tensor records a backward rule, and
``tape.backward(loss)`` replays the records in reverse to accumulate
gradients into the ``.grad`` of every leaf tensor with
``requires_grad=True``.

Tapes are thread-confined: the active tape lives in thread-local state,
so independent tapes may run in parallel threads without sharing state.
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from typing import BinaryIO, Sequence

import numpy as np

from .errors import ConfigError, DimensionError

BCE_EPS = 1e-7
BN_EPS = 1e-5
BN_MOMENTUM = 0.1
LEAKY_SLOPE = 0.2
# operand shapes at which BLAS products are row-exact (see _row_exact)
_COL_BLOCK = 8
_INNER_BLOCK = 256

_local = threading.local()


class Tensor:
    """A dense float64 array plus autodiff bookkeeping."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of operations for one reverse pass.

    Inputs of an operation always precede it on the tape, so a single
    reverse traversal visits each record exactly once.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Tape":
        if getattr(_local, "tape", None) is not None:
            raise ConfigError("a Tape is already active in this thread")
        _local.tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _local.tape = None

    def record(self, output: Tensor, inputs: tuple[Tensor, ...], backward) -> None:
        self._records.append((output, inputs, backward))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every requires_grad leaf.

        Gradients add onto whatever is already in ``.grad``; callers reset
        with :func:`zero_grad` before each backward.
        """
        if loss.size != 1:
            raise DimensionError(f"backward needs a scalar loss, got shape {loss.shape}")
        produced = {id(out) for out, _, _ in self._records}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for out, inputs, backward in reversed(self._records):
            g = grads.pop(id(out), None)
            if g is None:
                continue
            in_grads = backward(g)
            for k, (t, gi) in enumerate(zip(inputs, in_grads)):
                if gi is None or not t.requires_grad:
                    continue
                if any(gi is other for other in in_grads[:k]):
                    gi = gi.copy()   # e.g. add's; accumulation below is in place
                if id(t) in grads:
                    grads[id(t)] += gi
                elif id(t) in produced:
                    grads[id(t)] = gi
                else:  # leaf: deposit
                    if t.grad is None:
                        t.grad = np.array(gi, dtype=np.float64)
                    else:
                        t.grad += gi


def active_tape() -> Tape | None:
    return getattr(_local, "tape", None)


def zero_grad(tensors: Sequence[Tensor]) -> None:
    for t in tensors:
        t.grad = None


def _maybe_record(out: Tensor, inputs: tuple[Tensor, ...], backward) -> Tensor:
    tape = active_tape()
    if tape is not None and out.requires_grad:
        tape.record(out, inputs, backward)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# arithmetic


def _row_exact(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D arrays, each output row a function of its own row of a.

    BLAS rounds a row of a product the same way at every row count only
    under three conditions, so the operands are brought to them: a 1-row
    a is padded to 2 rows (numpy sends 1 row to gemv), b is padded with
    zero columns to a multiple of _COL_BLOCK (narrower column tails round
    differently at different row counts), and the inner dimension is cut
    into blocks of at most _INNER_BLOCK whose products are added in order
    (BLAS blocks a longer one differently at different row counts). A
    record encoded inside a batch thus gets the bits it gets alone.

    `_head_dot` relies on a fourth condition, which no padding enforces:
    each output column's bits do not depend on the other columns of b, so
    an attention row scored beside another gets the bits it gets alone.
    tests/test_ndtensor.py::TestRowExact::test_head_dot_side_by_side checks
    it on the BLAS in use; a BLAS that fails it breaks `gat_aggregate`'s
    bits.
    """
    m, n = a.shape[0], b.shape[1]
    if m == 1:
        a = np.concatenate([a, a])
    if n % _COL_BLOCK:
        b = np.concatenate([b, np.zeros((b.shape[0], -n % _COL_BLOCK))], axis=1)
    out = a[:, :_INNER_BLOCK] @ b[:_INNER_BLOCK]
    for lo in range(_INNER_BLOCK, b.shape[0], _INNER_BLOCK):
        out += a[:, lo:lo + _INNER_BLOCK] @ b[lo:lo + _INNER_BLOCK]
    return np.ascontiguousarray(out[:m, :n])


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b; the forward product is row-exact (see _row_exact)."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.shape} x {b.shape}")
    out = Tensor(_row_exact(a.data, b.data), a.requires_grad or b.requires_grad)

    def backward(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _maybe_record(out, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError as e:
        raise DimensionError(f"add shapes incompatible: {a.shape} + {b.shape}") from e
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def backward(g):
        ga = _unbroadcast(g, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return ga, gb

    return _maybe_record(out, (a, b), backward)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError as e:
        raise DimensionError(f"hadamard shapes incompatible: {a.shape} * {b.shape}") from e
    out = Tensor(data, a.requires_grad or b.requires_grad)

    def backward(g):
        ga = _unbroadcast(g * b.data, a.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.shape) if b.requires_grad else None
        return ga, gb

    return _maybe_record(out, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, a.requires_grad)

    def backward(g):
        return (g * s,)

    return _maybe_record(out, (a,), backward)


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0), x.requires_grad)

    def backward(g):
        return (g * (x.data > 0.0),)

    return _maybe_record(out, (x,), backward)


def _leaky_slope(x: np.ndarray, slope: float = LEAKY_SLOPE) -> np.ndarray:
    """The leaky ReLU's derivative at x; its output is x times this."""
    return np.where(x > 0.0, 1.0, slope)


def leaky_relu(x: Tensor, slope: float = LEAKY_SLOPE) -> Tensor:
    k = _leaky_slope(x.data, slope)
    out = Tensor(x.data * k, x.requires_grad)

    def backward(g):
        return (g * k,)

    return _maybe_record(out, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                 np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    out = Tensor(s, x.requires_grad)

    def backward(g):
        return (g * s * (1.0 - s),)

    return _maybe_record(out, (x,), backward)


def dropout(x: Tensor, p: float, rng, training: bool) -> Tensor:
    """Inverted dropout; exact identity in inference mode.

    ``rng`` is an int seed or a numpy Generator; surviving entries are
    scaled by 1/(1-p) so the expected output equals the input.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    gen = np.random.default_rng(rng) if isinstance(rng, int) else rng
    keep = (gen.random(x.shape) >= p) / (1.0 - p)
    out = Tensor(x.data * keep, x.requires_grad)

    def backward(g):
        return (g * keep,)

    return _maybe_record(out, (x,), backward)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    if not tensors:
        raise DimensionError("concat needs at least one tensor")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as e:
        raise DimensionError(f"concat shapes incompatible along axis {axis}") from e
    out = Tensor(data, any(t.requires_grad for t in tensors))
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, splits, axis=axis)
        return tuple(p if t.requires_grad else None for p, t in zip(pieces, tensors))

    return _maybe_record(out, tuple(tensors), backward)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    out = Tensor(x.data.reshape(shape), x.requires_grad)

    def backward(g):
        return (g.reshape(x.shape),)

    return _maybe_record(out, (x,), backward)


def transpose2d(x: Tensor) -> Tensor:
    if x.data.ndim != 2:
        raise DimensionError("transpose2d expects a 2-D tensor")
    out = Tensor(x.data.T, x.requires_grad)

    def backward(g):
        return (g.T,)

    return _maybe_record(out, (x,), backward)


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(np.asarray(x.data.sum()), x.requires_grad)

    def backward(g):
        return (np.broadcast_to(g, x.shape).copy(),)

    return _maybe_record(out, (x,), backward)


def mean_rows(x: Tensor) -> Tensor:
    """Mean over axis 0, keeping a leading dim: (n, d) -> (1, d)."""
    if x.data.ndim != 2:
        raise DimensionError("mean_rows expects a 2-D tensor")
    n = x.shape[0]
    out = Tensor(x.data.mean(axis=0, keepdims=True), x.requires_grad)

    def backward(g):
        return (np.broadcast_to(g / n, x.shape).copy(),)

    return _maybe_record(out, (x,), backward)


# ---------------------------------------------------------------------------
# indexing / segments


@functools.cache
def _cols(width: int) -> np.ndarray:
    cols = np.arange(width, dtype=np.int64)
    cols.flags.writeable = False   # shared by every caller
    return cols


def _scatter_add(x: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """out[s] = sum of the rows x[i] with ids[i] == s; out has n rows.

    One bincount over flat (row, column) bins, or a row assignment when no
    two ids are equal. It adds each bin's terms in row order starting from
    0.0, so the result is bit-identical to ``np.add.at`` into zeros. ids
    must lie in [0, n): bincount rejects a negative id where ``add.at``
    would wrap it.
    """
    if x.ndim != 2:   # rows of one flat width (1 for 1-D x)
        flat = _scatter_add(x.reshape(len(x), math.prod(x.shape[1:])), ids, n)
        return flat.reshape((n,) + x.shape[1:])
    width = x.shape[1]
    if np.bincount(ids, minlength=n).max(initial=0) <= 1:
        out = np.zeros((n, width))   # one term per bin: bincount's 0.0 + term
        out[ids] = 0.0 + x
        return out
    bins = ids[:, None] * width + _cols(width)
    out = np.bincount(bins.ravel(), x.ravel(), n * width).reshape(n, width)
    # bincount of empty input is int64 even with float weights
    return out.astype(np.float64, copy=False)


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows of x: out[i] = x[idx[i]]. Backward scatter-adds."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data.take(idx, axis=0), x.requires_grad)

    def backward(g):
        return (_scatter_add(g, idx, x.shape[0]),)

    return _maybe_record(out, (x,), backward)


def prefix_rows(x: Tensor, n: int) -> Tensor:
    """The first n rows of x (a view); backward pads with zero rows."""
    out = Tensor(x.data[:n], x.requires_grad)

    def backward(g):
        return (np.concatenate([g, np.zeros((len(x.data) - len(g),) + g.shape[1:])]),)

    return _maybe_record(out, (x,), backward)


def segment_sum(x: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of x into per-segment buckets: out[s] = sum of x rows with id s."""
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape[0] != x.shape[0]:
        raise DimensionError("segment ids must match the leading dim of x")
    out = Tensor(_scatter_add(x.data, segments, num_segments), x.requires_grad)

    def backward(g):
        return (g.take(segments, axis=0),)

    return _maybe_record(out, (x,), backward)


def _softmax(d: np.ndarray, segments: np.ndarray, n: int,
             last: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Softmax of the rows of d within each segment, stabilized by each
    segment's max. ``last``, when given, holds one more member per segment
    (row s belongs to segment s), added after every row of d; the result
    is then bit-identical to the softmax of ``concat([d, last])`` over
    ``concat([segments, arange(n)])``. Returns the coefficients of d's rows
    and of last's."""
    m = np.full((n,) + d.shape[1:], -np.inf)
    # max is exact, so each segment's may be taken in any order; the sampler
    # gives each relation's edges in segment order already
    ids, rows = segments, d
    step = ids[1:] - ids[:-1]
    if (step < 0).any():
        order = np.argsort(ids, kind="stable")
        ids, rows = ids.take(order), d.take(order, axis=0)
        step = ids[1:] - ids[:-1]
    if len(ids):
        starts = np.concatenate([[0], np.flatnonzero(step) + 1])
        m[ids[starts]] = np.maximum.reduceat(rows, starts, axis=0)
    if last is not None:
        np.maximum(m, last, out=m)
    e = np.exp(d - m.take(segments, axis=0))
    denom = _scatter_add(e, segments, n)
    if last is None:
        return e / denom.take(segments, axis=0), None
    e_last = np.exp(last - m)
    denom += e_last
    return e / denom.take(segments, axis=0), e_last / denom


def _softmax_backward(g: np.ndarray, y: np.ndarray, segments: np.ndarray, n: int,
                      g_last: np.ndarray | None = None,
                      y_last: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Gradients of _softmax's inputs from those of its outputs."""
    gy = g * y
    dot = _scatter_add(gy, segments, n)
    if y_last is None:
        return gy - y * dot.take(segments, axis=0), None
    gy_last = g_last * y_last
    dot += gy_last
    return gy - y * dot.take(segments, axis=0), gy_last - y_last * dot


def segment_softmax(logits: Tensor, segments: np.ndarray, num_segments: int) -> Tensor:
    """Softmax within each segment (numerically stable via max-subtraction).

    Works columnwise for 2-D logits; segment ids index axis 0. Every
    segment referenced by an output entry has at least one member by
    construction, so empty buckets are never read.
    """
    segments = np.asarray(segments, dtype=np.int64)
    if segments.shape[0] != logits.shape[0]:
        raise DimensionError("segment ids must match the leading dim of logits")
    y, _ = _softmax(logits.data, segments, num_segments)
    out = Tensor(y, logits.requires_grad)

    def backward(g):
        return (_softmax_backward(g, y, segments, num_segments)[0],)

    return _maybe_record(out, (logits,), backward)


# ---------------------------------------------------------------------------
# attention heads: a row of width heads*d holds one block of d columns per head


@functools.cache
def _head_blocks(heads: int, width: int, r: int = 1) -> np.ndarray:
    """Flat positions of the nonzeros of r (width, heads) block-diagonals
    side by side in a (width, r*heads) matrix: entry j*width + i is the
    position of row i in column j*heads + k, k being the head whose block
    of rows holds row i."""
    cols = np.repeat(_cols(heads), width // heads) + heads * _cols(r)[:, None]
    flat = (_cols(width) * (r * heads) + cols).ravel()
    flat.flags.writeable = False   # shared by every caller
    return flat


def _block_diag(a: np.ndarray, heads: int) -> np.ndarray:
    """The (heads*d, r*heads) matrix whose column j*heads + k holds block k
    of row j of a: (r, heads*d), zeros elsewhere; block-diagonal for r = 1,
    and r such matrices side by side."""
    blocks = np.zeros((a.shape[1], len(a) * heads))
    blocks.ravel()[_head_blocks(heads, a.shape[1], len(a))] = a.ravel()
    return blocks


def _head_dot(h: np.ndarray, a: np.ndarray, heads: int) -> np.ndarray:
    """Per-head inner products: out[i, j*heads + k] = <h[i, block k],
    a[j, block k]>.

    h is (n, heads*d) and a is (r, heads*d); out is (n, r*heads). One
    row-exact product with a's rows as block-diagonals side by side, so the
    product h*a is never formed; each row of a gets the bits it gets alone.
    """
    return _row_exact(h, _block_diag(a, heads))


def _head_dot_grad(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """d(sum of g * _head_dot(h, a, heads))/da, shaped like a: (1, heads*d)."""
    return (h.T @ g).ravel()[_head_blocks(g.shape[1], h.shape[1])][None]


def _head_sums(x: np.ndarray, heads: int) -> np.ndarray:
    """Each row's sum over each head's block of columns: (n, heads)."""
    return x @ _block_diag(np.ones((1, x.shape[1])), heads)


def _head_scale(v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Each head's block of columns times that head's coefficient:
    out[i, block k] = v[i, block k] * alpha[i, k]. v is (n, heads*d) or
    (1, heads*d), broadcast against alpha's (n, heads)."""
    out = np.repeat(alpha, v.shape[1] // alpha.shape[1], axis=1)
    out *= v
    return out


def gat_aggregate(h_src: Tensor, h_self: Tensor, a_src: Tensor, a_dst: Tensor,
                  src: np.ndarray, dst: np.ndarray, heads: int
                  ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """One relation of multi-head graph attention, recorded as one op.

    Edge e carries source row src[e] into destination row dst[e], and
    each destination row i of h_self also attends to itself. Under head k,
    with s(x, a) the inner product of x's and a's block k of columns and
    leaky the leaky ReLU, the logits
        edge e: leaky(s(h_self[dst[e]], a_dst) + s(h_src[src[e]], a_src))
        self i: leaky(s(h_self[i], a_dst) + s(h_self[i], a_src))
    are normalized by a softmax over each destination's edges and its self
    term, and out[i] = sum over e into i of alpha_e * h_src[src[e]], plus
    alpha_self_i * h_self[i], head block by head block.

    The inner products are row-exact (see _row_exact) and every sum runs
    in edge order with the self term last, so the output has the bits of
    the op chain that concatenates the self terms after the edges, and a
    destination's row depends only on its own rows and edges. Returns out
    (n, heads*d) and the coefficients edge_alpha (E, heads) and self_alpha
    (n, heads). One backward rule gives the gradients of all four tensors.
    """
    (n_src, width), (n, self_width) = h_src.shape, h_self.shape
    if (self_width != width or a_src.shape != (1, width) or a_dst.shape != (1, width)
            or width % heads):
        raise DimensionError(f"gat_aggregate needs rows of one width split into {heads} "
                             f"heads and (1, width) attention rows, got h_src "
                             f"{h_src.shape}, h_self {h_self.shape}, a_src {a_src.shape}, "
                             f"a_dst {a_dst.shape}")
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.ndim != 1 or src.shape != dst.shape:
        raise DimensionError(f"edge lists differ: src {src.shape}, dst {dst.shape}")
    rows = h_src.data.take(src, axis=0)
    # a row-exact product scores each attention row beside another as alone
    s_self = _head_dot(h_self.data, np.concatenate([a_dst.data, a_src.data]), heads)
    s_dst = s_self[:, :heads]
    pre_edge = s_dst.take(dst, axis=0) + _head_dot(rows, a_src.data, heads)
    pre_self = s_dst + s_self[:, heads:]
    edge_slope, self_slope = _leaky_slope(pre_edge), _leaky_slope(pre_self)
    edge_alpha, self_alpha = _softmax(pre_edge * edge_slope, dst, n, pre_self * self_slope)
    agg = _scatter_add(_head_scale(rows, edge_alpha), dst, n)
    agg += _head_scale(h_self.data, self_alpha)
    out = Tensor(agg, h_src.requires_grad or h_self.requires_grad
                 or a_src.requires_grad or a_dst.requires_grad)

    def backward(g):
        g_rows = g.take(dst, axis=0)
        # through the coefficients: the softmax, then each logit's leaky relu
        g_edge, g_self = _softmax_backward(
            _head_sums(g_rows * rows, heads), edge_alpha, dst, n,
            _head_sums(g * h_self.data, heads), self_alpha)
        g_edge *= edge_slope
        g_self *= self_slope
        g_s_dst = _scatter_add(g_edge, dst, n) + g_self
        # an edge's source row is both its value and its logit's input
        g_src = _head_scale(g_rows, edge_alpha)
        g_src += _head_scale(a_src.data, g_edge)
        g_h_self = _head_scale(g, self_alpha)
        g_h_self += _head_scale(a_dst.data, g_s_dst)
        g_h_self += _head_scale(a_src.data, g_self)
        # weight gradients sum over node rows, not edges, so they do not
        # depend on how the edges of different nodes interleave
        g_a_src = (_head_dot_grad(h_src.data, _scatter_add(g_edge, src, n_src))
                   + _head_dot_grad(h_self.data, g_self))
        return (_scatter_add(g_src, src, n_src), g_h_self, g_a_src,
                _head_dot_grad(h_self.data, g_s_dst))

    out = _maybe_record(out, (h_src, h_self, a_src, a_dst), backward)
    return out, edge_alpha, self_alpha


# ---------------------------------------------------------------------------
# normalization / loss


class BatchNormState:
    """Running statistics for one batch_norm site."""

    def __init__(self, dim: int):
        self.running_mean = np.zeros(dim, dtype=np.float64)
        self.running_var = np.ones(dim, dtype=np.float64)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState,
               training: bool) -> Tensor:
    """Normalize columns of x, then apply the learnable affine gamma/beta.

    Training mode uses batch statistics and folds them into the running
    stats with momentum 0.1; inference mode uses the running stats only.
    """
    if x.data.ndim != 2:
        raise DimensionError("batch_norm expects a (batch, dim) tensor")
    dim = x.shape[1]
    if gamma.shape != (dim,) or beta.shape != (dim,):
        raise DimensionError("batch_norm affine params must have shape (dim,)")
    if training:
        n = x.shape[0]
        if n < 2:
            raise DimensionError(f"batch_norm needs batch size >= 2 in training mode, got {n}")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
    else:
        mean = state.running_mean
        var = state.running_var
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean) * inv_std
    out = Tensor(xhat * gamma.data + beta.data,
                 x.requires_grad or gamma.requires_grad or beta.requires_grad)

    def backward(g):
        ggamma = (g * xhat).sum(axis=0) if gamma.requires_grad else None
        gbeta = g.sum(axis=0) if beta.requires_grad else None
        if not x.requires_grad:
            return None, ggamma, gbeta
        gxhat = g * gamma.data
        if training:
            n = x.shape[0]
            gx = inv_std / n * (n * gxhat - gxhat.sum(axis=0)
                                - xhat * (gxhat * xhat).sum(axis=0))
        else:
            gx = gxhat * inv_std
        return gx, ggamma, gbeta

    return _maybe_record(out, (x, gamma, beta), backward)


def bce(pred: Tensor, target) -> Tensor:
    """Mean binary cross-entropy; predictions clamped to [eps, 1-eps]."""
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    t = np.broadcast_to(t, pred.shape)
    p = np.clip(pred.data, BCE_EPS, 1.0 - BCE_EPS)
    loss = np.asarray(-(t * np.log(p) + (1.0 - t) * np.log1p(-p)).mean())
    out = Tensor(loss, pred.requires_grad)
    inside = (pred.data > BCE_EPS) & (pred.data < 1.0 - BCE_EPS)

    def backward(g):
        n = pred.size
        gp = np.where(inside, (-t / p + (1.0 - t) / (1.0 - p)) / n, 0.0)
        return (g * gp,)

    return _maybe_record(out, (pred,), backward)


# ---------------------------------------------------------------------------
# serialization: little-endian float64 with a shape header


def write_array(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype=np.float64)
    fh.write(struct.pack("<I", arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
    fh.write(arr.astype("<f8").tobytes())


def bytes_left(fh: BinaryIO) -> int:
    """Bytes from the read position of a seekable binary file to its end."""
    pos = fh.tell()
    end = fh.seek(0, 2)
    fh.seek(pos)
    return end - pos


def read_array(fh: BinaryIO) -> np.ndarray:
    """An array as write_array wrote it. A shape header that needs more
    bytes than the file has left raises ValueError before that many bytes
    are read or allocated."""
    (ndim,) = struct.unpack("<I", fh.read(4))
    left = bytes_left(fh) - 4 * ndim
    if left < 0:
        raise ValueError(f"array header of {ndim} dims runs past the end of the file")
    shape = struct.unpack(f"<{ndim}I", fh.read(4 * ndim))
    size = 8 * math.prod(shape)
    if size > left:
        raise ValueError(f"array of shape {shape} needs {size} bytes, {left} left")
    data = np.frombuffer(fh.read(size), dtype="<f8")
    return data.reshape(shape).astype(np.float64)
