"""Minimal reverse-mode autodiff over dense numpy arrays.

A :class:`Tensor` is both the value and the computation-graph node: it carries
the cached forward output, references to its parent nodes, the op name, and a
closure implementing the backward rule. ``backward()`` walks the graph once in
reverse topological order and accumulates gradients into ``.grad``.

Training runs in float32; gradient checking runs the same graph in float64
(see :func:`grad_check`). Every op asserts its output is finite; a NaN/Inf
anywhere raises :class:`NumericsError` immediately rather than corrupting the
run.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import kernels

DEFAULT_DTYPE = np.float32


class NumericsError(RuntimeError):
    """A forward or backward op produced NaN or Inf."""


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


class EmptySequenceError(ValueError):
    """A sequence op received a mask with no valid positions."""


def _check_finite(arr: np.ndarray, op: str):
    if not np.isfinite(arr).all():
        raise NumericsError(f"non-finite values produced by op '{op}'")


class Tensor:
    """Dense float array plus its graph node (op, parents, gradient).

    Leaf tensors are created directly; op outputs are created through
    :meth:`from_op`, which wires parents and the backward rule. The gradient,
    when populated, always has the same shape as ``data``.
    """

    __slots__ = ("data", "grad", "requires_grad", "op", "parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.op = "leaf"
        self.parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    @classmethod
    def from_op(cls, data: np.ndarray, parents: tuple["Tensor", ...],
                backward: Callable[[np.ndarray], None] | None, op: str) -> "Tensor":
        """Create a graph node for an op output; checks finiteness."""
        _check_finite(data, op)
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = any(p.requires_grad for p in parents)
        out.op = op
        out.parents = parents
        out._backward_fn = backward if out.requires_grad else None
        return out

    # -- introspection ----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={tuple(self.shape)}, dtype={self.data.dtype})"

    # -- autodiff ----------------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from this node; visits each node exactly once."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_as_tensor(other, self.dtype), self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(_as_tensor(other, self.dtype), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)


def _as_tensor(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _accum(t: Tensor, g: np.ndarray, fresh: bool = False):
    """Accumulate gradient g into t.grad (shape-preserving).

    ``fresh`` says the op has just allocated g (or a view of such an array) and
    keeps no other reference to it, so a first gradient takes g without a copy.
    An upstream gradient, or a view of one, is copied.
    """
    if not t.requires_grad:
        return
    _check_finite(g, "backward")
    if t.grad is None:
        if g.dtype != t.data.dtype:
            t.grad = g.astype(t.data.dtype)
        else:
            t.grad = g if fresh else g.copy()
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over broadcast axes so it matches the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise / arithmetic ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out_data = a.data + b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(g, b.shape))

    return Tensor.from_op(out_data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out_data = a.data - b.data

    def backward(g):
        _accum(a, _unbroadcast(g, a.shape))
        _accum(b, _unbroadcast(-g, b.shape), fresh=True)

    return Tensor.from_op(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        _accum(a, _unbroadcast(g * b.data, a.shape), fresh=True)
        _accum(b, _unbroadcast(g * a.data, b.shape), fresh=True)

    return Tensor.from_op(out_data, (a, b), backward, "mul")


def div(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    out_data = a.data / b.data

    def backward(g):
        _accum(a, _unbroadcast(g / b.data, a.shape), fresh=True)
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape), fresh=True)

    return Tensor.from_op(out_data, (a, b), backward, "div")


def neg(a: Tensor) -> Tensor:
    def backward(g):
        _accum(a, -g, fresh=True)

    return Tensor.from_op(-a.data, (a,), backward, "neg")


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        _accum(a, g * (a.data > 0), fresh=True)

    return Tensor.from_op(out_data, (a,), backward, "relu")


def log(a: Tensor) -> Tensor:
    out_data = np.log(a.data)

    def backward(g):
        _accum(a, g / a.data, fresh=True)

    return Tensor.from_op(out_data, (a,), backward, "log")


def pow_const(a: Tensor, exponent: float) -> Tensor:
    """a ** exponent for a constant exponent >= 0.

    At a == 0 the one-sided derivative is defined as 0 (only reachable at the
    focal-loss boundary p == 1, where the loss term itself vanishes).
    """
    out_data = np.power(a.data, exponent)

    def backward(g):
        base = np.zeros_like(a.data)
        np.power(a.data, a.dtype.type(exponent - 1.0), out=base, where=a.data > 0)
        _accum(a, g * a.dtype.type(exponent) * base, fresh=True)

    return Tensor.from_op(out_data, (a,), backward, f"pow[{exponent}]")


def clamp_min(a: Tensor, lo: float) -> Tensor:
    """Elementwise max(a, lo); gradient passes only where a > lo."""
    out_data = np.maximum(a.data, a.dtype.type(lo))

    def backward(g):
        _accum(a, g * (a.data > lo), fresh=True)

    return Tensor.from_op(out_data, (a,), backward, "clamp_min")


# ---------------------------------------------------------------------------
# matmul / shape ops
# ---------------------------------------------------------------------------

# Weights of at least this many elements get their gradient summed one sequence at
# a time: there the batched product's [N, d, k] temporary costs more than the Python
# loop (at T=40: 128x256 and up gain, 32x64 loses 3.5x). Both give the same bits.
_SEQUENCE_SUM_MIN = 1 << 15

# [..., T, d] @ [d, k] with T*d*k above this runs its forward and input gradient as one
# 2-D GEMM over all rows instead of numpy's one GEMM per sequence. OpenBLAS may pick
# small-matrix kernels at M*N*K <= 1e6, where the flat product can differ from the
# per-slice one in the last bit; above it the two were bit-equal on the OpenBLAS 0.3.31
# build tested, and test_matmul_weight_product_matches_the_batched_formulas_bitwise
# checks that on each host. The weight gradient keeps the per-sequence sum above.
_FLAT_GEMM_MIN = 10 ** 6

# A row block of a flat product or of the per-sequence weight gradient gets its own
# thread only from this many multiply-adds: the measured crossover on a 2-core host,
# 1 BLAS thread (at 512x512, 4.2M MACs per block ran 1.13x slower split in two, 8.4M
# 0.98x, 16.8M 0.71x). It also keeps each block's GEMM above OpenBLAS's direct
# float32 kernel (M*N*K < 28*512*512), which sums K in one pass where the blocked
# GEMM of the whole product sums it in panels.
_SPLIT_MACS_MIN = 1 << 23


def _row_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for 2-D operands, row blocks split over ``kernels.splitter``."""
    out = np.empty((x.shape[0], w.shape[1]), dtype=np.result_type(x, w))

    def rows(lo, hi):
        np.matmul(x[lo:hi], w, out=out[lo:hi])

    # two rows at least: OpenBLAS runs a one-row product as GEMV
    kernels.splitter.run(rows, x.shape[0], max(2, -(-_SPLIT_MACS_MIN // w.size)))
    return out


def _sequence_sum(a3: np.ndarray, g3: np.ndarray) -> np.ndarray:
    """sum_i a3[i].T @ g3[i], added one sequence at a time in index order.

    That is the batched product's own sum over the leading axes, so the same bits,
    without its [N, d, k] temporary (one flattened a2.T @ g2 would reorder the sum).
    Blocks of the d output rows are split over ``kernels.splitter``; each block's
    GEMMs stay above the small-matrix size of _FLAT_GEMM_MIN.
    """
    n, t, d = a3.shape
    k = g3.shape[-1]
    gb = np.empty((d, k), dtype=np.result_type(a3, g3))
    part = np.empty_like(gb)

    def rows(lo, hi):
        np.matmul(a3[0][:, lo:hi].T, g3[0], out=gb[lo:hi])
        for i in range(1, n):
            np.matmul(a3[i][:, lo:hi].T, g3[i], out=part[lo:hi])
            gb[lo:hi] += part[lo:hi]

    min_rows = max(2, -(-_SPLIT_MACS_MIN // (n * t * k)), _FLAT_GEMM_MIN // (t * k) + 1)
    kernels.splitter.run(rows, d, min_rows)
    return gb


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires >=2D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    d, k = b.shape[-2:]
    flat = b.ndim == 2 and a.ndim > 2 and a.shape[-2] * d * k > _FLAT_GEMM_MIN
    if flat:
        out_data = _row_product(a.data.reshape(-1, d), b.data).reshape(a.shape[:-1] + (k,))
    else:
        out_data = np.matmul(a.data, b.data)

    def backward(g):
        if flat:
            ga = _row_product(g.reshape(-1, k), b.data.T).reshape(a.shape)
        else:
            ga = _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.shape)
        _accum(a, ga, fresh=True)
        if b.ndim > 2 or b.size < _SEQUENCE_SUM_MIN:
            gb = _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.shape)
        else:
            t = a.shape[-2]
            gb = _sequence_sum(a.data.reshape(-1, t, d), g.reshape(-1, t, k))
        _accum(b, gb, fresh=True)

    return Tensor.from_op(out_data, (a, b), backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(a.shape))

    return Tensor.from_op(out_data, (a,), backward, "reshape")


def transpose_last(a: Tensor) -> Tensor:
    """Swap the last two axes (for attention's Q @ K^T)."""
    if a.ndim < 2:
        raise ShapeError(f"transpose_last requires >=2D input, got {a.shape}")
    out_data = np.ascontiguousarray(a.data.swapaxes(-1, -2))

    def backward(g):
        _accum(a, g.swapaxes(-1, -2))

    return Tensor.from_op(out_data, (a,), backward, "transpose_last")


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    ax = axis % out_data.ndim
    sizes = [t.shape[ax] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=ax)):
            _accum(t, piece)

    return Tensor.from_op(out_data, tuple(tensors), backward, "concat")


def gather_rows(a: Tensor, idx) -> Tensor:
    """Pick a[i, idx[i]] for each row i of a 2D tensor; output is 1D."""
    idx = np.asarray(idx, dtype=np.int64)
    if a.ndim != 2 or idx.ndim != 1 or idx.shape[0] != a.shape[0]:
        raise ShapeError(f"gather_rows needs 2D input and one index per row, got {a.shape}, {idx.shape}")
    rows = np.arange(a.shape[0])
    out_data = a.data[rows, idx]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, idx), g)
        _accum(a, ga, fresh=True)

    return Tensor.from_op(out_data, (a,), backward, "gather_rows")


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            _accum(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=False))
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
            _accum(a, np.broadcast_to(gg, a.shape).astype(a.dtype, copy=False))

    return Tensor.from_op(np.asarray(out_data), (a,), backward, "sum")


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.size if axis is None else a.shape[axis]

    def backward(g):
        scaled = g / a.dtype.type(count)
        if axis is None:
            _accum(a, np.broadcast_to(scaled, a.shape).astype(a.dtype, copy=False))
        else:
            gg = scaled if keepdims else np.expand_dims(scaled, axis)
            _accum(a, np.broadcast_to(gg, a.shape).astype(a.dtype, copy=False))

    return Tensor.from_op(np.asarray(out_data), (a,), backward, "mean")


# ---------------------------------------------------------------------------
# neural-net ops (kernel-backed)
# ---------------------------------------------------------------------------

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Softmax along ``axis``, max-subtracted; output rows lie on the simplex."""
    ax = axis % a.ndim
    moved = np.moveaxis(a.data, ax, -1)
    flat = np.ascontiguousarray(moved.reshape(-1, moved.shape[-1]))
    y2 = kernels.softmax_fwd(flat)
    out_data = np.moveaxis(y2.reshape(moved.shape), -1, ax)

    def backward(g):
        g2 = np.ascontiguousarray(np.moveaxis(g, ax, -1).reshape(y2.shape))
        dx2 = kernels.softmax_bwd(y2, g2)
        _accum(a, np.moveaxis(dx2.reshape(moved.shape), -1, ax), fresh=True)

    return Tensor.from_op(np.ascontiguousarray(out_data), (a,), backward, "softmax")


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with learned gain and bias."""
    d = a.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm gain/bias must be shape ({d},), got {gain.shape}, {bias.shape}")
    flat = np.ascontiguousarray(a.data.reshape(-1, d))
    y2, xhat, rstd = kernels.layernorm_fwd(flat, gain.data, bias.data, eps)
    out_data = y2.reshape(a.shape)

    def backward(g):
        g2 = np.ascontiguousarray(g.reshape(-1, d))
        dx, dgain, dbias = kernels.layernorm_bwd(g2, xhat, rstd, gain.data)
        _accum(a, dx.reshape(a.shape), fresh=True)
        _accum(gain, dgain, fresh=True)
        _accum(bias, dbias, fresh=True)

    return Tensor.from_op(out_data, (a, gain, bias), backward, "layer_norm")


def masked_mean_pool(x: Tensor, mask) -> Tensor:
    """Mean over valid (mask == 1) time steps.

    x is [T, d] with a length-T mask, or [B, T, d] with a [B, T] mask. Values
    at masked positions never reach the output; the backward pass spreads the
    gradient equally over the valid positions of each sequence.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = reshape(x, (1,) + x.shape)
    mask_arr = mask.data if isinstance(mask, Tensor) else np.asarray(mask)
    mask_arr = mask_arr.astype(x.dtype).reshape(x.shape[0], x.shape[1])
    counts = mask_arr.sum(axis=1)
    if (counts == 0).any():
        raise EmptySequenceError("masked_mean_pool: a sequence has no valid positions")
    masked = mul(x, Tensor(mask_arr[:, :, None]))
    pooled = div(tsum(masked, axis=1), Tensor(counts[:, None].astype(x.dtype)))
    if squeeze:
        pooled = reshape(pooled, (pooled.shape[1],))
    return pooled


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / x.dtype.type(1.0 - p)
    return mul(x, Tensor(keep))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(build: Callable[[], Tensor], params: Sequence[Tensor],
               step: float = 1e-5, max_coords_per_param: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``build`` must construct the scalar-valued graph from scratch (it is
    re-run for every perturbed evaluation); ``params`` are the float64 leaf
    tensors to check. Returns the worst relative error, with the denominator
    floored at 1e-3 so that noise on near-zero gradients does not dominate.
    """
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 (64-bit mode) parameters")
    for p in params:
        p.grad = None
    out = build()
    if out.size != 1:
        raise ValueError(f"grad_check requires a scalar-valued graph, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if max_coords_per_param is not None and n > max_coords_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        else:
            coords = range(n)
        ana_flat = ana.reshape(-1)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + step
            f_plus = build().item()
            flat[i] = orig - step
            f_minus = build().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * step)
            denom = max(abs(numeric), abs(ana_flat[i]), 1e-3)
            worst = max(worst, abs(numeric - ana_flat[i]) / denom)
    return worst
