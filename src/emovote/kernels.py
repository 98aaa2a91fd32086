"""Hot numeric kernels: softmax, layer norm, the fused Adam step, Levenshtein.

Each kernel is vectorized numpy, single-threaded and deterministic run to
run. Row statistics (softmax sums, layer-norm mean/var) accumulate in
float64 so float32 inputs do not lose precision.
"""

from __future__ import annotations

import numpy as np


def softmax_fwd_numpy(x):
    """Row-wise softmax of a 2D array, max-subtracted for stability."""
    m = x.max(axis=1, keepdims=True)
    e = np.exp(x - m)
    s = e.sum(axis=1, keepdims=True, dtype=np.float64)
    return (e / s).astype(x.dtype, copy=False)


def softmax_bwd_numpy(y, dy):
    """Gradient of row-wise softmax given its output y and upstream dy."""
    inner = (dy * y).sum(axis=1, keepdims=True, dtype=np.float64).astype(y.dtype)
    return (dy - inner) * y


def layernorm_fwd_numpy(x, gain, bias, eps):
    """Layer norm over the last axis of a 2D array.

    Returns (y, xhat, rstd); xhat and rstd are cached for the backward pass.
    """
    mu = x.mean(axis=1, keepdims=True, dtype=np.float64)
    var = np.square(x.astype(np.float64) - mu).mean(axis=1, keepdims=True)
    rstd = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((x - mu) * rstd).astype(x.dtype)
    y = xhat * gain + bias
    return y, xhat, rstd[:, 0]


def layernorm_bwd_numpy(dy, xhat, rstd, gain):
    """Backward of layer norm; returns (dx, dgain, dbias)."""
    dgain = (dy * xhat).sum(axis=0, dtype=np.float64).astype(dy.dtype)
    dbias = dy.sum(axis=0, dtype=np.float64).astype(dy.dtype)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True, dtype=np.float64)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True, dtype=np.float64)
    dx = (dxhat - m1 - xhat * m2).astype(dy.dtype) * rstd[:, None]
    return dx, dgain, dbias


def adam_step_numpy(p, g, m, v, lr, beta1, beta2, eps, bc1, bc2):
    """Fused Adam update, in place on flat float arrays.

    bc1/bc2 are the bias corrections 1 - beta^t, precomputed by the caller.
    """
    dt = p.dtype.type
    lr, beta1, beta2, eps, bc1, bc2 = (dt(c) for c in (lr, beta1, beta2, eps, bc1, bc2))
    m *= beta1
    m += (dt(1) - beta1) * g
    v *= beta2
    v += (dt(1) - beta2) * (g * g)
    p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def levenshtein_numpy(a, b):
    """Edit distance between two int token-id arrays (unit costs).

    Vectorized DP: per row, substitution/deletion candidates are formed in
    one shot and the sequential insertion chain is resolved with a running
    minimum (cur[j] = j + min_{k<=j}(cand[k] - k)).
    """
    n = b.shape[0]
    if a.shape[0] == 0:
        return int(n)
    if n == 0:
        return int(a.shape[0])
    offsets = np.arange(n + 1, dtype=np.int64)
    prev = offsets.copy()
    cur = np.empty(n + 1, dtype=np.int64)
    for i in range(1, a.shape[0] + 1):
        sub = prev[:-1] + (b != a[i - 1])
        cur[0] = i
        cur[1:] = np.minimum(sub, prev[1:] + 1)
        cur = offsets + np.minimum.accumulate(cur - offsets)
        prev, cur = cur, prev
    return int(prev[n])


# the _numpy names stay because perfbench/kernel_timings.py times them directly
softmax_fwd = softmax_fwd_numpy
softmax_bwd = softmax_bwd_numpy
layernorm_fwd = layernorm_fwd_numpy
layernorm_bwd = layernorm_bwd_numpy
adam_step = adam_step_numpy
levenshtein = levenshtein_numpy


def active_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
