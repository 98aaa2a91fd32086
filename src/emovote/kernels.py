"""Hot numeric kernels: softmax, layer norm, the fused Adam step, Levenshtein,
and the row splitter that runs large layer-norm and matmul row blocks on
several threads.

Each kernel is vectorized numpy and deterministic run to run. Row statistics
(softmax sums, layer-norm mean/var) accumulate in float64 so float32 inputs
do not lose precision. Layer norm (and, in ``autodiff``, the large matmuls)
hand independent row blocks to :data:`splitter`. Every output element gets
the same arithmetic whichever block computes it, so results do not depend on
the worker count.
"""

from __future__ import annotations

import ctypes
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from functools import partial
from pathlib import Path

import numpy as np

# A layer-norm row block gets its own thread only from this many elements: the
# measured crossover on a 2-core host, 1 BLAS thread (d=128: 16384 elements per
# block ran 1.27x slower split in two, 32768 ran 0.77x; d=512: 1.17x and 0.70x).
_LN_SPLIT_MIN = 1 << 15


def _blas_threads() -> int:
    """Thread count of the OpenBLAS library numpy loaded, or 1 when it cannot be read."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return 1
    for lib in sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return max(1, fn())
    return 1


def _drain(queue: deque):
    while True:
        try:
            task = queue.popleft()  # atomic: each task runs exactly once
        except IndexError:
            return
        task()


class RowSplitter:
    """Runs a kernel's independent row blocks on a lazily created thread pool.

    ``workers`` defaults to the usable CPUs divided by the BLAS thread count, so
    the blocks fill only cores that BLAS leaves idle; with one worker every call
    runs inline. A block writes its own rows of an output its caller preallocated
    and calls numpy only, never a traced or checking function.
    """

    def __init__(self, workers: int | None = None):
        self._workers = workers
        self._pool: ThreadPoolExecutor | None = None

    @property
    def workers(self) -> int:
        if self._workers is None:
            cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                    else os.cpu_count() or 1)
            self._workers = max(1, cpus // _blas_threads())
        return self._workers

    def run(self, block, n_rows: int, min_rows: int, *tasks):
        """Call ``block(lo, hi)`` over rows [0, n_rows) and each of ``tasks`` once.

        The rows go to as many blocks as there are workers, each of at least
        ``min_rows`` rows; the blocks and tasks then run concurrently, the calling
        thread taking its share. With a single block everything runs inline, in order.
        """
        n_blocks = min(self.workers, n_rows // min_rows)
        if n_blocks <= 1:
            block(0, n_rows)
            for task in tasks:
                task()
            return
        bounds = [n_rows * i // n_blocks for i in range(n_blocks + 1)]
        queue = deque(partial(block, lo, hi) for lo, hi in zip(bounds, bounds[1:]))
        queue.extend(tasks)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers - 1, thread_name_prefix="emovote-rows")
        helpers = min(self.workers, len(queue)) - 1
        futures = [self._pool.submit(_drain, queue) for _ in range(helpers)]
        try:
            _drain(queue)
        finally:
            wait(futures)
        for f in futures:
            f.result()

    def close(self):
        """Stop the pool's threads; a later ``run`` starts a new pool."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None


# the splitter every kernel and autodiff product uses
splitter = RowSplitter()


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
    n, d = x.shape
    y = np.empty(x.shape, dtype=np.result_type(x, gain, bias))
    xhat = np.empty_like(x)
    rstd = np.empty(n, dtype=x.dtype)

    def rows(lo, hi):
        xb = x[lo:hi]
        mu = xb.mean(axis=1, keepdims=True, dtype=np.float64)
        var = np.square(xb.astype(np.float64) - mu).mean(axis=1, keepdims=True)
        r = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
        xhat[lo:hi] = (xb - mu) * r
        np.multiply(xhat[lo:hi], gain, out=y[lo:hi])
        y[lo:hi] += bias
        rstd[lo:hi] = r[:, 0]

    splitter.run(rows, n, -(-_LN_SPLIT_MIN // d))
    return y, xhat, rstd


def layernorm_bwd_numpy(dy, xhat, rstd, gain):
    """Backward of layer norm; returns (dx, dgain, dbias).

    dx is split by rows; dgain and dbias sum over the rows, so they run whole, in
    row order, as one task beside the row blocks.
    """
    n, d = dy.shape
    dx = np.empty(dy.shape, dtype=np.result_type(dy, rstd))
    sums = {}

    def rows(lo, hi):
        dxhat = dy[lo:hi] * gain
        m1 = dxhat.mean(axis=1, keepdims=True, dtype=np.float64)
        m2 = (dxhat * xhat[lo:hi]).mean(axis=1, keepdims=True, dtype=np.float64)
        np.multiply((dxhat - m1 - xhat[lo:hi] * m2).astype(dy.dtype), rstd[lo:hi, None],
                    out=dx[lo:hi])

    def param_grads():
        sums["gain"] = (dy * xhat).sum(axis=0, dtype=np.float64).astype(dy.dtype)
        sums["bias"] = dy.sum(axis=0, dtype=np.float64).astype(dy.dtype)

    splitter.run(rows, n, -(-_LN_SPLIT_MIN // d), param_grads)
    return dx, sums["gain"], sums["bias"]


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
