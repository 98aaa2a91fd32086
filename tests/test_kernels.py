"""Kernel correctness against direct formulas, finite differences and oracles, and
the row splitter's blocks, worker count and bits."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from emovote import kernels
from helpers import row_splitter


def test_softmax_uniform_on_equal_logits():
    out = kernels.softmax_fwd(np.zeros((1, 3), dtype=np.float32))
    np.testing.assert_allclose(out, np.full((1, 3), 1.0 / 3.0), rtol=1e-6)


def test_softmax_no_overflow_on_huge_logit():
    out = kernels.softmax_fwd(np.array([[1000.0, 0.0, 0.0]], dtype=np.float32))
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[0], [1.0, 0.0, 0.0], atol=1e-30)


def test_softmax_rows_sum_to_one(rng):
    x = rng.standard_normal((50, 8)).astype(np.float32) * 5
    out = kernels.softmax_fwd(x)
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


def test_layernorm_matches_direct_formula(rng):
    x = rng.standard_normal((20, 16)).astype(np.float64)
    gain = rng.standard_normal(16)
    bias = rng.standard_normal(16)
    eps = 1e-5
    y, xhat, rstd = kernels.layernorm_fwd(x, gain, bias, eps)
    mu = x.mean(axis=1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
    ref = (x - mu) / np.sqrt(var + eps) * gain + bias
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(rstd, 1.0 / np.sqrt(var[:, 0] + eps), rtol=1e-12)


def test_layernorm_bwd_matches_finite_differences(rng):
    x = rng.standard_normal((4, 6))
    gain = rng.standard_normal(6)
    bias = rng.standard_normal(6)
    dy = rng.standard_normal((4, 6))
    eps = 1e-5
    _, xhat, rstd = kernels.layernorm_fwd(x, gain, bias, eps)
    dx, dgain, dbias = kernels.layernorm_bwd(dy, xhat, rstd, gain)

    def loss(xv, gv, bv):
        yv, _, _ = kernels.layernorm_fwd(xv, gv, bv, eps)
        return float((yv * dy).sum())

    step = 1e-6
    for arr, grad, args in ((x, dx, "x"), (gain, dgain, "g"), (bias, dbias, "b")):
        num = np.zeros_like(arr)
        flat, nflat = arr.reshape(-1), num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss(x, gain, bias)
            flat[i] = orig - step
            fm = loss(x, gain, bias)
            flat[i] = orig
            nflat[i] = (fp - fm) / (2 * step)
        np.testing.assert_allclose(grad, num, rtol=1e-4, atol=1e-6, err_msg=args)


def _layernorm_unsplit(x, gain, bias, eps, dy):
    """The layer-norm kernels' arithmetic over all rows at once, as the reference."""
    mu = x.mean(axis=1, keepdims=True, dtype=np.float64)
    var = np.square(x.astype(np.float64) - mu).mean(axis=1, keepdims=True)
    rstd = (1.0 / np.sqrt(var + eps)).astype(x.dtype)
    xhat = ((x - mu) * rstd).astype(x.dtype)
    y = xhat * gain + bias
    rstd = rstd[:, 0]
    dgain = (dy * xhat).sum(axis=0, dtype=np.float64).astype(dy.dtype)
    dbias = dy.sum(axis=0, dtype=np.float64).astype(dy.dtype)
    dxhat = dy * gain
    m1 = dxhat.mean(axis=1, keepdims=True, dtype=np.float64)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True, dtype=np.float64)
    dx = (dxhat - m1 - xhat * m2).astype(dy.dtype) * rstd[:, None]
    return y, xhat, rstd, dx, dgain, dbias


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows,d,split", [
    (7, 24, False), (40, 512, False), (300, 100, False),
    (5120, 32, True), (1344, 160, True), (2560, 128, True), (1280, 512, True), (257, 1025, True)])
def test_layernorm_row_blocks_are_bitwise_equal_at_1_2_3_workers(dtype, rows, d, split):
    """Forward and backward at 1, 2 and 3 workers carry the unsplit formulas' exact
    bits. Each case pins whether 2 workers split it, so that moving _LN_SPLIT_MIN
    cannot quietly drop the split cases."""
    rng = np.random.default_rng(rows + d)
    x = (3 * rng.standard_normal((rows, d)) + 1).astype(dtype)
    gain, bias = rng.standard_normal(d).astype(dtype), rng.standard_normal(d).astype(dtype)
    dy = rng.standard_normal((rows, d)).astype(dtype)
    ref = _layernorm_unsplit(x, gain, bias, 1e-5, dy)
    for workers in (1, 2, 3):
        with row_splitter(workers) as rec:
            y, xhat, rstd = kernels.layernorm_fwd(x, gain, bias, 1e-5)
            got = (y, xhat, rstd) + kernels.layernorm_bwd(dy, xhat, rstd, gain)
        for name, a, b in zip(("y", "xhat", "rstd", "dx", "dgain", "dbias"), got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b), (workers, name)
        expected = (["layernorm_bwd_numpy", "layernorm_fwd_numpy"]
                    if split and workers > 1 else [])
        assert rec.split_kernels() == expected, workers


def test_row_splitter_worker_count_is_cpus_over_blas_threads():
    cpus = len(os.sched_getaffinity(0))
    assert kernels.RowSplitter().workers == max(1, cpus // kernels._blas_threads())
    assert kernels.RowSplitter(3).workers == 3


def _default_split():
    """Worker count, CPUs and BLAS threads as this interpreter sees them."""
    return [kernels.RowSplitter().workers, len(os.sched_getaffinity(0)),
            kernels._blas_threads()]


def test_row_splitter_uses_every_cpu_at_one_blas_thread(one_blas_thread):
    workers, cpus, blas = one_blas_thread(_default_split)
    assert blas == 1
    assert workers == cpus


def test_row_splitter_runs_one_block_inline_in_order():
    order = []
    splitter = kernels.RowSplitter(4)
    splitter.run(lambda lo, hi: order.append((lo, hi, threading.current_thread())), 100, 60,
                 lambda: order.append("task"))
    assert order == [(0, 100, threading.main_thread()), "task"]
    assert splitter._pool is None


def test_row_splitter_stress_covers_each_row_once():
    """More workers than cores and a short switch interval: every row and every
    extra task runs exactly once, whichever thread takes it."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    splitter = kernels.RowSplitter(2 * len(os.sched_getaffinity(0)) + 1)
    try:
        deadline = time.monotonic() + 20
        for n in range(50, 250):
            hits = np.zeros(n, dtype=np.int64)
            tasks = []

            def block(lo, hi):
                for i in range(lo, hi):
                    hits[i] += 1

            splitter.run(block, n, 7, *(lambda j=j: tasks.append(j) for j in range(3)))
            assert (hits == 1).all() and sorted(tasks) == [0, 1, 2]
            assert time.monotonic() < deadline
    finally:
        sys.setswitchinterval(previous)
        splitter.close()


def test_row_splitter_raises_a_blocks_error_and_stays_usable():
    splitter = kernels.RowSplitter(3)
    try:
        def block(lo, hi):
            if lo > 0:
                raise ValueError(f"block at {lo}")

        with pytest.raises(ValueError, match="block at"):
            splitter.run(block, 90, 10)
        out = np.zeros(90)
        splitter.run(lambda lo, hi: out.__setitem__(slice(lo, hi), 1), 90, 10)
        assert (out == 1).all()
    finally:
        splitter.close()


def test_adam_step_matches_reference_formula():
    rng = np.random.default_rng(5)
    p = rng.standard_normal(32)
    g = rng.standard_normal(32)
    m = rng.standard_normal(32) * 0.1
    v = np.abs(rng.standard_normal(32)) * 0.1
    lr, b1, b2, eps, t = 1e-3, 0.9, 0.999, 1e-8, 7
    bc1, bc2 = 1 - b1 ** t, 1 - b2 ** t

    m_ref = b1 * m + (1 - b1) * g
    v_ref = b2 * v + (1 - b2) * g * g
    p_ref = p - lr * (m_ref / bc1) / (np.sqrt(v_ref / bc2) + eps)

    kernels.adam_step(p, g, m, v, lr, b1, b2, eps, bc1, bc2)
    np.testing.assert_allclose(p, p_ref, rtol=1e-12)
    np.testing.assert_allclose(m, m_ref, rtol=1e-12)
    np.testing.assert_allclose(v, v_ref, rtol=1e-12)


def brute_force_edit_distance(a, b):
    """Full-table Levenshtein DP, written directly from the recurrence."""
    la, lb = len(a), len(b)
    table = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la + 1):
        table[i][0] = i
    for j in range(lb + 1):
        table[0][j] = j
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            table[i][j] = min(table[i - 1][j] + 1,
                              table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[la][lb]


def test_levenshtein_fixtures():
    a = np.array([1, 2, 3, 4])
    b = np.array([1, 9, 3])
    assert kernels.levenshtein(a, b) == 2
    assert kernels.levenshtein(a, a) == 0
    assert kernels.levenshtein(a, np.array([], dtype=np.int64)) == 4
    assert kernels.levenshtein(np.array([], dtype=np.int64), b) == 3


def test_levenshtein_matches_brute_force(rng):
    for _ in range(100):
        la, lb = rng.integers(0, 12, size=2)
        a = rng.integers(0, 5, size=la)
        b = rng.integers(0, 5, size=lb)
        got = kernels.levenshtein(a, b)
        assert got == brute_force_edit_distance(list(a), list(b))
        assert got == kernels.levenshtein(b, a)
