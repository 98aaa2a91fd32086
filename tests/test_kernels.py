"""Kernel correctness against direct formulas, finite differences and oracles."""

import numpy as np

from emovote import kernels


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
