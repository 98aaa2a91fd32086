"""Autodiff correctness: per-op gradient checks, fixtures, and error paths."""

import numpy as np
import pytest

from emovote.autodiff import (EmptySequenceError, NumericsError, ShapeError,
                              Tensor, add, clamp_min, concat, div, dropout,
                              gather_rows, grad_check, layer_norm, log,
                              masked_mean_pool, matmul, mul, neg, pow_const,
                              relu, reshape, softmax, sub,
                              tmean, transpose_last, tsum, _FLAT_GEMM_MIN,
                              _SEQUENCE_SUM_MIN, _unbroadcast)
from helpers import leaf, row_splitter

N_SEEDS = 10
OP_TOL = 1e-4


def check_op(build_fn, n_seeds=N_SEEDS, tol=OP_TOL, low=-1.0, high=1.0,
             shapes=((3, 4),), margin_fn=None):
    """Run grad_check over fresh random float64 leaves for several seeds.

    ``build_fn(leaves) -> Tensor`` must build a scalar graph. ``margin_fn``
    can remap raw uniforms to keep inputs away from non-smooth points.
    """
    worst = 0.0
    for seed in range(n_seeds):
        rng = np.random.default_rng(1000 + seed)
        leaves = []
        for shape in shapes:
            x = rng.uniform(low, high, shape)
            if margin_fn is not None:
                x = margin_fn(x)
            leaves.append(leaf(x))
        err = grad_check(lambda: build_fn(leaves), leaves)
        worst = max(worst, err)
    assert worst < tol, f"worst rel error {worst}"


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def test_add_gradient():
    check_op(lambda ls: tsum(mul(add(ls[0], ls[1]), ls[0])), shapes=((3, 4), (3, 4)))


def test_add_broadcast_gradient():
    check_op(lambda ls: tsum(mul(add(ls[0], ls[1]), ls[0])), shapes=((3, 4), (4,)))


def test_add_broadcast_accumulates_over_leading_axes():
    b = leaf(np.zeros(4))
    out = tsum(add(leaf(np.ones((5, 4))), b))
    out.backward()
    np.testing.assert_array_equal(b.grad, np.full(4, 5.0))


def test_sub_gradient():
    check_op(lambda ls: tsum(mul(sub(ls[0], ls[1]), ls[1])), shapes=((2, 5), (2, 5)))


def test_mul_gradient():
    check_op(lambda ls: tsum(mul(ls[0], ls[1])), shapes=((3, 4), (3, 4)))


def test_div_gradient():
    check_op(lambda ls: tsum(div(ls[0], ls[1])),
             shapes=((3, 4), (3, 4)),
             margin_fn=lambda x: np.sign(x) * (np.abs(x) + 0.5))


def test_neg_gradient():
    check_op(lambda ls: tsum(mul(neg(ls[0]), ls[0])))


def test_relu_gradient_away_from_kink():
    check_op(lambda ls: tsum(relu(ls[0])),
             margin_fn=lambda x: np.where(np.abs(x) < 0.05, x + 0.1, x))


def test_log_gradient_positive_domain():
    check_op(lambda ls: tsum(log(ls[0])), low=0.2, high=1.5)


def test_pow_const_gradient():
    check_op(lambda ls: tsum(pow_const(ls[0], 2.5)), low=0.2, high=1.5)
    check_op(lambda ls: tsum(pow_const(ls[0], 3.0)), low=0.05, high=1.0)


def test_pow_const_zero_base_has_zero_gradient():
    x = leaf([0.0, 0.5])
    tsum(pow_const(x, 2.0)).backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_clamp_min_gradient_and_masking():
    check_op(lambda ls: tsum(mul(clamp_min(ls[0], 0.5), ls[0])),
             margin_fn=lambda x: np.where(np.abs(x - 0.5) < 0.05, x + 0.1, x))
    x = leaf([0.1, 0.9])
    out = tsum(clamp_min(x, 0.5))
    out.backward()
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])
    np.testing.assert_array_equal(out.parents[0].data, [0.5, 0.9])


# ---------------------------------------------------------------------------
# matmul / shape ops
# ---------------------------------------------------------------------------

def test_matmul_identity_fixture():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(leaf(np.eye(2)), leaf(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_fixture():
    out = matmul(leaf([[1.0, 2.0]]), leaf([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_gradient_2d():
    check_op(lambda ls: tsum(matmul(ls[0], ls[1])), shapes=((3, 4), (4, 2)))


def test_matmul_gradient_batched():
    check_op(lambda ls: tsum(matmul(ls[0], ls[1])), shapes=((2, 3, 4), (4, 5)))
    check_op(lambda ls: tsum(matmul(ls[0], ls[1])), shapes=((2, 3, 4), (2, 4, 5)))


def test_matmul_gradient_4d_input_2d_weight():
    def build(ls):
        out = matmul(ls[0], ls[1])
        return tsum(mul(out, out))

    check_op(build, shapes=((2, 3, 4, 5), (5, 2)))
    # a weight large enough for the per-sequence gradient sum
    rng = np.random.default_rng(3)
    ls = [leaf(rng.uniform(-1, 1, (2, 2, 3, 256))), leaf(rng.uniform(-1, 1, (256, 128)))]
    assert ls[1].size >= _SEQUENCE_SUM_MIN
    assert grad_check(lambda: build(ls), ls, max_coords_per_param=60, rng=rng) < OP_TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("a_shape,k,path,split", [
    ((6, 5), 3, "batched", "-"), ((4, 7, 16), 12, "batched", "-"),
    ((12, 17, 16), 32, "batched", "-"), ((6, 256), 128, "batched", "-"),
    ((4, 7, 200), 200, "batched", "-"), ((3, 2, 5, 256), 128, "batched", "-"),
    ((32, 40, 24), 512, "batched", "-"), ((8, 40, 512), 512, "flat", "rows+seq"),
    ((32, 40, 512), 1024, "flat", "rows+seq"), ((12, 37, 1024), 512, "flat", "rows+seq"),
    ((64, 39, 128), 256, "flat", "rows")])
def test_matmul_weight_product_matches_the_batched_formulas_bitwise(dtype, a_shape, k, path,
                                                                     split):
    """[..., T, d] @ [d, k], with the weight below and above the per-sequence-sum size
    and the product below and above the flat-GEMM size: output and gradients carry the
    batched formulas' exact bits at 1, 2 and 3 row-split workers, also for an upstream
    gradient laid out transposed (as the attention keys' is). Each case pins the path
    it takes and which products 2 workers split ("rows": the flat forward and input
    gradient, "seq": the per-sequence weight gradient), so that moving _FLAT_GEMM_MIN
    or _SPLIT_MACS_MIN cannot quietly drop the flat or split cases."""
    flat = len(a_shape) > 2 and a_shape[-2] * a_shape[-1] * k > _FLAT_GEMM_MIN
    assert path == ("flat" if flat else "batched")
    split_kernels = {"-": [], "rows": ["_row_product"],
                     "rows+seq": ["_row_product", "_sequence_sum"]}[split]
    rng = np.random.default_rng(7)
    a_np = rng.standard_normal(a_shape).astype(dtype)
    b_np = rng.standard_normal((a_shape[-1], k)).astype(dtype)
    g_c = rng.standard_normal(a_shape[:-1] + (k,)).astype(dtype)
    g_t = np.ascontiguousarray(g_c.swapaxes(-1, -2)).swapaxes(-1, -2)
    for g in (g_c, g_t):
        ref_ga = _unbroadcast(np.matmul(g, b_np.swapaxes(-1, -2)), a_shape)
        ref_gb = _unbroadcast(np.matmul(a_np.swapaxes(-1, -2), g), b_np.shape)
        for workers in (1, 2, 3):
            with row_splitter(workers) as rec:
                a, b = Tensor(a_np, requires_grad=True), Tensor(b_np, requires_grad=True)
                out = matmul(a, b)
                out._backward_fn(g)
            assert np.array_equal(out.data, np.matmul(a_np, b_np)), workers
            assert np.array_equal(a.grad, ref_ga), workers
            assert np.array_equal(b.grad, ref_gb), workers
            assert rec.split_kernels() == (split_kernels if workers > 1 else []), workers


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_reshape_gradient():
    check_op(lambda ls: tsum(mul(reshape(ls[0], (4, 3)), 2.0)))


def test_transpose_last_gradient_and_error():
    check_op(lambda ls: tsum(mul(transpose_last(ls[0]), ls[1])),
             shapes=((2, 3, 4), (2, 4, 3)))
    with pytest.raises(ShapeError):
        transpose_last(leaf([1.0, 2.0]))


def test_concat_gradient_reaches_both_halves():
    def build(ls):
        return tsum(mul(concat([ls[0], ls[1]], axis=-1), concat([ls[1], ls[0]], axis=-1)))
    check_op(build, shapes=((3, 2), (3, 4)))


def test_gather_rows_gradient():
    idx = np.array([0, 2, 1])
    check_op(lambda ls: tsum(gather_rows(ls[0], idx)), shapes=((3, 4),))


def test_sum_mean_gradients():
    check_op(lambda ls: tsum(mul(tsum(ls[0], axis=0, keepdims=True), ls[1])),
             shapes=((3, 4), (1, 4)))
    check_op(lambda ls: tsum(mul(tmean(ls[0], axis=1, keepdims=True), ls[0])))
    check_op(lambda ls: tmean(ls[0]))


# ---------------------------------------------------------------------------
# softmax / layer norm / pooling
# ---------------------------------------------------------------------------

def test_softmax_simplex_property(rng):
    for _ in range(20):
        x = Tensor(rng.standard_normal((5, 8)).astype(np.float32) * 4)
        out = softmax(x, axis=-1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_gradient_all_axes():
    check_op(lambda ls: tsum(mul(softmax(ls[0], axis=-1), ls[1])),
             shapes=((3, 4), (3, 4)))
    check_op(lambda ls: tsum(mul(softmax(ls[0], axis=0), ls[1])),
             shapes=((3, 4), (3, 4)))
    check_op(lambda ls: tsum(mul(softmax(ls[0], axis=1), ls[1])),
             shapes=((2, 3, 4), (2, 3, 4)))


def test_layer_norm_gradient():
    def build(ls):
        return tsum(mul(layer_norm(ls[0], ls[1], ls[2]), ls[3]))
    check_op(build, shapes=((3, 6), (6,), (6,), (3, 6)))


def test_layer_norm_3d_gradient():
    def build(ls):
        return tsum(mul(layer_norm(ls[0], ls[1], ls[2]), ls[3]))
    check_op(build, shapes=((2, 3, 5), (5,), (5,), (2, 3, 5)), n_seeds=3)


def test_masked_mean_pool_fixtures():
    frames = leaf([[1.0], [3.0]])
    out = masked_mean_pool(frames, np.array([1.0, 1.0]))
    np.testing.assert_array_equal(out.data, [2.0])

    frames = leaf([[1.0], [3.0], [99.0]])
    out = masked_mean_pool(frames, np.array([1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(out.data, [2.0])

    const = leaf(np.full((4, 3), 7.0))
    out = masked_mean_pool(const, np.array([1.0, 0.0, 1.0, 1.0]))
    np.testing.assert_allclose(out.data, 7.0)


def test_masked_mean_pool_rejects_empty_mask():
    with pytest.raises(EmptySequenceError):
        masked_mean_pool(leaf(np.ones((3, 2))), np.zeros(3))


def test_masked_mean_pool_ignores_masked_values_and_gradients():
    rng = np.random.default_rng(0)
    base = rng.standard_normal((4, 3))
    mask = np.array([1.0, 1.0, 0.0, 1.0])
    x1 = leaf(base)
    poisoned = base.copy()
    poisoned[2] = 1e6
    x2 = leaf(poisoned)
    o1 = tsum(mul(masked_mean_pool(x1, mask), masked_mean_pool(x1, mask)))
    o2 = tsum(mul(masked_mean_pool(x2, mask), masked_mean_pool(x2, mask)))
    np.testing.assert_array_equal(o1.data, o2.data)
    o1.backward()
    o2.backward()
    np.testing.assert_array_equal(x1.grad, x2.grad)
    np.testing.assert_array_equal(x1.grad[2], np.zeros(3))


def test_masked_mean_pool_gradient():
    mask = np.array([1.0, 0.0, 1.0])
    check_op(lambda ls: tsum(mul(masked_mean_pool(ls[0], mask),
                            masked_mean_pool(ls[0], mask))),
             shapes=((3, 4),))
    bmask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    check_op(lambda ls: tsum(mul(masked_mean_pool(ls[0], bmask),
                            masked_mean_pool(ls[0], bmask))),
             shapes=((2, 3, 4),))


def test_dropout_identity_at_zero_and_gradient():
    x = leaf(np.ones((3, 3)))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert out is x

    def build(ls):
        return tsum(dropout(mul(ls[0], ls[0]), 0.5, np.random.default_rng(42)))
    check_op(build, n_seeds=5)


# ---------------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------------

def test_diamond_graph_accumulates_once():
    x = leaf([2.0])
    y = add(x, x)
    z = tsum(mul(y, y))
    z.backward()
    np.testing.assert_allclose(x.grad, [8.0 * 2.0])


def test_shared_weight_gets_both_products_gradient_in_its_own_buffer(rng):
    """A weight used by two products sums both gradients; gradients that ops hand over
    without a copy never leave two tensors sharing one buffer."""
    x1 = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
    x2 = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    gain = Tensor(rng.standard_normal(6), requires_grad=True)
    bias = Tensor(rng.standard_normal(6), requires_grad=True)
    h1 = layer_norm(matmul(x1, w), gain, bias)
    h2 = softmax(mul(relu(matmul(x2, w)), x2.data[:, :1]), axis=-1)
    out = add(tsum(mul(h1, h1)), tsum(mul(h2, neg(h2))))
    out.backward()

    y1 = np.matmul(x1.data, w.data)
    dy1 = _layer_norm_input_grad(y1, gain.data, bias.data)
    d1 = x1.data.reshape(-1, 4).T @ dy1.reshape(-1, 6)
    assert np.allclose(w.grad, d1 + _softmax_branch_weight_grad(x2.data, w.data), rtol=1e-10)

    nodes, stack = [], [out]
    while stack:
        node = stack.pop()
        if all(node is not n for n in nodes):
            nodes.append(node)
            stack.extend(node.parents)
    grads = [n.grad for n in nodes if n.grad is not None]
    assert len(grads) > 10
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)


def _layer_norm_input_grad(y, gain, bias, eps=1e-5):
    """d/dy of sum(layer_norm(y)^2), written out directly."""
    mu = y.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(((y - mu) ** 2).mean(axis=-1, keepdims=True) + eps)
    xhat = (y - mu) * rstd
    dxhat = 2 * (xhat * gain + bias) * gain
    return rstd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                   - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def _softmax_branch_weight_grad(x2, w):
    """d/dw of -sum(softmax(relu(x2 @ w) * x2[:, :1])^2), written out directly."""
    z = x2 @ w
    s = x2[:, :1]
    p = np.exp(z.clip(0) * s - (z.clip(0) * s).max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = -2 * p
    dlogit = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return x2.T @ (dlogit * s * (z > 0))


def test_gradient_shape_matches_data_shape():
    a, b = leaf(np.ones((3, 4))), leaf(np.ones((4, 2)))
    tsum(matmul(a, b)).backward()
    assert a.grad.shape == a.data.shape
    assert b.grad.shape == b.data.shape


def test_deep_chain_does_not_hit_recursion_limit():
    x = leaf([1.0])
    out = x
    for _ in range(3000):
        out = add(out, x)
    tsum(out).backward()
    np.testing.assert_allclose(x.grad, [3001.0])


def test_no_grad_leaves_are_skipped():
    x = Tensor(np.ones(3), requires_grad=False, dtype=np.float64)
    w = leaf(np.ones(3))
    tsum(mul(x, w)).backward()
    assert x.grad is None
    np.testing.assert_array_equal(w.grad, np.ones(3))


def test_finite_check_raises_on_inf():
    with pytest.raises(NumericsError), np.errstate(divide="ignore"):
        log(Tensor(np.zeros(2), requires_grad=True, dtype=np.float64))


def test_grad_check_rejects_float32_params():
    x = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(lambda: tsum(x), [x])


def test_grad_check_rejects_non_scalar_graph():
    x = leaf(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: mul(x, x), [x])


def test_grad_check_catches_corrupted_backward_rule():
    """Negative control: a deliberately wrong backward must fail loudly."""
    x = leaf(np.array([0.3, -0.7, 1.1]))

    def bad_square(t):
        def backward(g):
            grad = 3.0 * t.data * g  # wrong: should be 2 * x * g
            t.grad = grad if t.grad is None else t.grad + grad
        return Tensor.from_op(t.data ** 2, (t,), backward, "bad_square")

    err = grad_check(lambda: tsum(bad_square(x)), [x])
    assert err > 1e-1
