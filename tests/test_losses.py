"""Loss fixtures and properties: CE, focal, and class-weight schemes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emovote.autodiff import Tensor, grad_check, softmax
from emovote.losses import (PROB_EPS, LossConfig, ce_loss,
                            compute_loss, focal_loss, prior_weights,
                            uniform_weights)

CORPUS_TRAIN_COUNTS = (25016, 13440, 3053, 3882, 1426, 2443, 2897, 1139)


def scalar_loss(fn, p, *args):
    return fn(Tensor(np.array([p], dtype=np.float64)), *args).item()


# ---------------------------------------------------------------------------
# class weights
# ---------------------------------------------------------------------------

def test_uniform_weights_are_all_one():
    assert uniform_weights(8) == (1.0,) * 8


def test_prior_weights_balanced_counts():
    assert prior_weights([10, 10]) == (2.0, 2.0)


def test_prior_weights_formula_fixture():
    np.testing.assert_allclose(prior_weights([30, 10]), [4.0 / 3.0, 4.0], rtol=1e-12)


def test_prior_weights_on_corpus_counts():
    w = prior_weights(CORPUS_TRAIN_COUNTS)
    assert sum(CORPUS_TRAIN_COUNTS) == 53296
    assert abs(w[0] - 2.1305) < 5e-4   # most frequent class
    assert abs(w[-1] - 46.79) < 5e-2   # rarest class
    assert w[-1] == max(w)


def test_prior_weights_reject_zero_count():
    with pytest.raises(ValueError, match="class index"):
        prior_weights([5, 0, 3])


def test_per_sample_maps_labels_to_weights():
    # uniform probabilities over 3 classes: every sample's CE is ln 3 times w_label
    probs = Tensor(np.full((4, 3), 1.0 / 3.0))
    cfg = LossConfig(class_weights=(1.0, 2.0, 4.0))
    got = compute_loss(probs, [2, 0, 1, 2], cfg).item()
    assert abs(got - (4.0 + 1.0 + 2.0 + 4.0) / 4 * math.log(3)) < 1e-12


def test_weights_must_be_positive():
    for bad in ((1.0, -1.0), (0.0, 1.0)):
        with pytest.raises(ValueError, match="positive"):
            LossConfig(class_weights=bad)


# ---------------------------------------------------------------------------
# loss fixtures
# ---------------------------------------------------------------------------

def test_ce_perfect_prediction_is_zero():
    assert scalar_loss(ce_loss, 1.0, [1.0]) == 0.0


def test_ce_half_probability_is_ln2():
    assert abs(scalar_loss(ce_loss, 0.5, [1.0]) - math.log(2)) < 1e-12


def test_ce_weight_four_scales_to_4ln2():
    got = scalar_loss(ce_loss, 0.5, [4.0])
    assert abs(got - 4 * math.log(2)) < 1e-12
    assert abs(got - 2.7726) < 1e-4


def test_ce_clamps_zero_probability():
    got = scalar_loss(ce_loss, 0.0, [1.0])
    assert got == -math.log(PROB_EPS)


def test_focal_gamma2_half_probability():
    got = scalar_loss(focal_loss, 0.5, 2.0, [1.0])
    assert abs(got - 0.25 * math.log(2)) < 1e-12
    assert abs(got - 0.1733) < 1e-4


def test_focal_downweights_easy_samples():
    easy = scalar_loss(focal_loss, 0.9, 2.0, [1.0])
    hard = scalar_loss(focal_loss, 0.6, 2.0, [1.0])
    expected = (0.01 * math.log(1 / 0.9)) / (0.16 * math.log(1 / 0.6))
    assert abs(easy / hard - expected) < 1e-9
    assert abs(easy / hard - 0.0129) < 1e-4


def test_empty_batch_rejected():
    empty = Tensor(np.zeros((0,), dtype=np.float32))
    with pytest.raises(ValueError, match="empty batch"):
        ce_loss(empty, np.zeros(0))
    with pytest.raises(ValueError, match="empty batch"):
        focal_loss(empty, 2.0, np.zeros(0))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(kind="hinge")
    with pytest.raises(ValueError):
        LossConfig(kind="focal", gamma=-1.0)


# ---------------------------------------------------------------------------
# identities and properties
# ---------------------------------------------------------------------------

def random_batch_inputs(rng, dtype=np.float32):
    n = int(rng.integers(1, 33))
    c = int(rng.integers(2, 9))
    probs = rng.dirichlet(np.ones(c), size=n).astype(dtype)
    labels = rng.integers(0, c, size=n)
    weights = rng.uniform(0.1, 10.0, size=n).astype(dtype)
    return probs[np.arange(n), labels].copy(), weights


def test_focal_gamma_zero_is_ce_bitwise(rng):
    for _ in range(100):
        p, w = random_batch_inputs(rng)
        a = focal_loss(Tensor(p), 0.0, w)
        b = ce_loss(Tensor(p), w)
        assert a.item() == b.item()


def test_focal_below_ce_pointwise_for_positive_gamma(rng):
    for _ in range(100):
        p, w = random_batch_inputs(rng)
        p = np.clip(p, 0.02, 0.98)
        gamma = float(rng.uniform(0.5, 4.0))
        assert focal_loss(Tensor(p), gamma, w).item() < ce_loss(Tensor(p), w).item()


def test_weight_homogeneity(rng):
    for _ in range(100):
        p, w = random_batch_inputs(rng, dtype=np.float64)
        c = float(rng.uniform(0.5, 20.0))
        base = ce_loss(Tensor(p), w).item()
        scaled = ce_loss(Tensor(p), c * w).item()
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)
        base_f = focal_loss(Tensor(p), 1.7, w).item()
        scaled_f = focal_loss(Tensor(p), 1.7, c * w).item()
        np.testing.assert_allclose(scaled_f, c * base_f, rtol=1e-12)


@settings(max_examples=200, deadline=None)
@given(p=st.floats(1e-6, 1.0 - 1e-6), gamma=st.floats(0.0, 5.0),
       w=st.floats(0.01, 100.0))
def test_focal_matches_closed_form(p, gamma, w):
    got = scalar_loss(focal_loss, p, gamma, [w])
    want = -w * (1.0 - p) ** gamma * math.log(max(p, PROB_EPS))
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(p1=st.floats(0.01, 0.98), delta=st.floats(1e-3, 0.99),
       gamma=st.floats(0.0, 4.0))
def test_focal_monotonically_decreasing_in_p(p1, delta, gamma):
    p2 = min(p1 + delta, 0.999)
    assert scalar_loss(focal_loss, p1, gamma, [1.0]) > \
        scalar_loss(focal_loss, p2, gamma, [1.0])


# ---------------------------------------------------------------------------
# gradients w.r.t. logits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", [
    LossConfig(kind="ce", class_weights=uniform_weights(5)),
    LossConfig(kind="ce", class_weights=prior_weights([40, 10, 5, 20, 25])),
    LossConfig(kind="focal", gamma=2.0, class_weights=uniform_weights(5)),
    LossConfig(kind="focal", gamma=2.5,
               class_weights=prior_weights([40, 10, 5, 20, 25])),
])
def test_loss_gradient_wrt_logits(config):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        logits = Tensor(rng.standard_normal((4, 5)), requires_grad=True,
                        dtype=np.float64)
        labels = rng.integers(0, 5, size=4)
        err = grad_check(
            lambda: compute_loss(softmax(logits, axis=-1), labels, config),
            [logits])
        worst = max(worst, err)
    assert worst < 1e-4, f"worst rel error {worst}"


def test_compute_loss_shape_validation():
    probs = Tensor(np.full((2, 3), 1 / 3))
    with pytest.raises(ValueError, match="one label per row"):
        compute_loss(probs, [0, 1, 2], LossConfig())
