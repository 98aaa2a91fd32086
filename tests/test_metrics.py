"""Classification and transcript metrics: fixtures, properties, oracles."""

import numpy as np
import pytest

from emovote.metrics import (MetricBundle, bleu, bundle_from_cm,
                             bundle_from_labels, confusion_matrix, corpus_wer,
                             gleu, macro_f1, per_class_prf, tokenize, wa_ua,
                             wer)
from oracles import (oracle_bleu, oracle_classification, oracle_corpus_wer,
                     oracle_gleu)


# ---------------------------------------------------------------------------
# confusion matrix and bundles
# ---------------------------------------------------------------------------

def test_confusion_matrix_layout():
    cm = confusion_matrix([0, 1, 1], [0, 0, 1], n_classes=2)
    np.testing.assert_array_equal(cm, [[1, 0], [1, 1]])
    assert cm.sum() == 3


def test_hand_fixture_two_classes():
    bundle = bundle_from_labels([0, 1, 1], [0, 0, 1], n_classes=2)
    np.testing.assert_allclose(bundle.macro_f1, 2.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(bundle.ua, 2.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(bundle.wa, 0.75, atol=1e-12)
    np.testing.assert_allclose(bundle.f1, [2 / 3, 2 / 3], atol=1e-12)


def test_absent_class_contributes_zero_f1():
    cm = confusion_matrix([0, 1, 1], [0, 0, 1], n_classes=3)
    np.testing.assert_allclose(macro_f1(cm), (2 / 3 + 2 / 3 + 0.0) / 3, atol=1e-12)
    wa, ua = wa_ua(cm)
    np.testing.assert_allclose(wa, 0.75, atol=1e-12)  # absent class skipped in WA
    np.testing.assert_allclose(ua, 2 / 3, atol=1e-12)


def test_perfect_predictions():
    y = [0, 1, 2, 3, 2, 1]
    bundle = bundle_from_labels(y, y, n_classes=4)
    assert bundle.macro_f1 == 1.0
    assert bundle.wa == 1.0
    assert bundle.ua == 1.0


def test_majority_class_predictor_on_imbalanced_data():
    y_true = [0] * 90 + [1] * 10
    y_pred = [0] * 100
    wa, ua = wa_ua(confusion_matrix(y_true, y_pred, 2))
    np.testing.assert_allclose(ua, 0.9, atol=1e-12)
    np.testing.assert_allclose(wa, 0.5, atol=1e-12)


def test_wa_equals_ua_on_balanced_data(rng):
    y_true = np.repeat(np.arange(4), 25)
    y_pred = rng.integers(0, 4, size=100)
    wa, ua = wa_ua(confusion_matrix(y_true, y_pred, 4))
    np.testing.assert_allclose(wa, ua, atol=1e-12)


def test_metrics_invariant_under_class_permutation(rng):
    y_true = rng.integers(0, 5, size=60)
    y_pred = rng.integers(0, 5, size=60)
    base = bundle_from_labels(y_true, y_pred, 5)
    perm = rng.permutation(5)
    permuted = bundle_from_labels(perm[y_true], perm[y_pred], 5)
    np.testing.assert_allclose(permuted.macro_f1, base.macro_f1, atol=1e-12)
    np.testing.assert_allclose(permuted.wa, base.wa, atol=1e-12)
    np.testing.assert_allclose(permuted.ua, base.ua, atol=1e-12)


def test_bundle_round_trips_through_confusion_matrix(rng):
    y_true = rng.integers(0, 4, size=40)
    y_pred = rng.integers(0, 4, size=40)
    direct = bundle_from_labels(y_true, y_pred, 4)
    via_cm = bundle_from_cm(confusion_matrix(y_true, y_pred, 4))
    assert direct == via_cm  # identical floats, not merely close


def test_against_brute_force_oracle(rng):
    for _ in range(300):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(1, 51))
        y_true = rng.integers(0, c, size=n)
        y_pred = rng.integers(0, c, size=n)
        bundle = bundle_from_labels(y_true, y_pred, c)
        macro, wa, ua = oracle_classification(y_true, y_pred, c)
        assert abs(bundle.macro_f1 - macro) < 1e-12
        assert abs(bundle.wa - wa) < 1e-12
        assert abs(bundle.ua - ua) < 1e-12


def test_metric_ranges(rng):
    for _ in range(50):
        y_true = rng.integers(0, 3, size=20)
        y_pred = rng.integers(0, 3, size=20)
        b = bundle_from_labels(y_true, y_pred, 3)
        assert 0.0 <= b.macro_f1 <= 1.0
        assert 0.0 <= b.wa <= 1.0
        assert 0.0 <= b.ua <= 1.0


def test_percent_line_formatting():
    bundle = bundle_from_labels([0, 1, 1], [0, 0, 1], n_classes=2)
    line = bundle.percent_line()
    assert "66.67" in line and "75.00" in line
    assert "Macro-F1" in line and "WA" in line and "UA" in line


def test_per_class_prf_zero_division_convention():
    cm = np.array([[0, 0], [0, 5]])
    precision, recall, f1 = per_class_prf(cm)
    assert precision[0] == recall[0] == f1[0] == 0.0
    assert precision[1] == recall[1] == f1[1] == 1.0


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

def test_tokenize_default_pipeline():
    assert tokenize("The cat, sat.") == ["the", "cat", "sat"]
    assert tokenize("  a   b\tc ") == ["a", "b", "c"]


def test_tokenize_flags():
    assert tokenize("The CAT.", lowercase=False) == ["The", "CAT"]
    assert tokenize("a, b.", strip_punct=False) == ["a,", "b."]


# ---------------------------------------------------------------------------
# WER
# ---------------------------------------------------------------------------

def test_wer_identical_is_zero():
    assert wer("a b c".split(), "a b c".split()) == 0.0


def test_wer_fixture_half():
    assert wer("a b c d".split(), "a x c".split()) == 0.5


def test_wer_insertions_can_exceed_one():
    assert wer(["a"], "a b c".split()) == 2.0


def test_wer_empty_reference_rejected():
    with pytest.raises(ValueError, match="non-empty"):
        wer([], ["a"])


def test_corpus_wer_pools_edits():
    refs = ["a b".split(), "c d e f".split()]
    hyps = ["a b".split(), "c x e".split()]
    np.testing.assert_allclose(corpus_wer(refs, hyps), 2.0 / 6.0, atol=1e-12)


def test_corpus_wer_matches_oracle(rng):
    vocab = list("abcdefg")
    for _ in range(50):
        refs, hyps = [], []
        for _ in range(int(rng.integers(1, 5))):
            refs.append([vocab[i] for i in rng.integers(0, 7, size=rng.integers(1, 15))])
            hyps.append([vocab[i] for i in rng.integers(0, 7, size=rng.integers(0, 15))])
        np.testing.assert_allclose(corpus_wer(refs, hyps),
                                   oracle_corpus_wer(refs, hyps), atol=1e-12)
        r, h = refs[0], hyps[0]
        assert wer(r, h) == corpus_wer([r], [h])
        np.testing.assert_allclose(wer(r, h), oracle_corpus_wer([r], [h]), atol=1e-12)


# ---------------------------------------------------------------------------
# BLEU / GLEU
# ---------------------------------------------------------------------------

def test_bleu_identical_corpus_is_one():
    refs = ["the cat sat on the mat".split(), "hello there".split()]
    assert bleu(refs, refs) == 1.0


def test_bleu_zero_overlap_no_smoothing():
    refs = ["a b c d e".split()]
    hyps = ["v w x y z".split()]
    assert bleu(refs, hyps, smooth=False) == 0.0


def test_bleu_named_fixture_matches_oracle():
    refs = ["the cat sat on the mat".split()]
    hyps = ["the cat sat on mat".split()]
    got = bleu(refs, hyps)
    np.testing.assert_allclose(got, oracle_bleu(refs, hyps), rtol=1e-12)
    assert 0.0 < got < 1.0


def test_bleu_brevity_penalty_direction():
    refs = ["a b c d e f g h".split()]
    exact = bleu(refs, refs)
    short = bleu(refs, ["a b c d".split()])
    assert short < exact


def test_gleu_identical_corpus_is_one():
    refs = ["the cat sat".split(), "x y".split()]
    assert gleu(refs, refs) == 1.0


def test_gleu_disjoint_tokens_is_zero():
    assert gleu(["a b c".split()], ["x y z".split()]) == 0.0


def test_gleu_returns_min_of_precision_and_recall():
    # hypothesis longer than reference: precision < recall
    refs = ["a b".split()]
    hyps = ["a b c d".split()]
    got = gleu(refs, hyps)
    np.testing.assert_allclose(got, oracle_gleu(refs, hyps), rtol=1e-12)
    # pooled counts: ref grams 3 (a,b,ab), hyp grams 4+3+2+1=10, matched 3
    np.testing.assert_allclose(got, 3.0 / 10.0, atol=1e-12)


def test_bleu_gleu_match_oracle_on_random_pairs(rng):
    vocab = list("abcdefghij")
    for _ in range(60):
        n_pairs = int(rng.integers(1, 4))
        refs, hyps = [], []
        for _ in range(n_pairs):
            ref = [vocab[i] for i in rng.integers(0, 10, size=rng.integers(1, 20))]
            # correlated hypothesis: random edits of the reference
            hyp = [t if rng.random() > 0.3 else vocab[int(rng.integers(0, 10))]
                   for t in ref]
            if rng.random() < 0.3 and len(hyp) > 1:
                hyp = hyp[:-1]
            refs.append(ref)
            hyps.append(hyp)
        np.testing.assert_allclose(bleu(refs, hyps), oracle_bleu(refs, hyps),
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(gleu(refs, hyps), oracle_gleu(refs, hyps),
                                   rtol=1e-9, atol=1e-12)


def test_corpus_size_mismatch_rejected():
    with pytest.raises(ValueError, match="mismatch"):
        bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError, match="empty"):
        gleu([], [])
