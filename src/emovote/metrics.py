"""Classification and transcript-quality metrics.

Naming convention for the accuracy pair, kept throughout the project:

* ``wa`` (weighted accuracy)   = mean per-class recall, i.e. balanced
  accuracy, averaged over classes that actually occur in the reference;
* ``ua`` (unweighted accuracy) = plain accuracy, trace / total.

Macro-F1 averages F1 over *all* classes of the confusion matrix, counting
classes with empty rows and columns as F1 = 0.

Transcript metrics: WER via Levenshtein with unit costs, corpus BLEU with
clipped n-gram precisions (add-one smoothing on n >= 2 by default), and
corpus GLEU as min(precision, recall) over pooled 1..4-gram counts.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass
from math import exp, log

import numpy as np

from . import kernels


# ---------------------------------------------------------------------------
# classification metrics
# ---------------------------------------------------------------------------

def confusion_matrix(y_true, y_pred, n_classes: int) -> np.ndarray:
    """C x C count matrix; rows are true classes, columns are predictions."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1:
        raise ValueError(f"label vectors must be 1D and equal length, got {y_true.shape}, {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("cannot score an empty label set")
    if (y_true < 0).any() or (y_true >= n_classes).any() or (y_pred < 0).any() or (y_pred >= n_classes).any():
        raise ValueError(f"labels out of range for {n_classes} classes")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (y_true, y_pred), 1)
    return cm


def per_class_prf(cm: np.ndarray):
    """Per-class (precision, recall, f1) arrays; zero where denominators vanish."""
    tp = np.diag(cm).astype(np.float64)
    pred_total = cm.sum(axis=0).astype(np.float64)
    true_total = cm.sum(axis=1).astype(np.float64)
    precision = np.divide(tp, pred_total, out=np.zeros_like(tp), where=pred_total > 0)
    recall = np.divide(tp, true_total, out=np.zeros_like(tp), where=true_total > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(tp), where=pr > 0)
    return precision, recall, f1


def macro_f1(cm: np.ndarray) -> float:
    """Unweighted mean of per-class F1 over all classes of the matrix."""
    if cm.sum() == 0:
        raise ValueError("empty confusion matrix")
    _, _, f1 = per_class_prf(cm)
    return float(f1.mean())


def wa_ua(cm: np.ndarray) -> tuple[float, float]:
    """(weighted, unweighted) accuracy; see module docstring for semantics."""
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    ua = float(np.diag(cm).sum() / total)
    true_total = cm.sum(axis=1)
    present = true_total > 0
    _, recall, _ = per_class_prf(cm)
    wa = float(recall[present].mean())
    return wa, ua


@dataclass(frozen=True)
class MetricBundle:
    """Headline metrics plus the per-class breakdown they were derived from."""

    macro_f1: float
    wa: float
    ua: float
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "macro_f1": self.macro_f1,
            "wa": self.wa,
            "ua": self.ua,
            "per_class": {
                "precision": list(self.precision),
                "recall": list(self.recall),
                "f1": list(self.f1),
            },
        }

    def percent_line(self) -> str:
        return (f"Macro-F1 {100 * self.macro_f1:.2f}  "
                f"WA {100 * self.wa:.2f}  UA {100 * self.ua:.2f}")


def bundle_from_cm(cm: np.ndarray) -> MetricBundle:
    precision, recall, f1 = per_class_prf(cm)
    wa, ua = wa_ua(cm)
    return MetricBundle(
        macro_f1=macro_f1(cm),
        wa=wa,
        ua=ua,
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
    )


def bundle_from_labels(y_true, y_pred, n_classes: int) -> MetricBundle:
    return bundle_from_cm(confusion_matrix(y_true, y_pred, n_classes))


# ---------------------------------------------------------------------------
# transcript metrics
# ---------------------------------------------------------------------------

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)


def tokenize(text: str, lowercase: bool = True, strip_punct: bool = True) -> list[str]:
    """Default tokenizer for transcript metrics: lowercase, strip punctuation, split."""
    if lowercase:
        text = text.lower()
    if strip_punct:
        text = text.translate(_PUNCT_TABLE)
    return text.split()


def wer(ref_tokens, hyp_tokens) -> float:
    """(substitutions + deletions + insertions) / len(ref); may exceed 1."""
    return corpus_wer([ref_tokens], [hyp_tokens])


def corpus_wer(refs, hyps) -> float:
    """Pooled WER: total edit distance over total reference tokens."""
    refs, hyps = list(refs), list(hyps)
    _check_corpus(refs, hyps)
    edits = 0
    ref_len = 0
    for ref, hyp in zip(refs, hyps):
        ref, hyp = list(ref), list(hyp)
        if not ref:
            raise ValueError("wer: reference must be non-empty")
        vocab: dict[str, int] = {}
        ref_ids = np.array([vocab.setdefault(t, len(vocab)) for t in ref], dtype=np.int64)
        hyp_ids = np.array([vocab.setdefault(t, len(vocab)) for t in hyp], dtype=np.int64)
        edits += int(kernels.levenshtein(ref_ids, hyp_ids))
        ref_len += len(ref)
    return edits / ref_len


def _check_corpus(refs, hyps):
    if len(refs) == 0 or len(hyps) == 0:
        raise ValueError("empty corpus")
    if len(refs) != len(hyps):
        raise ValueError(f"corpus size mismatch: {len(refs)} references vs {len(hyps)} hypotheses")


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(refs, hyps, max_n: int = 4, smooth: bool = True) -> float:
    """Corpus BLEU in [0, 1]: geometric mean of clipped n-gram precisions
    times the brevity penalty.

    With ``smooth`` (add-one on the n >= 2 precisions) zero higher-order
    overlap no longer collapses the score; identical corpora still score
    exactly 1. Without smoothing any zero precision returns 0.
    """
    refs = [list(r) for r in refs]
    hyps = [list(h) for h in hyps]
    _check_corpus(refs, hyps)
    matches = np.zeros(max_n, dtype=np.int64)
    totals = np.zeros(max_n, dtype=np.int64)
    ref_len = 0
    hyp_len = 0
    for ref, hyp in zip(refs, hyps):
        ref_len += len(ref)
        hyp_len += len(hyp)
        for n in range(1, max_n + 1):
            hyp_counts = _ngram_counts(hyp, n)
            if not hyp_counts:
                continue
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += sum(hyp_counts.values())
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
    if hyp_len == 0:
        raise ValueError("empty hypothesis corpus")
    log_sum = 0.0
    for n in range(1, max_n + 1):
        m, t = int(matches[n - 1]), int(totals[n - 1])
        if smooth and n >= 2:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_sum += log(m / t) / max_n
    bp = 1.0 if hyp_len >= ref_len else exp(1.0 - ref_len / hyp_len)
    return bp * exp(log_sum)


def gleu(refs, hyps, min_n: int = 1, max_n: int = 4) -> float:
    """Corpus GLEU in [0, 1]: n-grams of all orders in [min_n, max_n] are
    pooled per pair, overlaps are clipped and summed over the corpus, and the
    score is min(precision, recall) of the pooled totals.
    """
    refs = [list(r) for r in refs]
    hyps = [list(h) for h in hyps]
    _check_corpus(refs, hyps)
    match_total = 0
    hyp_total = 0
    ref_total = 0
    for ref, hyp in zip(refs, hyps):
        hyp_counts: Counter = Counter()
        ref_counts: Counter = Counter()
        for n in range(min_n, max_n + 1):
            hyp_counts.update(_ngram_counts(hyp, n))
            ref_counts.update(_ngram_counts(ref, n))
        match_total += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())
        hyp_total += sum(hyp_counts.values())
        ref_total += sum(ref_counts.values())
    if hyp_total == 0 or ref_total == 0:
        raise ValueError("gleu: corpus has no n-grams")
    return min(match_total / hyp_total, match_total / ref_total)
