"""Brute-force reference implementations written directly from the metric
definitions, kept deliberately independent of the package internals (pure
Python loops, no shared helpers) so they can serve as equivalence oracles."""

import math
from collections import Counter


def oracle_classification(y_true, y_pred, n_classes):
    """(macro_f1, wa, ua) straight from the definitions.

    macro-F1 averages F1 over ALL classes (absent classes contribute 0);
    wa is the mean recall over classes with at least one true sample;
    ua is the fraction of correct predictions.
    """
    y_true, y_pred = list(y_true), list(y_pred)
    f1s = []
    recalls = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall > 0:
            f1s.append(2 * precision * recall / (precision + recall))
        else:
            f1s.append(0.0)
        if tp + fn > 0:
            recalls.append(recall)
    macro = sum(f1s) / n_classes
    wa = sum(recalls) / len(recalls)
    ua = sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)
    return macro, wa, ua


def _grams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def oracle_corpus_wer(refs, hyps):
    """Total edit distance over total reference length, full-table DP."""
    edits = 0
    total = 0
    for ref, hyp in zip(refs, hyps):
        ref, hyp = list(ref), list(hyp)
        la, lb = len(ref), len(hyp)
        table = [[0] * (lb + 1) for _ in range(la + 1)]
        for i in range(la + 1):
            table[i][0] = i
        for j in range(lb + 1):
            table[0][j] = j
        for i in range(1, la + 1):
            for j in range(1, lb + 1):
                table[i][j] = min(table[i - 1][j] + 1,
                                  table[i][j - 1] + 1,
                                  table[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]))
        edits += table[la][lb]
        total += la
    return edits / total


def oracle_bleu(refs, hyps, max_n=4, smooth=True):
    """Corpus BLEU: clipped n-gram precisions pooled over pairs, add-one
    smoothing on orders >= 2, geometric mean, brevity penalty."""
    ref_len = sum(len(list(r)) for r in refs)
    hyp_len = sum(len(list(h)) for h in hyps)
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matched = 0
        total = 0
        for ref, hyp in zip(refs, hyps):
            rc = _grams(list(ref), n)
            hc = _grams(list(hyp), n)
            matched += sum(min(count, rc[gram]) for gram, count in hc.items())
            total += sum(hc.values())
        if smooth and n >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_sum += math.log(matched / total)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_sum / max_n)


def oracle_gleu(refs, hyps, min_n=1, max_n=4):
    """Corpus GLEU: per-pair pooled 1..4-gram counts, clipped overlap,
    min(precision, recall) of the corpus totals."""
    matched = 0
    hyp_total = 0
    ref_total = 0
    for ref, hyp in zip(refs, hyps):
        ref, hyp = list(ref), list(hyp)
        rc = Counter()
        hc = Counter()
        for n in range(min_n, max_n + 1):
            rc.update(_grams(ref, n))
            hc.update(_grams(hyp, n))
        matched += sum(min(count, rc[gram]) for gram, count in hc.items())
        hyp_total += sum(hc.values())
        ref_total += sum(rc.values())
    return min(matched / hyp_total, matched / ref_total)


def oracle_majority_vote(per_model):
    """(utt_id, label, tally, tie_broken) per utterance of the first model, by the
    ensemble rule: the most votes; among tied classes, the most probability mass
    summed over all models (math.fsum over every class); then the lowest class."""
    n_classes = len(per_model[0][0].probs)
    outcomes = []
    for first in per_model[0]:
        records = []
        for recs in per_model:
            for r in recs:
                if r.utt_id == first.utt_id:
                    records.append(r)
        tally = [0] * n_classes
        for r in records:
            tally[r.predicted] += 1
        mass = [math.fsum(r.probs[c] for r in records) for c in range(n_classes)]
        top = max(tally)
        label = None
        for c in range(n_classes):
            if tally[c] == top and (label is None or mass[c] > mass[label]):
                label = c
        tied = sum(1 for n in tally if n == top) > 1
        outcomes.append((first.utt_id, label, tuple(tally), tied))
    return outcomes
