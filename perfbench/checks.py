"""Output checks and the brute-force transcript metrics they compare against.

The oracles here are deliberately naive (plain Python loops, no numpy, no
shared helpers with ``emovote.metrics``) so that they cannot share a defect
with the code under test.
"""

from __future__ import annotations

import math
from collections import Counter

TEXT_TOLERANCE = 1e-12
PROB_SUM_TOLERANCE = 1e-5


class Checks:
    """Counts attempted and failed checks; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def edit_distance(a: list, b: list) -> int:
    """Full-table Levenshtein distance with unit costs."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[len(a)][len(b)]


def oracle_wer(refs, hyps) -> float:
    return sum(edit_distance(r, h) for r, h in zip(refs, hyps)) / sum(len(r) for r in refs)


def _ngrams(tokens, n):
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def oracle_bleu(refs, hyps, max_n: int = 4) -> float:
    """Corpus BLEU with add-one smoothing on n >= 2, as the library defines it."""
    log_p = 0.0
    for n in range(1, max_n + 1):
        match = total = 0
        for r, h in zip(refs, hyps):
            hc, rc = _ngrams(h, n), _ngrams(r, n)
            total += sum(hc.values())
            match += sum(min(c, rc[g]) for g, c in hc.items())
        if n >= 2:
            match, total = match + 1, total + 1
        if match == 0:
            return 0.0
        log_p += math.log(match / total) / max_n
    ref_len = sum(len(r) for r in refs)
    hyp_len = sum(len(h) for h in hyps)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(log_p)


def oracle_gleu(refs, hyps, max_n: int = 4) -> float:
    match = hyp_total = ref_total = 0
    for r, h in zip(refs, hyps):
        hc, rc = Counter(), Counter()
        for n in range(1, max_n + 1):
            hc += _ngrams(h, n)
            rc += _ngrams(r, n)
        match += sum(min(c, rc[g]) for g, c in hc.items())
        hyp_total += sum(hc.values())
        ref_total += sum(rc.values())
    return min(match / hyp_total, match / ref_total)
