"""Majority voting over per-model prediction records.

Votes are hard argmax labels, one per model per utterance. Ties go to the
class with the highest probability mass summed across all models, then to
the lowest class index; every tie-break is flagged on the outcome so runs
can report how often the rule fired. Probability averaging is available as
an explicit alternative but is not the default combination rule.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import _atomic_write_bytes
from .metrics import MetricBundle, bundle_from_labels


@dataclass(frozen=True)
class PredictionRecord:
    """One model's class-probability vector and argmax label for one utterance."""

    utt_id: str
    model_tag: str
    probs: tuple[float, ...]
    predicted: int

    def __post_init__(self):
        if len(self.probs) < 2:
            raise ValueError("probability vector needs >= 2 classes")
        if self.predicted != int(np.argmax(self.probs)):
            raise ValueError(f"{self.utt_id}: predicted label {self.predicted} is not the "
                             f"argmax of the probability vector")
        total = float(sum(self.probs))
        if not 0.999 <= total <= 1.001 or any(p < 0 for p in self.probs):
            raise ValueError(f"{self.utt_id}: probabilities are not a distribution "
                             f"(sum {total:.6f})")

    @classmethod
    def from_probs(cls, utt_id: str, model_tag: str, probs) -> "PredictionRecord":
        probs = tuple(float(p) for p in np.asarray(probs).ravel())
        return cls(utt_id=utt_id, model_tag=model_tag, probs=probs,
                   predicted=int(np.argmax(probs)))


@dataclass(frozen=True)
class VoteOutcome:
    """Final ensemble label for one utterance plus the per-class vote tally."""

    utt_id: str
    label: int
    tally: tuple[int, ...]
    tie_broken: bool
    rule: str = "majority"

    def __post_init__(self):
        if sum(self.tally) < 1:
            raise ValueError(f"{self.utt_id}: empty vote tally")
        # soft averaging may crown a label without a plurality; majority cannot
        if self.rule == "majority" and self.tally[self.label] != max(self.tally):
            raise ValueError(f"{self.utt_id}: winning label must hold a maximal tally")


def _check_alignment(per_model: list[list[PredictionRecord]]):
    if not per_model or any(not recs for recs in per_model):
        raise ValueError("majority_vote needs >= 1 model with >= 1 record each")
    id_sets = [frozenset(r.utt_id for r in recs) for recs in per_model]
    base = id_sets[0]
    for i, ids in enumerate(id_sets[1:], start=1):
        if ids != base:
            diff = sorted(ids.symmetric_difference(base))
            raise ValueError(f"model {i} covers a different utterance set; "
                             f"symmetric difference: {diff[:20]}"
                             + ("..." if len(diff) > 20 else ""))
    n_classes = len(per_model[0][0].probs)
    for recs in per_model:
        for r in recs:
            if len(r.probs) != n_classes:
                raise ValueError(f"{r.utt_id} ({r.model_tag}): probability vector length "
                                 f"{len(r.probs)} != {n_classes}")
    return n_classes


def _summed_probs(records: list[PredictionRecord]) -> np.ndarray:
    # fsum is exactly rounded, so the summed mass cannot depend on the order
    # the models are listed in
    return np.array([math.fsum(r.probs[c] for r in records)
                     for c in range(len(records[0].probs))])


def _pick_majority(records, tally) -> tuple[int, bool]:
    top = max(tally)
    leaders = [c for c, n in enumerate(tally) if n == top]
    if len(leaders) == 1:
        return leaders[0], False
    # argmax over leaders only; np.argmax takes the first (lowest class index) on ties
    summed = _summed_probs(records)
    return leaders[int(np.argmax(summed[leaders]))], True


def _pick_average(records, tally) -> tuple[int, bool]:
    return int(np.argmax(_summed_probs(records) / len(records))), False


def _vote(per_model: list[list[PredictionRecord]], pick, rule: str) -> list[VoteOutcome]:
    """One outcome per utterance, in the first model's record order."""
    n_classes = _check_alignment(per_model)
    by_id = [{r.utt_id: r for r in recs} for recs in per_model]
    outcomes = []
    for first in per_model[0]:
        records = [m[first.utt_id] for m in by_id]
        counts = Counter(r.predicted for r in records)
        tally = tuple(counts.get(c, 0) for c in range(n_classes))
        label, tie = pick(records, tally)
        outcomes.append(VoteOutcome(utt_id=first.utt_id, label=label, tally=tally,
                                    tie_broken=tie, rule=rule))
    return outcomes


def majority_vote(per_model: list[list[PredictionRecord]]) -> list[VoteOutcome]:
    """Hard vote; ties go to the highest summed probability, then the lowest class."""
    return _vote(per_model, _pick_majority, "majority")


def probability_average_vote(per_model: list[list[PredictionRecord]]) -> list[VoteOutcome]:
    """Alternative soft rule: argmax of the mean probability vector."""
    return _vote(per_model, _pick_average, "average")


def tie_break_count(outcomes: list[VoteOutcome]) -> int:
    return sum(1 for o in outcomes if o.tie_broken)


@dataclass(frozen=True)
class GainReport:
    """Per-model and ensemble metrics; deltas are ensemble minus model."""

    rows: tuple[dict, ...]  # one per model plus a final "ensemble" row

    def table(self) -> str:
        header = f"{'model':<20} {'Macro-F1':>9} {'WA':>7} {'UA':>7} {'dF1':>7} {'dWA':>7} {'dUA':>7}"
        lines = [header]
        for r in self.rows:
            lines.append(f"{r['tag']:<20} {r['macro_f1']:>9.4f} {r['wa']:>7.4f} "
                         f"{r['ua']:>7.4f} {r['delta_macro_f1']:>+7.4f} "
                         f"{r['delta_wa']:>+7.4f} {r['delta_ua']:>+7.4f}")
        return "\n".join(lines)


def ensemble_gain_report(per_model: list[list[PredictionRecord]],
                         true_labels: dict[str, int],
                         outcomes: list[VoteOutcome] | None = None) -> GainReport:
    """Compare each model's metrics against the majority-vote ensemble."""
    n_classes = _check_alignment(per_model)
    missing = [r.utt_id for r in per_model[0] if r.utt_id not in true_labels]
    if missing:
        raise ValueError(f"true labels missing for: {missing[:20]}")
    if outcomes is None:
        outcomes = majority_vote(per_model)

    def bundle(pairs) -> MetricBundle:
        y_true = [true_labels[u] for u, _ in pairs]
        y_pred = [p for _, p in pairs]
        return bundle_from_labels(y_true, y_pred, n_classes)

    ens = bundle([(o.utt_id, o.label) for o in outcomes])
    rows = []
    for recs in per_model:
        b = bundle([(r.utt_id, r.predicted) for r in recs])
        rows.append({"tag": recs[0].model_tag, "macro_f1": b.macro_f1, "wa": b.wa,
                     "ua": b.ua, "delta_macro_f1": ens.macro_f1 - b.macro_f1,
                     "delta_wa": ens.wa - b.wa, "delta_ua": ens.ua - b.ua})
    rows.append({"tag": "ensemble", "macro_f1": ens.macro_f1, "wa": ens.wa, "ua": ens.ua,
                 "delta_macro_f1": 0.0, "delta_wa": 0.0, "delta_ua": 0.0})
    return GainReport(rows=tuple(rows))


# ---------------------------------------------------------------------------
# record files (line-delimited JSON)
# ---------------------------------------------------------------------------

def write_records(path, records: list[PredictionRecord]):
    lines = [json.dumps({"id": r.utt_id, "model": r.model_tag,
                         "probs": list(r.probs), "pred": r.predicted})
             for r in records]
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def read_records(path) -> list[PredictionRecord]:
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
            records.append(PredictionRecord(utt_id=d["id"], model_tag=d["model"],
                                            probs=tuple(d["probs"]), predicted=d["pred"]))
        except (json.JSONDecodeError, KeyError, ValueError) as e:
            raise ValueError(f"{path}:{lineno}: bad prediction record: {e}") from e
    if not records:
        raise ValueError(f"{path}: no prediction records")
    return records
