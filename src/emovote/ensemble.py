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
        probs = self.probs
        if len(probs) < 2:
            raise ValueError("probability vector needs >= 2 classes")
        if self.predicted != _argmax(probs):
            raise ValueError(f"{self.utt_id}: predicted label {self.predicted} is not the "
                             f"argmax of the probability vector")
        total = float(sum(probs))
        if not 0.999 <= total <= 1.001 or min(probs) < 0:
            raise ValueError(f"{self.utt_id}: probabilities are not a distribution "
                             f"(sum {total:.6f})")

    @classmethod
    def from_probs(cls, utt_id: str, model_tag: str, probs) -> "PredictionRecord":
        probs = tuple(np.asarray(probs, np.float64).ravel().tolist())
        return cls(utt_id=utt_id, model_tag=model_tag, probs=probs, predicted=_argmax(probs))


def _argmax(values: tuple) -> int:
    """``int(np.argmax(values))``, without numpy when every value is a Python float.

    numpy takes the first NaN if there is one, else the first maximum. A sum of
    floats is NaN when any of them is, so a sum that is not NaN leaves the first
    maximum. Other value types, and NaN sums (a NaN, or inf beside -inf), go to
    numpy, which keeps its conversions and its error texts.
    """
    if list(map(type, values)).count(float) == len(values):
        total = sum(values)
        if total == total:
            return values.index(max(values))
    return int(np.argmax(values))


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


def _check_alignment(per_model: list[list[PredictionRecord]], caller: str):
    if not per_model or any(not recs for recs in per_model):
        raise ValueError(f"{caller} needs >= 1 model with >= 1 record each")
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


# Class masses are summed with fsum, which is exactly rounded, so they cannot
# depend on the order the models are listed in.

def _pick_majority(records, tally) -> tuple[int, bool]:
    top = max(tally)
    if tally.count(top) == 1:
        return tally.index(top), False
    # the leader with the most summed mass, the first (lowest class index) among equals
    leaders = [c for c, n in enumerate(tally) if n == top]
    mass = [math.fsum(r.probs[c] for r in records) for c in leaders]
    return leaders[mass.index(max(mass))], True


def _pick_average(records, tally) -> tuple[int, bool]:
    mass = np.array([math.fsum(r.probs[c] for r in records) for c in range(len(tally))])
    return int(np.argmax(mass / len(records))), False


def _vote(per_model: list[list[PredictionRecord]], pick, rule: str,
          caller: str) -> list[VoteOutcome]:
    """One outcome per utterance, in the first model's record order."""
    classes = range(_check_alignment(per_model, caller))
    by_id = [{r.utt_id: r for r in recs} for recs in per_model]
    outcomes = []
    for first in per_model[0]:
        records = [m[first.utt_id] for m in by_id]
        votes = [r.predicted for r in records]
        tally = tuple(map(votes.count, classes))
        label, tie = pick(records, tally)
        outcomes.append(VoteOutcome(utt_id=first.utt_id, label=label, tally=tally,
                                    tie_broken=tie, rule=rule))
    return outcomes


def majority_vote(per_model: list[list[PredictionRecord]]) -> list[VoteOutcome]:
    """Hard vote; ties go to the highest summed probability, then the lowest class."""
    return _vote(per_model, _pick_majority, "majority", "majority_vote")


def probability_average_vote(per_model: list[list[PredictionRecord]]) -> list[VoteOutcome]:
    """Alternative soft rule: argmax of the mean probability vector."""
    return _vote(per_model, _pick_average, "average", "probability_average_vote")


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
    n_classes = _check_alignment(per_model, "ensemble_gain_report")
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


_scan_json = json.JSONDecoder().scan_once


def _loads(line: str):
    """``json.loads(line)``, calling its scanner directly when the line is one bare
    value. An error inside a value comes from that same scanner; any other line
    (leading or trailing whitespace, a BOM, extra data, no value) goes to
    ``json.loads``, which accepts it or raises its own error."""
    try:
        value, end = _scan_json(line, 0)
    except StopIteration:
        end = -1
    return value if end == len(line) else json.loads(line)


def read_records(path) -> list[PredictionRecord]:
    records = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            d = _loads(line)
            if not isinstance(d, dict):
                raise ValueError(f"not a JSON object: {line.strip()[:60]}")
            if not isinstance(d["probs"], list):
                raise ValueError(f"probs must be a list, got {d['probs']!r}")
            record = PredictionRecord(d["id"], d["model"], tuple(d["probs"]), d["pred"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}:{lineno}: bad prediction record: {e}") from e
        if record.utt_id in first_line:
            # a vote would emit the utterance twice, both times with the last record
            raise ValueError(f"{path}:{lineno}: repeated id {record.utt_id!r} "
                             f"(first on line {first_line[record.utt_id]})")
        first_line[record.utt_id] = lineno
        records.append(record)
    if not records:
        raise ValueError(f"{path}: no prediction records")
    return records
