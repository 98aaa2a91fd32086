"""Majority voting: validation, tie-breaking, invariances, record files."""

import itertools
import json
import math

import numpy as np
import pytest

from emovote.ensemble import (GainReport, PredictionRecord, VoteOutcome,
                              ensemble_gain_report, majority_vote,
                              probability_average_vote, read_records,
                              tie_break_count, write_records)
from oracles import oracle_majority_vote


def rec(utt_id, model_tag, probs):
    return PredictionRecord.from_probs(utt_id, model_tag, np.asarray(probs))


def one_hotish(label, n_classes=8, confidence=0.65):
    probs = np.full(n_classes, (1.0 - confidence) / (n_classes - 1))
    probs[label] = confidence
    return probs


def model_records(tag, labels_by_id, n_classes=8):
    return [rec(utt_id, tag, one_hotish(label, n_classes))
            for utt_id, label in labels_by_id.items()]


# ---------------------------------------------------------------------------
# record validation
# ---------------------------------------------------------------------------

def test_record_rejects_argmax_mismatch():
    with pytest.raises(ValueError, match="argmax"):
        PredictionRecord(utt_id="u", model_tag="m",
                         probs=(0.2, 0.8), predicted=0)


def test_record_rejects_non_distributions():
    with pytest.raises(ValueError, match="distribution"):
        PredictionRecord(utt_id="u", model_tag="m", probs=(0.9, 0.4), predicted=0)
    with pytest.raises(ValueError, match="distribution"):
        PredictionRecord(utt_id="u", model_tag="m", probs=(1.2, -0.2), predicted=0)
    with pytest.raises(ValueError, match=">= 2"):
        PredictionRecord(utt_id="u", model_tag="m", probs=(1.0,), predicted=0)


def test_record_from_probs_sets_the_argmax():
    r = rec("u", "m", [0.1, 0.2, 0.7])
    assert r.predicted == 2
    assert r.probs == (0.1, 0.2, 0.7)


def test_vote_outcome_validation():
    with pytest.raises(ValueError, match="empty vote tally"):
        VoteOutcome(utt_id="u", label=0, tally=(0, 0), tie_broken=False)
    with pytest.raises(ValueError, match="maximal tally"):
        VoteOutcome(utt_id="u", label=0, tally=(1, 2), tie_broken=False)
    # the soft rule may legitimately crown a non-plurality label
    VoteOutcome(utt_id="u", label=0, tally=(1, 2), tie_broken=False, rule="average")


# ---------------------------------------------------------------------------
# plurality voting
# ---------------------------------------------------------------------------

def test_plurality_fixture_three_against_two_against_two():
    """7 models vote Happy x3, Neutral x2, Sad x2: Happy wins, no tie-break."""
    votes = [1, 1, 1, 0, 0, 3, 3]
    per_model = [[rec("u0", f"m{i}", one_hotish(v))] for i, v in enumerate(votes)]
    (outcome,) = majority_vote(per_model)
    assert outcome.label == 1
    assert outcome.tally == (2, 3, 0, 2, 0, 0, 0, 0)
    assert not outcome.tie_broken
    assert tie_break_count([outcome]) == 0


def test_single_model_vote_is_the_identity():
    records = model_records("only", {"a": 2, "b": 5, "c": 0})
    outcomes = majority_vote([records])
    assert [o.label for o in outcomes] == [2, 5, 0]
    assert all(not o.tie_broken for o in outcomes)
    assert [o.utt_id for o in outcomes] == ["a", "b", "c"]


def test_tie_breaks_by_summed_probability_mass():
    """Four models split 2-2 between classes 0 and 1; class 0 holds more mass."""
    per_model = [
        [rec("u", "m0", [0.60, 0.30, 0.10])],
        [rec("u", "m1", [0.55, 0.35, 0.10])],
        [rec("u", "m2", [0.05, 0.90, 0.05])],
        [rec("u", "m3", [0.45, 0.50, 0.05])],
    ]
    # summed mass: class 0 -> 1.65, class 1 -> 2.05; votes tie 2-2
    (outcome,) = majority_vote(per_model)
    assert outcome.tally == (2, 2, 0)
    assert outcome.tie_broken
    assert outcome.label == 1
    assert tie_break_count([outcome]) == 1


def test_tie_break_fixture_sum_2_1_vs_1_9():
    """Vote tie with summed probabilities 2.1 vs 1.9 goes to the heavier class."""
    pa, pb = [0.7, 0.2, 0.1], [0.35, 0.6, 0.05]
    per_model = [[rec("u", "m0", pa)], [rec("u", "m1", pa)],
                 [rec("u", "m2", pb)], [rec("u", "m3", pb)]]
    # class 0 mass: 0.7 + 0.7 + 0.35 + 0.35 = 2.1; class 1: 0.2 + 0.2 + 0.6 + 0.6 = 1.6
    (outcome,) = majority_vote(per_model)
    assert outcome.tie_broken and outcome.label == 0


def test_tie_break_falls_back_to_lowest_class_index():
    """Identical summed mass on the tied classes picks the lower index."""
    per_model = [
        [rec("u", "m0", [0.6, 0.3, 0.1])],
        [rec("u", "m1", [0.3, 0.6, 0.1])],
    ]
    (outcome,) = majority_vote(per_model)
    assert outcome.tally == (1, 1, 0)
    assert outcome.tie_broken
    assert outcome.label == 0  # equal 0.9 vs 0.9: lowest class index wins


def test_tie_break_mass_is_exactly_rounded():
    """Classes 0 and 1 hold the same values in other model orders, so their exact
    masses are equal and class 0 wins; left-to-right float sums would give class 0
    0.6 and class 1 0.6000000000000001."""
    rest = [0.07] * 5
    per_model = [[rec("u", "m0", [0.3, 0.1, 0.1] + [0.1] * 5)],
                 [rec("u", "m1", [0.2, 0.2, 0.25] + rest)],
                 [rec("u", "m2", [0.1, 0.3, 0.1] + [0.1] * 5)]]
    assert (0.3 + 0.2) + 0.1 < (0.1 + 0.2) + 0.3
    (outcome,) = majority_vote(per_model)
    assert outcome.tally[:3] == (1, 1, 1) and outcome.tie_broken
    assert outcome.label == 0


def test_tie_break_only_considers_leading_classes():
    """A non-leading class with huge probability mass cannot steal the vote."""
    per_model = [
        [rec("u", "m0", [0.50, 0.01, 0.49])],
        [rec("u", "m1", [0.01, 0.50, 0.49])],
        [rec("u", "m2", [0.50, 0.01, 0.49])],
        [rec("u", "m3", [0.01, 0.50, 0.49])],
    ]
    # classes 0 and 1 tie at 2 votes; class 2 has the largest summed mass
    # (1.96) but zero votes, so it must not win
    (outcome,) = majority_vote(per_model)
    assert outcome.tie_broken
    assert outcome.label in (0, 1)
    assert outcome.tally[2] == 0


def test_vote_is_invariant_to_model_ordering():
    ids = [f"u{i}" for i in range(10)]
    rng = np.random.default_rng(7)
    base = []
    for m in range(5):
        labels = {u: int(rng.integers(0, 8)) for u in ids}
        base.append(model_records(f"m{m}", labels))
    expected = [(o.utt_id, o.label, o.tally, o.tie_broken)
                for o in majority_vote(base)]
    for perm in itertools.permutations(range(5)):
        shuffled = [base[i] for i in perm]
        got = [(o.utt_id, o.label, o.tally, o.tie_broken)
               for o in majority_vote(shuffled)]
        assert got == expected


def test_vote_is_invariant_to_record_order_within_a_model():
    ids = [f"u{i}" for i in range(6)]
    rng = np.random.default_rng(3)
    per_model = [model_records(f"m{m}", {u: int(rng.integers(0, 8)) for u in ids})
                 for m in range(3)]
    expected = {o.utt_id: o.label for o in majority_vote(per_model)}
    reversed_inner = [list(reversed(recs)) for recs in per_model]
    got = {o.utt_id: o.label for o in majority_vote(reversed_inner)}
    assert got == expected


def test_vote_is_invariant_to_argmax_preserving_rescale():
    """Sharpening probabilities without moving any argmax keeps all outcomes
    whose plurality is untied; the tally never changes either way."""
    ids = [f"u{i}" for i in range(8)]
    rng = np.random.default_rng(11)
    per_model = []
    votes = {}
    for m in range(5):
        labels = {u: int(rng.integers(0, 8)) for u in ids}
        per_model.append(model_records(f"m{m}", labels, n_classes=8))
        votes[m] = labels
    sharpened = [[rec(r.utt_id, r.model_tag, one_hotish(r.predicted, 8, 0.9))
                  for r in recs] for recs in per_model]
    for a, b in zip(majority_vote(per_model), majority_vote(sharpened)):
        assert a.tally == b.tally
        if not a.tie_broken:
            assert (a.label, a.tie_broken) == (b.label, b.tie_broken)


def test_seven_identical_models_are_degenerate():
    records = model_records("m", {"a": 3, "b": 6})
    outcomes = majority_vote([records] * 7)
    assert [o.label for o in outcomes] == [3, 6]
    assert all(o.tally[o.label] == 7 for o in outcomes)
    assert tie_break_count(outcomes) == 0


def test_odd_model_count_with_two_classes_never_tie_breaks():
    ids = [f"u{i}" for i in range(40)]
    rng = np.random.default_rng(13)
    per_model = [model_records(f"m{m}", {u: int(rng.integers(0, 2)) for u in ids},
                               n_classes=2) for m in range(5)]
    outcomes = majority_vote(per_model)
    assert tie_break_count(outcomes) == 0


_DYADIC = (20, 12, 10, 8, 6, 4, 2, 2)  # sixty-fourths: sums to exactly 1


def _dyadic(rng, label, equal_at=()):
    """A permutation of _DYADIC / 64 with its maximum at ``label`` and its two equal
    entries at the classes ``equal_at``, if given."""
    probs = [None] * 8
    probs[label] = 20
    for c in equal_at:
        probs[c] = 2
    free = [c for c in range(8) if probs[c] is None]
    rest = list(_DYADIC[1:len(_DYADIC) - len(equal_at)])
    for c, v in zip(free, rng.permutation(rest)):
        probs[c] = int(v)
    return [v / 64 for v in probs]


def _peaked(rng, label):
    probs = rng.dirichlet(np.ones(8))
    top = int(np.argmax(probs))
    probs[[top, label]] = probs[[label, top]]
    return probs


def _utterance_votes(rng, kind):
    """Seven probability vectors for one utterance, in a random model order."""
    a, b, c, d, e = (int(x) for x in rng.choice(8, size=5, replace=False))
    if kind == "random":
        vectors = [rng.dirichlet(np.ones(8)) for _ in range(7)]
    elif kind == "count_tie":  # a, b and c hold 2 votes each; unequal masses
        vectors = [_peaked(rng, label) for label in (a, a, b, b, c, c, d)]
    else:  # a and b tie on votes and on summed mass, exactly: b's vectors mirror a's
        vectors = []
        for label in (a, a, c):
            v = _dyadic(rng, label)
            vectors += [v, [v[b] if k == a else v[a] if k == b else v[k] for k in range(8)]]
        vectors.append(_dyadic(rng, d, equal_at=(a, b)))
    return [vectors[i] for i in rng.permutation(7)]


def test_majority_vote_matches_the_brute_force_oracle():
    rng = np.random.default_rng(29)
    per_model = [[] for _ in range(7)]
    for i, kind in enumerate(["random", "count_tie", "equal_mass"] * 40):
        for m, probs in enumerate(_utterance_votes(rng, kind)):
            per_model[m].append(rec(f"u{i}", f"m{m}", probs))
    for recs in per_model[1:]:
        rng.shuffle(recs)
    got = [(o.utt_id, o.label, o.tally, o.tie_broken) for o in majority_vote(per_model)]
    want = oracle_majority_vote(per_model)
    assert got == want
    tied = [w for w in want if w[3]]
    assert len(tied) >= 80
    # exact mass ties happened and went to the lower class
    ties_on_mass = 0
    for utt_id, label, tally, _ in tied:
        recs = [r for m in per_model for r in m if r.utt_id == utt_id]
        mass = {c: math.fsum(r.probs[c] for r in recs) for c in range(8)
                if tally[c] == max(tally)}
        ties_on_mass += len(mass) - len(set(mass.values()))
    assert ties_on_mass >= 20


# ---------------------------------------------------------------------------
# alignment validation
# ---------------------------------------------------------------------------

def test_vote_rejects_mismatched_utterance_sets():
    m0 = model_records("m0", {"a": 0, "b": 1})
    m1 = model_records("m1", {"a": 0, "c": 1})
    with pytest.raises(ValueError, match=r"symmetric difference.*'b'.*'c'"):
        majority_vote([m0, m1])


def test_vote_rejects_mismatched_class_counts():
    m0 = [rec("a", "m0", one_hotish(0, 8))]
    m1 = [rec("a", "m1", one_hotish(0, 4))]
    with pytest.raises(ValueError, match="length 4 != 8"):
        majority_vote([m0, m1])


EMPTY_INPUT_CALLERS = {
    "majority_vote": majority_vote,
    "probability_average_vote": probability_average_vote,
    "ensemble_gain_report": lambda per_model: ensemble_gain_report(per_model, {"a": 0}),
}


@pytest.mark.parametrize("name", EMPTY_INPUT_CALLERS)
def test_vote_rejects_empty_inputs(name):
    fn = EMPTY_INPUT_CALLERS[name]
    with pytest.raises(ValueError, match=f"^{name} needs >= 1 model"):
        fn([])
    with pytest.raises(ValueError, match=f"^{name} needs >= 1 model"):
        fn([model_records("m", {"a": 0}), []])


# ---------------------------------------------------------------------------
# probability averaging (explicit alternative rule)
# ---------------------------------------------------------------------------

def test_probability_average_vote_uses_the_mean_vector():
    per_model = [
        [rec("u", "m0", [0.45, 0.30, 0.25])],
        [rec("u", "m1", [0.40, 0.35, 0.25])],
        [rec("u", "m2", [0.10, 0.60, 0.30])],
    ]
    # votes go 2-1 for class 0, but the mean vector favors class 1
    # (0.3167 vs 0.4167)
    (hard,) = majority_vote(per_model)
    (soft,) = probability_average_vote(per_model)
    assert hard.label == 0
    assert soft.label == 1
    assert soft.rule == "average"
    assert soft.tally == (2, 1, 0)
    assert not soft.tie_broken


def test_probability_average_agrees_with_unanimous_models():
    per_model = [model_records(f"m{i}", {"a": 4, "b": 2}) for i in range(3)]
    soft = probability_average_vote(per_model)
    hard = majority_vote(per_model)
    assert [o.label for o in soft] == [o.label for o in hard] == [4, 2]


# ---------------------------------------------------------------------------
# gain report
# ---------------------------------------------------------------------------

def test_gain_report_fixture_disjoint_thirds():
    """Three models, each perfect on its own third: the ensemble cannot win a
    plurality anywhere, but with each wrong model pair disagreeing the vote
    still recovers every utterance via the probability tie-break."""
    ids = [f"u{i}" for i in range(9)]
    truth = {u: i % 3 for i, u in enumerate(ids)}
    per_model = []
    for m in range(3):
        recs = []
        for i, u in enumerate(ids):
            if truth[u] == m:
                probs = one_hotish(truth[u], 3, confidence=0.98)
            else:
                wrong = (truth[u] + 1 + m) % 3
                probs = one_hotish(wrong, 3, confidence=0.4)
            recs.append(rec(u, f"m{m}", probs))
        per_model.append(recs)
    report = ensemble_gain_report(per_model, truth)
    assert len(report.rows) == 4  # three models plus the ensemble row
    assert report.rows[-1]["tag"] == "ensemble"
    table = report.table()
    assert "ensemble" in table and "Macro-F1" in table


def test_gain_report_rows_and_deltas(tiny_corpus):
    rng = np.random.default_rng(5)
    _, dev_set = tiny_corpus
    truth = {u.utt_id: u.label for u in dev_set}
    per_model = []
    for m in range(3):
        labels = {u.utt_id: (u.label if rng.random() < 0.7
                             else int(rng.integers(0, 8))) for u in dev_set}
        per_model.append(model_records(f"m{m}", labels))
    outcomes = majority_vote(per_model)
    report = ensemble_gain_report(per_model, truth, outcomes)
    ens_row = report.rows[-1]
    for row in report.rows[:-1]:
        assert row["delta_macro_f1"] == pytest.approx(
            ens_row["macro_f1"] - row["macro_f1"], abs=1e-12)
    assert (ens_row["delta_macro_f1"], ens_row["delta_wa"]) == (0.0, 0.0)


def test_gain_report_requires_full_truth():
    per_model = [model_records("m0", {"a": 0, "b": 1})]
    with pytest.raises(ValueError, match="true labels missing.*'b'"):
        ensemble_gain_report(per_model, {"a": 0})


def test_ensembling_yields_a_gain_on_noisy_models():
    """Independent 60 percent-accurate models must vote above any single one."""
    rng = np.random.default_rng(17)
    ids = [f"u{i}" for i in range(400)]
    truth = {u: int(rng.integers(0, 8)) for u in ids}
    per_model = []
    for m in range(7):
        labels = {u: (truth[u] if rng.random() < 0.6
                      else int(rng.integers(0, 8))) for u in ids}
        per_model.append(model_records(f"m{m}", labels))
    report = ensemble_gain_report(per_model, truth)
    singles = [row["macro_f1"] for row in report.rows[:-1]]
    assert report.rows[-1]["macro_f1"] > max(singles)


# ---------------------------------------------------------------------------
# record files
# ---------------------------------------------------------------------------

def test_record_file_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    records = []
    for i in range(20):
        probs = rng.dirichlet(np.ones(8))
        records.append(rec(f"u{i}", "model-3", probs))
    path = tmp_path / "preds.jsonl"
    write_records(path, records)
    back = read_records(path)
    assert back == records  # dataclass equality covers probs bit-for-bit


def test_record_file_bad_line_reports_lineno(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_records(path, [rec("a", "m", [0.9, 0.1])])
    with open(path, "a") as f:
        f.write("{not json}\n")
    with pytest.raises(ValueError, match=r"preds\.jsonl:2: bad prediction record"):
        read_records(path)


def test_record_file_inconsistent_record_reports_lineno(tmp_path):
    path = tmp_path / "preds.jsonl"
    lines = ['{"id": "a", "model": "m", "probs": [0.9, 0.1], "pred": 1}']
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":1: bad prediction record.*argmax"):
        read_records(path)


def test_record_file_rejects_a_repeated_id_naming_both_lines(tmp_path):
    path = tmp_path / "preds.jsonl"
    write_records(path, [rec("a", "m", [0.9, 0.1]), rec("b", "m", [0.2, 0.8]),
                         rec("a", "m", [0.3, 0.7])])
    with pytest.raises(ValueError, match=r"preds\.jsonl:3: repeated id 'a' \(first on line 1\)"):
        read_records(path)


@pytest.mark.parametrize("line,reason", [
    ('[0.9, 0.1]', "not a JSON object"),
    ('"a"', "not a JSON object"),
    ('{"id": "a", "model": "m", "probs": 5, "pred": 0}', "probs must be a list"),
    ('{"id": "a", "model": "m", "probs": "ab", "pred": 0}', "probs must be a list"),
    ('{"id": "a", "model": "m", "probs": [0.9, null], "pred": 0}', "not supported"),
], ids=["list", "string", "probs_number", "probs_string", "probs_null"])
def test_record_file_malformed_line_is_a_value_error_naming_the_line(tmp_path, line, reason):
    path = tmp_path / "preds.jsonl"
    write_records(path, [rec("z", "m", [0.9, 0.1])])
    with open(path, "a") as f:
        f.write(line + "\n")
    with pytest.raises(ValueError, match=rf"preds\.jsonl:2: bad prediction record: .*{reason}"):
        read_records(path)


_RAGGED = [[0.5, 0.5], [1.0]]


def _numpy_argmax_error(probs) -> str:
    try:
        np.argmax(tuple(probs))
    except ValueError as e:
        return str(e)
    raise AssertionError(f"np.argmax took {probs!r}")


# (line 2 of a file whose line 1 is a good record 'z', what the error says after
# "<path>:2: "); the texts are those of the json.loads-per-line, numpy-argmax reader
_BAD_RECORD_LINES = {
    "not_json": ("{not json}", "bad prediction record: Expecting property name enclosed "
                               "in double quotes: line 1 column 2 (char 1)"),
    "json_array": ("[0.9, 0.1]", "bad prediction record: not a JSON object: [0.9, 0.1]"),
    "two_values": ('{"id": "a"} {"id": "b"}',
                   "bad prediction record: Extra data: line 1 column 13 (char 12)"),
    "half_a_record": ('{"id": "a", "model": "m", "probs": [0.2,',
                      "bad prediction record: Expecting value: line 1 column 41 (char 40)"),
    "missing_pred": ('{"id": "a", "model": "m", "probs": [0.9, 0.1]}',
                     "bad prediction record: 'pred'"),
    "probs_string": ('{"id": "a", "model": "m", "probs": "ab", "pred": 0}',
                     "bad prediction record: probs must be a list, got 'ab'"),
    "probs_ragged": (json.dumps({"id": "a", "model": "m", "probs": _RAGGED, "pred": 0}),
                     "bad prediction record: " + _numpy_argmax_error(_RAGGED)),
    "probs_null": ('{"id": "a", "model": "m", "probs": [0.9, null], "pred": 0}',
                   "bad prediction record: '>' not supported between instances of "
                   "'NoneType' and 'float'"),
    "one_class": ('{"id": "a", "model": "m", "probs": [1.0], "pred": 0}',
                  "bad prediction record: probability vector needs >= 2 classes"),
    "off_simplex": ('{"id": "a", "model": "m", "probs": [0.9, 0.4], "pred": 0}',
                    "bad prediction record: a: probabilities are not a distribution "
                    "(sum 1.300000)"),
    "negative": ('{"id": "a", "model": "m", "probs": [1.2, -0.2], "pred": 0}',
                 "bad prediction record: a: probabilities are not a distribution "
                 "(sum 1.000000)"),
    "wrong_argmax": ('{"id": "a", "model": "m", "probs": [0.2, 0.8], "pred": 0}',
                     "bad prediction record: a: predicted label 0 is not the argmax of "
                     "the probability vector"),
    "wrong_argmax_on_a_tie": ('{"id": "a", "model": "m", "probs": [0.4, 0.4, 0.2], "pred": 1}',
                              "bad prediction record: a: predicted label 1 is not the "
                              "argmax of the probability vector"),
    # the argmax of a vector holding NaN is its first NaN
    "nan_predicted": ('{"id": "a", "model": "m", "probs": [0.5, NaN, 0.5], "pred": 1}',
                      "bad prediction record: a: probabilities are not a distribution "
                      "(sum nan)"),
    "nan_not_predicted": ('{"id": "a", "model": "m", "probs": [NaN, 0.5], "pred": 1}',
                          "bad prediction record: a: predicted label 1 is not the argmax "
                          "of the probability vector"),
    "inf_and_minus_inf": ('{"id": "a", "model": "m", "probs": [Infinity, -Infinity], '
                          '"pred": 0}',
                          "bad prediction record: a: probabilities are not a distribution "
                          "(sum nan)"),
    "repeated_id": ('{"id": "z", "model": "m", "probs": [0.2, 0.8], "pred": 1}',
                    "repeated id 'z' (first on line 1)"),
}


@pytest.mark.parametrize("case", _BAD_RECORD_LINES)
def test_record_file_error_texts(tmp_path, case):
    line, reason = _BAD_RECORD_LINES[case]
    path = tmp_path / "preds.jsonl"
    path.write_text('{"id": "z", "model": "m", "probs": [0.9, 0.1], "pred": 0}\n'
                    + line + "\n")
    with pytest.raises(ValueError) as err:
        read_records(path)
    assert type(err.value) is ValueError
    assert str(err.value) == f"{path}:2: {reason}"


@pytest.mark.parametrize("line,probs", [
    ('  {"id": "a", "model": "m", "probs": [0.2, 0.8], "pred": 1}  ', (0.2, 0.8)),
    ('{"id": "a", "model": "m", "probs": [1, 0], "pred": 0}', (1, 0)),
    ('{"id": "a", "model": "m", "probs": [-0.0, 0.0, 1.0], "pred": 2}', (-0.0, 0.0, 1.0)),
], ids=["padded_line", "int_probs", "signed_zeros"])
def test_record_file_accepts_what_json_loads_and_numpy_accept(tmp_path, line, probs):
    path = tmp_path / "preds.jsonl"
    path.write_text(line + "\n")
    (record,) = read_records(path)
    assert record.probs == probs and record.predicted == probs.index(max(probs))


def test_record_file_rejects_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n  \n\t\n")
    with pytest.raises(ValueError) as err:
        read_records(path)
    assert str(err.value) == f"{path}: no prediction records"
