"""One pass of the emovote pipeline, run in-process, with its output checks.

Stages, in order: gen-data -> train -> eval -> ensemble -> text-metrics. Each
stage calls the library through module attributes (``data.generate_synthetic``,
``experiment.run_model``, ...) so that the tracer's wrappers, when installed,
see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from emovote import data, ensemble, experiment, metrics, model, training
from emovote.data import DEFAULT_CLASS_NAMES, SyntheticSpec

from .checks import (PROB_SUM_TOLERANCE, TEXT_TOLERANCE, Checks, oracle_bleu, oracle_gleu,
                     oracle_wer)
from .trace import merge_snapshots
from .workloads import Workload

TRANSCRIPT_PAIRS = 1000
ORACLE_SLICE = 40  # transcript pairs re-scored by the brute-force oracles
# Sampling of the two short stages (see ShortStageSamples): ensemble-stage
# repetitions per round, and transcript pairs per timed text-metrics chunk.
VOTE_SAMPLES = 10
CHUNK_PAIRS = 50


@dataclass(frozen=True)
class Seeds:
    corpus: int
    model: int
    transcript: int


@dataclass
class PassResult:
    stage_s: dict[str, float] = field(default_factory=dict)
    model_s: dict[str, float] = field(default_factory=dict)  # "train/<tag>", "eval/<tag>"
    fingerprint: dict = field(default_factory=dict)
    tie_rate: float | None = None
    param_count: int | None = None
    checks: Checks = field(default_factory=Checks)
    trace: dict | None = None  # merged tracer snapshots of the stages


# ---------------------------------------------------------------------------
# transcript pairs
# ---------------------------------------------------------------------------

_SYLLABLES = ("ka", "lo", "mi", "ren", "sa", "tu", "vel", "do", "ni", "qua", "be", "sho",
              "ar", "em", "ix", "pol")


def write_transcripts(path: Path, n_pairs: int, seed: int):
    """Seeded reference/hypothesis pairs with ASR-like edits, case and punctuation."""
    rng = np.random.default_rng([seed, 0x7E47])
    vocab = sorted({"".join(rng.choice(_SYLLABLES, size=rng.integers(1, 4)))
                    for _ in range(600)})
    zipf = 1.0 / np.arange(1, len(vocab) + 1)
    zipf /= zipf.sum()
    lines = []
    for i in range(n_pairs):
        ref = list(rng.choice(vocab, size=int(rng.integers(4, 25)), p=zipf))
        hyp = []
        for word in ref:
            u = rng.random()
            if u < 0.07:
                hyp.append(str(rng.choice(vocab)))      # substitution
            elif u < 0.12:
                continue                                  # deletion
            else:
                hyp.append(word)
            if rng.random() < 0.04:
                hyp.append(str(rng.choice(vocab)))      # insertion
        ref_text = " ".join(ref).capitalize() + rng.choice([".", "?", "!"])
        hyp_text = " ".join(hyp).replace(" ", ", ", 1) if hyp else "uh"
        lines.append(f"pair-{i:05d}\t{ref_text}\t{hyp_text}")
    path.write_text("\n".join(lines) + "\n")


def read_transcripts(path: Path) -> tuple[list[str], list[str]]:
    refs, hyps = [], []
    for line in path.read_text().splitlines():
        _, ref, hyp = line.split("\t")
        refs.append(ref)
        hyps.append(hyp)
    return refs, hyps


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def gen_data(w: Workload, seeds: Seeds, data_dir: Path):
    spec = SyntheticSpec(seed=seeds.corpus)
    for source in w.sources:
        src = experiment.AUDIO_SOURCES[source]
        data.generate_synthetic(replace(spec, audio_variant=src["variant"], audio_dim=src["dim"]),
                                w.n_train, w.n_dev, data_dir / source)
    write_transcripts(data_dir / "transcripts.tsv", TRANSCRIPT_PAIRS, seeds.transcript)


def train(w: Workload, seeds: Seeds, data_dir: Path, runs_dir: Path, model_s: dict):
    cfg = experiment.ExperimentConfig(
        models=w.models, data_dir=str(data_dir), out_dir=str(runs_dir), hidden=w.hidden,
        batch_size=w.batch_size, max_epochs=w.epochs,
        seed=seeds.model)
    results = []
    for spec in w.models:
        t0 = time.perf_counter()
        results.append(experiment.run_model(cfg, spec))
        model_s[f"train/{spec.tag}"] = time.perf_counter() - t0
    return results


def evaluate(w: Workload, data_dir: Path, results, eval_dir: Path, model_s: dict):
    out = {}
    for spec, result in zip(w.models, results):
        t0 = time.perf_counter()
        m = model.load_checkpoint(result.checkpoint_path)
        dev = data.load_utterances(data.load_manifest(data_dir / spec.audio_source / "dev.tsv"))
        records, _ = training.evaluate(m, dev, w.batch_size, model_tag=spec.tag)
        ensemble.write_records(eval_dir / f"{spec.tag}.jsonl", records)
        out[spec.tag] = records
        model_s[f"eval/{spec.tag}"] = time.perf_counter() - t0
    return out


def vote(w: Workload, data_dir: Path, results, ens_dir: Path):
    per_model = [ensemble.read_records(r.predictions_path) for r in results]
    outcomes = ensemble.majority_vote(per_model)
    truth = {e.utt_id: e.label
             for e in data.load_manifest(data_dir / w.sources[0] / "dev.tsv")}
    report = ensemble.ensemble_gain_report(per_model, truth, outcomes=outcomes)
    ens_dir.mkdir(parents=True, exist_ok=True)
    labels = "".join(f"{o.utt_id}\t{DEFAULT_CLASS_NAMES[o.label]}\n" for o in outcomes)
    (ens_dir / "final_labels.tsv").write_text(labels)
    (ens_dir / "report.txt").write_text(report.table() + "\n")
    return outcomes, report


def text_metrics(data_dir: Path):
    refs, hyps = read_transcripts(data_dir / "transcripts.tsv")
    return score_pairs(refs, hyps)


def score_pairs(refs: list[str], hyps: list[str]):
    ref_toks = [metrics.tokenize(r) for r in refs]
    hyp_toks = [metrics.tokenize(h) for h in hyps]
    scores = {"wer": metrics.corpus_wer(ref_toks, hyp_toks),
              "bleu": metrics.bleu(ref_toks, hyp_toks),
              "gleu": metrics.gleu(ref_toks, hyp_toks)}
    return ref_toks, hyp_toks, scores


# ---------------------------------------------------------------------------
# short-stage sampling
# ---------------------------------------------------------------------------

class ShortStageSamples:
    """Many short timings of the ensemble and text-metrics stages, spread over a run.

    One vote takes 4-45 ms and one text-metrics pass 0.2-0.4 s, while the
    speed of a shared host flips between a fast mode and one 1.5-2x slower,
    for spells of a tenth of a second to over a minute. Timed once per pass,
    these stages gave a few samples per run, and their fastest or median
    sample depended on the few spells they landed in. So every untraced
    pass takes a sampling round after its train and text-metrics stages,
    and the run reports medians over all rounds. Text metrics are timed in chunks of
    ``CHUNK_PAIRS`` pairs; the stage estimate is the median file read plus
    the sum of each chunk's median scoring time, so that the chunks' own
    fast and slow samples average out.
    """

    def __init__(self):
        self.vote: list[float] = []
        self.read: list[float] = []
        self.chunks: dict[int, list[float]] = {}

    def round(self, w: Workload, data_dir: Path, results, ens_dir: Path):
        for _ in range(VOTE_SAMPLES):
            t0 = time.perf_counter()
            vote(w, data_dir, results, ens_dir)
            self.vote.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        refs, hyps = read_transcripts(data_dir / "transcripts.tsv")
        self.read.append(time.perf_counter() - t0)
        for i in range(0, len(refs), CHUNK_PAIRS):
            t0 = time.perf_counter()
            score_pairs(refs[i:i + CHUNK_PAIRS], hyps[i:i + CHUNK_PAIRS])
            self.chunks.setdefault(i, []).append(time.perf_counter() - t0)

    @property
    def rounds(self) -> int:
        return len(self.read)

    def vote_s(self) -> float:
        return statistics.median(self.vote)

    def text_metrics_s(self) -> float:
        return (statistics.median(self.read)
                + sum(statistics.median(v) for v in self.chunks.values()))


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def run_pass(w: Workload, seeds: Seeds, work_dir: Path, tracer,
             samples: ShortStageSamples | None = None) -> PassResult:
    """Run every stage once; a stage that raises ends the pass as a failure.

    With ``samples``, a sampling round of the short stages follows the
    train and the text-metrics stage.
    """
    it = PassResult()
    chk = it.checks
    data_dir, runs_dir = work_dir / "data", work_dir / "runs"
    sample_dir = work_dir / "ensemble_samples"

    snaps = []

    def stage(name, fn, *args):
        if tracer is not None:
            tracer.snapshot()  # drop spans recorded by the checks between stages
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = fn(*args)
            else:
                with tracer.span(f"stage.{name}"):
                    out = fn(*args)
        except Exception as e:  # a failed stage is a measured outcome, not a crash
            chk.expect(False, f"stage {name} raised {type(e).__name__}: {e}")
            raise _StageFailed from e
        it.stage_s[name] = time.perf_counter() - t0
        if tracer is not None:
            snaps.append(tracer.snapshot())
        chk.expect(True, f"stage {name}")
        return out

    def sample():
        if samples is None:
            return
        try:
            samples.round(w, data_dir, results, sample_dir)
        except Exception as e:
            chk.expect(False, f"sampling round raised {type(e).__name__}: {e}")
            raise _StageFailed from e

    try:
        stage("gen_data", gen_data, w, seeds, data_dir)
        _check_corpus(w, data_dir, chk)
        results = stage("train", train, w, seeds, data_dir, runs_dir, it.model_s)
        sample()
        dev_ids = [e.utt_id for e in data.load_manifest(data_dir / w.sources[0] / "dev.tsv")]
        losses, dumped = _check_train(results, dev_ids, chk)
        records = stage("eval", evaluate, w, data_dir, results, work_dir / "eval", it.model_s)
        _check_eval(records, dumped, dev_ids, chk)
        outcomes, report = stage("ensemble", vote, w, data_dir, results, work_dir / "ensemble")
        labels = (work_dir / "ensemble" / "final_labels.tsv").read_bytes()
        chk.expect([ln.split(b"\t")[0].decode() for ln in labels.splitlines()] == dev_ids,
                   "final labels hold one row per dev utterance, in manifest order")
        ref_toks, hyp_toks, scores = stage("text_metrics", text_metrics, data_dir)
        sample()
        _check_text(ref_toks, hyp_toks, chk)
        if samples is not None:
            chk.expect((sample_dir / "final_labels.tsv").read_bytes() == labels,
                       "sampled ensemble stage wrote other final labels than the pass")
    except _StageFailed:
        return it
    if tracer is not None:
        it.trace = merge_snapshots(snaps)
        it.tie_rate = ensemble.tie_break_count(outcomes) / len(outcomes)
        it.param_count = sum(model.load_checkpoint(r.checkpoint_path).parameter_count
                             for r in results)
    it.fingerprint = {
        "final_train_loss": losses,
        "ensemble_macro_f1": report.rows[-1]["macro_f1"],
        "final_labels_sha256": hashlib.sha256(labels).hexdigest(),
        "text": scores,
    }
    return it


class _StageFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _check_corpus(w: Workload, data_dir: Path, chk: Checks):
    first = None
    for source in w.sources:
        for split, n in (("train", w.n_train), ("dev", w.n_dev)):
            entries = data.load_manifest(data_dir / source / f"{split}.tsv")
            chk.expect(len(entries) == n, f"{source}/{split}: {len(entries)} entries, want {n}")
            if split == "dev":
                labels = [(e.utt_id, e.label) for e in entries]
                first = first or labels
                chk.expect(labels == first, f"{source}/dev labels differ from {w.sources[0]}")


def _check_train(results, dev_ids: list[str], chk: Checks):
    """Final train loss per model, and each model's train-time prediction dump."""
    losses, dumped = {}, {}
    for r in results:
        trace = json.loads(Path(r.report_path).read_text())["train_loss"]
        chk.expect(all(math.isfinite(x) for x in trace), f"{r.tag}: non-finite epoch loss {trace}")
        losses[r.tag] = trace[-1]
        dumped[r.tag] = ensemble.read_records(r.predictions_path)
        chk.expect([x.utt_id for x in dumped[r.tag]] == dev_ids,
                   f"{r.tag}: predictions.jsonl is not one record per dev utterance")
    return losses, dumped


def _check_eval(records: dict, dumped: dict, dev_ids: list[str], chk: Checks):
    for tag, recs in records.items():
        chk.expect([x.utt_id for x in recs] == dev_ids,
                   f"{tag}: eval wrote {len(recs)} records for {len(dev_ids)} dev utterances")
        sums = np.array([math.fsum(x.probs) for x in recs])
        chk.expect(bool(np.all(np.abs(sums - 1.0) <= PROB_SUM_TOLERANCE)),
                   f"{tag}: a probability row is off the simplex by "
                   f"{float(np.max(np.abs(sums - 1.0))):.2e}")
        chk.expect([x.probs for x in recs] == [x.probs for x in dumped[tag]],
                   f"{tag}: eval of the best checkpoint differs from its train-time dump")


def _check_text(ref_toks, hyp_toks, chk: Checks):
    refs, hyps = ref_toks[:ORACLE_SLICE], hyp_toks[:ORACLE_SLICE]
    for name, lib, oracle in (("WER", metrics.corpus_wer, oracle_wer),
                              ("BLEU", metrics.bleu, oracle_bleu),
                              ("GLEU", metrics.gleu, oracle_gleu)):
        got, want = lib(refs, hyps), oracle(refs, hyps)
        chk.expect(abs(got - want) <= TEXT_TOLERANCE,
                   f"{name} on the first {ORACLE_SLICE} pairs: {got!r} != oracle {want!r}")
