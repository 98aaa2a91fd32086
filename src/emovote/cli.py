"""Command-line experiment runner.

Subcommands:

* ``gen-data``      synthesize imbalanced multimodal corpora (one per audio source)
* ``train``         train one or all configured models, saving checkpoints/reports
* ``eval``          evaluate a checkpoint on a manifest, writing prediction records
* ``ensemble``      majority-vote prediction-record files and report the gain
* ``text-metrics``  WER/BLEU/GLEU over a transcript-pairs file

Exit codes: 0 success, 2 usage error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import (
    DEFAULT_CLASS_NAMES,
    SyntheticSpec,
    _atomic_write_bytes,
    generate_synthetic,
    load_manifest,
    load_utterances,
)
from .ensemble import (
    ensemble_gain_report,
    majority_vote,
    probability_average_vote,
    read_records,
    tie_break_count,
    write_records,
)
from .experiment import (
    AUDIO_SOURCES,
    ExperimentConfig,
    load_experiment_config,
    load_synthetic_spec,
    run_model,
)
from .metrics import bleu, gleu, corpus_wer, tokenize
from .model import load_checkpoint
from .training import evaluate

DEFAULT_N_TRAIN = 5330
DEFAULT_N_DEV = 1530


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="emovote",
                                description="Imbalanced multimodal emotion-classification "
                                            "experiments: data synthesis, training, "
                                            "ensembling, and metrics.")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate synthetic corpora")
    g.add_argument("--out", required=True, help="output directory root")
    g.add_argument("--spec", default=None, help="YAML/JSON synthetic-spec file")
    g.add_argument("--n-train", type=int, default=DEFAULT_N_TRAIN)
    g.add_argument("--n-dev", type=int, default=DEFAULT_N_DEV)
    g.add_argument("--seed", type=int, default=None, help="override the spec seed")
    g.add_argument("--sources", default="whisper,wavlm,hubert",
                   help="comma-separated audio source tags to synthesize")

    t = sub.add_parser("train", help="train configured models")
    t.add_argument("--config", default=None, help="YAML/JSON experiment config")
    t.add_argument("--tag", default=None, help="train a single model by tag")
    t.add_argument("--all", action="store_true", help="train every configured model")
    t.add_argument("--data", default=None, help="data directory (overrides config)")
    t.add_argument("--out", default=None, help="output directory (overrides config)")
    t.add_argument("--seed", type=int, default=None, help="override the config seed")

    e = sub.add_parser("eval", help="evaluate a checkpoint on a manifest")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--out", default=None, help="prediction-record file to write")
    e.add_argument("--tag", default="model")
    e.add_argument("--batch-size", type=int, default=128)

    v = sub.add_parser("ensemble", help="majority-vote prediction-record files")
    v.add_argument("predictions", nargs="+", help="per-model prediction-record files")
    v.add_argument("--labels", required=True, help="manifest holding true labels")
    v.add_argument("--out", required=True, help="experiment output root")
    v.add_argument("--average-probs", action="store_true",
                   help="average probabilities instead of majority voting")

    m = sub.add_parser("text-metrics", help="WER/BLEU/GLEU over transcript pairs")
    m.add_argument("--pairs", required=True,
                   help="TSV file: id<TAB>reference<TAB>hypothesis")
    return p


def cmd_gen_data(args) -> int:
    spec = load_synthetic_spec(args.spec) if args.spec else SyntheticSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    sources = [s.strip() for s in args.sources.split(",") if s.strip()]
    unknown = [s for s in sources if s not in AUDIO_SOURCES]
    if unknown:
        raise ValueError(f"unknown audio sources {unknown}; known: {sorted(AUDIO_SOURCES)}")
    out_root = Path(args.out)
    table = None
    for source in sources:
        src = AUDIO_SOURCES[source]
        src_spec = replace(spec, audio_variant=src["variant"], audio_dim=src["dim"])
        generated = generate_synthetic(src_spec, args.n_train, args.n_dev,
                                       out_root / source)
        if table is None:
            table = generated.dataset_spec().table()
        print(f"wrote {source}: {generated.train.manifest_path} "
              f"({args.n_train} train / {args.n_dev} dev, audio dim {src['dim']})")
    print(table)
    return 0


def cmd_train(args) -> int:
    cfg = load_experiment_config(args.config) if args.config else ExperimentConfig()
    if args.all == (args.tag is not None):
        raise UsageError("pass exactly one of --tag or --all")
    specs = list(cfg.models) if args.all else [cfg.spec_for(args.tag)]
    for spec in specs:
        result = run_model(cfg, spec, data_dir=args.data, out_dir=args.out,
                           seed=args.seed)
        print(f"{result.tag}: dev Macro-F1 {100 * result.dev_macro_f1:.2f}  "
              f"WA {100 * result.dev_wa:.2f}  UA {100 * result.dev_ua:.2f}  "
              f"-> {result.checkpoint_path}")
    return 0


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    dataset = load_utterances(load_manifest(args.manifest))
    records, bundle = evaluate(model, dataset, args.batch_size, model_tag=args.tag)
    if args.out:
        write_records(args.out, records)
        print(f"wrote {len(records)} prediction records to {args.out}")
    if bundle is not None:
        print(bundle.percent_line())
    else:
        print(f"predicted {len(records)} unlabeled utterances")
    return 0


def cmd_ensemble(args) -> int:
    per_model = [read_records(f) for f in args.predictions]
    vote = probability_average_vote if args.average_probs else majority_vote
    outcomes = vote(per_model)
    entries = load_manifest(args.labels)
    truth = {e.utt_id: e.label for e in entries}
    unlabeled = [u for u, l in truth.items() if l is None]
    if unlabeled:
        raise ValueError(f"labels manifest has unlabeled utterances: {unlabeled[:10]}")
    report = ensemble_gain_report(per_model, truth, outcomes=outcomes)

    ens_dir = Path(args.out) / "ensemble"
    label_lines = [f"{o.utt_id}\t{DEFAULT_CLASS_NAMES[o.label]}" for o in outcomes]
    _atomic_write_bytes(ens_dir / "final_labels.tsv", ("\n".join(label_lines) + "\n").encode())
    _atomic_write_bytes(ens_dir / "report.txt", (report.table() + "\n").encode())
    print(report.table())
    ties = tie_break_count(outcomes)
    if ties:
        print(f"tie-break rule applied on {ties} utterance(s)")
    print(f"wrote {ens_dir / 'final_labels.tsv'}")
    return 0


def cmd_text_metrics(args) -> int:
    path = Path(args.pairs)
    if not path.exists():
        raise FileNotFoundError(f"pairs file not found: {path}")
    refs, hyps = [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected id<TAB>ref<TAB>hyp, "
                             f"got {len(parts)} fields")
        refs.append(tokenize(parts[1]))
        hyps.append(tokenize(parts[2]))
    if not refs:
        raise ValueError(f"{path}: no transcript pairs")
    print("tokenization: lowercase, punctuation stripped, whitespace split")
    print(f"pairs: {len(refs)}")
    print(f"WER   {100 * corpus_wer(refs, hyps):.2f}")
    print(f"BLEU  {100 * bleu(refs, hyps):.2f}")
    print(f"GLEU  {100 * gleu(refs, hyps):.2f}")
    return 0


class UsageError(Exception):
    pass


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "ensemble": cmd_ensemble,
    "text-metrics": cmd_text_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as e:
        parser.exit(2, f"usage error: {e}\n")
    except (OSError, ValueError, KeyError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
