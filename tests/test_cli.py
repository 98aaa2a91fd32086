"""The command-line interface and experiment configuration, end to end."""

import contextlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from emovote import autodiff, data, experiment, training
from emovote.cli import main
from emovote.data import (DEFAULT_CLASS_NAMES, SyntheticSpec, generate_synthetic,
                          load_manifest, load_utterances, read_features, write_manifest)
from emovote.ensemble import read_records, write_records
from emovote.experiment import (AUDIO_SOURCES, ExperimentConfig, ModelSpec,
                                default_models, load_experiment_config,
                                load_synthetic_spec, model_seed, run_model)
from emovote.metrics import bleu, corpus_wer, gleu, tokenize
from emovote.model import ModelConfig, load_checkpoint
from helpers import rewrite_config_header, row_splitter


SPEC_JSON = {
    "text_dim": 6, "min_len": 2, "max_len": 5,
    "separability": 2.0, "complementarity": 0.5, "seed": 91,
}

CONFIG_JSON = {
    "models": [
        {"tag": "model1", "loss": "focal", "gamma": 2.0, "weights": "prior",
         "audio": "whisper"},
        {"tag": "model5", "loss": "ce", "weights": "uniform", "audio": "whisper"},
    ],
    "hidden": 8, "n_transformer_layers": 1, "batch_size": 16,
    "initial_lr": 1e-3, "max_epochs": 2, "seed": 3,
}


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    path.write_text(json.dumps(SPEC_JSON))
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    path.write_text(json.dumps(CONFIG_JSON))
    return path


@pytest.fixture(scope="module")
def cli_data_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("data")
    code = main(["gen-data", "--out", str(out), "--spec", str(spec_file),
                 "--n-train", "64", "--n-dev", "32"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_runs(tmp_path_factory, cli_data_dir, config_file):
    out = tmp_path_factory.mktemp("runs")
    code = main(["train", "--config", str(config_file), "--all",
                 "--data", str(cli_data_dir), "--out", str(out)])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_writes_all_sources(cli_data_dir, capsys):
    for source, info in AUDIO_SOURCES.items():
        assert (cli_data_dir / source / "train.tsv").exists()
        assert (cli_data_dir / source / "dev.tsv").exists()
        entries = load_manifest(cli_data_dir / source / "dev.tsv")
        assert len(entries) == 32
        audio = read_features(entries[0].audio_path)
        assert audio.shape[1] == info["dim"]
        text = read_features(entries[0].text_path)
        assert text.shape[1] == SPEC_JSON["text_dim"]


def test_gen_data_sources_share_labels(cli_data_dir):
    by_source = {s: load_manifest(cli_data_dir / s / "dev.tsv")
                 for s in AUDIO_SOURCES}
    whisper = [(e.utt_id, e.label) for e in by_source["whisper"]]
    for s in ("wavlm", "hubert"):
        assert [(e.utt_id, e.label) for e in by_source[s]] == whisper


def test_gen_data_is_deterministic(tmp_path, spec_file, cli_data_dir):
    again = tmp_path / "again"
    code = main(["gen-data", "--out", str(again), "--spec", str(spec_file),
                 "--n-train", "64", "--n-dev", "32", "--sources", "whisper"])
    assert code == 0
    assert ((again / "whisper" / "train.tsv").read_bytes()
            == (cli_data_dir / "whisper" / "train.tsv").read_bytes())
    entries = load_manifest(again / "whisper" / "train.tsv")
    ref = load_manifest(cli_data_dir / "whisper" / "train.tsv")
    for a, b in zip(entries[:10], ref[:10]):
        assert a.audio_path.read_bytes() == b.audio_path.read_bytes()
        assert a.text_path.read_bytes() == b.text_path.read_bytes()


def test_gen_data_seed_override_changes_the_corpus(tmp_path, spec_file, cli_data_dir):
    out = tmp_path / "reseeded"
    code = main(["gen-data", "--out", str(out), "--spec", str(spec_file),
                 "--n-train", "64", "--n-dev", "32", "--sources", "whisper",
                 "--seed", "92"])
    assert code == 0
    a = load_manifest(out / "whisper" / "train.tsv")[0]
    b = load_manifest(cli_data_dir / "whisper" / "train.tsv")[0]
    assert a.audio_path.read_bytes() != b.audio_path.read_bytes()


def test_gen_data_prints_the_count_table(tmp_path, spec_file, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(spec_file),
                 "--n-train", "64", "--n-dev", "32", "--sources", "whisper"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Neutral" in out and "Total" in out
    assert "64" in out and "32" in out


def test_gen_data_missing_spec_file_fails(tmp_path, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "d"),
                 "--spec", str(tmp_path / "nope.json")])
    assert code == 1
    assert "nope.json" in capsys.readouterr().err


def test_gen_data_unknown_source_fails(tmp_path, spec_file, capsys):
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(spec_file),
                 "--sources", "whisper,banana"])
    assert code == 1
    assert "banana" in capsys.readouterr().err


def test_gen_data_empty_source_list_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["gen-data", "--out", str(tmp_path / "d"), "--sources", ","])
    assert e.value.code == 2
    assert "--sources names no audio source" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_requires_exactly_one_target(config_file):
    with pytest.raises(SystemExit) as e:
        main(["train", "--config", str(config_file)])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["train", "--config", str(config_file), "--all", "--tag", "model1"])
    assert e.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_train_all_writes_artifacts(trained_runs):
    for tag in ("model1", "model5"):
        tag_dir = trained_runs / tag
        assert (tag_dir / "checkpoint.bin").exists()
        assert (tag_dir / "log.jsonl").exists()
        report = json.loads((tag_dir / "report.json").read_text())
        assert len(report["train_loss"]) == CONFIG_JSON["max_epochs"]
        assert 0 <= report["best_epoch"] < CONFIG_JSON["max_epochs"]
        records = read_records(tag_dir / "predictions.jsonl")
        assert len(records) == 32
        assert records[0].model_tag == tag


def test_train_single_tag_reproduces_the_run(tmp_path, cli_data_dir, config_file,
                                             trained_runs, capsys):
    out = tmp_path / "rerun"
    code = main(["train", "--config", str(config_file), "--tag", "model5",
                 "--data", str(cli_data_dir), "--out", str(out)])
    assert code == 0
    assert "model5: dev Macro-F1" in capsys.readouterr().out
    assert ((out / "model5" / "checkpoint.bin").read_bytes()
            == (trained_runs / "model5" / "checkpoint.bin").read_bytes())
    assert ((out / "model5" / "predictions.jsonl").read_bytes()
            == (trained_runs / "model5" / "predictions.jsonl").read_bytes())
    new = json.loads((out / "model5" / "report.json").read_text())
    old = json.loads((trained_runs / "model5" / "report.json").read_text())
    assert new["train_loss"] == old["train_loss"]
    assert new["dev_macro_f1"] == old["dev_macro_f1"]
    assert new["best_epoch"] == old["best_epoch"]


@pytest.mark.parametrize("bad,reason", [({"hidden": "abc"},
                                         "hidden must be an integer, got 'abc'"),
                                        ({"batch_size": 0}, "batch_size must be >= 1"),
                                        ({"scheduler_factor": 2.0}, "scheduler factor"),
                                        ({"hidden": 8.5}, "hidden must be an integer"),
                                        ({"max_epochs": 1.5},
                                         "max_epochs must be an integer"),
                                        ({"seed": 1.5}, "seed must be an integer"),
                                        ({"seed": True}, "seed must be an integer")])
def test_train_bad_config_value_fails_at_load_naming_the_file(cli_data_dir, tmp_path,
                                                              monkeypatch, capsys, bad, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**CONFIG_JSON, **bad}))

    def no_read(p):
        raise AssertionError(f"feature file {p} opened before the config was checked")

    monkeypatch.setattr(data, "read_features", no_read)
    code = main(["train", "--config", str(path), "--all",
                 "--data", str(cli_data_dir), "--out", str(tmp_path / "runs")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err


@pytest.mark.parametrize("name,text,kind", [("bad.yaml", "hidden: [1,\n", "YAML"),
                                             ("bad.json", '{"hidden": 8,,}', "JSON")],
                         ids=["yaml", "json"])
def test_config_syntax_error_fails_naming_the_file(tmp_path, capsys, name, text, kind):
    path = tmp_path / name
    path.write_text(text)
    code = main(["train", "--config", str(path), "--all", "--out", str(tmp_path / "runs")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid {kind}: ")
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: not valid {kind}: ")


@pytest.mark.parametrize("command,text,reason", [
    ("train", "initial_lr: .inf\n", "initial_lr must be a finite number, got inf"),
    ("train", "models:\n  - tag: m\n    loss: focal\n    gamma: .nan\n",
     "models[0] (m): gamma must be a finite number, got nan"),
    ("gen-data", "complementarity: .nan\n", "complementarity must be a finite number, got nan"),
    ("gen-data", "separability: -.inf\n", "separability must be a finite number, got -inf"),
], ids=["lr_inf", "gamma_nan", "complementarity_nan", "separability_inf"])
def test_yaml_non_finite_value_fails_naming_the_file(tmp_path, capsys, command, text, reason):
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    flag = "--config" if command == "train" else "--spec"
    argv = [command, flag, str(path), "--out", str(tmp_path / "out")]
    assert main(argv + (["--all"] if command == "train" else [])) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_gen_data_bad_spec_value_fails_naming_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SPEC_JSON, "separability": "high"}))
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("bad,reason", [({"seed": 1.5}, "seed must be an integer"),
                                        ({"max_len": 20.5}, "max_len must be an integer"),
                                        ({"text_dim": True}, "text_dim must be an integer"),
                                        ({"seed": -1}, "seed and audio_variant must be >= 0")],
                         ids=["seed", "max_len", "text_dim", "negative_seed"])
def test_gen_data_bad_spec_count_fails_naming_the_file(tmp_path, capsys, bad, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SPEC_JSON, **bad}))
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("keys", [{"audio_dim": 12, "audio_variant": 5}, {"audio_dim": 32}],
                         ids=["both", "audio_dim"])
def test_gen_data_spec_setting_a_per_source_key_fails_naming_the_file(tmp_path, capsys, keys):
    path = tmp_path / "spec.yaml"
    path.write_text("".join(f"{k}: {v}\n" for k, v in keys.items()))
    code = main(["gen-data", "--out", str(tmp_path / "d"), "--spec", str(path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: bad synthetic spec: {sorted(keys)} cannot be set: "
                          "each audio source sets its own")
    assert "'wavlm': {'variant': 1, 'dim': 28}" in err
    assert not (tmp_path / "d").exists()


# (command, values written over the file it reads, why they are refused)
_REFUSED_AT_LOAD = [
    ("train", {"initial_lr": True}, "initial_lr must be a number, got True"),
    ("train", {"scheduler_factor": "0.5"}, "scheduler_factor must be a number, got '0.5'"),
    ("train", {"data_dir": 5}, "data_dir must be a string, got 5"),
    ("train", {"n_classes": 4}, "n_classes must be 8"),
    ("train", {"models": [{"tag": "m", "loss": "focal", "gamma": True}]},
     "models[0] (m): gamma must be a number, got True"),
    ("train", {"models": [{"tag": "a"}, {"tag": "b", "loss": "focal", "gamma": "2"}]},
     "models[1] (b): gamma must be a number, got '2'"),
    ("train", {"models": [{"tag": "a"}, {"tag": "b", "loss": "hinge"}]},
     "models[1] (b): unknown loss kind 'hinge'"),
    ("train", {"models": [{"tag": 5}]}, "models[0]: tag must be a string, got 5"),
    # json.dumps writes these as Infinity and NaN, which Python's JSON reader takes
    ("train", {"initial_lr": math.inf}, "initial_lr must be a finite number, got inf"),
    ("train", {"models": [{"tag": "m", "loss": "focal", "gamma": math.nan}]},
     "models[0] (m): gamma must be a finite number, got nan"),
    ("gen-data", {"separability": -math.inf}, "separability must be a finite number, got -inf"),
    ("gen-data", {"train_proportions": [math.nan] + [0.125] * 7},
     "train_proportions[0] must be a finite number, got nan"),
    ("gen-data", {"separability": True}, "separability must be a number, got True"),
    ("gen-data", {"class_names": list("ABCDEFGH")}, 'class_names must be ["Neutral", '),
    ("gen-data", {"class_names": "ABCDEFGH"}, 'class_names must be ["Neutral", '),
    ("gen-data", {"train_proportions": [True] + [False] * 7},
     "train_proportions[0] must be a number, got True"),
    ("eval", {"n_heads": True}, "n_heads must be 1"),
    ("eval", {"dropout": False}, "dropout must be a number, got False"),
]


@pytest.mark.parametrize("command,bad,reason", _REFUSED_AT_LOAD,
                         ids=[f"{c}-{r.split()[0]}-{i}"
                              for i, (c, _, r) in enumerate(_REFUSED_AT_LOAD)])
def test_bad_value_is_refused_at_load_naming_the_file(trained_runs, cli_data_dir, tmp_path,
                                                      monkeypatch, capsys, command, bad,
                                                      reason):
    if command == "eval":
        path = tmp_path / "checkpoint.bin"
        path.write_bytes((trained_runs / "model1" / "checkpoint.bin").read_bytes())
        rewrite_config_header(path, **bad)
        argv = ["eval", "--checkpoint", str(path),
                "--manifest", str(cli_data_dir / "whisper" / "dev.tsv")]
    else:
        path = tmp_path / "file.json"
        path.write_text(json.dumps({**(CONFIG_JSON if command == "train" else SPEC_JSON),
                                    **bad}))
        argv = (["train", "--config", str(path), "--all", "--data", str(cli_data_dir)]
                if command == "train" else ["gen-data", "--spec", str(path)])
        argv += ["--out", str(tmp_path / "out")]

    def no_read(p):
        raise AssertionError(f"feature file {p} opened before {path} was checked")

    monkeypatch.setattr(data, "read_features", no_read)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and reason in err
    assert not (tmp_path / "out").exists()


def test_files_holding_the_removed_class_keys_at_their_defaults_still_load(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CONFIG_JSON, "n_classes": 8}))
    assert load_experiment_config(path) == ExperimentConfig.from_dict(CONFIG_JSON)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SPEC_JSON, "class_names": list(DEFAULT_CLASS_NAMES)}))
    assert load_synthetic_spec(path) == SyntheticSpec.from_dict(SPEC_JSON)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(models=(ModelSpec("a", "focal", 2.5, "prior", "wavlm", "tensor"),),
                     hidden=16, initial_lr=3e-4, scheduler_factor=0.25, seed=4),
    ModelSpec("m", "focal", 3.0, "prior", "hubert", "late"),
    ModelConfig(audio_dim=3, text_dim=4, hidden=6, fusion="low_rank_tensor", lmf_rank=3,
                dropout=0.1, seed=2),
], ids=["experiment", "model_spec", "model_config"])
def test_config_from_dict_inverts_to_dict(cfg):
    assert type(cfg).from_dict(cfg.to_dict()) == cfg
    assert type(cfg).from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


@pytest.mark.parametrize("what,cut", [("feature file", 10), ("checkpoint", 6),
                                      ("checkpoint", 300), ("checkpoint", -3)],
                         ids=["features_10", "checkpoint_6", "checkpoint_300",
                              "checkpoint_size_minus_3"])
def test_eval_refuses_a_truncated_file_naming_it(trained_runs, cli_data_dir, tmp_path, capsys,
                                                 what, cut):
    checkpoint = trained_runs / "model1" / "checkpoint.bin"
    manifest = cli_data_dir / "whisper" / "dev.tsv"
    if what == "feature file":
        manifest = tmp_path / "dev.tsv"
        entries = _manifest_copy(cli_data_dir / "whisper" / "dev.tsv", manifest)
        path = tmp_path / "cut.audio.bin"
        path.write_bytes(entries[3].audio_path.read_bytes()[:cut])
        manifest.write_text(manifest.read_text().replace(str(entries[3].audio_path), str(path)))
    else:
        path = tmp_path / "cut.bin"
        path.write_bytes(checkpoint.read_bytes()[:cut])
        checkpoint = path
    code = main(["eval", "--checkpoint", str(checkpoint), "--manifest", str(manifest)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: truncated {what} ")


def test_train_unknown_tag_fails(cli_data_dir, config_file, tmp_path, capsys):
    code = main(["train", "--config", str(config_file), "--tag", "model9",
                 "--data", str(cli_data_dir), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "model9" in capsys.readouterr().err


def test_train_prior_weights_without_a_class_fail_before_reading_features(
        cli_data_dir, config_file, tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "data" / "whisper" / "train.tsv"
    fear = DEFAULT_CLASS_NAMES.index("Fear")
    write_manifest(manifest, [e for e in load_manifest(cli_data_dir / "whisper" / "train.tsv")
                              if e.label != fear])
    write_manifest(manifest.with_name("dev.tsv"),
                   load_manifest(cli_data_dir / "whisper" / "dev.tsv"))

    def no_read(p):
        raise AssertionError(f"feature file {p} opened before the prior weights were checked")

    monkeypatch.setattr(data, "read_features", no_read)
    code = main(["train", "--config", str(config_file), "--tag", "model1",
                 "--data", str(tmp_path / "data"), "--out", str(tmp_path / "runs")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {manifest}: model1 uses prior weights, "
                                       "undefined without a Fear utterance\n")


def test_a_rerun_replaces_the_report_and_predictions_or_leaves_neither(
        cli_data_dir, config_file, tmp_path, monkeypatch, capsys):
    """A rerun into the same directory writes the first run's bytes (apart from the
    wall time); a rerun that fails after its first checkpoint leaves no report.json
    and no predictions.jsonl beside the new checkpoint."""
    argv = ["train", "--config", str(config_file), "--tag", "model5",
            "--data", str(cli_data_dir), "--out", str(tmp_path / "runs")]
    tag_dir = tmp_path / "runs" / "model5"
    names = ("checkpoint.bin", "log.jsonl", "predictions.jsonl", "report.json")

    def files():
        out = {name: (tag_dir / name).read_bytes() for name in names}
        report = json.loads(out.pop("report.json"))
        del report["wall_seconds"]
        return out, report

    assert main(argv) == 0
    first = files()
    assert main(argv) == 0
    assert files() == first

    real_save = training.save_checkpoint

    def save_then_fail(path, m):
        real_save(path, m)
        raise RuntimeError("stopped after the first checkpoint")

    monkeypatch.setattr(training, "save_checkpoint", save_then_fail)
    assert main(argv) == 1
    assert "stopped after the first checkpoint" in capsys.readouterr().err
    assert sorted(p.name for p in tag_dir.iterdir()) == ["checkpoint.bin", "log.jsonl"]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reproduces_training_predictions(trained_runs, cli_data_dir,
                                              tmp_path, capsys):
    out = tmp_path / "preds.jsonl"
    code = main(["eval", "--checkpoint", str(trained_runs / "model1" / "checkpoint.bin"),
                 "--manifest", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(out), "--tag", "model1", "--batch-size", "16"])
    assert code == 0
    assert "Macro-F1" in capsys.readouterr().out
    assert out.read_bytes() == (trained_runs / "model1" / "predictions.jsonl").read_bytes()


def test_eval_unlabeled_manifest(trained_runs, cli_data_dir, tmp_path, capsys):
    src = (cli_data_dir / "whisper" / "dev.tsv").read_text()
    lines = []
    for line in src.splitlines():
        if line.startswith("#"):
            lines.append(line)
        else:
            fields = line.split("\t")
            fields[1] = "-"
            lines.append("\t".join(fields))
    unlabeled = cli_data_dir / "whisper" / "dev_unlabeled.tsv"
    unlabeled.write_text("\n".join(lines) + "\n")
    code = main(["eval", "--checkpoint", str(trained_runs / "model1" / "checkpoint.bin"),
                 "--manifest", str(unlabeled), "--out", str(tmp_path / "u.jsonl")])
    assert code == 0
    assert "unlabeled" in capsys.readouterr().out
    assert len(read_records(tmp_path / "u.jsonl")) == 32


def _manifest_copy(src, dst):
    """Write src's records to dst with absolute feature paths; return src's entries."""
    entries = load_manifest(src)
    dst.write_text("".join(f"{e.utt_id}\t{data.DEFAULT_CLASS_NAMES[e.label]}\t"
                           f"{e.audio_path}\t{e.text_path}\n" for e in entries))
    return entries


def test_eval_refuses_a_feature_dim_that_differs_naming_the_file(trained_runs, cli_data_dir,
                                                                 tmp_path, capsys):
    odd = tmp_path / "odd.audio.bin"
    manifest = tmp_path / "dev.tsv"
    entries = _manifest_copy(cli_data_dir / "whisper" / "dev.tsv", manifest)
    manifest.write_text(manifest.read_text().replace(str(entries[5].audio_path), str(odd)))
    frames = read_features(entries[5].audio_path)
    data.write_features(odd, np.zeros((frames.shape[0], frames.shape[1] - 1)))
    code = main(["eval", "--checkpoint", str(trained_runs / "model1" / "checkpoint.bin"),
                 "--manifest", str(manifest)])
    assert code == 1
    assert capsys.readouterr().err.startswith(
        f"error: {odd}: audio feature dim {frames.shape[1] - 1} differs from {frames.shape[1]} ")


def test_ensemble_refuses_a_labels_manifest_that_repeats_an_id(trained_runs, cli_data_dir,
                                                               tmp_path, capsys):
    labels = tmp_path / "dev.tsv"
    entries = _manifest_copy(cli_data_dir / "whisper" / "dev.tsv", labels)
    text = labels.read_text()
    labels.write_text(text + text.splitlines(keepends=True)[0])
    code = main(["ensemble", str(trained_runs / "model1" / "predictions.jsonl"),
                 "--labels", str(labels), "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {labels}:{len(entries) + 1}: repeated id "
                                       f"{entries[0].utt_id!r} (first on line 1)\n")


def test_eval_missing_checkpoint_fails(cli_data_dir, tmp_path, capsys):
    code = main(["eval", "--checkpoint", str(tmp_path / "none.bin"),
                 "--manifest", str(cli_data_dir / "whisper" / "dev.tsv")])
    assert code == 1


# ---------------------------------------------------------------------------
# ensemble
# ---------------------------------------------------------------------------

def test_ensemble_votes_and_writes_labels(trained_runs, cli_data_dir,
                                          tmp_path, capsys):
    code = main(["ensemble",
                 str(trained_runs / "model1" / "predictions.jsonl"),
                 str(trained_runs / "model5" / "predictions.jsonl"),
                 "--labels", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ensemble" in out
    labels = (tmp_path / "ensemble" / "final_labels.tsv").read_text().splitlines()
    assert len(labels) == 32
    utt_id, name = labels[0].split("\t")
    assert utt_id.startswith("dev-")
    from emovote.data import DEFAULT_CLASS_NAMES
    assert name in DEFAULT_CLASS_NAMES
    assert (tmp_path / "ensemble" / "report.txt").exists()


def test_ensemble_single_file_matches_the_model(trained_runs, cli_data_dir,
                                                tmp_path, capsys):
    code = main(["ensemble", str(trained_runs / "model1" / "predictions.jsonl"),
                 "--labels", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(tmp_path)])
    assert code == 0
    records = read_records(trained_runs / "model1" / "predictions.jsonl")
    by_id = {r.utt_id: r.predicted for r in records}
    from emovote.data import DEFAULT_CLASS_NAMES
    for line in (tmp_path / "ensemble" / "final_labels.tsv").read_text().splitlines():
        utt_id, name = line.split("\t")
        assert DEFAULT_CLASS_NAMES.index(name) == by_id[utt_id]


def test_ensemble_average_probs_flag(trained_runs, cli_data_dir, tmp_path):
    code = main(["ensemble",
                 str(trained_runs / "model1" / "predictions.jsonl"),
                 str(trained_runs / "model5" / "predictions.jsonl"),
                 "--labels", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(tmp_path), "--average-probs"])
    assert code == 0


def test_ensemble_write_failure_keeps_previous_outputs(trained_runs, cli_data_dir,
                                                      tmp_path, monkeypatch, capsys):
    preds = [str(trained_runs / tag / "predictions.jsonl") for tag in ("model1", "model5")]
    labels = ["--labels", str(cli_data_dir / "whisper" / "dev.tsv"), "--out", str(tmp_path)]
    assert main(["ensemble", preds[0], *labels]) == 0
    ens_dir = tmp_path / "ensemble"
    before = {p.name: p.read_bytes() for p in ens_dir.iterdir()}
    assert sorted(before) == ["final_labels.tsv", "report.txt"]

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail_replace)
    assert main(["ensemble", *preds, *labels]) == 1
    assert "disk full" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in ens_dir.iterdir()} == before


def test_ensemble_mismatched_ids_fail(trained_runs, cli_data_dir, tmp_path, capsys):
    train_preds = tmp_path / "train_preds.jsonl"
    code = main(["eval", "--checkpoint", str(trained_runs / "model1" / "checkpoint.bin"),
                 "--manifest", str(cli_data_dir / "whisper" / "train.tsv"),
                 "--out", str(train_preds)])
    assert code == 0
    capsys.readouterr()
    code = main(["ensemble",
                 str(trained_runs / "model1" / "predictions.jsonl"), str(train_preds),
                 "--labels", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "symmetric difference" in capsys.readouterr().err


@pytest.mark.parametrize("extra,reason", [(None, "repeated id"), ("[1, 2]", "not a JSON object")],
                         ids=["repeated_id", "not_an_object"])
def test_ensemble_bad_record_line_fails_naming_the_line(trained_runs, cli_data_dir, tmp_path,
                                                        capsys, extra, reason):
    lines = (trained_runs / "model1" / "predictions.jsonl").read_text().splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines + [extra or lines[0]]) + "\n")
    code = main(["ensemble", str(bad), "--labels", str(cli_data_dir / "whisper" / "dev.tsv"),
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:{len(lines) + 1}: ") and reason in err
    assert not (tmp_path / "ensemble").exists()


# ---------------------------------------------------------------------------
# text-metrics
# ---------------------------------------------------------------------------

def test_text_metrics_identity_corpus(tmp_path, capsys):
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tthe cat sat\tthe cat sat\n"
                     "b\thello world again\thello world again\n")
    code = main(["text-metrics", "--pairs", str(pairs)])
    assert code == 0
    out = capsys.readouterr().out
    assert "WER   0.00" in out
    assert "BLEU  100.00" in out
    assert "GLEU  100.00" in out
    assert "pairs: 2" in out


def test_text_metrics_matches_the_library(tmp_path, capsys):
    rows = [("a", "the cat sat on the mat", "the cat sat mat"),
            ("b", "a stitch in time saves nine", "a stitch in in time saves ten"),
            ("c", "all good things", "all good things end")]
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("\n".join("\t".join(r) for r in rows) + "\n")
    code = main(["text-metrics", "--pairs", str(pairs)])
    assert code == 0
    out = capsys.readouterr().out
    refs = [tokenize(r[1]) for r in rows]
    hyps = [tokenize(r[2]) for r in rows]
    assert f"WER   {100 * corpus_wer(refs, hyps):.2f}" in out
    assert f"BLEU  {100 * bleu(refs, hyps):.2f}" in out
    assert f"GLEU  {100 * gleu(refs, hyps):.2f}" in out


def test_text_metrics_rejects_bad_files(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("# only a comment\n")
    assert main(["text-metrics", "--pairs", str(empty)]) == 1
    assert "no transcript pairs" in capsys.readouterr().err

    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tref only\n")
    assert main(["text-metrics", "--pairs", str(bad)]) == 1
    assert ":1:" in capsys.readouterr().err

    assert main(["text-metrics", "--pairs", str(tmp_path / "nope.tsv")]) == 1


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

def test_run_model_writes_the_best_epochs_train_time_predictions(cli_data_dir, tmp_path,
                                                                  monkeypatch):
    # seed 2 peaks at epoch 1 of 4, so the final weights are not the saved ones
    cfg = ExperimentConfig(models=(ModelSpec("model1", "focal", 2.0, "prior"),),
                           hidden=8, n_transformer_layers=1, batch_size=16,
                           initial_lr=1e-3, max_epochs=4, seed=2)
    calls = {"evaluate": 0, "load_checkpoint": 0}
    real_evaluate = training.evaluate

    def counting_evaluate(*args, **kwargs):
        calls["evaluate"] += 1
        return real_evaluate(*args, **kwargs)

    def counting_load(path):
        calls["load_checkpoint"] += 1
        return load_checkpoint(path)

    monkeypatch.setattr(training, "evaluate", counting_evaluate)
    monkeypatch.setattr(experiment, "load_checkpoint", counting_load)
    result = run_model(cfg, cfg.models[0], data_dir=cli_data_dir, out_dir=tmp_path)
    assert calls == {"evaluate": cfg.max_epochs, "load_checkpoint": 0}

    report = json.loads(result.report_path.read_text())
    best = report["best_epoch"]
    assert best < cfg.max_epochs - 1
    assert "best_records" not in report
    assert (result.dev_macro_f1, result.dev_wa, result.dev_ua) == (
        report["dev_macro_f1"][best], report["dev_wa"][best], report["dev_ua"][best])
    dev = load_utterances(load_manifest(cli_data_dir / "whisper" / "dev.tsv"))
    records, bundle = real_evaluate(load_checkpoint(result.checkpoint_path), dev,
                                    cfg.batch_size, model_tag="model1")
    write_records(tmp_path / "reloaded.jsonl", records)
    assert (result.predictions_path.read_bytes()
            == (tmp_path / "reloaded.jsonl").read_bytes())
    assert bundle.macro_f1 == result.dev_macro_f1


# hidden 160 at T >= 40: the attention, input-MLP fc2 and FFN products take the flat
# 2-D GEMM path, and at 2 workers the products and layer norms split their rows
H160_SPEC = SyntheticSpec(audio_dim=10, text_dim=8, min_len=40, max_len=44,
                          separability=2.0, seed=5)
H160_CONFIG = ExperimentConfig(models=(ModelSpec("m", "focal", 2.0, "prior"),), hidden=160,
                               n_transformer_layers=1, batch_size=32, initial_lr=1e-3,
                               max_epochs=2, seed=4)


def _train_h160_member(root, run, workers):
    """Train the hidden-160 member into root/run on ``workers`` row-split workers;
    return the kernels that ran in more than one block."""
    root = Path(root)
    with row_splitter(workers) as rec:
        run_model(H160_CONFIG, H160_CONFIG.models[0], data_dir=root / "data", out_dir=root / run)
    return rec.split_kernels()


def test_flat_gemm_and_row_split_leave_a_members_files_byte_identical(tmp_path, monkeypatch,
                                                                     one_blas_thread):
    """The member's files must not change by a byte when the flat-GEMM gate is raised
    above every product (so they all run per sequence), nor, at one BLAS thread, when
    the row blocks run on 2 workers instead of 1."""
    generate_synthetic(H160_SPEC, n_train=64, n_dev=32, out_dir=tmp_path / "data" / "whisper")
    assert H160_SPEC.min_len * H160_CONFIG.hidden ** 2 > autodiff._FLAT_GEMM_MIN
    assert _train_h160_member(tmp_path, "flat", 1) == []
    monkeypatch.setattr(autodiff, "_FLAT_GEMM_MIN", 10 ** 12)
    _train_h160_member(tmp_path, "sliced", 1)
    assert one_blas_thread(_train_h160_member, str(tmp_path), "one_worker", 1) == []
    assert one_blas_thread(_train_h160_member, str(tmp_path), "two_workers", 2) == [
        "_row_product", "_sequence_sum", "layernorm_bwd_numpy", "layernorm_fwd_numpy"]
    for a, b in (("flat", "sliced"), ("one_worker", "two_workers")):
        for name in ("checkpoint.bin", "predictions.jsonl", "log.jsonl"):
            assert ((tmp_path / a / "m" / name).read_bytes()
                    == (tmp_path / b / "m" / name).read_bytes()), (a, b, name)


@pytest.mark.parametrize("fusion", ["early", "late", "early_plus_late", "tensor",
                                    "low_rank_tensor"])
def test_deferred_finite_checks_leave_a_members_files_byte_identical(cli_data_dir, tmp_path,
                                                                    monkeypatch, fusion):
    """Checking the loss and gradient norm once per step, and the probabilities once
    per dev batch, must write the bytes that checking every op writes."""
    cfg = ExperimentConfig(models=(ModelSpec("m", "focal", 2.0, "prior", fusion=fusion),),
                           hidden=16, n_transformer_layers=1, batch_size=16,
                           initial_lr=1e-3, max_epochs=2, seed=6)
    run_model(cfg, cfg.models[0], data_dir=cli_data_dir, out_dir=tmp_path / "deferred")
    monkeypatch.setattr(autodiff, "_unchecked", contextlib.nullcontext)
    run_model(cfg, cfg.models[0], data_dir=cli_data_dir, out_dir=tmp_path / "per_op")
    for name in ("checkpoint.bin", "predictions.jsonl", "log.jsonl"):
        assert ((tmp_path / "deferred" / "m" / name).read_bytes()
                == (tmp_path / "per_op" / "m" / name).read_bytes()), name


def test_default_models_transcribe_the_published_ensemble():
    """The shipped 7-model roster, one row per ensemble member."""
    expected = [
        ("model1", "focal", 2.0, "prior", "whisper"),
        ("model2", "focal", 2.5, "prior", "whisper"),
        ("model3", "ce", 0.0, "prior", "whisper"),
        ("model4", "focal", 2.0, "uniform", "whisper"),
        ("model5", "ce", 0.0, "uniform", "whisper"),
        ("model6", "focal", 2.0, "prior", "wavlm"),
        ("model7", "focal", 3.0, "prior", "hubert"),
    ]
    got = [(m.tag, m.loss_kind, m.gamma, m.weight_scheme, m.audio_source)
           for m in default_models()]
    assert got == expected
    assert all(m.fusion == "early" for m in default_models())
    assert ExperimentConfig().models == default_models()


def test_model_spec_validation():
    with pytest.raises(ValueError, match="loss kind"):
        ModelSpec("m", loss_kind="hinge")
    with pytest.raises(ValueError, match="weight scheme"):
        ModelSpec("m", weight_scheme="sqrt")
    with pytest.raises(ValueError, match="audio source"):
        ModelSpec("m", audio_source="mfcc")
    with pytest.raises(ValueError, match="fusion"):
        ModelSpec("m", fusion="middle")
    with pytest.raises(ValueError, match="gamma"):
        ModelSpec("m", loss_kind="focal", gamma=-1.0)


@pytest.mark.parametrize("entry,reason", [
    ({"tag": "m", "loss": "focal", "gama": 2.5}, r"m: unknown model-spec keys \['gama'\]"),
    ({"loss": "focal", "gamma": 2.5}, "needs a 'tag' key"),
], ids=["misspelt_key", "no_tag"])
def test_model_spec_from_dict_refuses_unknown_and_missing_keys(tmp_path, capsys, entry, reason):
    with pytest.raises(ValueError, match=reason):
        ModelSpec.from_dict(entry)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"models": [entry]}))
    assert main(["train", "--config", str(path), "--all"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_experiment_config_validation_and_lookup():
    with pytest.raises(ValueError, match="duplicated.*model1"):
        ExperimentConfig(models=(ModelSpec("model1"), ModelSpec("model1")))
    with pytest.raises(ValueError, match=">= 1 model"):
        ExperimentConfig(models=())
    cfg = ExperimentConfig()
    assert cfg.spec_for("model3").loss_kind == "ce"
    with pytest.raises(KeyError, match="model99"):
        cfg.spec_for("model99")


def test_experiment_config_file_round_trip(tmp_path):
    cfg = ExperimentConfig(hidden=16, max_epochs=3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    assert load_experiment_config(path) == cfg
    with pytest.raises(ValueError, match="unknown experiment-config fields"):
        load_experiment_config_with_extra(tmp_path, cfg)


def load_experiment_config_with_extra(tmp_path, cfg):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**cfg.to_dict(), "hidden_layers": 3}))
    return load_experiment_config(path)


def test_experiment_config_yaml(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("hidden: 16\nmax_epochs: 3\ninitial_lr: 1e-3\n"
                    "models:\n  - tag: solo\n    loss: focal\n    gamma: 2\n")
    cfg = load_experiment_config(path)
    assert cfg.hidden == 16
    assert cfg.initial_lr == 1e-3
    assert cfg.models[0].tag == "solo"
    assert cfg.models[0].gamma == 2.0
    with pytest.raises(FileNotFoundError):
        load_experiment_config(tmp_path / "none.yaml")
    # a quoted number is a string, refused like the same value in JSON
    path.write_text('initial_lr: "1e-3"\n')
    with pytest.raises(ValueError, match="initial_lr must be a number, got '1e-3'"):
        load_experiment_config(path)


def test_synthetic_spec_file_loading(tmp_path, spec_file):
    spec = load_synthetic_spec(spec_file)
    assert spec.text_dim == SPEC_JSON["text_dim"]
    assert spec.seed == SPEC_JSON["seed"]
    yaml_path = tmp_path / "spec.yaml"
    yaml_path.write_text("separability: 1.5\ntext_dim: 12\n")
    spec = load_synthetic_spec(yaml_path)
    assert spec.separability == 1.5 and spec.text_dim == 12
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(["not", "a", "mapping"]))
    with pytest.raises(ValueError, match="mapping"):
        load_synthetic_spec(bad)


def test_model_seed_is_stable_and_distinct():
    seeds = {tag: model_seed(0, tag) for tag in
             ("model1", "model2", "model3", "model4", "model5", "model6", "model7")}
    assert len(set(seeds.values())) == 7
    assert all(0 <= s < 2 ** 31 for s in seeds.values())
    assert model_seed(0, "model1") == seeds["model1"]
    assert model_seed(1, "model1") != seeds["model1"]
