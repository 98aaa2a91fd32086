"""The benchmark's span tracer (perfbench/trace.py) against the library it patches.

The tracer replaces module and class attributes by name and calls
``Model.forward`` with its keywords, so renaming one of them breaks traced
benchmark runs. These run one tiny member, and the benchmark's ensemble stage,
with the tracer installed. The untraced benchmark also reaches library names:
the kernel microbenchmark and the environment record are called here once each.
"""

from types import SimpleNamespace

import numpy as np

from emovote import data, ensemble, experiment, model, training
from emovote.experiment import ExperimentConfig, ModelSpec
from perfbench import envinfo, kernel_timings, pipeline
from perfbench.trace import Tracer
from perfbench.workloads import WORKLOADS


def test_tracer_spans_a_tiny_train_and_eval(tiny_spec, tmp_path):
    data_dir = tmp_path / "data"
    data.generate_synthetic(tiny_spec, n_train=32, n_dev=16, out_dir=data_dir / "whisper")
    cfg = ExperimentConfig(models=(ModelSpec("m", "focal", 2.0, "prior"),), hidden=8,
                           n_transformer_layers=1, batch_size=16, max_epochs=1)
    tracer = Tracer()
    tracer.install()
    try:
        result = experiment.run_model(cfg, cfg.models[0], data_dir=data_dir,
                                      out_dir=tmp_path / "runs")
        m = model.load_checkpoint(result.checkpoint_path)
        dev = data.load_utterances(data.load_manifest(data_dir / "whisper" / "dev.tsv"))
        records, _ = training.evaluate(m, dev, cfg.batch_size, model_tag="m")
    finally:
        tracer.uninstall()
    assert len(records) == 16
    snap = tracer.snapshot()
    for name in ("experiment.run_model", "training.train", "training.forward",
                 "training.optimizer", "training.dev_eval", "training.evaluate",
                 "model.forward", "model.load_checkpoint", "losses.compute_loss",
                 "autodiff.fwd.matmul", "autodiff.bwd.matmul", "data.read_features"):
        assert snap["totals"][name][0] >= 1, name
    assert len(snap["step_ms"]) == 2  # 32 utterances, batch 16, one epoch
    # perfbench/report.py divides this count by the steps; each step checks its loss
    assert snap["counts"]["autodiff.step_finite_checks"] >= len(snap["step_ms"])
    assert not hasattr(model.Model.forward, "__wrapped__")


def test_tracer_spans_the_ensemble_stage(tiny_spec, tmp_path):
    data_dir = tmp_path / "data"
    data.generate_synthetic(tiny_spec, n_train=16, n_dev=12, out_dir=data_dir / "whisper")
    dev = data.load_manifest(data_dir / "whisper" / "dev.tsv")
    rng = np.random.default_rng(0)
    results = []
    for m in range(3):
        path = tmp_path / f"m{m}.jsonl"
        ensemble.write_records(path, [
            ensemble.PredictionRecord.from_probs(e.utt_id, f"m{m}", rng.dirichlet(np.ones(8)))
            for e in dev])
        results.append(SimpleNamespace(predictions_path=path))
    w = WORKLOADS["ensemble_h32"]
    assert w.sources[0] == "whisper"
    tracer = Tracer()
    tracer.install()
    try:
        outcomes, _ = pipeline.vote(w, data_dir, results, tmp_path / "ensemble")
    finally:
        tracer.uninstall()
    assert len(outcomes) == 12
    totals = tracer.snapshot()["totals"]
    # a span per call of each function perfbench/trace.py wraps in this stage
    for name, calls in (("ensemble.read_records", 3), ("ensemble.vote", 1),
                        ("ensemble.report", 1), ("data.load_manifest", 1),
                        ("metrics.bundle", 4)):
        assert totals[name][0] == calls, name


def test_kernel_microbenchmark_and_environment_reach_the_library(tmp_path):
    """perfbench/kernel_timings.py calls each kernel's ``*_numpy`` name and
    perfbench/envinfo.py calls ``kernels.active_backend``."""
    timings = kernel_timings.time_kernels(repeats=1)
    assert sorted(timings) == ["adam_step", "layernorm_bwd", "layernorm_fwd", "levenshtein",
                               "softmax_bwd", "softmax_fwd"]
    assert all(ms >= 0 for ms in timings.values())
    assert envinfo.environment(tmp_path, {})["kernel_backend"] == "numpy"
