"""The benchmark's span tracer (perfbench/trace.py) against the library it patches.

The tracer replaces module and class attributes by name and calls
``Model.forward`` with its keywords, so renaming one of them breaks traced
benchmark runs. This runs one tiny member with the tracer installed.
"""

from emovote import data, experiment, model, training
from emovote.experiment import ExperimentConfig, ModelSpec
from perfbench.trace import Tracer


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
