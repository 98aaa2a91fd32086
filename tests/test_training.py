"""Optimizer, scheduler, and the training loop: rules, determinism, descent."""

import contextlib
import gc
import json
import math
import weakref

import numpy as np
import pytest

from emovote import autodiff, model as model_module, training
from emovote.autodiff import NumericsError, Tensor, log
from emovote.data import SyntheticSpec, generate_synthetic, load_manifest, load_utterances
from emovote.losses import LossConfig, compute_loss
from emovote.model import Model, ModelConfig, load_checkpoint
from emovote.training import (Adam, PlateauScheduler, SchedulerConfig,
                              TrainConfig, TrainReport, evaluate, train)
from helpers import make_batch


def tiny_model_config(**overrides):
    base = dict(audio_dim=10, text_dim=8, hidden=8, n_transformer_layers=1,
                n_classes=8, fusion="early", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_config(**overrides):
    base = dict(batch_size=32, initial_lr=1e-3, max_epochs=2,
                loss=LossConfig(kind="ce"), seed=0)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_scheduler_config_validation():
    for factor in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="factor"):
            SchedulerConfig(factor=factor)
    with pytest.raises(ValueError, match="patience"):
        SchedulerConfig(patience=0)


def test_train_config_validation():
    with pytest.raises(ValueError, match="initial_lr"):
        tiny_train_config(initial_lr=-1e-4)
    TrainConfig(initial_lr=0.0)  # allowed: diagnostic no-op optimizer
    with pytest.raises(ValueError, match="max_epochs"):
        tiny_train_config(max_epochs=0)
    with pytest.raises(ValueError, match="batch_size"):
        tiny_train_config(batch_size=0)
    with pytest.raises(TypeError, match="max_epochs must be an integer"):
        tiny_train_config(max_epochs=1.5)
    with pytest.raises(TypeError, match="batch_size must be an integer"):
        tiny_train_config(batch_size=True)
    with pytest.raises(TypeError, match="seed must be an integer"):
        tiny_train_config(seed=1.5)
    with pytest.raises(TypeError, match="patience must be an integer"):
        SchedulerConfig(patience=2.0)


# ---------------------------------------------------------------------------
# plateau scheduler rule
# ---------------------------------------------------------------------------

def test_scheduler_improving_metrics_keep_the_lr():
    sched = PlateauScheduler(1e-3, factor=0.5, patience=1)
    assert [sched.step(m) for m in (0.2, 0.3, 0.4)] == [1e-3, 1e-3, 1e-3]


def test_scheduler_flat_metrics_halve_after_each_patience_window():
    # the first 0.4 sets the best; the two non-improvements each trip the
    # patience-1 window, so the lr halves at the second and third step
    sched = PlateauScheduler(1e-3, factor=0.5, patience=1)
    assert [sched.step(m) for m in (0.4, 0.4, 0.4)] == [1e-3, 5e-4, 2.5e-4]


def test_scheduler_three_halvings():
    sched = PlateauScheduler(1e-4, factor=0.5, patience=1)
    for m in (0.5, 0.4, 0.4, 0.4):
        lr = sched.step(m)
    assert lr == pytest.approx(1.25e-5, rel=1e-12)


def test_scheduler_any_improvement_resets_patience():
    sched = PlateauScheduler(1.0, factor=0.5, patience=2)
    trace = [sched.step(m) for m in (0.2, 0.1, 0.3, 0.25, 0.28)]
    # bad run is broken by 0.3, so only the final pair of non-improvements
    # completes a window
    assert trace == [1.0, 1.0, 1.0, 1.0, 0.5]


def test_scheduler_equal_metric_is_not_an_improvement():
    sched = PlateauScheduler(1.0, factor=0.5, patience=1)
    sched.step(0.4)
    assert sched.step(0.4) == 0.5


def test_scheduler_rejects_non_finite_metric():
    sched = PlateauScheduler(1.0)
    with pytest.raises(ValueError, match="finite"):
        sched.step(float("nan"))


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------

def _toy_params(rng, shapes=((3, 4), (5,))):
    params = {}
    for i, shape in enumerate(shapes):
        t = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        t.grad = rng.standard_normal(shape).astype(np.float32)
        params[f"p{i}"] = t
    return params


def test_adam_grad_norm_matches_reference(rng):
    params = _toy_params(rng)
    opt = Adam(params, lr=1e-3)
    expected = math.sqrt(sum(float(np.sum(np.square(p.grad, dtype=np.float64)))
                             for p in params.values()))
    assert opt.grad_norm() == pytest.approx(expected, rel=1e-12)


def test_adam_step_matches_reference_formula(rng):
    params = _toy_params(rng)
    for p in params.values():
        p.grad *= np.float32(0.1)  # under the clipping norm
    start = {n: p.data.copy() for n, p in params.items()}
    grads = {n: p.grad.copy() for n, p in params.items()}
    opt = Adam(params, lr=1e-2)
    assert opt.grad_norm() < training.CLIP_NORM
    b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
    m = {n: np.zeros_like(g, dtype=np.float64) for n, g in grads.items()}
    v = {n: np.zeros_like(g, dtype=np.float64) for n, g in grads.items()}
    ref = {n: d.astype(np.float64) for n, d in start.items()}
    for t in range(1, 4):
        opt.step()
        for n, g in grads.items():
            g64 = g.astype(np.float64)
            m[n] = b1 * m[n] + (1 - b1) * g64
            v[n] = b2 * v[n] + (1 - b2) * g64 * g64
            mhat = m[n] / (1 - b1 ** t)
            vhat = v[n] / (1 - b2 ** t)
            ref[n] -= 1e-2 * mhat / (np.sqrt(vhat) + eps)
    for n in params:
        np.testing.assert_allclose(params[n].data, ref[n], rtol=1e-4, atol=1e-6)
        assert not np.array_equal(params[n].data, start[n])


def test_adam_clipping_equals_prescaled_gradients(rng, monkeypatch):
    params_a = _toy_params(rng)
    for p in params_a.values():
        p.grad *= np.float32(4.0)
    norm = Adam(params_a, lr=1e-2).grad_norm()
    assert norm > training.CLIP_NORM
    params_b = {n: Tensor(p.data.copy(), requires_grad=True)
                for n, p in params_a.items()}
    scale = np.float32(training.CLIP_NORM / norm)
    for n, p in params_a.items():
        params_b[n].grad = p.grad * scale
    Adam(params_a, lr=1e-2).step()
    monkeypatch.setattr(training, "CLIP_NORM", math.inf)  # the copy is already scaled
    Adam(params_b, lr=1e-2).step()
    for n in params_a:
        np.testing.assert_array_equal(params_a[n].data, params_b[n].data)


def test_adam_skips_parameters_without_gradients(rng):
    params = _toy_params(rng)
    params["frozen"] = Tensor(rng.standard_normal(4).astype(np.float32),
                              requires_grad=True)
    before = params["frozen"].data.copy()
    opt = Adam(params, lr=1e-2)
    opt.step()
    np.testing.assert_array_equal(params["frozen"].data, before)
    np.testing.assert_array_equal(opt.m["frozen"], 0.0)


def test_adam_zero_lr_is_a_no_op(rng):
    params = _toy_params(rng)
    before = {n: p.data.copy() for n, p in params.items()}
    opt = Adam(params, lr=0.0)
    opt.step()
    opt.step()
    for n in params:
        np.testing.assert_array_equal(params[n].data, before[n])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_adam_refuses_a_non_finite_gradient_and_changes_nothing(rng, bad):
    params = _toy_params(rng)
    opt = Adam(params, lr=1e-2)
    opt.step()  # so that m, v and t are not at their initial values
    params["p0"].grad[1, 2] = bad
    def state():
        return {n: p.data for n, p in params.items()}, opt.m, opt.v

    before = [{n: a.copy() for n, a in d.items()} for d in state()]
    with pytest.raises(NumericsError, match="gradient norm is (nan|inf)"):
        opt.step()
    for was, now in zip(before, state()):
        for n in was:
            assert was[n].tobytes() == now[n].tobytes(), n
    assert opt.t == 1


def test_one_adam_step_descends_the_batch_loss(rng):
    """A single optimizer step must reduce the same-batch loss nearly always."""
    wins = 0
    for seed in range(10):
        model = Model(tiny_model_config(seed=seed))
        batch = make_batch(np.random.default_rng(seed), 16, 10, 8)
        cfg = LossConfig(kind="ce")

        def batch_loss():
            return compute_loss(model.forward(batch), batch.labels, cfg)

        loss0 = batch_loss()
        model.zero_grads()
        loss0.backward()
        Adam(model.parameters, lr=1e-3).step()
        wins += batch_loss().item() < loss0.item()
    assert wins >= 9


# ---------------------------------------------------------------------------
# the train loop
# ---------------------------------------------------------------------------

def test_train_report_traces_and_artifacts(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    cfg = tiny_train_config(max_epochs=3)
    ckpt = tmp_path / "best.ckpt"
    log = tmp_path / "train.log"
    report = train(model, train_set, dev_set, cfg, ckpt, log_path=log)
    assert len(report.train_loss) == 3
    assert len(report.dev_macro_f1) == len(report.dev_wa) == len(report.dev_ua) == 3
    assert len(report.lr_trace) == 3
    assert 0 <= report.best_epoch < 3
    assert report.best_checkpoint == str(ckpt)
    assert ckpt.exists()
    assert report.wall_seconds > 0
    lines = log.read_text().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[1])
    assert rec["epoch"] == 1 and set(rec) >= {"lr", "train_loss", "dev_macro_f1"}
    report_path = tmp_path / "report.json"
    report.save(report_path)
    assert json.loads(report_path.read_text())["best_epoch"] == report.best_epoch


def test_log_keeps_the_epochs_before_an_abort(tiny_corpus, tmp_path, monkeypatch):
    train_set, dev_set = tiny_corpus
    cfg = tiny_train_config(max_epochs=3, batch_size=len(train_set))  # one step per epoch
    full_log = tmp_path / "full.log"
    train(Model(tiny_model_config()), train_set, dev_set, cfg, tmp_path / "a.ckpt",
          log_path=full_log)
    first_line = full_log.read_text().splitlines(keepends=True)[0]

    steps = []

    def loss_inf_from_epoch_1(probs, labels, loss_cfg):
        steps.append(None)
        loss = compute_loss(probs, labels, loss_cfg)
        return loss if len(steps) == 1 else Tensor(np.array(np.inf))

    monkeypatch.setattr(training, "compute_loss", loss_inf_from_epoch_1)
    log = tmp_path / "aborted.log"
    log.write_text("stale line from an earlier run\n")
    with pytest.raises(NumericsError, match="epoch 1, batch 0"):
        train(Model(tiny_model_config()), train_set, dev_set, cfg, tmp_path / "b.ckpt",
              log_path=log)
    assert log.read_text() == first_line
    assert json.loads(first_line)["epoch"] == 0


def test_a_steps_graph_is_freed_before_the_dev_eval(tiny_corpus, tmp_path, monkeypatch):
    train_set, dev_set = tiny_corpus
    forward = Model.forward
    last_probs = []

    def forward_keeping_a_weakref(self, batch, train=False, rng=None, trace=None):
        probs = forward(self, batch, train=train, rng=rng, trace=trace)
        if train:
            # Tensor has __slots__ and takes no weakref; its array dies with it
            last_probs[:] = [weakref.ref(probs.data)]
        return probs

    alive_at_eval = []

    def evaluate_after_gc(*args, **kwargs):
        gc.collect()
        alive_at_eval.append(last_probs[0]() is not None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(Model, "forward", forward_keeping_a_weakref)
    monkeypatch.setattr(training, "evaluate", evaluate_after_gc)
    train(Model(tiny_model_config()), train_set, dev_set, tiny_train_config(max_epochs=2),
          tmp_path / "c.ckpt")
    assert alive_at_eval == [False, False]


def test_a_steps_graph_is_freed_before_the_next_steps_backward(tiny_corpus, tmp_path,
                                                               monkeypatch):
    """Binding step i+1's loss frees step i's graph, by reference count alone,
    before step i+1's backward allocates its gradients."""
    train_set, dev_set = tiny_corpus  # 96 utterances: 3 steps per epoch at batch 32
    step_loss, backward = training._step_loss, Tensor.backward
    losses = []  # one weakref per step to its loss array; Tensor takes no weakref
    alive_at_backward = []

    def step_loss_keeping_a_weakref(*args):
        loss = step_loss(*args)
        losses.append(weakref.ref(loss.data))
        return loss

    def backward_noting_the_previous_loss(self):
        if len(losses) > 1:
            alive_at_backward.append(losses[-2]() is not None)
        backward(self)

    monkeypatch.setattr(training, "_step_loss", step_loss_keeping_a_weakref)
    monkeypatch.setattr(Tensor, "backward", backward_noting_the_previous_loss)
    gc.disable()
    try:
        train(Model(tiny_model_config()), train_set, dev_set, tiny_train_config(max_epochs=2),
              tmp_path / "c.ckpt")
    finally:
        gc.enable()
    assert alive_at_backward == [False] * 5


def test_report_save_failure_keeps_previous_report(tmp_path, monkeypatch):
    report = TrainReport(train_loss=[1.5], dev_macro_f1=[0.2], dev_wa=[0.3], dev_ua=[0.4],
                         lr_trace=[1e-3], best_epoch=0, best_checkpoint="a.ckpt")
    path = tmp_path / "report.json"
    report.save(path)
    before = path.read_bytes()
    report.train_loss.append(0.9)

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", fail_replace)
    with pytest.raises(OSError, match="disk full"):
        report.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_train_same_seed_is_bit_identical(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    cfg = tiny_train_config(max_epochs=2, seed=9)
    reports, checkpoints = [], []
    for run in ("a", "b"):
        model = Model(tiny_model_config(seed=4))
        ckpt = tmp_path / f"{run}.ckpt"
        reports.append(train(model, train_set, dev_set, cfg, ckpt))
        checkpoints.append(ckpt.read_bytes())
    assert reports[0].train_loss == reports[1].train_loss  # exact float equality
    assert reports[0].dev_macro_f1 == reports[1].dev_macro_f1
    assert reports[0].best_epoch == reports[1].best_epoch
    assert checkpoints[0] == checkpoints[1]


def test_train_different_seed_changes_the_trace(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    losses = []
    for seed in (0, 1):
        model = Model(tiny_model_config(seed=4))
        report = train(model, train_set, dev_set,
                       tiny_train_config(max_epochs=1, seed=seed),
                       tmp_path / f"s{seed}.ckpt")
        losses.append(report.train_loss[0])
    assert losses[0] != losses[1]


def test_best_checkpoint_reproduces_its_dev_metrics(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    cfg = tiny_train_config(max_epochs=3, initial_lr=3e-3)
    report = train(model, train_set, dev_set, cfg, tmp_path / "best.ckpt")
    best = load_checkpoint(tmp_path / "best.ckpt")
    _, bundle = evaluate(best, dev_set, batch_size=cfg.batch_size)
    assert bundle.macro_f1 == report.dev_macro_f1[report.best_epoch]
    assert bundle.wa == report.dev_wa[report.best_epoch]
    assert bundle.ua == report.dev_ua[report.best_epoch]


def test_train_zero_lr_changes_nothing(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    before = {n: p.data.copy() for n, p in model.parameters.items()}
    report = train(model, train_set, dev_set,
                   tiny_train_config(max_epochs=2, initial_lr=0.0),
                   tmp_path / "noop.ckpt")
    for n, p in model.parameters.items():
        np.testing.assert_array_equal(p.data, before[n])
    assert report.dev_macro_f1[0] == report.dev_macro_f1[1]
    assert report.dev_wa[0] == report.dev_wa[1]


def test_train_scheduler_trace_follows_the_plateau_rule(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    cfg = tiny_train_config(max_epochs=4, initial_lr=0.0)
    report = train(model, train_set, dev_set, cfg, tmp_path / "sched.ckpt")
    # lr 0 freezes the model, so the dev metric is flat: epoch 1 records the
    # best, every later epoch trips the patience-1 window
    lr = [0.0, 0.0, 0.0, 0.0]
    assert report.lr_trace == lr  # the lr itself is 0, halving keeps it 0
    assert report.best_epoch == 0


def test_train_aborts_on_nan_with_coordinates(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    model.parameters["audio_mlp.fc1.w"].data[0, 0] = np.nan
    with pytest.raises(NumericsError, match="epoch 0, batch 0"):
        train(model, train_set, dev_set, tiny_train_config(),
              tmp_path / "nan.ckpt")


def _nan_weight(monkeypatch, model):
    model.parameters["audio_mlp.fc1.w"].data[0, 0] = np.nan


def _inf_loss_from_step_5(monkeypatch, model):
    calls = []

    def loss_times_inf(probs, labels, loss_cfg):
        calls.append(None)
        loss = compute_loss(probs, labels, loss_cfg)
        return autodiff.mul(loss, np.float32(np.inf)) if len(calls) >= 5 else loss

    monkeypatch.setattr(training, "compute_loss", loss_times_inf)


def _relu_with_inf_gradient(monkeypatch, model):
    def relu(a):
        def backward(g):
            autodiff._accum(a, np.full_like(a.data, np.inf), fresh=True)

        return Tensor.from_op(np.maximum(a.data, 0), (a,), backward, "relu")

    monkeypatch.setattr(model_module, "relu", relu)


@pytest.mark.parametrize("fault,where", [
    (_nan_weight, "epoch 0, batch 0: non-finite values produced by op 'matmul'"),
    (_inf_loss_from_step_5, "epoch 1, batch 1: non-finite values produced by op 'mul'"),
    (_relu_with_inf_gradient, "epoch 0, batch 0: non-finite values produced by op 'backward'"),
], ids=["nan_weight", "inf_loss", "inf_backward_rule"])
def test_a_failed_step_replays_to_the_error_of_per_op_checks(tiny_corpus, tmp_path,
                                                            monkeypatch, fault, where):
    """Deferred checks name the same op, epoch and batch as checking every op does,
    and the replay draws the failed step's dropout masks again."""
    train_set, dev_set = tiny_corpus  # 96 utterances: 3 steps per epoch at batch 32
    forward = Model.forward

    def failure(run):
        model = Model(tiny_model_config(dropout=0.2))
        states = []

        def forward_noting_the_rng(self, batch, train=False, rng=None, trace=None):
            if train:
                states.append(rng.bit_generator.state["state"]["state"])
            return forward(self, batch, train=train, rng=rng, trace=trace)

        with monkeypatch.context() as mp:
            fault(mp, model)
            mp.setattr(Model, "forward", forward_noting_the_rng)
            with pytest.raises(NumericsError) as err:
                train(model, train_set, dev_set, tiny_train_config(), tmp_path / f"{run}.ckpt")
        # the replay starts from the failed step's state; every other step from its own
        assert states[-1] == states[-2] and len(set(states)) == len(states) - 1
        return str(err.value)

    deferred = failure("deferred")
    assert autodiff._per_op_checks.get()
    with pytest.raises(NumericsError, match="op 'log'"), np.errstate(divide="ignore"):
        log(Tensor(np.zeros(2), requires_grad=True))  # checks at once again
    monkeypatch.setattr(autodiff, "_unchecked", contextlib.nullcontext)
    per_op = failure("per_op")
    assert deferred == per_op == f"training aborted at {where}"


def test_a_step_whose_replay_passes_still_raises_with_coordinates(tiny_corpus, tmp_path,
                                                                 monkeypatch):
    train_set, dev_set = tiny_corpus
    step = training.Adam.step
    calls = []

    def step_failing_once_at_step_2(self):
        calls.append(None)
        if len(calls) == 2:
            raise NumericsError("gradient norm is inf")
        step(self)

    monkeypatch.setattr(training.Adam, "step", step_failing_once_at_step_2)
    with pytest.raises(NumericsError) as err:
        train(Model(tiny_model_config()), train_set, dev_set, tiny_train_config(),
              tmp_path / "x.ckpt")
    assert str(err.value) == "training aborted at epoch 0, batch 1: gradient norm is inf"


def test_train_validates_inputs(tiny_corpus, tmp_path):
    train_set, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    with pytest.raises(ValueError, match="empty"):
        train(model, [], dev_set, tiny_train_config(), tmp_path / "x.ckpt")
    unlabeled = [type(u)(utt_id=u.utt_id, audio=u.audio, text=u.text, label=None)
                 for u in train_set[:4]]
    with pytest.raises(ValueError, match="labeled"):
        train(model, unlabeled, dev_set, tiny_train_config(), tmp_path / "x.ckpt")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_is_batch_size_invariant(tiny_corpus):
    _, dev_set = tiny_corpus
    model = Model(tiny_model_config(seed=6))
    recs_1, bundle_1 = evaluate(model, dev_set, batch_size=1)
    recs_128, bundle_128 = evaluate(model, dev_set, batch_size=128)
    assert [r.utt_id for r in recs_1] == [r.utt_id for r in recs_128]
    assert [r.predicted for r in recs_1] == [r.predicted for r in recs_128]
    for a, b in zip(recs_1, recs_128):
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-6)
    assert bundle_1.macro_f1 == bundle_128.macro_f1
    assert bundle_1.wa == bundle_128.wa and bundle_1.ua == bundle_128.ua


def test_evaluate_unlabeled_returns_records_only(tiny_corpus):
    _, dev_set = tiny_corpus
    unlabeled = [type(u)(utt_id=u.utt_id, audio=u.audio, text=u.text, label=None)
                 for u in dev_set]
    model = Model(tiny_model_config())
    records, bundle = evaluate(model, unlabeled)
    assert bundle is None
    assert len(records) == len(dev_set)
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, [])


def test_evaluate_bundle_matches_records_recomputed(tiny_corpus):
    from emovote.metrics import bundle_from_labels
    _, dev_set = tiny_corpus
    model = Model(tiny_model_config(seed=2))
    records, bundle = evaluate(model, dev_set, model_tag="check")
    truth = {u.utt_id: u.label for u in dev_set}
    again = bundle_from_labels([truth[r.utt_id] for r in records],
                               [r.predicted for r in records], 8)
    assert again == bundle
    assert all(r.model_tag == "check" for r in records)


def test_evaluate_names_the_op_that_made_a_nan(tiny_corpus, monkeypatch):
    _, dev_set = tiny_corpus
    model = Model(tiny_model_config())
    model.parameters["text_mlp.fc2.b"].data[3] = np.nan
    with pytest.raises(NumericsError) as deferred:
        evaluate(model, dev_set)
    monkeypatch.setattr(autodiff, "_unchecked", contextlib.nullcontext)
    with pytest.raises(NumericsError) as per_op:
        evaluate(model, dev_set)
    assert str(deferred.value) == str(per_op.value) == "non-finite values produced by op 'add'"


def test_training_learns_a_separable_corpus(tmp_path):
    """End-to-end sanity: high separability must drive dev Macro-F1 high."""
    spec = SyntheticSpec(audio_dim=10, text_dim=8, min_len=3, max_len=8,
                         separability=5.0, complementarity=0.5, seed=500,
                         train_proportions=(0.125,) * 8,
                         dev_proportions=(0.125,) * 8)
    gen = generate_synthetic(spec, n_train=160, n_dev=64, out_dir=tmp_path)
    train_set = load_utterances(load_manifest(gen.train.manifest_path))
    dev_set = load_utterances(load_manifest(gen.dev.manifest_path))
    model = Model(tiny_model_config(hidden=16, seed=1))
    cfg = tiny_train_config(max_epochs=8, initial_lr=3e-3, batch_size=16)
    report = train(model, train_set, dev_set, cfg, tmp_path / "sep.ckpt")
    assert max(report.dev_macro_f1) > 0.9
