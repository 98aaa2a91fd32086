"""Training loop: Adam with gradient clipping, plateau LR decay, and
best-dev-Macro-F1 checkpoint selection.

Everything is deterministic given the seed: epoch shuffles, dropout draws,
and optimizer state all derive from it, so two runs with the same seed on the
same BLAS build and BLAS thread count produce bit-identical loss traces and
checkpoints. Another BLAS thread count may split the GEMMs differently and
change the bits (a hidden-160 tensor-fusion member does). The number of
workers that ``kernels.splitter`` runs row blocks on does not: every element
gets the same arithmetic in any split.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import kernels
from .autodiff import NumericsError
from .data import Utterance, _atomic_write_bytes, check_counts, make_batches
from .ensemble import PredictionRecord
from .losses import LossConfig, compute_loss
from .metrics import MetricBundle, bundle_from_labels
from .model import Model, save_checkpoint


@dataclass(frozen=True)
class SchedulerConfig:
    """Plateau decay on dev Macro-F1: after `patience` epochs without any
    improvement, multiply the learning rate by `factor`."""

    factor: float = 0.5
    patience: int = 1

    def __post_init__(self):
        if not 0.0 < self.factor < 1.0:
            raise ValueError("scheduler factor must be in (0, 1)")
        if self.patience < 1:
            raise ValueError("scheduler patience must be >= 1")
        check_counts(self, "patience")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 128
    initial_lr: float = 1e-4
    max_epochs: int = 20
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        # lr == 0 is allowed as a diagnostic no-op optimizer
        if self.initial_lr < 0:
            raise ValueError("initial_lr must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be > 0")
        check_counts(self, "batch_size", "max_epochs", "seed")


class PlateauScheduler:
    """Any improvement resets patience; a full patience window halves the lr."""

    def __init__(self, initial_lr: float, factor: float = 0.5, patience: int = 1):
        self.lr = float(initial_lr)
        self.factor = factor
        self.patience = patience
        self.best = -math.inf
        self.bad_epochs = 0

    def step(self, metric: float) -> float:
        """Feed one epoch's dev metric; returns the lr for the next epoch."""
        if not math.isfinite(metric):
            raise ValueError(f"scheduler metric must be finite, got {metric!r}")
        if metric > self.best:
            self.best = metric
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
        return self.lr


class Adam:
    """Adam over a named parameter dict, with global-norm gradient clipping.

    The per-parameter update runs in the fused kernel; iteration is in
    sorted name order so the reduction order is fixed.
    """

    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, clip_norm: float = 5.0):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.clip_norm = clip_norm
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def grad_norm(self) -> float:
        total = 0.0
        for name in sorted(self.params):
            g = self.params[name].grad
            if g is not None:
                total += float(np.sum(np.square(g, dtype=np.float64)))
        return math.sqrt(total)

    def step(self):
        norm = self.grad_norm()
        scale = self.clip_norm / norm if norm > self.clip_norm else 1.0
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad if scale == 1.0 else (p.grad * p.data.dtype.type(scale))
            # flat views: the kernel is an elementwise loop; p/m/v are
            # contiguous so the in-place update lands in the originals
            kernels.adam_step(p.data.reshape(-1), np.ascontiguousarray(g).reshape(-1),
                              self.m[name].reshape(-1), self.v[name].reshape(-1),
                              self.lr, self.beta1, self.beta2, self.eps, bc1, bc2)


@dataclass
class TrainReport:
    """Per-epoch traces plus the index and path of the best checkpoint."""

    train_loss: list[float]
    dev_macro_f1: list[float]
    dev_wa: list[float]
    dev_ua: list[float]
    lr_trace: list[float]
    best_epoch: int
    best_checkpoint: str
    wall_seconds: float = 0.0
    # the best epoch's dev predictions, made during training; save() leaves them out
    best_records: list[PredictionRecord] = field(default_factory=list, repr=False)

    def as_dict(self) -> dict:
        return {"train_loss": self.train_loss, "dev_macro_f1": self.dev_macro_f1,
                "dev_wa": self.dev_wa, "dev_ua": self.dev_ua, "lr_trace": self.lr_trace,
                "best_epoch": self.best_epoch, "best_checkpoint": self.best_checkpoint,
                "wall_seconds": self.wall_seconds}

    def save(self, path):
        _atomic_write_bytes(path, (json.dumps(self.as_dict(), indent=2) + "\n").encode())


def evaluate(model: Model, dataset: list[Utterance], batch_size: int = 128,
             model_tag: str = "model") -> tuple[list[PredictionRecord], MetricBundle | None]:
    """Predict every utterance; metrics are None for unlabeled datasets."""
    if not dataset:
        raise ValueError("evaluate: empty dataset")
    records = []
    labeled = all(u.label is not None for u in dataset)
    for batch in make_batches(dataset, batch_size):
        probs = model.predict_probs(batch)
        for i, utt_id in enumerate(batch.ids):
            records.append(PredictionRecord.from_probs(utt_id, model_tag, probs[i]))
    bundle = None
    if labeled:
        truth = {u.utt_id: u.label for u in dataset}
        bundle = bundle_from_labels([truth[r.utt_id] for r in records],
                                    [r.predicted for r in records],
                                    model.config.n_classes)
    return records, bundle


def train(model: Model, train_set: list[Utterance], dev_set: list[Utterance],
          cfg: TrainConfig, checkpoint_path, log_path=None,
          model_tag: str = "model") -> TrainReport:
    """Optimize the model; keeps the checkpoint and the dev records (tagged
    ``model_tag``) of the best dev-Macro-F1 epoch.

    ``log_path`` gets one JSON line per epoch, flushed as the epoch ends.
    Raises NumericsError with epoch/batch coordinates if the loss or any
    gradient stops being finite.
    """
    if not train_set or not dev_set:
        raise ValueError("train: empty train or dev set")
    if any(u.label is None for u in train_set) or any(u.label is None for u in dev_set):
        raise ValueError("train: all utterances must be labeled")
    checkpoint_path = Path(checkpoint_path)
    started = time.monotonic()
    sched = PlateauScheduler(cfg.initial_lr, cfg.scheduler.factor, cfg.scheduler.patience)
    opt = Adam(model.parameters, lr=cfg.initial_lr, clip_norm=cfg.clip_norm)
    if log_path is not None:
        log_path = Path(log_path)
        log_path.parent.mkdir(parents=True, exist_ok=True)
        log_path.write_text("")
    report = TrainReport(train_loss=[], dev_macro_f1=[], dev_wa=[], dev_ua=[],
                         lr_trace=[], best_epoch=-1, best_checkpoint=str(checkpoint_path))
    best_f1 = -math.inf
    for epoch in range(cfg.max_epochs):
        opt.lr = sched.lr
        drop_rng = np.random.default_rng([cfg.seed, 7243, epoch])
        batches = make_batches(train_set, cfg.batch_size,
                               shuffle_seed=(cfg.seed, 104729, epoch))
        total_loss, total_n = 0.0, 0
        for bi, batch in enumerate(batches):
            model.zero_grads()
            try:
                probs = model.forward(batch, train=True, rng=drop_rng)
                loss = compute_loss(probs, batch.labels, cfg.loss)
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    raise NumericsError("loss is not finite")
                loss.backward()
            except NumericsError as e:
                raise NumericsError(f"training aborted at epoch {epoch}, batch {bi}: {e}") from e
            opt.step()
            total_loss += loss_val * batch.size
            total_n += batch.size
        del probs, loss  # the last step's graph must not live through the dev pass
        epoch_loss = total_loss / total_n
        records, bundle = evaluate(model, dev_set, cfg.batch_size, model_tag=model_tag)
        report.train_loss.append(epoch_loss)
        report.dev_macro_f1.append(bundle.macro_f1)
        report.dev_wa.append(bundle.wa)
        report.dev_ua.append(bundle.ua)
        report.lr_trace.append(opt.lr)
        if bundle.macro_f1 > best_f1:  # strict: ties keep the earliest epoch
            best_f1 = bundle.macro_f1
            report.best_epoch = epoch
            report.best_records = records
            save_checkpoint(checkpoint_path, model)
        sched.step(bundle.macro_f1)
        if log_path is not None:
            with log_path.open("a") as log:
                log.write(json.dumps({"epoch": epoch, "lr": opt.lr,
                                      "train_loss": epoch_loss,
                                      "dev_macro_f1": bundle.macro_f1,
                                      "dev_wa": bundle.wa, "dev_ua": bundle.ua}) + "\n")
    report.wall_seconds = time.monotonic() - started
    return report
