"""Spans around calls into each emovote layer, installed from outside the package.

Nothing under ``src/`` knows about tracing. :meth:`Tracer.install` replaces
module attributes (``emovote.kernels.layernorm_fwd``, the op names bound in
``emovote.model`` and ``emovote.losses``, ...) and class attributes
(``Model.forward``, ``Adam.step``, ...) with wrappers that record a span, and
wraps each graph node's backward closure as ``Tensor.from_op`` creates it.
Patching works because the package looks these names up at call time.
:meth:`Tracer.uninstall` restores every original.

A span's *self* time is its duration minus the time covered by spans opened
inside it, so self times add up to the traced wall time without overlap.
Totals are kept in memory per span name as ``[calls, inclusive_s, self_s]``.
Spans opened inside a training step (from the train-mode forward to the end
of ``Adam.step``) are also summed into a separate per-step table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from emovote import autodiff, data, ensemble, experiment, kernels, losses, metrics, model, training

# forward ops (and composite helpers) bound by name in each module
_AUTODIFF_OPS = ("add", "sub", "mul", "div", "neg", "relu", "log", "pow_const", "clamp_min",
                 "matmul", "reshape", "transpose_last", "concat", "gather_rows", "tsum",
                 "tmean", "softmax", "layer_norm", "masked_mean_pool")
_MODEL_OPS = ("add", "concat", "div", "layer_norm", "masked_mean_pool", "matmul", "mul", "relu",
              "reshape", "softmax", "transpose_last", "tsum")
_LOSS_OPS = ("clamp_min", "gather_rows", "log", "mul", "neg", "pow_const", "tmean")
# function name -> the op label its node carries (Tensor.op)
_OP_LABEL = {"tsum": "sum", "tmean": "mean"}
KERNELS = ("softmax_fwd", "softmax_bwd", "layernorm_fwd", "layernorm_bwd", "adam_step",
           "levenshtein")


def op_label(op: str) -> str:
    """Metric-safe op name: ``pow[2.0]`` -> ``pow_const``."""
    return "pow_const" if op.startswith("pow[") else op


def merge_totals(tables) -> dict[str, list]:
    out: dict[str, list] = {}
    for table in tables:
        for name, rec in table.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
    return out


def merge_snapshots(snaps: list[dict]) -> dict:
    counts: dict[str, float] = {}
    for s in snaps:
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {"totals": merge_totals(s["totals"] for s in snaps),
            "step": merge_totals(s["step"] for s in snaps),
            "counts": counts, "step_ms": [x for s in snaps for x in s["step_ms"]]}


class Tracer:
    """Span recorder; wrappers read ``self.cur`` so steps can be split out."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child_seconds]
        self.other: dict[str, list] = {}
        self.step: dict[str, list] = {}
        self.cur = self.other
        self.counts: dict[str, float] = {}
        self.step_ms: list[float] = []
        self.step_start: float | None = None
        self.step_nodes = 0
        self.step_bytes = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _close(self, frame):
        end = time.perf_counter()
        dur = end - frame[1]
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][2] += dur
        rec = self.cur.get(frame[0])
        if rec is None:
            rec = self.cur[frame[0]] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[2]

    @contextmanager
    def span(self, name: str):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name, fn):
        """Wrap fn in a span; name may be a callable(parent_name) -> str."""
        stack = self.stack
        close = self._close
        clock = time.perf_counter
        fixed = None if callable(name) else name

        def traced(*args, **kwargs):
            span_name = fixed or name(stack[-1][0] if stack else None)
            frame = [span_name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame)

        traced.__wrapped__ = fn
        return traced

    def count(self, key: str, n: float = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def snapshot(self) -> dict:
        """Totals since the last snapshot, then reset them."""
        snap = {"totals": merge_totals([self.step, self.other]),
                "step": merge_totals([self.step]),
                "counts": dict(self.counts), "step_ms": list(self.step_ms)}
        self.other.clear()
        self.step.clear()
        self.counts.clear()
        self.step_ms.clear()
        return snap

    # -- step boundaries -----------------------------------------------------

    def _begin_step(self):
        self.step_start = time.perf_counter()
        self.step_nodes = 0
        self.step_bytes = 0
        self.cur = self.step

    def _end_step(self):
        self.step_ms.append(1e3 * (time.perf_counter() - self.step_start))
        self.count("autodiff.step_nodes", self.step_nodes)
        self.count("autodiff.step_out_bytes", self.step_bytes)
        self.step_start = None
        self.cur = self.other

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap_attr(self, owner, attr: str, name):
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        w = self._wrap_attr
        for name in KERNELS:
            w(kernels, name, f"kernels.{name}")
        self._install_autodiff()
        # data
        w(data, "generate_synthetic", "data.generate")
        w(data, "_atomic_write_bytes", "data.write_file")
        w(data, "read_features", "data.read_features")
        for mod in (data, experiment):
            w(mod, "load_manifest", "data.load_manifest")
            w(mod, "load_utterances", "data.load_utterances")
        self._install_make_batches()
        # model
        w(model.Model, "_encode", "model.encode")
        w(model.TransformerLayer, "__call__", "model.encoder")
        w(model.MlpBlock, "__call__",
          lambda parent: "model.input_mlp" if parent == "model.encode" else "model.mlp")
        w(model.ClassifierHead, "__call__", "model.head")
        w(model.ParamStore, "param", "model.init_param")
        w(training, "save_checkpoint", "model.save_checkpoint")
        for mod in (model, experiment):
            w(mod, "load_checkpoint", "model.load_checkpoint")
        self._install_forward()
        # losses
        w(training, "compute_loss", "losses.compute_loss")
        # training
        w(experiment, "train", "training.train")
        w(training.Adam, "grad_norm", "training.grad_norm")
        self._install_adam_step()
        w(autodiff.Tensor, "backward", "autodiff.backward")
        for mod in (training, experiment):
            w(mod, "evaluate", lambda parent: ("training.dev_eval" if parent == "training.train"
                                               else "training.evaluate"))
        # experiment
        w(experiment, "run_model", "experiment.run_model")
        # ensemble
        for mod in (ensemble, experiment):
            w(mod, "write_records", "ensemble.write_records")
        w(ensemble, "read_records", "ensemble.read_records")
        w(ensemble, "majority_vote", "ensemble.vote")
        w(ensemble, "ensemble_gain_report", "ensemble.report")
        # metrics
        for mod in (training, ensemble):
            w(mod, "bundle_from_labels", "metrics.bundle")
        for name in ("tokenize", "corpus_wer", "bleu", "gleu"):
            w(metrics, name, f"metrics.{name}")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.cur = self.other
        self.step_start = None

    def _install_autodiff(self):
        tracer = self
        for mod, names in ((autodiff, _AUTODIFF_OPS), (model, _MODEL_OPS), (losses, _LOSS_OPS)):
            for fn_name in names:
                label = _OP_LABEL.get(fn_name, fn_name)
                self._wrap_attr(mod, fn_name, f"autodiff.fwd.{label}")

        check = autodiff._check_finite
        traced_check = self.wrap("autodiff.finite_check", check)

        def check_finite(arr, op):
            if tracer.step_start is not None:
                tracer.count("autodiff.step_finite_checks")
            traced_check(arr, op)

        self._patch(autodiff, "_check_finite", check_finite)

        from_op = autodiff.Tensor.__dict__["from_op"].__func__
        bwd_names: dict[str, str] = {}

        def traced_from_op(cls, data_, parents, backward, op):
            name = bwd_names.get(op)
            if name is None:
                name = bwd_names[op] = f"autodiff.bwd.{op_label(op)}"
            if backward is not None:
                backward = tracer.wrap(name, backward)
            if tracer.step_start is not None:
                tracer.step_nodes += 1
                tracer.step_bytes += data_.nbytes
            return from_op(cls, data_, parents, backward, op)

        self._patch(autodiff.Tensor, "from_op", classmethod(traced_from_op))

    def _install_forward(self):
        tracer = self
        forward = model.Model.forward
        traced_train = self.wrap("training.forward", forward)
        traced_eval = self.wrap("model.forward", forward)

        def traced_forward(self_, batch, train=False, rng=None, trace=None):
            if train:
                tracer._begin_step()
                return traced_train(self_, batch, train=train, rng=rng, trace=trace)
            return traced_eval(self_, batch, train=train, rng=rng, trace=trace)

        self._patch(model.Model, "forward", traced_forward)

    def _install_adam_step(self):
        tracer = self
        traced = self.wrap("training.optimizer", training.Adam.step)

        def traced_step(self_):
            try:
                traced(self_)
            finally:
                if tracer.step_start is not None:
                    tracer._end_step()

        self._patch(training.Adam, "step", traced_step)

    def _install_make_batches(self):
        tracer = self
        traced = self.wrap("data.make_batches", training.make_batches)

        def make_batches(utterances, batch_size, shuffle_seed=None):
            batches = traced(utterances, batch_size, shuffle_seed=shuffle_seed)
            if shuffle_seed is not None:  # training batches only
                for b in batches:
                    for mask in (b.audio_mask, b.text_mask):
                        tracer.count("data.positions", mask.size)
                        tracer.count("data.valid_positions", int(np.count_nonzero(mask)))
            return batches

        self._patch(training, "make_batches", make_batches)
