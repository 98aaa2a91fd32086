"""Turn measured passes into named metrics with units.

End-to-end metrics come from untraced passes; per-layer metrics from
traced ones. Every per-layer ``_ms`` value is a total per pipeline pass
(one gen-data -> text-metrics pass at the workload's fixed size, every
stage run once) unless its name says ``per_step``; values from several
passes are reduced by median.
Layer times are *self* times (nested spans excluded) so they add up, except
the ``model.*`` component times and ``training.*`` phase times, which are
inclusive and say where a step's time goes.
"""

from __future__ import annotations

import statistics

from .pipeline import PassResult, ShortStageSamples
from .workloads import Workload

MB = 2 ** 20

# ops whose forward and backward times are reported on every workload
OPS = ("matmul", "add", "mul", "relu", "layer_norm", "softmax", "concat", "transpose_last",
       "sum", "div", "gather_rows", "clamp_min", "log", "neg", "sub", "pow_const", "mean")
# forward-only: composite helpers without a node (hence no backward) of their own
EXTRA_FWD_OPS = ("reshape", "masked_mean_pool")
# kept out of the one-line result because they are absent or always 0 on some
# workload: early fusion never reshapes, and p90 needs >= 100 steps
NOT_ON_EVERY_WORKLOAD = ("autodiff.fwd_ms.reshape", "training.step_ms_p90")
KERNEL_SPANS = ("layernorm_fwd", "layernorm_bwd", "softmax_fwd", "softmax_bwd", "adam_step",
                "levenshtein")

END_TO_END_UNITS = {
    "setup_s": "s", "train_utt_per_s": "utt/s", "eval_utt_per_s": "utt/s", "vote_s": "s",
    "text_metrics_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB",
}


def end_to_end(w: Workload, its: list[PassResult], samples: ShortStageSamples,
               peak_rss_mb: float) -> dict[str, float]:
    """End-to-end metrics over the passes of one run.

    On a shared host the speed of the same code flips between a fast mode
    and one 1.5-2x slower (a pure-Python probe loop alternates between about
    15 and 21-35 ms), for spells of a tenth of a second to over a minute. So
    every timing is a median over many short samples: ``vote_s`` and
    ``text_metrics_s`` come from the sampling rounds (see
    ``pipeline.ShortStageSamples``); train and eval time is the sum over
    models of each model's median time over the passes; ``setup_s`` and
    ``pipeline_s`` (the sum of a pass's stage times) are medians over the
    passes.
    """
    st = [it.stage_s for it in its]

    def summed_medians(stage: str) -> float:
        return sum(statistics.median(it.model_s[f"{stage}/{m.tag}"] for it in its)
                   for m in w.models)

    return {
        "setup_s": statistics.median(s["gen_data"] for s in st),
        "train_utt_per_s": len(w.models) * w.epochs * w.n_train / summed_medians("train"),
        "eval_utt_per_s": len(w.models) * w.n_dev / summed_medians("eval"),
        "vote_s": samples.vote_s(),
        "text_metrics_s": samples.text_metrics_s(),
        "pipeline_s": statistics.median(sum(s.values()) for s in st),
        "peak_rss_mb": peak_rss_mb,
    }


def _pass_metrics(it: PassResult) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    tr = it.trace
    tot, counts, step_ms = tr["totals"], tr["counts"], tr["step_ms"]

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return 1e3 * tot.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * tot.get(name, (0, 0.0, 0.0))[2]

    steps = len(step_ms)
    m = {
        "data.generate_s": incl("data.generate") / 1e3,
        "data.files_written": calls("data.write_file"),
        "data.read_features_ms": self_ms("data.read_features"),
        "data.read_features.calls": calls("data.read_features"),
        "data.make_batches_ms": self_ms("data.make_batches"),
        "data.pad_frac": 1.0 - counts["data.valid_positions"] / counts["data.positions"],
    }
    for op in OPS + EXTRA_FWD_OPS:
        m[f"autodiff.fwd_ms.{op}"] = self_ms(f"autodiff.fwd.{op}")
    for op in OPS:
        m[f"autodiff.bwd_ms.{op}"] = self_ms(f"autodiff.bwd.{op}")
    m.update({
        "autodiff.backward_self_ms": self_ms("autodiff.backward"),
        "autodiff.finite_check_ms": self_ms("autodiff.finite_check"),
        "autodiff.finite_check.calls_per_step": counts["autodiff.step_finite_checks"] / steps,
        "autodiff.nodes_per_step": counts["autodiff.step_nodes"] / steps,
        "autodiff.out_mb_per_step": counts["autodiff.step_out_bytes"] / steps / MB,
    })
    for k in KERNEL_SPANS:
        m[f"kernels.{k}_ms"] = self_ms(f"kernels.{k}")
    forward = incl("training.forward") + incl("model.forward")
    m.update({
        "model.input_mlp_ms": incl("model.input_mlp"),
        "model.encoder_ms": incl("model.encoder"),
        "model.head_ms": incl("model.head"),
        # the forward pass minus encoders and heads: fusion ops and output softmax
        "model.fusion_ms": forward - incl("model.encode") - incl("model.head"),
        "model.init_param_ms": incl("model.init_param"),
        "model.param_count": it.param_count,
        "model.param_mb": 4 * it.param_count / MB,
        "model.save_checkpoint_ms": incl("model.save_checkpoint"),
        "model.load_checkpoint_ms": incl("model.load_checkpoint"),
        "losses.compute_loss_ms": incl("losses.compute_loss"),
        "training.steps": steps,
        "training.step_ms_p50": statistics.median(step_ms),
        "training.forward_ms": incl("training.forward"),
        "training.backward_ms": incl("autodiff.backward"),
        "training.optimizer_ms": incl("training.optimizer"),
        "training.grad_norm_ms": incl("training.grad_norm"),
        "training.dev_eval_ms": incl("training.dev_eval"),
        "training.loop_self_ms": self_ms("training.train"),
        "experiment.run_model_self_ms": self_ms("experiment.run_model"),
        "ensemble.read_records_ms": incl("ensemble.read_records"),
        "ensemble.write_records_ms": incl("ensemble.write_records"),
        "ensemble.vote_ms": incl("ensemble.vote"),
        "ensemble.report_ms": incl("ensemble.report"),
        "ensemble.tie_rate": it.tie_rate,
        "metrics.tokenize_ms": incl("metrics.tokenize"),
        "metrics.corpus_wer_ms": incl("metrics.corpus_wer"),
        "metrics.bleu_ms": incl("metrics.bleu"),
        "metrics.gleu_ms": incl("metrics.gleu"),
        "metrics.bundle_ms": incl("metrics.bundle"),
    })
    stage_wall = sum(v[1] for k, v in tot.items() if k.startswith("stage."))
    stage_self = sum(v[2] for k, v in tot.items() if k.startswith("stage."))
    m["trace.attributed_frac"] = 1.0 - stage_self / stage_wall
    if steps >= 100:  # a percentile needs ten samples beyond it
        m["training.step_ms_p90"] = statistics.quantiles(step_ms, n=10)[-1]
    return m


def per_layer(traced: list[PassResult], untraced: list[PassResult],
              kernel_ms: dict[str, float]) -> dict[str, float]:
    passes = [_pass_metrics(it) for it in traced]
    out = {k: statistics.median([p[k] for p in passes])
           for k in passes[0] if all(k in p for p in passes)}
    for k, v in kernel_ms.items():
        out[f"kernels.micro.{k}_ms"] = v
    split = dict(step_split(traced))
    steps = sum(len(it.trace["step_ms"]) for it in traced)
    step_ms = sum(sum(it.trace["step_ms"]) for it in traced) / steps
    overhead = (split.get("kernels.layernorm_fwd", 0.0) + split.get("kernels.layernorm_bwd", 0.0)
                + split.get("autodiff.finite_check", 0.0) + split.get("autodiff.backward", 0.0))
    out["training.step_share.matmul"] = (split.get("autodiff.fwd.matmul", 0.0)
                                         + split.get("autodiff.bwd.matmul", 0.0)) / step_ms
    # layernorm kernels, finite checks and the backward sweep's own time
    out["training.step_share.ln_finite_sweep"] = overhead / step_ms
    traced_s = min(sum(it.stage_s.values()) for it in traced)
    plain_s = min(sum(it.stage_s.values()) for it in untraced)
    out["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return out


def step_split(traced: list[PassResult]) -> list[tuple[str, float]]:
    """Self ms per training step by span, largest first, over all traced passes."""
    steps = sum(len(it.trace["step_ms"]) for it in traced)
    acc: dict[str, float] = {}
    for it in traced:
        for name, (_, _, self_s) in it.trace["step"].items():
            acc[name] = acc.get(name, 0.0) + 1e3 * self_s / steps
    return sorted(acc.items(), key=lambda kv: -kv[1])


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", "_p50", "_p90")) or "_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_mb", "_mb_per_step")):
        return "MB"
    if name.endswith(("_frac", "_rate")) or ".step_share." in name:
        return "fraction"
    return "count"
