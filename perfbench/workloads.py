"""The benchmark's workloads: corpus size, ensemble members and model scale.

Every rate the benchmark reports is work completed per second at the input
size stated here; a run never changes these sizes, only the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

from emovote.experiment import ModelSpec, default_models

# The held-out seed is never used while tuning the benchmark or a change; a
# claim made on development seeds is re-checked on it with --holdout.
HOLDOUT_SEED = 104723


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    models: tuple[ModelSpec, ...]
    hidden: int
    batch_size: int
    n_train: int
    n_dev: int
    epochs: int

    @property
    def sources(self) -> tuple[str, ...]:
        """Audio sources the members read, in first-use order."""
        return tuple(dict.fromkeys(m.audio_source for m in self.models))


def _model1_as(fusion: str) -> ModelSpec:
    # model1's loss (focal, gamma 2, prior weights, whisper) under each fusion
    return ModelSpec(f"model1_{fusion}", "focal", 2.0, "prior", "whisper", fusion)


# Sizes keep one pass of a workload to 4-6 s on a 2-core host, so that a
# 40 s run holds five or more passes and their sampling rounds (see
# pipeline.ShortStageSamples). Hence batch 32 with one training step per
# epoch for wide_h512 (a batch-128 hidden-512 step takes about 6.5 s and
# 3.5 GB; with two steps a 30 s run held only 2-3 passes) and batch 64 for
# fusion_sweep; every stage still runs the same graph as at batch 128.
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ensemble_h32",
            why="7-member vote at hidden 32: per-op Python dispatch, layernorm and finite "
                "checks dominate, not BLAS",
            models=default_models(), hidden=32, batch_size=128,
            n_train=128, n_dev=128, epochs=1),
        Workload(
            name="wide_h512",
            why="one focal member at the CLI default hidden 512: matmul and its batched "
                "weight-gradient temporaries dominate time and memory",
            models=(default_models()[0],), hidden=512, batch_size=32,
            n_train=32, n_dev=32, epochs=1),
        Workload(
            name="fusion_sweep",
            why="one member per fusion kind at hidden 128: the only run of the late, "
                "tensor and low-rank fusion graphs and of Adam on a 2.1M-weight projection",
            models=tuple(_model1_as(f) for f in
                         ("early", "late", "early_plus_late", "tensor", "low_rank_tensor")),
            hidden=128, batch_size=64, n_train=64, n_dev=32, epochs=1),
    )
}
