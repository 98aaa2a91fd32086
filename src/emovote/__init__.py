"""From-scratch training and evaluation stack for imbalanced 8-class
multimodal (audio + text) emotion classification: a small reverse-mode
autodiff core, a single-head transformer classifier with five fusion
strategies, focal/cross-entropy losses with class weighting, majority-vote
ensembling, classification and transcript metrics, and a synthetic
imbalanced-corpus generator, bound together by a config-driven CLI.
"""

from .autodiff import (
    EmptySequenceError,
    NumericsError,
    ShapeError,
    Tensor,
    grad_check,
)
from .data import (
    Batch,
    DEFAULT_CLASS_NAMES,
    ManifestEntry,
    SyntheticSpec,
    Utterance,
    count_table,
    generate_synthetic,
    load_manifest,
    load_utterances,
    make_batches,
    read_features,
    write_features,
    write_manifest,
)
from .ensemble import (
    GainReport,
    PredictionRecord,
    VoteOutcome,
    ensemble_gain_report,
    majority_vote,
    probability_average_vote,
    read_records,
    write_records,
)
from .experiment import (
    AUDIO_SOURCES,
    ExperimentConfig,
    ModelSpec,
    default_models,
    load_experiment_config,
    run_model,
)
from .losses import (
    LossConfig,
    ce_loss,
    compute_loss,
    focal_loss,
    prior_weights,
    uniform_weights,
)
from .metrics import (
    MetricBundle,
    bleu,
    bundle_from_cm,
    bundle_from_labels,
    confusion_matrix,
    corpus_wer,
    gleu,
    macro_f1,
    tokenize,
    wa_ua,
    wer,
)
from .model import (
    FUSION_KINDS,
    Model,
    ModelConfig,
    fuse_early,
    fuse_late,
    fuse_low_rank,
    fuse_tensor,
    load_checkpoint,
    save_checkpoint,
)
from .training import (
    Adam,
    PlateauScheduler,
    SchedulerConfig,
    TrainConfig,
    TrainReport,
    evaluate,
    train,
)

__version__ = "0.1.0"
