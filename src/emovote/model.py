"""Multimodal utterance classifier built on the autodiff core.

Pipeline per modality: input MLP -> transformer stack (single-head
self-attention with padding masks) -> masked mean pooling. The pooled
embeddings then meet in one of five fusion stages:

* ``early``            concatenate embeddings, one classifier head
* ``late``             per-modality heads, average the probability vectors
* ``early_plus_late``  average the early head's and both unimodal heads' probs
* ``tensor``           flattened outer product of 1-augmented embeddings,
                       linearly projected back to the hidden size
* ``low_rank_tensor``  the same bilinear interaction factorized through
                       rank-R modality-specific projections

Every learned array lives in ``Model.parameters`` under a hierarchical name;
initialization derives one RNG stream per name, so parameters shared across
fusion variants (same name, same seed) are bit-identical.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, fields
from functools import reduce
from pathlib import Path

import numpy as np

from . import autodiff
from .autodiff import (
    NumericsError,
    ShapeError,
    Tensor,
    add,
    concat,
    div,
    dropout,
    layer_norm,
    masked_mean_pool,
    matmul,
    mul,
    relu,
    reshape,
    softmax,
    transpose_last,
    tsum,
)
from .data import Batch, _atomic_write_bytes, check_fields, config_from_dict

MAGIC = b"IMBF"
CHECKPOINT_VERSION = 1

FUSION_KINDS = ("early", "late", "early_plus_late", "tensor", "low_rank_tensor")

@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; everything the checkpoint must replay."""

    audio_dim: int
    text_dim: int
    hidden: int = 512
    n_transformer_layers: int = 2
    n_classes: int = 8
    fusion: str = "early"
    lmf_rank: int = 4
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.hidden <= 0:
            raise ValueError("hidden must be > 0")
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.fusion not in FUSION_KINDS:
            raise ValueError(f"unknown fusion {self.fusion!r}; pick one of {FUSION_KINDS}")
        if self.audio_dim < 1 or self.text_dim < 1:
            raise ValueError("feature dims must be >= 1")
        if self.n_transformer_layers < 0:
            raise ValueError("n_transformer_layers must be >= 0")
        if self.lmf_rank < 1:
            raise ValueError("lmf_rank must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return config_from_dict(cls, d, "model-config")


def _param_rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


class ParamStore:
    """Creates and tracks named parameters with per-name seeded init."""

    def __init__(self, seed: int):
        self.seed = seed
        self.params: dict[str, Tensor] = {}

    def param(self, name: str, shape: tuple[int, ...], fan_in: int | None = None,
              init: str = "kaiming") -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if init == "kaiming":
            bound = float(np.sqrt(6.0 / fan_in))
            data = _param_rng(self.seed, name).uniform(-bound, bound, shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        t = Tensor(data.astype(np.float32), requires_grad=True)
        self.params[name] = t
        return t


class MlpBlock:
    """Linear -> ReLU -> Linear (the unit the architecture calls an MLP module)."""

    def __init__(self, store: ParamStore, prefix: str, d_in: int, d_hidden: int, d_out: int):
        self.w1 = store.param(f"{prefix}.fc1.w", (d_in, d_hidden), fan_in=d_in)
        self.b1 = store.param(f"{prefix}.fc1.b", (d_hidden,), init="zeros")
        self.w2 = store.param(f"{prefix}.fc2.w", (d_hidden, d_out), fan_in=d_hidden)
        self.b2 = store.param(f"{prefix}.fc2.b", (d_out,), init="zeros")

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)


class TransformerLayer:
    """Post-norm encoder layer: masked single-head attention, then FFN."""

    def __init__(self, store: ParamStore, prefix: str, d: int):
        self.d = d
        self.wq = store.param(f"{prefix}.attn.wq", (d, d), fan_in=d)
        self.wk = store.param(f"{prefix}.attn.wk", (d, d), fan_in=d)
        self.wv = store.param(f"{prefix}.attn.wv", (d, d), fan_in=d)
        self.wo = store.param(f"{prefix}.attn.wo", (d, d), fan_in=d)
        self.bq = store.param(f"{prefix}.attn.bq", (d,), init="zeros")
        self.bk = store.param(f"{prefix}.attn.bk", (d,), init="zeros")
        self.bv = store.param(f"{prefix}.attn.bv", (d,), init="zeros")
        self.bo = store.param(f"{prefix}.attn.bo", (d,), init="zeros")
        self.ln1_gain = store.param(f"{prefix}.ln1.gain", (d,), init="ones")
        self.ln1_bias = store.param(f"{prefix}.ln1.bias", (d,), init="zeros")
        self.ffn = MlpBlock(store, f"{prefix}.ffn", d, 2 * d, d)
        self.ln2_gain = store.param(f"{prefix}.ln2.gain", (d,), init="ones")
        self.ln2_bias = store.param(f"{prefix}.ln2.bias", (d,), init="zeros")

    def __call__(self, x: Tensor, mask: np.ndarray, drop: float = 0.0,
                 rng: np.random.Generator | None = None,
                 attn_out: list | None = None) -> Tensor:
        # x: [B, T, d]; mask: [B, T] with 1 at valid positions
        if mask.shape != x.shape[:2]:
            raise ShapeError(f"mask shape {mask.shape} does not match sequence {x.shape[:2]}")
        q = add(matmul(x, self.wq), self.bq)
        k = add(matmul(x, self.wk), self.bk)
        v = add(matmul(x, self.wv), self.bv)
        scores = mul(matmul(q, transpose_last(k)), 1.0 / np.sqrt(self.d))
        # additive mask: -1e9 drives masked keys' weights to exactly 0 (exp underflow)
        key_bias = ((1.0 - mask) * -1e9).astype(np.float32)[:, None, :]
        weights = softmax(add(scores, Tensor(key_bias)))
        if attn_out is not None:
            attn_out.append(weights.data)
        ctx = add(matmul(matmul(weights, v), self.wo), self.bo)
        if drop > 0.0:
            ctx = dropout(ctx, drop, rng)
        x = layer_norm(add(x, ctx), self.ln1_gain, self.ln1_bias)
        ff = self.ffn(x)
        if drop > 0.0:
            ff = dropout(ff, drop, rng)
        return layer_norm(add(x, ff), self.ln2_gain, self.ln2_bias)


# ---------------------------------------------------------------------------
# fusion operations
# ---------------------------------------------------------------------------

def _augment_ones(h: Tensor) -> Tensor:
    ones = Tensor(np.ones(h.shape[:-1] + (1,), dtype=h.data.dtype))
    return concat([h, ones], axis=-1)


def fuse_early(h_audio: Tensor, h_text: Tensor) -> Tensor:
    """Concatenate pooled embeddings, audio first."""
    return concat([h_audio, h_text], axis=-1)


def fuse_late(p_audio: Tensor, p_text: Tensor) -> Tensor:
    """Mean of two probability vectors, renormalized against float drift."""
    if p_audio.shape[-1] != p_text.shape[-1]:
        raise ShapeError(f"late fusion needs equal lengths, got {p_audio.shape} vs {p_text.shape}")
    return _mean_probs([p_audio, p_text])


def _mean_probs(prob_list: list[Tensor]) -> Tensor:
    mean = mul(reduce(add, prob_list), 1.0 / len(prob_list))
    return div(mean, tsum(mean, axis=-1, keepdims=True))


def fuse_tensor(h_audio: Tensor, h_text: Tensor) -> Tensor:
    """Flattened outer product of the 1-augmented embeddings.

    Output length (d_a + 1) * (d_t + 1); the trailing entry is the product of
    the two augmentation constants, i.e. always 1.
    """
    za = _augment_ones(h_audio)
    zt = _augment_ones(h_text)
    a_col = reshape(za, za.shape + (1,))
    t_row = reshape(zt, zt.shape[:-1] + (1, zt.shape[-1]))
    outer = mul(a_col, t_row)
    return reshape(outer, outer.shape[:-2] + (outer.shape[-2] * outer.shape[-1],))


def fuse_low_rank(h_audio: Tensor, h_text: Tensor, audio_factors: Tensor,
                  text_factors: Tensor, bias: Tensor, rank: int) -> Tensor:
    """Rank-R factorized bilinear fusion.

    out = sum_r (W_a^(r) [h_a; 1]) * (W_t^(r) [h_t; 1]) + bias, with the R
    factor matrices packed column-wise: audio_factors is [(d_a+1), R*k], h_audio
    is [B, d_a]. Parameter count is linear in R, unlike the full outer-product tensor.
    """
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if audio_factors.shape[1] != text_factors.shape[1] or audio_factors.shape[1] % rank:
        raise ShapeError(f"factor widths must agree and divide by rank {rank}: "
                         f"{audio_factors.shape} vs {text_factors.shape}")
    k = audio_factors.shape[1] // rank
    za = _augment_ones(h_audio)
    zt = _augment_ones(h_text)
    prod = mul(matmul(za, audio_factors), matmul(zt, text_factors))  # [B, R*k]
    grouped = reshape(prod, prod.shape[:-1] + (rank, k))
    return add(tsum(grouped, axis=-2), bias)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class ClassifierHead:
    """Two stacked MLP modules; the second one emits class logits."""

    def __init__(self, store: ParamStore, prefix: str, d_in: int, hidden: int, n_classes: int):
        self.m1 = MlpBlock(store, f"{prefix}.m1", d_in, hidden, hidden)
        self.m2 = MlpBlock(store, f"{prefix}.m2", hidden, hidden, n_classes)

    def __call__(self, x: Tensor) -> Tensor:
        return self.m2(self.m1(x))


class Model:
    """Two modality encoders, a fusion stage, and classifier head(s)."""

    def __init__(self, config: ModelConfig):
        self.config = config
        store = ParamStore(config.seed)
        h = config.hidden
        self.audio_mlp = MlpBlock(store, "audio_mlp", config.audio_dim, h, h)
        self.text_mlp = MlpBlock(store, "text_mlp", config.text_dim, h, h)
        self.audio_enc = [TransformerLayer(store, f"audio_enc.{i}", h)
                          for i in range(config.n_transformer_layers)]
        self.text_enc = [TransformerLayer(store, f"text_enc.{i}", h)
                         for i in range(config.n_transformer_layers)]

        kind = config.fusion
        self.fused_head = None
        self.audio_head = None
        self.text_head = None
        self.fuse_proj_w = None
        if kind in ("early", "early_plus_late"):
            self.fused_head = ClassifierHead(store, "head", 2 * h, h, config.n_classes)
        elif kind == "tensor":
            self.fuse_proj_w = store.param("fuse_proj.w", ((h + 1) * (h + 1), h),
                                           fan_in=(h + 1) * (h + 1))
            self.fuse_proj_b = store.param("fuse_proj.b", (h,), init="zeros")
            self.fused_head = ClassifierHead(store, "head", h, h, config.n_classes)
        elif kind == "low_rank_tensor":
            self.lmf_audio = store.param("lmf.audio_factors", (h + 1, config.lmf_rank * h),
                                         fan_in=h + 1)
            self.lmf_text = store.param("lmf.text_factors", (h + 1, config.lmf_rank * h),
                                        fan_in=h + 1)
            self.lmf_bias = store.param("lmf.bias", (h,), init="zeros")
            self.fused_head = ClassifierHead(store, "head", h, h, config.n_classes)
        if kind in ("late", "early_plus_late"):
            self.audio_head = ClassifierHead(store, "audio_head", h, h, config.n_classes)
            self.text_head = ClassifierHead(store, "text_head", h, h, config.n_classes)
        self.parameters = store.params

    @property
    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters.values())

    def _encode(self, x: np.ndarray, mask: np.ndarray, modality: str, train: bool,
                rng, trace: dict | None) -> Tensor:
        mlp = self.audio_mlp if modality == "audio" else self.text_mlp
        enc = self.audio_enc if modality == "audio" else self.text_enc
        drop = self.config.dropout if train else 0.0
        hseq = mlp(Tensor(x))
        for i, layer in enumerate(enc):
            attn_sink = [] if trace is not None else None
            hseq = layer(hseq, mask, drop=drop, rng=rng, attn_out=attn_sink)
            if trace is not None:
                trace[f"{modality}_enc.{i}"] = attn_sink[0]
        return masked_mean_pool(hseq, mask)

    def forward(self, batch: Batch, train: bool = False,
                rng: np.random.Generator | None = None,
                trace: dict | None = None) -> Tensor:
        """Class probabilities, [batch, n_classes]; rows lie on the simplex."""
        cfg = self.config
        if batch.audio.shape[2] != cfg.audio_dim:
            raise ShapeError(f"audio feature dim {batch.audio.shape[2]} does not match "
                             f"configured {cfg.audio_dim}")
        if batch.text.shape[2] != cfg.text_dim:
            raise ShapeError(f"text feature dim {batch.text.shape[2]} does not match "
                             f"configured {cfg.text_dim}")
        if train and cfg.dropout > 0.0 and rng is None:
            raise ValueError("training forward with dropout needs an RNG")
        h_a = self._encode(batch.audio, batch.audio_mask, "audio", train, rng, trace)
        h_t = self._encode(batch.text, batch.text_mask, "text", train, rng, trace)

        kind = cfg.fusion
        if kind == "early":
            return softmax(self.fused_head(fuse_early(h_a, h_t)))
        if kind == "late":
            return fuse_late(softmax(self.audio_head(h_a)),
                             softmax(self.text_head(h_t)))
        if kind == "early_plus_late":
            return _mean_probs([softmax(self.fused_head(fuse_early(h_a, h_t))),
                                softmax(self.audio_head(h_a)),
                                softmax(self.text_head(h_t))])
        if kind == "tensor":
            z = fuse_tensor(h_a, h_t)
            proj = add(matmul(z, self.fuse_proj_w), self.fuse_proj_b)
            return softmax(self.fused_head(proj))
        # low_rank_tensor
        z = fuse_low_rank(h_a, h_t, self.lmf_audio, self.lmf_text,
                          self.lmf_bias, cfg.lmf_rank)
        return softmax(self.fused_head(z))

    def predict_probs(self, batch: Batch) -> np.ndarray:
        """Eval-mode class probabilities as an array, [batch, n_classes].

        The forward runs without per-op finite checks and its output is checked
        once; a non-finite batch is run again with per-op checks, so that the
        NumericsError names the op.
        """
        with autodiff._unchecked():
            probs = self.forward(batch).data
        try:
            autodiff._check_finite(probs, "predict_probs")
        except NumericsError:
            self.forward(batch)
            raise
        return probs

    def zero_grads(self):
        for t in self.parameters.values():
            t.grad = None


# ---------------------------------------------------------------------------
# checkpoint persistence
# ---------------------------------------------------------------------------

def save_checkpoint(path, model: Model):
    """Single-file binary checkpoint: config header plus named float32 tensors."""
    cfg_blob = json.dumps(model.config.to_dict(), sort_keys=True).encode()
    parts = [MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(cfg_blob)), cfg_blob,
             struct.pack("<I", len(model.parameters))]
    for name in sorted(model.parameters):
        data = np.ascontiguousarray(model.parameters[name].data, dtype="<f4")
        name_b = name.encode()
        parts.append(struct.pack("<I", len(name_b)))
        parts.append(name_b)
        parts.append(struct.pack("<I", data.ndim))
        parts.append(struct.pack(f"<{data.ndim}I", *data.shape))
        parts.append(data.tobytes())
    _atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> Model:
    """Rebuild a Model from a checkpoint file, bit-exact."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic {raw[:4]!r})")
    off = 4

    def take(n: int) -> memoryview:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
        off += n
        return memoryview(raw)[off - n:off]

    version, cfg_len = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        cfg_dict = json.loads(bytes(take(cfg_len)).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"{path}: not a model checkpoint (config header unreadable)") from e
    try:
        config = ModelConfig.from_dict(cfg_dict)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad checkpoint config: {e}") from e
    (n_tensors,) = struct.unpack("<I", take(4))
    model = Model(config)
    seen = set()
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4))
        name = bytes(take(name_len)).decode(errors="replace")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        count = int(np.prod(shape, dtype=np.int64)) if rank else 1
        data = np.frombuffer(take(4 * count), dtype="<f4").reshape(shape).copy()
        if name not in model.parameters:
            raise ValueError(f"{path}: checkpoint tensor {name!r} not in model built "
                             f"from its own config")
        if model.parameters[name].shape != tuple(shape):
            raise ValueError(f"{path}: tensor {name!r} shape {tuple(shape)} does not match "
                             f"model shape {model.parameters[name].shape}")
        model.parameters[name].data = data
        seen.add(name)
    missing = set(model.parameters) - seen
    if missing:
        raise ValueError(f"{path}: checkpoint missing tensors: {sorted(missing)}")
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes after last tensor")
    return model
