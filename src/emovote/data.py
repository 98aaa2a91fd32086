"""Feature ingestion, manifests, batching, and the synthetic corpus generator.

File formats (language-neutral, no framework dependency):

* Feature file, one per utterance per modality: magic ``IMBF``, u32 version,
  u32 frame count T, u32 feature dim d, then T*d little-endian float32.
* Manifest: UTF-8 text, one record per line, tab-separated
  ``id<TAB>label<TAB>audio-path<TAB>text-path``; ``#`` starts a comment;
  paths are relative to the manifest's directory; label ``-`` means
  unlabeled (inference-only).

The synthetic generator produces class-conditional Gaussian frame sequences
(one mean per class and modality, unit noise per frame) with a configurable
imbalanced class distribution, defaulting to the heavily skewed 8-class
distribution this project targets. Each modality's means can be made
informative for only a subset of classes (``complementarity``), so that
fusing both modalities measurably beats either one alone.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import tempfile
import typing
import zlib
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

MAGIC = b"IMBF"
FORMAT_VERSION = 1

DEFAULT_CLASS_NAMES = (
    "Neutral", "Happy", "Angry", "Sad", "Disgust", "Contempt", "Surprise", "Fear",
)

# Default full-scale class counts of the corpus the generator mirrors; only
# their proportions matter here.
DEFAULT_TRAIN_COUNTS = (25016, 13440, 3053, 3882, 1426, 2443, 2897, 1139)
DEFAULT_DEV_COUNTS = (5667, 3340, 2413, 1101, 486, 1323, 729, 282)


def _proportions(counts) -> tuple[float, ...]:
    arr = np.asarray(counts, dtype=np.float64)
    return tuple((arr / arr.sum()).tolist())


# Removed config fields that older files still carry, per config class:
# field -> (the only value that loads, why no other value can)
_LEGACY_FIELDS = {
    "ModelConfig": {"n_heads": (1, "attention is single-head"),
                    "positional_encoding": (False, "the encoders use no position table"),
                    "unimodal_branches": (True, "early_plus_late always has unimodal heads")},
    "ExperimentConfig": {"n_classes": (len(DEFAULT_CLASS_NAMES), "manifests hold 8 classes")},
    "SyntheticSpec": {"class_names": (DEFAULT_CLASS_NAMES, "manifests use the default names")},
}

# annotation -> (the value types it accepts, its name in errors); a bool is never one
_TYPES = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer), "a number"), str: (str, "a string")}


def _check_value(name: str, value, kind):
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, tuple):
            raise TypeError(f"{name} must be a list (a tuple in code), got {value!r}")
        for i, item in enumerate(value):
            _check_value(f"{name}[{i}]", item, typing.get_args(kind)[0])
    else:
        accepts, noun = _TYPES.get(kind, (kind, f"a {kind.__name__}"))
        if isinstance(value, bool) or not isinstance(value, accepts):
            raise TypeError(f"{name} must be {noun}, got {value!r}")
        # NaN passes every range check and inf most; neither is a usable setting
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_fields(cfg):
    """Refuse a config field whose value does not have its annotated type, and a
    float field that is not finite."""
    for name, kind in typing.get_type_hints(type(cfg)).items():
        _check_value(name, getattr(cfg, name), kind)


def _from_file(name: str, value, kind):
    """A file's value as field ``name`` of type ``kind`` takes it: a list as a
    tuple, an int as a float. An entry that builds a config is named in errors by
    its index and, when it has one, its tag."""
    if typing.get_origin(kind) is tuple and isinstance(value, list):
        item = typing.get_args(kind)[0]
        if not is_dataclass(item):
            return tuple(value)
        return tuple(_entry_from_dict(f"{name}[{i}]", item, v) for i, v in enumerate(value))
    return float(value) if kind is float and type(value) is int else value


def _entry_from_dict(where: str, cls, d):
    try:
        return cls.from_dict(d)
    except (TypeError, ValueError) as e:
        tag = d.get("tag") if isinstance(d, dict) else None
        msg = str(e)
        if isinstance(tag, str):
            where = f"{where} ({tag})"
            msg = msg.removeprefix(f"{tag}: ")  # the entry's own checks lead with its tag
        raise type(e)(f"{where}: {msg}") from e


def config_from_dict(cls, d: dict, noun: str):
    """Build config class ``cls`` from a file's mapping; ``noun`` names it in errors."""
    d = dict(d)
    for key, (value, reason) in _LEGACY_FIELDS.get(cls.__name__, {}).items():
        # compared as JSON, so that true is not 1 and a list equals a tuple
        if key in d and json.dumps(d.pop(key), default=repr) != json.dumps(value):
            raise ValueError(f"{key} must be {json.dumps(value)} ({reason})")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {noun} fields: {sorted(unknown)}")
    types = typing.get_type_hints(cls)
    return cls(**{key: _from_file(key, value, types[key]) for key, value in d.items()})


def _child_rng(seed: int, *keys) -> np.random.Generator:
    """Deterministic sub-stream RNG; string keys hash via crc32."""
    ints = [int(seed)]
    for k in keys:
        ints.append(zlib.crc32(k.encode()) if isinstance(k, str) else int(k))
    return np.random.default_rng(ints)


# ---------------------------------------------------------------------------
# feature files
# ---------------------------------------------------------------------------

def write_features(path, frames: np.ndarray):
    """Write a [T, d] float32 feature array in the binary container format."""
    frames = np.ascontiguousarray(frames, dtype="<f4")
    if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
        raise ValueError(f"feature array must be [T>=1, d>=1], got shape {frames.shape}")
    header = MAGIC + struct.pack("<III", FORMAT_VERSION, frames.shape[0], frames.shape[1])
    _atomic_write_bytes(path, header + frames.tobytes())


def read_features(path) -> np.ndarray:
    """Read a feature file back as a [T, d] float32 array; NaN or Inf is an error."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a feature file (bad magic {raw[:4]!r})")
    if len(raw) < 16:
        raise ValueError(f"{path}: truncated feature file ({len(raw)} bytes, header is 16)")
    version, t, d = struct.unpack("<III", raw[4:16])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported feature format version {version}")
    expected = 16 + 4 * t * d
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size mismatch (header says {t}x{d}, "
                         f"file has {len(raw)} bytes, expected {expected})")
    frames = np.frombuffer(raw, dtype="<f4", offset=16).reshape(t, d).copy()
    finite = np.isfinite(frames)
    if not finite.all():
        frame, dim = np.argwhere(~finite)[0]
        raise ValueError(f"{path}: non-finite feature value at frame {frame}, dim {dim}")
    return frames


def _atomic_write_bytes(path, payload: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# utterances and manifests
# ---------------------------------------------------------------------------

@dataclass
class Utterance:
    """One segment: frame-level audio features, token-level text features, label."""

    utt_id: str
    audio: np.ndarray  # [T_a, audio_dim] float32
    text: np.ndarray   # [T_t, text_dim] float32
    label: int | None = None

    def __post_init__(self):
        if self.audio.ndim != 2 or self.audio.shape[0] < 1:
            raise ValueError(f"{self.utt_id}: audio features must be [T>=1, d]")
        if self.text.ndim != 2 or self.text.shape[0] < 1:
            raise ValueError(f"{self.utt_id}: text features must be [T>=1, d]")


@dataclass(frozen=True)
class ManifestEntry:
    """Lazy reference to one utterance's label and feature files."""

    utt_id: str
    label: int | None
    audio_path: Path
    text_path: Path

    def load(self) -> Utterance:
        return Utterance(
            utt_id=self.utt_id,
            audio=read_features(self.audio_path),
            text=read_features(self.text_path),
            label=self.label,
        )


def write_manifest(path, entries):
    """Write entries as a TSV manifest; feature paths are stored relative."""
    path = Path(path)
    base = path.parent.resolve()
    lines = ["# id\tlabel\taudio\ttext"]
    for e in entries:
        label = DEFAULT_CLASS_NAMES[e.label] if e.label is not None else "-"
        audio_rel = os.path.relpath(Path(e.audio_path).resolve(), base)
        text_rel = os.path.relpath(Path(e.text_path).resolve(), base)
        lines.append(f"{e.utt_id}\t{label}\t{audio_rel}\t{text_rel}")
    _atomic_write_bytes(path, ("\n".join(lines) + "\n").encode())


def load_manifest(path) -> list[ManifestEntry]:
    """Parse a manifest into utterance references, validating labels and files."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    base = path.parent
    name_to_idx = {name: i for i, name in enumerate(DEFAULT_CLASS_NAMES)}
    dirs: dict[str, Path] = {}

    def resolve(rel: str, lineno: int) -> Path:
        # Path.resolve() of base/rel: each distinct directory string is resolved
        # once, and one lstat per file tells a missing file, a plain one and a
        # symlink, which alone is followed
        head, _, name = rel.rpartition("/")
        parent = dirs.get(head)
        if parent is None:
            parent = dirs[head] = (base / head).resolve()
        p = parent / name
        try:
            if stat.S_ISLNK(os.lstat(p).st_mode):
                p = p.resolve()
                os.stat(p)  # a dangling link fails here, naming its target
            return p
        except (FileNotFoundError, NotADirectoryError):
            raise FileNotFoundError(
                f"{path}:{lineno}: referenced feature file missing: {p}") from None

    entries: list[ManifestEntry] = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise ValueError(f"{path}:{lineno}: expected 4 tab-separated fields, got {len(fields)}")
        utt_id, label_str, audio_rel, text_rel = fields
        if utt_id in first_line:
            raise ValueError(f"{path}:{lineno}: repeated id {utt_id!r} "
                             f"(first on line {first_line[utt_id]})")
        first_line[utt_id] = lineno
        if label_str == "-":
            label = None
        elif label_str in name_to_idx:
            label = name_to_idx[label_str]
        else:
            raise ValueError(f"{path}:{lineno}: unknown label {label_str!r} "
                             f"(known: {', '.join(DEFAULT_CLASS_NAMES)})")
        entries.append(ManifestEntry(utt_id=utt_id, label=label,
                                     audio_path=resolve(audio_rel, lineno),
                                     text_path=resolve(text_rel, lineno)))
    return entries


def load_utterances(entries) -> list[Utterance]:
    """Load every entry's features; each modality's feature dim must match the
    first utterance's, or the error names the feature file that differs."""
    utterances: list[Utterance] = []
    for e in entries:
        u = e.load()
        if utterances:
            first = utterances[0]
            for modality, path, dim, want in (
                    ("audio", e.audio_path, u.audio.shape[1], first.audio.shape[1]),
                    ("text", e.text_path, u.text.shape[1], first.text.shape[1])):
                if dim != want:
                    raise ValueError(f"{path}: {modality} feature dim {dim} differs from "
                                     f"{want} of the first utterance {first.utt_id!r}")
        utterances.append(u)
    return utterances


def count_labels(items, n_classes: int) -> np.ndarray:
    """Per-class counts from entries or utterances (labels must be present)."""
    labels = [it.label for it in items]
    if any(l is None for l in labels):
        raise ValueError("count_labels: unlabeled items present")
    return np.bincount(np.asarray(labels, dtype=np.int64), minlength=n_classes)


def count_table(train_counts, dev_counts) -> str:
    """Class-distribution table: one row per class plus a total row."""
    width = max(len(n) for n in DEFAULT_CLASS_NAMES + ("Class", "Total"))
    lines = [f"{'Class':<{width}}  {'# Training Samples':>18}  {'# Dev Samples':>13}"]
    for name, tr, dv in zip(DEFAULT_CLASS_NAMES, train_counts, dev_counts):
        lines.append(f"{name:<{width}}  {tr:>18}  {dv:>13}")
    lines.append(f"{'Total':<{width}}  {sum(train_counts):>18}  {sum(dev_counts):>13}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

@dataclass
class Batch:
    """Padded per-batch arrays plus binary masks marking valid positions."""

    ids: list[str]
    audio: np.ndarray       # [B, Ta, da] float32, zero-padded
    audio_mask: np.ndarray  # [B, Ta] float32 in {0, 1}
    text: np.ndarray
    text_mask: np.ndarray
    labels: np.ndarray | None  # [B] int64

    @property
    def size(self) -> int:
        return len(self.ids)


def _pad_stack(arrays: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    max_t = max(a.shape[0] for a in arrays)
    dim = arrays[0].shape[1]
    out = np.zeros((len(arrays), max_t, dim), dtype=np.float32)
    mask = np.zeros((len(arrays), max_t), dtype=np.float32)
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
        mask[i, : a.shape[0]] = 1.0
    return out, mask


def make_batches(utterances, batch_size: int, shuffle_seed=None) -> list[Batch]:
    """Chunk utterances into padded batches; shuffling is seed-deterministic.

    shuffle_seed is anything np.random.default_rng accepts (int or int
    sequence); None keeps the input order.
    """
    utterances = list(utterances)
    if not utterances:
        raise ValueError("make_batches: empty dataset")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(utterances))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    labeled = [utterances[i].label is not None for i in order]
    if any(labeled) and not all(labeled):
        raise ValueError("make_batches: mixed labeled and unlabeled utterances")
    batches = []
    for start in range(0, len(order), batch_size):
        chunk = [utterances[i] for i in order[start:start + batch_size]]
        audio, audio_mask = _pad_stack([u.audio for u in chunk])
        text, text_mask = _pad_stack([u.text for u in chunk])
        labels = None
        if all(labeled):
            labels = np.array([u.label for u in chunk], dtype=np.int64)
        batches.append(Batch(ids=[u.utt_id for u in chunk], audio=audio,
                             audio_mask=audio_mask, text=text, text_mask=text_mask,
                             labels=labels))
    return batches


# ---------------------------------------------------------------------------
# synthetic corpus generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the class-conditional Gaussian corpus generator.

    ``separability`` scales the class mean vectors against unit frame noise
    (0 means all classes are indistinguishable). ``complementarity`` in
    [0, 1] shrinks each modality's means for the classes assigned to the
    *other* modality: at 1.0 the audio stream carries no information about
    odd-indexed classes and the text stream none about even-indexed ones.
    ``audio_variant`` selects an independent audio feature space (means and
    noise), standing in for different upstream audio feature extractors.
    """

    train_proportions: tuple[float, ...] = field(
        default_factory=lambda: _proportions(DEFAULT_TRAIN_COUNTS))
    dev_proportions: tuple[float, ...] = field(
        default_factory=lambda: _proportions(DEFAULT_DEV_COUNTS))
    audio_dim: int = 32
    text_dim: int = 24
    min_len: int = 5
    max_len: int = 40
    separability: float = 1.0
    complementarity: float = 0.5
    audio_variant: int = 0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        c = len(DEFAULT_CLASS_NAMES)
        for name, props in (("train", self.train_proportions), ("dev", self.dev_proportions)):
            if len(props) != c:
                raise ValueError(f"{name}_proportions must have {c} entries")
            if abs(sum(props) - 1.0) > 1e-9:
                raise ValueError(f"{name}_proportions must sum to 1, got {sum(props)!r}")
            if any(p < 0 for p in props):
                raise ValueError(f"{name}_proportions must be nonnegative")
        if self.separability < 0:
            raise ValueError("separability must be >= 0")
        if not 0.0 <= self.complementarity <= 1.0:
            raise ValueError("complementarity must be in [0, 1]")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.audio_dim < 1 or self.text_dim < 1:
            raise ValueError("feature dims must be >= 1")
        if self.seed < 0 or self.audio_variant < 0:
            raise ValueError("seed and audio_variant must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        return config_from_dict(cls, d, "synthetic-spec")


def allocate_counts(n: int, proportions) -> np.ndarray:
    """Largest-remainder rounding of n * proportions, forcing >= 1 per class."""
    props = np.asarray(proportions, dtype=np.float64)
    c = props.shape[0]
    if n < c:
        raise ValueError(f"need at least {c} samples for {c} classes")
    exact = props * n
    counts = np.floor(exact).astype(np.int64)
    remainder = exact - counts
    short = n - int(counts.sum())
    for idx in np.argsort(-remainder)[:short]:
        counts[idx] += 1
    # enforce the minimum by taking from the largest classes
    while (counts < 1).any():
        needy = int(np.argmin(counts))
        donor = int(np.argmax(counts))
        counts[needy] += 1
        counts[donor] -= 1
    return counts


def _class_means(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-class mean vectors for (audio, text), complementarity applied."""
    c = len(DEFAULT_CLASS_NAMES)
    audio_rng = _child_rng(spec.seed, "means-audio", spec.audio_variant)
    text_rng = _child_rng(spec.seed, "means-text")

    def unit_rows(rng, dim):
        g = rng.standard_normal((c, dim))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    audio = spec.separability * unit_rows(audio_rng, spec.audio_dim)
    text = spec.separability * unit_rows(text_rng, spec.text_dim)
    shrink = 1.0 - spec.complementarity
    for cls in range(c):
        if cls % 2 == 1:  # odd classes: text-informative, audio shrunk
            audio[cls] *= shrink
        else:             # even classes: audio-informative, text shrunk
            text[cls] *= shrink
    return audio.astype(np.float32), text.astype(np.float32)


@dataclass(frozen=True)
class GeneratedSplit:
    manifest_path: Path
    counts: tuple[int, ...]


@dataclass(frozen=True)
class GeneratedDataset:
    train: GeneratedSplit
    dev: GeneratedSplit


def generate_synthetic(spec: SyntheticSpec, n_train: int, n_dev: int, out_dir) -> GeneratedDataset:
    """Generate feature files plus train/dev manifests under out_dir.

    Labels and text features depend only on (seed, split, index), never on
    the audio variant, so corpora generated for different audio variants
    line up utterance-for-utterance and can be ensembled.
    """
    out_dir = Path(out_dir)
    feat_dir = out_dir / "features"
    feat_dir.mkdir(parents=True, exist_ok=True)
    audio_means, text_means = _class_means(spec)
    splits = {}
    for split, n, props in (("train", n_train, spec.train_proportions),
                            ("dev", n_dev, spec.dev_proportions)):
        counts = allocate_counts(n, props)
        labels = np.repeat(np.arange(len(counts)), counts)
        _child_rng(spec.seed, "labels", split).shuffle(labels)
        entries = []
        for i, label in enumerate(labels):
            utt_id = f"{split}-{i:05d}"
            audio_rng = _child_rng(spec.seed, "audio", spec.audio_variant, split, i)
            text_rng = _child_rng(spec.seed, "text", split, i)
            t_a = int(audio_rng.integers(spec.min_len, spec.max_len + 1))
            t_t = int(text_rng.integers(spec.min_len, spec.max_len + 1))
            audio = audio_means[label] + audio_rng.standard_normal((t_a, spec.audio_dim))
            text = text_means[label] + text_rng.standard_normal((t_t, spec.text_dim))
            audio_path = feat_dir / f"{utt_id}.audio.bin"
            text_path = feat_dir / f"{utt_id}.text.bin"
            write_features(audio_path, audio.astype(np.float32))
            write_features(text_path, text.astype(np.float32))
            entries.append(ManifestEntry(utt_id=utt_id, label=int(label),
                                         audio_path=audio_path, text_path=text_path))
        manifest_path = out_dir / f"{split}.tsv"
        write_manifest(manifest_path, entries)
        splits[split] = GeneratedSplit(manifest_path=manifest_path,
                                       counts=tuple(int(x) for x in counts))
    return GeneratedDataset(train=splits["train"], dev=splits["dev"])
