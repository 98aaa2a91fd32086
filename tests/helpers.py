"""Shared test utilities: batch builders, float64 conversion for grad checks, a
row splitter that records how each kernel call was split and a checkpoint
config-header rewriter."""

import json
import struct
from contextlib import contextmanager

import numpy as np

from emovote import kernels
from emovote.autodiff import Tensor
from emovote.data import Batch


def make_batch(rng, n, audio_dim, text_dim, audio_lens=None, text_lens=None,
               max_audio=6, max_text=5, n_classes=8, labeled=True, pad_value=0.0):
    """Build a padded Batch with random features and per-sample lengths.

    Padded positions are filled with ``pad_value`` so tests can plant garbage
    there and assert it never leaks through the masks.
    """
    if audio_lens is None:
        audio_lens = rng.integers(1, max_audio + 1, size=n)
    if text_lens is None:
        text_lens = rng.integers(1, max_text + 1, size=n)
    audio_lens = np.asarray(audio_lens)
    text_lens = np.asarray(text_lens)
    ta, tt = int(audio_lens.max()), int(text_lens.max())
    audio = np.full((n, ta, audio_dim), pad_value, dtype=np.float32)
    text = np.full((n, tt, text_dim), pad_value, dtype=np.float32)
    audio_mask = np.zeros((n, ta), dtype=np.float32)
    text_mask = np.zeros((n, tt), dtype=np.float32)
    for i in range(n):
        la, lt = int(audio_lens[i]), int(text_lens[i])
        audio[i, :la] = rng.standard_normal((la, audio_dim)).astype(np.float32)
        text[i, :lt] = rng.standard_normal((lt, text_dim)).astype(np.float32)
        audio_mask[i, :la] = 1.0
        text_mask[i, :lt] = 1.0
    labels = rng.integers(0, n_classes, size=n).astype(np.int64) if labeled else None
    ids = tuple(f"u{i:03d}" for i in range(n))
    return Batch(ids=ids, audio=audio, audio_mask=audio_mask,
                 text=text, text_mask=text_mask, labels=labels)


def repad_batch(batch, extra_audio=0, extra_text=0, pad_value=0.0):
    """Return the same batch content with extra trailing padding columns."""
    n, ta, da = batch.audio.shape
    _, tt, dt = batch.text.shape
    audio = np.full((n, ta + extra_audio, da), pad_value, dtype=np.float32)
    text = np.full((n, tt + extra_text, dt), pad_value, dtype=np.float32)
    audio[:, :ta] = batch.audio
    text[:, :tt] = batch.text
    audio_mask = np.zeros((n, ta + extra_audio), dtype=np.float32)
    text_mask = np.zeros((n, tt + extra_text), dtype=np.float32)
    audio_mask[:, :ta] = batch.audio_mask
    text_mask[:, :tt] = batch.text_mask
    return Batch(ids=batch.ids, audio=audio, audio_mask=audio_mask,
                 text=text, text_mask=text_mask, labels=batch.labels)


def take_rows(batch, order):
    """Reorder the samples of a batch (row permutation)."""
    order = list(order)
    return Batch(ids=tuple(batch.ids[i] for i in order),
                 audio=batch.audio[order], audio_mask=batch.audio_mask[order],
                 text=batch.text[order], text_mask=batch.text_mask[order],
                 labels=None if batch.labels is None else batch.labels[order])


def model_to_float64(model):
    """Cast every parameter to float64 in place (grad checks need 64-bit)."""
    for t in model.parameters.values():
        t.data = t.data.astype(np.float64)
    return model


def leaf(data, dtype=np.float64):
    """Float64 leaf tensor with gradients enabled, for grad_check graphs."""
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True, dtype=dtype)


class RecordingSplitter(kernels.RowSplitter):
    """A RowSplitter that notes, per call, the calling kernel and its block count,
    and checks that the blocks cover the rows exactly once."""

    def __init__(self, workers):
        super().__init__(workers)
        self.calls = []  # (name of the function that defines the block, blocks run)

    def run(self, block, n_rows, min_rows, *tasks):
        spans = []

        def recording(lo, hi):
            spans.append((lo, hi))
            block(lo, hi)

        super().run(recording, n_rows, min_rows, *tasks)
        spans.sort()
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == n_rows
        self.calls.append((block.__qualname__.split(".")[0], len(spans)))

    def split_kernels(self):
        """Names of the kernels that ran in more than one block, sorted."""
        return sorted({name for name, blocks in self.calls if blocks > 1})


@contextmanager
def row_splitter(workers):
    """Make kernel and matmul row blocks run on a RecordingSplitter of ``workers``."""
    previous = kernels.splitter
    kernels.splitter = recorder = RecordingSplitter(workers)
    try:
        yield recorder
    finally:
        kernels.splitter = previous
        recorder.close()


def rewrite_config_header(path, **extra):
    """Re-serialize the checkpoint's JSON config header with extra keys, as an
    older writer with more config fields would have emitted it."""
    raw = path.read_bytes()
    version, cfg_len = struct.unpack("<II", raw[4:12])
    cfg = {**json.loads(raw[12:12 + cfg_len]), **extra}
    blob = json.dumps(cfg, sort_keys=True).encode()
    path.write_bytes(raw[:4] + struct.pack("<II", version, len(blob)) + blob
                     + raw[12 + cfg_len:])
