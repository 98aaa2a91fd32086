"""Feature files, manifests, batching, and the synthetic corpus generator."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from emovote.data import (DEFAULT_CLASS_NAMES, DEFAULT_DEV_COUNTS,
                          DEFAULT_TRAIN_COUNTS, DatasetSpec, ManifestEntry,
                          SyntheticSpec, Utterance, _class_means,
                          _proportions, allocate_counts, count_labels,
                          generate_synthetic, load_manifest, load_utterances,
                          make_batches, read_features, write_features,
                          write_manifest)


# ---------------------------------------------------------------------------
# feature file container
# ---------------------------------------------------------------------------

def test_feature_round_trip_bitwise(rng, tmp_path):
    frames = rng.standard_normal((13, 7)).astype(np.float32)
    path = tmp_path / "utt.audio.bin"
    write_features(path, frames)
    back = read_features(path)
    assert back.dtype == np.float32
    assert back.shape == (13, 7)
    np.testing.assert_array_equal(back, frames)


def test_feature_write_casts_to_float32(rng, tmp_path):
    frames64 = rng.standard_normal((4, 3))
    path = tmp_path / "utt.bin"
    write_features(path, frames64)
    np.testing.assert_array_equal(read_features(path), frames64.astype(np.float32))


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (5,)])
def test_feature_write_rejects_bad_shapes(tmp_path, shape):
    with pytest.raises(ValueError):
        write_features(tmp_path / "bad.bin", np.zeros(shape, dtype=np.float32))


def test_feature_read_rejects_bad_magic(tmp_path):
    path = tmp_path / "utt.bin"
    write_features(path, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="not a feature file"):
        read_features(path)


def test_feature_read_rejects_unknown_version(tmp_path):
    path = tmp_path / "utt.bin"
    write_features(path, np.ones((2, 2), dtype=np.float32))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 99"):
        read_features(path)


def test_feature_read_rejects_truncation(tmp_path):
    path = tmp_path / "utt.bin"
    write_features(path, np.ones((3, 5), dtype=np.float32))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="size mismatch"):
        read_features(path)


def test_feature_write_leaves_no_temp_files(rng, tmp_path):
    for i in range(3):
        write_features(tmp_path / f"u{i}.bin", rng.standard_normal((2, 2)))
    names = sorted(os.listdir(tmp_path))
    assert names == ["u0.bin", "u1.bin", "u2.bin"]


@settings(max_examples=50, deadline=None)
@given(hnp.arrays(dtype=np.float32,
                  shape=hnp.array_shapes(min_dims=2, max_dims=2,
                                         min_side=1, max_side=16),
                  elements=st.floats(-1e6, 1e6, width=32)))
def test_feature_round_trip_property(tmp_path_factory, frames):
    path = tmp_path_factory.mktemp("feat") / "x.bin"
    write_features(path, frames)
    np.testing.assert_array_equal(read_features(path), frames)


# ---------------------------------------------------------------------------
# utterances and manifests
# ---------------------------------------------------------------------------

def test_utterance_rejects_empty_streams():
    good = np.ones((2, 3), dtype=np.float32)
    with pytest.raises(ValueError, match="audio"):
        Utterance("u", np.ones((0, 3), dtype=np.float32), good, 0)
    with pytest.raises(ValueError, match="text"):
        Utterance("u", good, np.ones((3,), dtype=np.float32), 0)


def _write_corpus(tmp_path, rng, labels):
    """Write one feature pair per label and return the manifest entries."""
    entries = []
    for i, label in enumerate(labels):
        audio_path = tmp_path / "feats" / f"u{i}.audio.bin"
        text_path = tmp_path / "feats" / f"u{i}.text.bin"
        write_features(audio_path, rng.standard_normal((2 + i, 4)))
        write_features(text_path, rng.standard_normal((1 + i, 3)))
        entries.append(ManifestEntry(utt_id=f"u{i}", label=label,
                                     audio_path=audio_path, text_path=text_path))
    return entries


def test_manifest_round_trip(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [0, 7, None])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    back = load_manifest(manifest)
    assert [e.utt_id for e in back] == ["u0", "u1", "u2"]
    assert [e.label for e in back] == [0, 7, None]
    for orig, loaded in zip(load_utterances(entries), load_utterances(back)):
        np.testing.assert_array_equal(orig.audio, loaded.audio)
        np.testing.assert_array_equal(orig.text, loaded.text)


def test_manifest_paths_are_relative(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [1])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    body = manifest.read_text()
    assert str(tmp_path) not in body
    assert "feats/u0.audio.bin" in body.replace("\\", "/")
    # the corpus can be moved wholesale and still load
    moved = tmp_path.parent / (tmp_path.name + "-moved")
    os.rename(tmp_path, moved)
    try:
        back = load_manifest(moved / "split.tsv")
        assert back[0].load().audio.shape == (2, 4)
    finally:
        os.rename(moved, tmp_path)


def test_manifest_skips_comments_and_blank_lines(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [2])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    with open(manifest, "a") as f:
        f.write("\n# trailing comment\n   \n")
    assert len(load_manifest(manifest)) == 1


def test_manifest_unknown_label_names_line(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [0])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    with open(manifest, "a") as f:
        f.write("u9\tBored\tfeats/u0.audio.bin\tfeats/u0.text.bin\n")
    with pytest.raises(ValueError, match=r"split\.tsv:3: unknown label 'Bored'"):
        load_manifest(manifest)


def test_manifest_wrong_field_count_names_line(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [0])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    with open(manifest, "a") as f:
        f.write("u9\tNeutral\tonly-three-fields\n")
    with pytest.raises(ValueError, match=r":3: expected 4 tab-separated fields"):
        load_manifest(manifest)


def test_manifest_missing_feature_file(rng, tmp_path):
    entries = _write_corpus(tmp_path, rng, [0])
    manifest = tmp_path / "split.tsv"
    write_manifest(manifest, entries)
    os.unlink(entries[0].text_path)
    with pytest.raises(FileNotFoundError, match="u0.text.bin"):
        load_manifest(manifest)


def test_manifest_resolves_symlinked_feature_dirs_and_files(rng, tmp_path):
    """Stored paths are what Path.resolve() gives, through a symlinked feature
    directory and through a feature file that is itself a symlink."""
    entries = _write_corpus(tmp_path / "real", rng, [0, 1, 2])
    (tmp_path / "corpus").mkdir()
    os.symlink(tmp_path / "real" / "feats", tmp_path / "corpus" / "feats")
    os.symlink(tmp_path / "real" / "feats" / "u2.text.bin", tmp_path / "corpus" / "text2.bin")
    manifest = tmp_path / "corpus" / "split.tsv"
    manifest.write_text("u0\tNeutral\tfeats/u0.audio.bin\tfeats/u0.text.bin\n"
                        "u1\tHappy\tfeats/u1.audio.bin\t../real/feats/u1.text.bin\n"
                        "u2\tAngry\tfeats/../feats/u2.audio.bin\ttext2.bin\n")
    back = load_manifest(manifest)
    base = manifest.parent
    for line, got in zip(manifest.read_text().splitlines(), back):
        _, _, audio_rel, text_rel = line.split("\t")
        assert got.audio_path == (base / audio_rel).resolve()
        assert got.text_path == (base / text_rel).resolve()
    assert [e.text_path for e in back] == [e.text_path.resolve() for e in entries]
    for orig, loaded in zip(load_utterances(entries), load_utterances(back)):
        np.testing.assert_array_equal(orig.audio, loaded.audio)
    os.unlink(tmp_path / "real" / "feats" / "u2.text.bin")
    with pytest.raises(FileNotFoundError, match=r"split\.tsv:3: .*u2\.text\.bin"):
        load_manifest(manifest)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_load_utterances_rejects_non_finite_features_naming_the_file(tiny_spec, tmp_path,
                                                                    value):
    generate_synthetic(tiny_spec, n_train=16, n_dev=8, out_dir=tmp_path)
    entries = load_manifest(tmp_path / "train.tsv")
    bad = entries[3].audio_path
    frames = read_features(bad)
    frames[1, 2] = value
    write_features(bad, frames)
    with pytest.raises(ValueError, match="non-finite feature value at frame 1, dim 2") as err:
        load_utterances(entries)
    assert str(bad) in str(err.value)


def test_manifest_missing_file_itself(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.tsv"):
        load_manifest(tmp_path / "nope.tsv")


def test_count_labels_and_table():
    class Item:
        def __init__(self, label):
            self.label = label

    counts = count_labels([Item(0), Item(2), Item(2), Item(7)], n_classes=8)
    np.testing.assert_array_equal(counts, [1, 0, 2, 0, 0, 0, 0, 1])
    with pytest.raises(ValueError, match="unlabeled"):
        count_labels([Item(0), Item(None)], n_classes=8)

    spec = DatasetSpec(class_names=DEFAULT_CLASS_NAMES,
                       train_counts=DEFAULT_TRAIN_COUNTS,
                       dev_counts=DEFAULT_DEV_COUNTS)
    table = spec.table()
    lines = table.splitlines()
    assert len(lines) == 1 + 8 + 1  # header, one per class, total
    assert lines[1].split() == ["Neutral", "25016", "5667"]
    assert lines[-1].split() == ["Total", "53296", "15341"]


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def _mini_utterances(rng, lens_audio, lens_text, labels):
    utts = []
    for i, (ta, tt, label) in enumerate(zip(lens_audio, lens_text, labels)):
        utts.append(Utterance(utt_id=f"u{i}",
                              audio=rng.standard_normal((ta, 4)).astype(np.float32),
                              text=rng.standard_normal((tt, 3)).astype(np.float32),
                              label=label))
    return utts


def test_batch_sizes_and_final_short_batch(rng):
    utts = _mini_utterances(rng, [2, 3, 4, 2, 5], [1, 2, 3, 1, 2], [0] * 5)
    batches = make_batches(utts, batch_size=2)
    assert [b.size for b in batches] == [2, 2, 1]
    assert [i for b in batches for i in b.ids] == [f"u{i}" for i in range(5)]


def test_batch_masks_match_lengths_and_padding_is_zero(rng):
    lens_a, lens_t = [2, 5, 3], [4, 1, 2]
    utts = _mini_utterances(rng, lens_a, lens_t, [1, 2, 3])
    (batch,) = make_batches(utts, batch_size=3)
    assert batch.audio.shape == (3, 5, 4) and batch.text.shape == (3, 4, 3)
    np.testing.assert_array_equal(batch.audio_mask.sum(axis=1), lens_a)
    np.testing.assert_array_equal(batch.text_mask.sum(axis=1), lens_t)
    np.testing.assert_array_equal(batch.audio * (1 - batch.audio_mask)[:, :, None], 0.0)
    np.testing.assert_array_equal(batch.text * (1 - batch.text_mask)[:, :, None], 0.0)
    for i, u in enumerate(utts):
        np.testing.assert_array_equal(batch.audio[i, : lens_a[i]], u.audio)
        np.testing.assert_array_equal(batch.text[i, : lens_t[i]], u.text)
    np.testing.assert_array_equal(batch.labels, [1, 2, 3])


def test_batch_padding_is_per_batch_not_global(rng):
    utts = _mini_utterances(rng, [2, 9, 3, 3], [1, 1, 1, 1], [0] * 4)
    b1, b2 = make_batches(utts, batch_size=2)
    assert b1.audio.shape[1] == 9
    assert b2.audio.shape[1] == 3


def test_batch_shuffle_is_seed_deterministic(rng):
    utts = _mini_utterances(rng, [2] * 30, [2] * 30, [0] * 30)
    ids_a = [i for b in make_batches(utts, 7, shuffle_seed=11) for i in b.ids]
    ids_b = [i for b in make_batches(utts, 7, shuffle_seed=11) for i in b.ids]
    ids_c = [i for b in make_batches(utts, 7, shuffle_seed=12) for i in b.ids]
    assert ids_a == ids_b
    assert ids_a != ids_c
    assert sorted(ids_a) == sorted(i for b in make_batches(utts, 7) for i in b.ids)


def test_batch_no_shuffle_keeps_input_order(rng):
    utts = _mini_utterances(rng, [2] * 6, [2] * 6, [0] * 6)
    batches = make_batches(utts, 4, shuffle_seed=None)
    assert [i for b in batches for i in b.ids] == [f"u{i}" for i in range(6)]


def test_batch_unlabeled_corpus_has_no_labels(rng):
    utts = _mini_utterances(rng, [2, 2], [2, 2], [None, None])
    (batch,) = make_batches(utts, 2)
    assert batch.labels is None


def test_batch_rejects_mixed_labeled_and_unlabeled(rng):
    utts = _mini_utterances(rng, [2, 2], [2, 2], [0, None])
    with pytest.raises(ValueError, match="mixed"):
        make_batches(utts, 2)


def test_batch_rejects_empty_and_bad_batch_size(rng):
    with pytest.raises(ValueError, match="empty"):
        make_batches([], 2)
    utts = _mini_utterances(rng, [2], [2], [0])
    with pytest.raises(ValueError, match="batch_size"):
        make_batches(utts, 0)


# ---------------------------------------------------------------------------
# count allocation
# ---------------------------------------------------------------------------

def test_allocate_counts_largest_remainder_fixture():
    # exact shares 4.95 / 2.25 / 1.80: floors leave 2 seats, remainders
    # 0.95 and 0.80 win them
    np.testing.assert_array_equal(allocate_counts(9, [0.55, 0.25, 0.20]),
                                  [5, 2, 2])
    np.testing.assert_array_equal(allocate_counts(10, [0.5, 0.3, 0.2]),
                                  [5, 3, 2])


def test_allocate_counts_enforces_min_one_per_class():
    counts = allocate_counts(10, [0.97, 0.01, 0.01, 0.01])
    assert counts.sum() == 10
    assert counts.min() >= 1
    np.testing.assert_array_equal(counts, [7, 1, 1, 1])


def test_allocate_counts_exact_class_count_gives_all_ones():
    props = _proportions(DEFAULT_TRAIN_COUNTS)
    np.testing.assert_array_equal(allocate_counts(8, props), [1] * 8)


def test_allocate_counts_rejects_too_few_samples():
    with pytest.raises(ValueError, match="at least 8"):
        allocate_counts(7, _proportions(DEFAULT_TRAIN_COUNTS))


def test_allocate_counts_acceptance_scale():
    """At the 5330/1530 working scale the skew matches the source corpus."""
    train = allocate_counts(5330, _proportions(DEFAULT_TRAIN_COUNTS))
    dev = allocate_counts(1530, _proportions(DEFAULT_DEV_COUNTS))
    assert train.sum() == 5330 and dev.sum() == 1530
    exact_train = np.asarray(_proportions(DEFAULT_TRAIN_COUNTS)) * 5330
    np.testing.assert_array_less(np.abs(train - exact_train), 1.0 + 1e-9)
    assert train[0] in (2501, 2502)   # Neutral, the majority class
    assert train[-1] in (113, 114)    # Fear, the rarest class
    assert train[0] > 20 * train[-1]  # the imbalance the project targets


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8),
       st.integers(0, 400))
def test_allocate_counts_property(weights, extra):
    props = np.asarray(weights) / np.sum(weights)
    n = len(props) + extra
    counts = allocate_counts(n, props)
    assert counts.sum() == n
    assert counts.min() >= 1
    np.testing.assert_array_equal(counts, allocate_counts(n, props))


# ---------------------------------------------------------------------------
# synthetic spec validation
# ---------------------------------------------------------------------------

def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        SyntheticSpec(train_proportions=(0.5,) * 8)
    with pytest.raises(ValueError, match="8 entries"):
        SyntheticSpec(dev_proportions=(1.0,))
    with pytest.raises(ValueError, match="separability"):
        SyntheticSpec(separability=-0.1)
    with pytest.raises(ValueError, match="complementarity"):
        SyntheticSpec(complementarity=1.5)
    with pytest.raises(ValueError, match="min_len"):
        SyntheticSpec(min_len=0)
    with pytest.raises(ValueError, match="min_len"):
        SyntheticSpec(min_len=5, max_len=4)
    with pytest.raises(ValueError, match="dims"):
        SyntheticSpec(audio_dim=0)


def test_synthetic_spec_from_dict():
    spec = SyntheticSpec.from_dict({"audio_dim": 12, "separability": 2.0,
                                    "class_names": ["A", "B"],
                                    "train_proportions": [0.5, 0.5],
                                    "dev_proportions": [0.25, 0.75]})
    assert spec.audio_dim == 12
    assert spec.class_names == ("A", "B")
    with pytest.raises(ValueError, match="unknown synthetic-spec fields"):
        SyntheticSpec.from_dict({"audio_dims": 12})
    # a spec survives the dict round trip
    again = SyntheticSpec.from_dict(dataclasses.asdict(spec))
    assert again == spec


def test_with_audio_variant_changes_only_the_variant():
    spec = SyntheticSpec(seed=3)
    other = spec.with_audio_variant(2)
    assert other.audio_variant == 2
    assert dataclasses.replace(other, audio_variant=0) == spec


# ---------------------------------------------------------------------------
# class means geometry
# ---------------------------------------------------------------------------

def test_class_means_zero_separability_is_no_signal():
    audio, text = _class_means(SyntheticSpec(separability=0.0, seed=1))
    np.testing.assert_array_equal(audio, 0.0)
    np.testing.assert_array_equal(text, 0.0)


def test_class_means_scale_linearly_with_separability():
    a1, t1 = _class_means(SyntheticSpec(separability=1.0, seed=5))
    a2, t2 = _class_means(SyntheticSpec(separability=2.0, seed=5))
    np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-6)
    np.testing.assert_allclose(t2, 2.0 * t1, rtol=1e-6)


def test_class_means_complementarity_splits_modalities():
    # at complementarity 1 each modality is silent about the other's classes
    audio, text = _class_means(SyntheticSpec(separability=1.5,
                                             complementarity=1.0, seed=9))
    odd, even = np.arange(1, 8, 2), np.arange(0, 8, 2)
    np.testing.assert_array_equal(audio[odd], 0.0)
    np.testing.assert_array_equal(text[even], 0.0)
    np.testing.assert_allclose(np.linalg.norm(audio[even], axis=1), 1.5, rtol=1e-5)
    np.testing.assert_allclose(np.linalg.norm(text[odd], axis=1), 1.5, rtol=1e-5)
    # at complementarity 0 every class is fully visible in both modalities
    audio0, text0 = _class_means(SyntheticSpec(separability=1.5,
                                               complementarity=0.0, seed=9))
    np.testing.assert_allclose(np.linalg.norm(audio0, axis=1), 1.5, rtol=1e-5)
    np.testing.assert_allclose(np.linalg.norm(text0, axis=1), 1.5, rtol=1e-5)


def test_class_means_audio_variant_changes_audio_only():
    spec = SyntheticSpec(seed=4)
    a0, t0 = _class_means(spec)
    a1, t1 = _class_means(spec.with_audio_variant(1))
    np.testing.assert_array_equal(t0, t1)
    assert not np.array_equal(a0, a1)


# ---------------------------------------------------------------------------
# generated corpora
# ---------------------------------------------------------------------------

def test_generate_synthetic_is_byte_deterministic(tmp_path):
    spec = SyntheticSpec(audio_dim=6, text_dim=5, min_len=2, max_len=6, seed=21)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    g1 = generate_synthetic(spec, n_train=24, n_dev=16, out_dir=d1)
    g2 = generate_synthetic(spec, n_train=24, n_dev=16, out_dir=d2)
    assert g1.train.counts == g2.train.counts
    for split in ("train.tsv", "dev.tsv"):
        assert (d1 / split).read_bytes() == (d2 / split).read_bytes()
    feats1 = sorted(p.name for p in (d1 / "features").iterdir())
    feats2 = sorted(p.name for p in (d2 / "features").iterdir())
    assert feats1 == feats2 and len(feats1) == 2 * (24 + 16)
    for name in feats1:
        assert (d1 / "features" / name).read_bytes() == \
            (d2 / "features" / name).read_bytes()


def test_generate_synthetic_counts_match_allocation(tmp_path):
    spec = SyntheticSpec(audio_dim=6, text_dim=5, min_len=2, max_len=6, seed=22)
    gen = generate_synthetic(spec, n_train=40, n_dev=16, out_dir=tmp_path)
    expected = allocate_counts(40, spec.train_proportions)
    np.testing.assert_array_equal(gen.train.counts, expected)
    entries = load_manifest(gen.train.manifest_path, spec.class_names)
    np.testing.assert_array_equal(count_labels(entries, 8), expected)
    dev_entries = load_manifest(gen.dev.manifest_path, spec.class_names)
    np.testing.assert_array_equal(
        count_labels(dev_entries, 8), allocate_counts(16, spec.dev_proportions))


def test_generate_synthetic_lengths_respect_bounds(tiny_corpus_dir, tiny_spec):
    entries = load_manifest(tiny_corpus_dir / "train.tsv", tiny_spec.class_names)
    for utt in load_utterances(entries[:20]):
        assert tiny_spec.min_len <= utt.audio.shape[0] <= tiny_spec.max_len
        assert tiny_spec.min_len <= utt.text.shape[0] <= tiny_spec.max_len
        assert utt.audio.shape[1] == tiny_spec.audio_dim
        assert utt.text.shape[1] == tiny_spec.text_dim


def test_generate_synthetic_variants_align(tmp_path):
    """Labels and text are variant-independent, so variant runs can ensemble."""
    base = SyntheticSpec(audio_dim=6, text_dim=5, min_len=2, max_len=6, seed=23)
    g0 = generate_synthetic(base, 24, 16, tmp_path / "v0")
    g1 = generate_synthetic(base.with_audio_variant(1), 24, 16, tmp_path / "v1")
    e0 = load_manifest(g0.dev.manifest_path, base.class_names)
    e1 = load_manifest(g1.dev.manifest_path, base.class_names)
    assert [e.utt_id for e in e0] == [e.utt_id for e in e1]
    assert [e.label for e in e0] == [e.label for e in e1]
    audio_same = []
    for a, b in zip(e0, e1):
        assert Path(a.text_path).read_bytes() == Path(b.text_path).read_bytes()
        audio_same.append(Path(a.audio_path).read_bytes()
                          == Path(b.audio_path).read_bytes())
    assert not any(audio_same)


def test_generate_synthetic_separable_corpus_is_centroid_classifiable(tmp_path):
    """With large separability a nearest-centroid rule must be near-perfect."""
    spec = SyntheticSpec(audio_dim=8, text_dim=6, min_len=3, max_len=8,
                         separability=5.0, complementarity=0.5, seed=31)
    gen = generate_synthetic(spec, n_train=64, n_dev=48, out_dir=tmp_path)

    def pooled(entries):
        utts = load_utterances(entries)
        feats = np.stack([np.concatenate([u.audio.mean(axis=0),
                                          u.text.mean(axis=0)]) for u in utts])
        labels = np.array([u.label for u in utts])
        return feats, labels

    train_x, train_y = pooled(load_manifest(gen.train.manifest_path, spec.class_names))
    dev_x, dev_y = pooled(load_manifest(gen.dev.manifest_path, spec.class_names))
    centroids = np.stack([train_x[train_y == c].mean(axis=0) for c in range(8)])
    pred = np.argmin(((dev_x[:, None, :] - centroids[None]) ** 2).sum(-1), axis=1)
    assert (pred == dev_y).mean() > 0.95


def test_generate_synthetic_zero_separability_has_no_signal(tmp_path):
    # with all class means at zero, complementarity has nothing to scale, so
    # two corpora differing only in complementarity must be byte-identical
    base = dict(audio_dim=6, text_dim=5, min_len=2, max_len=6,
                separability=0.0, seed=32)
    g1 = generate_synthetic(SyntheticSpec(complementarity=0.2, **base),
                            n_train=32, n_dev=16, out_dir=tmp_path / "a")
    g2 = generate_synthetic(SyntheticSpec(complementarity=0.9, **base),
                            n_train=32, n_dev=16, out_dir=tmp_path / "b")
    for e1, e2 in zip(load_manifest(g1.train.manifest_path),
                      load_manifest(g2.train.manifest_path)):
        assert Path(e1.audio_path).read_bytes() == Path(e2.audio_path).read_bytes()
        assert Path(e1.text_path).read_bytes() == Path(e2.text_path).read_bytes()
