"""Shared fixtures: a seeded RNG and a small on-disk synthetic corpus."""

import numpy as np
import pytest

from emovote.data import (SyntheticSpec, generate_synthetic, load_manifest,
                          load_utterances)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_spec():
    """Separable desk-scale generator spec shared by data/training/CLI tests."""
    return SyntheticSpec(audio_dim=10, text_dim=8, min_len=2, max_len=7,
                         separability=2.0, complementarity=0.5, seed=77)


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory, tiny_spec):
    out = tmp_path_factory.mktemp("tiny_corpus")
    generate_synthetic(tiny_spec, n_train=96, n_dev=48, out_dir=out)
    return out


@pytest.fixture(scope="session")
def tiny_corpus(tiny_corpus_dir):
    train = load_utterances(load_manifest(tiny_corpus_dir / "train.tsv"))
    dev = load_utterances(load_manifest(tiny_corpus_dir / "dev.tsv"))
    return train, dev
