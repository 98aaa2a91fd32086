"""Shared fixtures: a seeded RNG, a small on-disk synthetic corpus and a runner for
checks that need OpenBLAS held to one thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


@pytest.fixture()
def one_blas_thread():
    """Run ``fn(*args)`` in a fresh interpreter whose OpenBLAS uses one thread.

    The thread variables must be set before numpy is imported, which a test in
    this process cannot do. At the host's default BLAS threads the row splitter
    gets one worker per CPU left over, often just one, so checks of the split at
    its default worker count run here. ``fn`` must be a module-level function of
    a test module, its arguments and result JSON values; returns the result.
    """
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(p for p in path if p))

    def run(fn, *args):
        code = ("import importlib, json, sys\n"
                f"fn = getattr(importlib.import_module({fn.__module__!r}), {fn.__name__!r})\n"
                "print(json.dumps(fn(*json.loads(sys.argv[1]))))")
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(args)], env=env,
                              capture_output=True, text=True, timeout=900)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    return run
