"""Kernel microbenchmark: each numpy kernel on training-shaped inputs.

Shapes match a hidden-512 training step (batch 128, 30 frames, 8 classes).
Only the numpy path is timed; it is the path ``kernels.active_backend()``
selects when numba is not importable. Each kernel runs once untimed, then
``repeats`` timed calls; the median is reported in milliseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from emovote import kernels


def _cases(rng):
    b, t, d, c = 128, 30, 512, 8
    x = rng.standard_normal((b * t, d)).astype(np.float32)
    logits = rng.standard_normal((b, c)).astype(np.float32)
    probs = kernels.softmax_fwd_numpy(logits)
    dy = rng.standard_normal((b, c)).astype(np.float32)
    gain = np.ones(d, dtype=np.float32)
    bias = np.zeros(d, dtype=np.float32)
    gly = rng.standard_normal((b * t, d)).astype(np.float32)
    _, xhat, rstd = kernels.layernorm_fwd_numpy(x, gain, bias, 1e-5)
    p = rng.standard_normal((d, d)).astype(np.float32).reshape(-1)
    g = rng.standard_normal((d, d)).astype(np.float32).reshape(-1)
    m, v = np.zeros_like(p), np.zeros_like(p)
    ref = rng.integers(0, 50, size=400).astype(np.int64)
    hyp = rng.integers(0, 50, size=380).astype(np.int64)
    # adam updates p/m/v in place; repeated calls keep the same shapes and cost
    return {
        "softmax_fwd": (logits,),
        "softmax_bwd": (probs, dy),
        "layernorm_fwd": (x, gain, bias, 1e-5),
        "layernorm_bwd": (gly, xhat, rstd, gain),
        "adam_step": (p, g, m, v, 1e-4, 0.9, 0.999, 1e-8, 0.1, 0.001),
        "levenshtein": (ref, hyp),
    }


def time_kernels(repeats: int = 20, seed: int = 0) -> dict[str, float]:
    """Median milliseconds per call of each numpy kernel."""
    out = {}
    for name, args in _cases(np.random.default_rng(seed)).items():
        fn = getattr(kernels, f"{name}_numpy")
        fn(*args)
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(*args)
            samples.append(time.perf_counter() - t0)
        out[name] = 1e3 * statistics.median(samples)
    return out
