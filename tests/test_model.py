"""Model architecture: config, fusion operations, forward semantics, checkpoints."""

import struct

import numpy as np
import pytest

from emovote.autodiff import ShapeError, Tensor, grad_check, tsum
from emovote.model import (FUSION_KINDS, Model, ModelConfig, ParamStore,
                           fuse_early, fuse_late, fuse_low_rank, fuse_tensor,
                           load_checkpoint, save_checkpoint)
from helpers import leaf, make_batch, repad_batch, rewrite_config_header, take_rows


def small_config(**overrides):
    base = dict(audio_dim=10, text_dim=8, hidden=8, n_transformer_layers=2,
                n_classes=8, fusion="early", seed=0)
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig.from_dict({**small_config().to_dict(), "n_heads": 2})
    with pytest.raises(ValueError, match="hidden"):
        small_config(hidden=0)
    with pytest.raises(ValueError, match="n_classes"):
        small_config(n_classes=1)
    with pytest.raises(ValueError, match="unknown fusion"):
        small_config(fusion="middle")
    with pytest.raises(ValueError, match="dims"):
        small_config(audio_dim=0)
    with pytest.raises(ValueError, match="n_transformer_layers"):
        small_config(n_transformer_layers=-1)
    with pytest.raises(ValueError, match="lmf_rank"):
        small_config(lmf_rank=0)
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=1.0)
    for field, value in (("hidden", 8.5), ("n_classes", 3.0), ("lmf_rank", True),
                         ("audio_dim", 2.5), ("n_transformer_layers", 1.0),
                         ("seed", 1.5), ("seed", True)):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            small_config(**{field: value})


def test_config_dict_round_trip():
    cfg = small_config(fusion="low_rank_tensor", lmf_rank=3, dropout=0.1)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown model-config fields"):
        ModelConfig.from_dict({**cfg.to_dict(), "n_head": 1})


# ---------------------------------------------------------------------------
# parameter store and initialization
# ---------------------------------------------------------------------------

def test_param_store_rejects_duplicate_names():
    store = ParamStore(seed=0)
    store.param("w", (2, 2), fan_in=2)
    with pytest.raises(ValueError, match="duplicate"):
        store.param("w", (2, 2), fan_in=2)


def test_construction_is_seed_deterministic():
    m1, m2 = Model(small_config()), Model(small_config())
    assert sorted(m1.parameters) == sorted(m2.parameters)
    for name in m1.parameters:
        np.testing.assert_array_equal(m1.parameters[name].data,
                                      m2.parameters[name].data)
    m3 = Model(small_config(seed=1))
    assert not np.array_equal(m1.parameters["audio_mlp.fc1.w"].data,
                              m3.parameters["audio_mlp.fc1.w"].data)


def test_shared_parameters_identical_across_fusion_kinds():
    """Per-name seeding: the encoders do not depend on the fusion choice."""
    models = {kind: Model(small_config(fusion=kind)) for kind in FUSION_KINDS}
    names = set.intersection(*(set(m.parameters) for m in models.values()))
    assert any(n.startswith("audio_mlp") for n in names)
    assert any(n.startswith("text_enc.1") for n in names)
    for name in names:
        ref = models["early"].parameters[name].data
        for m in models.values():
            np.testing.assert_array_equal(m.parameters[name].data, ref)


def test_initialization_shapes_and_ranges():
    model = Model(small_config())
    w = model.parameters["audio_mlp.fc1.w"]
    assert w.data.dtype == np.float32 and w.requires_grad
    bound = np.sqrt(6.0 / 10)  # fan_in is the audio feature dim
    assert np.abs(w.data).max() <= bound
    assert np.abs(w.data).max() > 0.5 * bound  # actually spread out
    np.testing.assert_array_equal(model.parameters["audio_mlp.fc1.b"].data, 0.0)
    np.testing.assert_array_equal(model.parameters["audio_enc.0.ln1.gain"].data, 1.0)
    assert model.parameter_count == sum(t.data.size for t in model.parameters.values())


def test_head_parameters_follow_fusion_kind():
    early = Model(small_config(fusion="early"))
    late = Model(small_config(fusion="late"))
    assert any(n.startswith("head.") for n in early.parameters)
    assert not any(n.startswith("audio_head") for n in early.parameters)
    assert any(n.startswith("audio_head") for n in late.parameters)
    assert not any(n.startswith("head.") for n in late.parameters)
    both = Model(small_config(fusion="early_plus_late"))
    assert any(n.startswith("head.") for n in both.parameters)
    assert any(n.startswith("text_head") for n in both.parameters)


def test_low_rank_parameter_count_is_linear_in_rank():
    h = 8
    base = Model(small_config(fusion="low_rank_tensor", lmf_rank=2))
    wide = Model(small_config(fusion="low_rank_tensor", lmf_rank=4))
    assert base.parameters["lmf.audio_factors"].shape == (h + 1, 2 * h)
    assert wide.parameters["lmf.audio_factors"].shape == (h + 1, 4 * h)
    full = Model(small_config(fusion="tensor"))
    assert full.parameters["fuse_proj.w"].shape == ((h + 1) * (h + 1), h)
    lmf_fusion_params = sum(base.parameters[n].size for n in base.parameters
                            if n.startswith("lmf."))
    full_fusion_params = sum(full.parameters[n].size for n in full.parameters
                             if n.startswith("fuse_proj"))
    assert lmf_fusion_params < full_fusion_params


# ---------------------------------------------------------------------------
# fusion operations
# ---------------------------------------------------------------------------

def test_fuse_early_concatenates_audio_first():
    out = fuse_early(Tensor(np.array([1.0, 2.0], dtype=np.float32)),
                     Tensor(np.array([3.0], dtype=np.float32)))
    np.testing.assert_array_equal(out.data, [1.0, 2.0, 3.0])


def test_fuse_late_is_a_renormalized_mean():
    pa = Tensor(np.array([[0.7, 0.3], [0.2, 0.8]], dtype=np.float32))
    pt = Tensor(np.array([[0.1, 0.9], [0.2, 0.8]], dtype=np.float32))
    out = fuse_late(pa, pt).data
    np.testing.assert_allclose(out, [[0.4, 0.6], [0.2, 0.8]], atol=1e-6)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)
    flipped = fuse_late(pt, pa).data
    np.testing.assert_allclose(out, flipped, atol=1e-7)
    with pytest.raises(ShapeError, match="equal lengths"):
        fuse_late(Tensor(np.ones(3, dtype=np.float32) / 3),
                  Tensor(np.ones(4, dtype=np.float32) / 4))


def test_fuse_tensor_enumeration_oracle():
    a = np.array([2.0, -1.0])
    t = np.array([3.0, 0.5, 4.0])
    out = fuse_tensor(leaf(a), leaf(t)).data
    assert out.shape == (12,)  # (2 + 1) * (3 + 1)
    za = np.append(a, 1.0)
    zt = np.append(t, 1.0)
    np.testing.assert_allclose(out, np.outer(za, zt).ravel(), atol=1e-12)
    assert out[-1] == 1.0  # product of the two augmentation constants


def test_fuse_tensor_zero_inputs_keep_only_the_constant():
    out = fuse_tensor(leaf(np.zeros(2)), leaf(np.zeros(3))).data
    expected = np.zeros(12)
    expected[-1] = 1.0
    np.testing.assert_array_equal(out, expected)


def test_fuse_tensor_batched_matches_rows(rng):
    a = rng.standard_normal((4, 3))
    t = rng.standard_normal((4, 2))
    batched = fuse_tensor(leaf(a), leaf(t)).data
    assert batched.shape == (4, 12)
    for i in range(4):
        row = fuse_tensor(leaf(a[i]), leaf(t[i])).data
        np.testing.assert_allclose(batched[i], row, atol=1e-12)


def test_fuse_low_rank_matches_explicit_tensor_oracle(rng):
    """LMF must equal the full outer product followed by the implied linear map."""
    d_a, d_t, rank, k = 2, 3, 2, 4
    a = rng.standard_normal((1, d_a))
    t = rng.standard_normal((1, d_t))
    fa = rng.standard_normal((d_a + 1, rank * k))
    ft = rng.standard_normal((d_t + 1, rank * k))
    bias = rng.standard_normal(k)
    out = fuse_low_rank(leaf(a), leaf(t), leaf(fa), leaf(ft), leaf(bias), rank).data

    za, zt = np.append(a[0], 1.0), np.append(t[0], 1.0)
    implied_w = np.zeros(((d_a + 1) * (d_t + 1), k))
    for r in range(rank):
        ar = fa[:, r * k:(r + 1) * k]
        tr = ft[:, r * k:(r + 1) * k]
        for kk in range(k):
            implied_w[:, kk] += np.outer(ar[:, kk], tr[:, kk]).ravel()
    oracle = np.outer(za, zt).ravel() @ implied_w + bias
    np.testing.assert_allclose(out[0], oracle, rtol=1e-12)


def test_fuse_low_rank_batched_matches_rows(rng):
    d_a, d_t, rank, k = 3, 2, 3, 5
    fa = leaf(rng.standard_normal((d_a + 1, rank * k)))
    ft = leaf(rng.standard_normal((d_t + 1, rank * k)))
    bias = leaf(rng.standard_normal(k))
    a = rng.standard_normal((6, d_a))
    t = rng.standard_normal((6, d_t))
    batched = fuse_low_rank(leaf(a), leaf(t), fa, ft, bias, rank).data
    assert batched.shape == (6, k)
    for i in range(6):
        row = fuse_low_rank(leaf(a[i:i + 1]), leaf(t[i:i + 1]), fa, ft, bias, rank).data
        np.testing.assert_allclose(batched[i], row[0], rtol=1e-12)


def test_fuse_low_rank_validates_factors(rng):
    a, t = leaf(rng.standard_normal((1, 2))), leaf(rng.standard_normal((1, 2)))
    fa = leaf(rng.standard_normal((3, 8)))
    with pytest.raises(ShapeError, match="factor widths"):
        fuse_low_rank(a, t, fa, leaf(rng.standard_normal((3, 6))), leaf(np.zeros(4)), 2)
    with pytest.raises(ShapeError, match="factor widths"):
        fuse_low_rank(a, t, fa, leaf(rng.standard_normal((3, 8))), leaf(np.zeros(4)), 3)
    with pytest.raises(ValueError, match="rank"):
        fuse_low_rank(a, t, fa, fa, leaf(np.zeros(4)), 0)


def test_fusion_gradients(rng):
    a = leaf(rng.standard_normal((2, 3)))
    t = leaf(rng.standard_normal((2, 2)))
    rel = grad_check(lambda: tsum(fuse_tensor(a, t)), [a, t], rng=rng)
    assert rel < 1e-6

    fa = leaf(rng.standard_normal((4, 6)))
    ft = leaf(rng.standard_normal((3, 6)))
    bias = leaf(np.zeros(3))
    rel = grad_check(lambda: tsum(fuse_low_rank(a, t, fa, ft, bias, rank=2)),
                     [a, t, fa, ft, bias], rng=rng)
    assert rel < 1e-6


# ---------------------------------------------------------------------------
# forward semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_forward_rows_lie_on_the_simplex(rng, fusion):
    model = Model(small_config(fusion=fusion))
    batch = make_batch(rng, 5, 10, 8)
    probs = model.predict_probs(batch)
    assert probs.shape == (5, 8)
    assert probs.dtype == np.float32
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)


def test_forward_validates_feature_dims(rng):
    model = Model(small_config())
    with pytest.raises(ShapeError, match="audio feature dim"):
        model.predict_probs(make_batch(rng, 2, 9, 8))
    with pytest.raises(ShapeError, match="text feature dim"):
        model.predict_probs(make_batch(rng, 2, 10, 7))


def test_forward_duplicate_utterances_get_identical_rows(rng):
    model = Model(small_config())
    single = make_batch(rng, 1, 10, 8, audio_lens=[4], text_lens=[3])
    from emovote.data import Batch
    doubled = Batch(ids=("a", "b"),
                    audio=np.repeat(single.audio, 2, axis=0),
                    audio_mask=np.repeat(single.audio_mask, 2, axis=0),
                    text=np.repeat(single.text, 2, axis=0),
                    text_mask=np.repeat(single.text_mask, 2, axis=0),
                    labels=None)
    probs = model.predict_probs(doubled)
    np.testing.assert_array_equal(probs[0], probs[1])


@pytest.mark.parametrize("fusion", FUSION_KINDS)
def test_forward_padding_invariance_is_exact(rng, fusion):
    """Extra padding columns must not change any output bit."""
    model = Model(small_config(fusion=fusion))
    batch = make_batch(rng, 4, 10, 8, audio_lens=[2, 4, 3, 4], text_lens=[3, 1, 2, 3])
    padded = repad_batch(batch, extra_audio=3, extra_text=2, pad_value=7.5)
    np.testing.assert_array_equal(model.predict_probs(batch),
                                  model.predict_probs(padded))


def test_forward_batch_order_invariance(rng):
    model = Model(small_config(fusion="early_plus_late"))
    batch = make_batch(rng, 6, 10, 8, audio_lens=[5, 2, 5, 3, 4, 5],
                       text_lens=[2, 4, 1, 4, 3, 2])
    order = [3, 0, 5, 1, 4, 2]
    probs = model.predict_probs(batch)
    shuffled = model.predict_probs(take_rows(batch, order))
    np.testing.assert_array_equal(shuffled, probs[order])


def test_early_plus_late_with_branches_averages_three_heads(rng):
    model = Model(small_config(fusion="early_plus_late", seed=3))
    batch = make_batch(rng, 3, 10, 8)
    probs = model.predict_probs(batch)
    early_only = Model(small_config(fusion="early", seed=3)).predict_probs(batch)
    assert not np.array_equal(probs, early_only)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)


def test_attention_trace_rows_are_distributions(rng):
    model = Model(small_config(n_transformer_layers=2))
    lens = [2, 5, 3]
    batch = make_batch(rng, 3, 10, 8, audio_lens=lens, text_lens=[3, 2, 4])
    trace = {}
    model.forward(batch, trace=trace)
    assert sorted(trace) == ["audio_enc.0", "audio_enc.1", "text_enc.0", "text_enc.1"]
    attn = trace["audio_enc.0"]
    assert attn.shape == (3, 5, 5)
    np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-5)
    for i, t in enumerate(lens):
        np.testing.assert_array_equal(attn[i, :, t:], 0.0)  # masked keys get 0


@pytest.mark.parametrize("t_len", [1, 7, 50])
def test_forward_handles_short_and_long_sequences(rng, t_len):
    model = Model(small_config())
    batch = make_batch(rng, 2, 10, 8, audio_lens=[t_len, max(1, t_len - 1)],
                       text_lens=[2, 2])
    probs = model.predict_probs(batch)
    assert probs.shape == (2, 8)
    assert np.isfinite(probs).all()
    if t_len == 1:
        trace = {}
        model.forward(batch, trace=trace)
        np.testing.assert_allclose(trace["audio_enc.0"][0], 1.0, atol=1e-6)


def test_forward_with_zero_transformer_layers(rng):
    model = Model(small_config(n_transformer_layers=0))
    batch = make_batch(rng, 3, 10, 8)
    probs = model.predict_probs(batch)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-5)


def test_forward_supports_other_class_counts(rng):
    model = Model(small_config(n_classes=3))
    probs = model.predict_probs(make_batch(rng, 2, 10, 8, n_classes=3))
    assert probs.shape == (2, 3)


def test_dropout_needs_rng_and_perturbs_training_forward(rng):
    model = Model(small_config(dropout=0.5))
    batch = make_batch(rng, 3, 10, 8)
    with pytest.raises(ValueError, match="RNG"):
        model.forward(batch, train=True)
    eval_probs = model.predict_probs(batch)
    train_probs = model.forward(batch, train=True,
                                rng=np.random.default_rng(0)).data
    assert not np.array_equal(eval_probs, train_probs)
    # inference ignores the dropout setting entirely
    np.testing.assert_array_equal(eval_probs, model.predict_probs(batch))


def test_zero_grads_clears_gradients(rng):
    model = Model(small_config())
    batch = make_batch(rng, 2, 10, 8)
    out = model.forward(batch)
    tsum(out).backward()
    assert any(t.grad is not None for t in model.parameters.values())
    model.zero_grads()
    assert all(t.grad is None for t in model.parameters.values())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_is_bitwise(rng, tmp_path):
    model = Model(small_config(fusion="low_rank_tensor", lmf_rank=3, seed=11))
    # make the weights non-initial so the test is not trivially passing
    for t in model.parameters.values():
        t.data = t.data + rng.standard_normal(t.shape).astype(np.float32) * 0.01
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    back = load_checkpoint(path)
    assert back.config == model.config
    assert sorted(back.parameters) == sorted(model.parameters)
    for name in model.parameters:
        np.testing.assert_array_equal(back.parameters[name].data,
                                      model.parameters[name].data)
    batch = make_batch(rng, 4, 10, 8)
    np.testing.assert_array_equal(back.predict_probs(batch),
                                  model.predict_probs(batch))


def test_checkpoint_save_is_deterministic(tmp_path):
    model = Model(small_config(seed=2))
    save_checkpoint(tmp_path / "a.ckpt", model)
    save_checkpoint(tmp_path / "b.ckpt", model)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Model(small_config()))
    return path


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"ZZZZ"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="not a model checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version 9"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_rejects_garbled_config(tmp_path):
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # first byte of the JSON config header
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="config header unreadable"):
        load_checkpoint(path)


def test_checkpoint_rejects_a_garbled_tensor_name_naming_the_file(tmp_path):
    path = _saved_checkpoint(tmp_path)
    raw = bytearray(path.read_bytes())
    (cfg_len,) = struct.unpack("<I", raw[8:12])
    raw[12 + cfg_len + 4 + 4] = 0xFF  # first byte of the first tensor's name
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="not in model built from its own config") as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    path = _saved_checkpoint(tmp_path)
    raw = path.read_bytes()
    # the config claims hidden 9 but the stored tensors were built for 8
    assert raw.count(b'"hidden": 8') == 1
    path.write_bytes(raw.replace(b'"hidden": 8', b'"hidden": 9'))
    with pytest.raises(ValueError, match="does not match"):
        load_checkpoint(path)


def test_v1_checkpoint_with_single_head_key_loads_bitwise(rng, tmp_path):
    model = Model(small_config(fusion="late", seed=5))
    for t in model.parameters.values():
        t.data = t.data + rng.standard_normal(t.shape).astype(np.float32) * 0.01
    path = tmp_path / "old.ckpt"
    save_checkpoint(path, model)
    # the removed fields, at the only values any checkpoint stored
    rewrite_config_header(path, n_heads=1, positional_encoding=False, unimodal_branches=True)
    for key in (b'"n_heads": 1', b'"positional_encoding": false', b'"unimodal_branches": true'):
        assert key in path.read_bytes()
    back = load_checkpoint(path)
    assert back.config == model.config
    for name in model.parameters:
        np.testing.assert_array_equal(back.parameters[name].data,
                                      model.parameters[name].data)
    batch = make_batch(rng, 4, 10, 8)
    np.testing.assert_array_equal(back.predict_probs(batch), model.predict_probs(batch))


@pytest.mark.parametrize("bad,reason", [({"n_heads": 2}, "n_heads must be 1"),
                                        ({"audio_dim": None},
                                         "audio_dim must be an integer, got None"),
                                        ({"positional_encoding": True},
                                         "positional_encoding must be false"),
                                        ({"unimodal_branches": False},
                                         "unimodal_branches must be true")])
def test_checkpoint_with_bad_config_is_refused_naming_the_file(tmp_path, bad, reason):
    path = _saved_checkpoint(tmp_path)
    rewrite_config_header(path, **bad)
    with pytest.raises(ValueError, match=reason) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
