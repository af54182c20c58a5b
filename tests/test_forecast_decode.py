"""Forecaster embedding morphing and the repopulating decoder."""

import numpy as np
import pytest

from civsf.errors import ShapeError
from civsf.forecast_decode import Forecaster, PatchDecoder, forecast_embed, repopulate
from civsf.masking import build_mask
from civsf.numerics import Tensor


def test_forecast_embed_additive_then_mlp():
    rng = np.random.default_rng(0)
    fc = Forecaster(4, np.random.default_rng(1))
    src = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
    wx = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    doy = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    delta = Tensor(rng.normal(size=(2, 4)).astype(np.float32))
    out = forecast_embed(fc, src, wx, doy, delta).data
    summed = src.data + wx.data[:, None] + doy.data[:, None] + delta.data[:, None]
    want = fc(Tensor(summed)).data
    assert np.allclose(out, want, atol=1e-6)
    assert out.shape == (2, 3, 4)


def test_forecast_embed_weather_none_is_sm_path():
    rng = np.random.default_rng(2)
    fc = Forecaster(4, np.random.default_rng(3))
    src = Tensor(rng.normal(size=(1, 2, 4)).astype(np.float32))
    doy = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    delta = Tensor(rng.normal(size=(1, 4)).astype(np.float32))
    out = forecast_embed(fc, src, None, doy, delta).data
    want = fc(Tensor(src.data + doy.data[:, None] + delta.data[:, None])).data
    assert np.array_equal(out, want)


def test_forecast_embed_shape_errors():
    fc = Forecaster(4, np.random.default_rng(4))
    src = Tensor(np.zeros((2, 3, 4), dtype=np.float32))
    good = Tensor(np.zeros((2, 4), dtype=np.float32))
    bad = Tensor(np.zeros((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        forecast_embed(fc, src, good, bad, good)
    with pytest.raises(ShapeError):
        forecast_embed(fc, src, bad, good, good)


def test_repopulate_scatter_and_zero_slots():
    rng = np.random.default_rng(5)
    tokens = Tensor(rng.normal(size=(2, 3, 4)).astype(np.float32))
    grid_idx = np.array([[0, 2, 5], [1, 3, 4]])
    out = repopulate(tokens, grid_idx, 6).data
    assert out.shape == (2, 6, 4)
    for b in range(2):
        present = set(grid_idx[b].tolist())
        for g in range(6):
            if g in present:
                slot = int(np.flatnonzero(grid_idx[b] == g)[0])
                assert np.array_equal(out[b, g], tokens.data[b, slot])
            else:
                assert np.array_equal(out[b, g], np.zeros(4, dtype=np.float32))


def test_repopulate_gradient_gathers_back():
    tokens = Tensor(np.ones((1, 2, 3), dtype=np.float32), requires_grad=True)
    out = repopulate(tokens, np.array([[1, 3]]), 5)
    (out * 2.0).sum().backward()
    assert np.array_equal(tokens.grad, np.full((1, 2, 3), 2.0, dtype=np.float32))


def test_masked_slots_decode_to_one_constant_patch():
    rng = np.random.default_rng(6)
    dec = PatchDecoder(8, 2, np.random.default_rng(7))
    plan = build_mask(4, 16, 0.5, np.random.default_rng(8))
    emb = Tensor(rng.normal(size=(1, 4, 8, 8)).astype(np.float32))
    patches = dec(repopulate(emb, plan.unmasked_patches[None], 16)).data
    assert patches.shape == (1, 4, 16, 24)

    # decode the zero vector once: every masked slot must show exactly that patch
    zero_patch = dec(Tensor(np.zeros((1, 8), dtype=np.float32))).data[0]
    for t in range(4):
        for g in range(16):
            if plan.masked[t, g]:
                assert np.allclose(patches[0, t, g], zero_patch, atol=1e-6), (t, g)


def test_unmasked_slots_decode_from_their_embeddings():
    rng = np.random.default_rng(9)
    dec = PatchDecoder(8, 2, np.random.default_rng(10))
    plan = build_mask(2, 4, 0.5, np.random.default_rng(11))
    emb_data = rng.normal(size=(1, 2, 2, 8)).astype(np.float32)
    patches = dec(repopulate(Tensor(emb_data), plan.unmasked_patches[None], 4)).data
    for t in range(2):
        for slot, g in enumerate(plan.unmasked_patches[t]):
            want = dec(Tensor(emb_data[0, t, slot][None])).data[0]
            assert np.allclose(patches[0, t, g], want, atol=1e-6)


def test_decoder_reinit_changes_weights_deterministically():
    dec = PatchDecoder(8, 2, np.random.default_rng(14))
    before = {n: p.data.copy() for n, p in dec.named_parameters()}
    dec.reinit(np.random.default_rng(15))
    after1 = {n: p.data.copy() for n, p in dec.named_parameters()}
    assert any(not np.array_equal(before[n], after1[n]) for n in before)

    dec2 = PatchDecoder(8, 2, np.random.default_rng(14))
    dec2.reinit(np.random.default_rng(15))
    for n, p in dec2.named_parameters():
        assert np.array_equal(p.data, after1[n])
    # biases reinitialize to zero
    assert np.array_equal(dec.l1.b.data, np.zeros_like(dec.l1.b.data))
