"""Per-modality encoder tests: patch geometry, weather LSTM semantics,
temporal matching, and the date embedders."""

import numpy as np
import pytest

from civsf.encoders import (
    DOY_NORM,
    WEATHER_MEAN,
    WEATHER_STD,
    DeltaEmbed,
    DoyEmbed,
    EncoderConfig,
    VitEncoder,
    WeatherEncoder,
    gather_unmasked,
    patchify,
    temporal_match,
    unpatchify,
)
from civsf.errors import ConfigError, DomainError, ShapeError
from civsf.masking import build_mask
from civsf.numerics import Tensor


def test_patchify_roundtrip():
    rng = np.random.default_rng(0)
    imgs = rng.normal(size=(2, 3, 6, 16, 16)).astype(np.float32)
    patches = patchify(imgs, 8)
    assert patches.shape == (2, 3, 4, 6 * 64)
    back = unpatchify(patches, 16, 8)
    assert np.array_equal(back, imgs)


def test_patchify_layout_is_row_major_channel_major():
    side, patch = 4, 2
    img = np.arange(6 * side * side, dtype=np.float32).reshape(1, 6, side, side)
    patches = patchify(img, patch)
    assert patches.shape == (1, 4, 24)
    # patch 1 is the top-right 2x2 block; its first 4 entries are band 0
    want = img[0, 0, 0:2, 2:4].reshape(-1)
    assert np.array_equal(patches[0, 1, :4], want)
    # next 4 entries are band 1 of the same block
    assert np.array_equal(patches[0, 1, 4:8], img[0, 1, 0:2, 2:4].reshape(-1))


def test_patchify_rejects_indivisible():
    with pytest.raises(ConfigError):
        patchify(np.zeros((1, 6, 10, 10), dtype=np.float32), 8)
    with pytest.raises(ConfigError):
        patchify(np.zeros((1, 6, 8, 10), dtype=np.float32), 2)


def test_vit_is_shared_across_timestamps():
    cfg = EncoderConfig(hidden=16, patch=4, side=8, vit_heads=2, temporal_heads=2)
    vit = VitEncoder(cfg, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(1, 1, 4, cfg.patch_dim)).astype(np.float32)
    idx = np.arange(4).reshape(1, 1, 4)
    single = vit(vecs, idx).data
    # the same patches presented at a different timestamp index encode identically
    double = vit(np.concatenate([vecs, vecs], axis=1),
                 np.concatenate([idx, idx], axis=1)).data
    assert np.array_equal(double[:, 0], single[:, 0])
    assert np.array_equal(double[:, 1], single[:, 0])


def test_vit_positional_table_distinguishes_positions():
    cfg = EncoderConfig(hidden=16, patch=4, side=8, vit_heads=2, temporal_heads=2)
    vit = VitEncoder(cfg, np.random.default_rng(4))
    rng = np.random.default_rng(5)
    vec = rng.normal(size=(1, 1, 1, cfg.patch_dim)).astype(np.float32)
    a = vit(vec, np.array([[[0]]])).data
    b = vit(vec, np.array([[[3]]])).data
    assert not np.array_equal(a, b)


def test_weather_encoder_normalize():
    wx = np.tile(WEATHER_MEAN, (4, 1))
    assert np.allclose(WeatherEncoder.normalize(wx), 0.0)
    wx2 = WEATHER_MEAN + WEATHER_STD
    assert np.allclose(WeatherEncoder.normalize(wx2[None]), 1.0)


def test_weather_encoder_masks_days_with_indicator():
    cfg = EncoderConfig(hidden=8, patch=4, side=8, vit_heads=2, temporal_heads=2)
    enc = WeatherEncoder(cfg, np.random.default_rng(6))
    rng = np.random.default_rng(7)
    tmin = rng.uniform(-5, 10, (2, 20))
    wx = np.stack([tmin, tmin + 5, rng.uniform(0, 5, (2, 20)),
                   rng.normal(size=(2, 20)), rng.normal(size=(2, 20))],
                  axis=2).astype(np.float32)
    mask = np.zeros((2, 20), dtype=bool)
    mask[:, 5] = True
    base = enc(wx, day_mask=mask).data
    # changing weather on a hidden day cannot reach the encoding
    wx2 = wx.copy()
    wx2[:, 5] += 100.0
    assert np.array_equal(enc(wx2, day_mask=mask).data, base)
    # but a genuinely zero day and a masked day differ through the indicator
    wx3 = wx.copy()
    wx3[:, 5] = WEATHER_MEAN  # normalizes to exactly zero
    no_mask = enc(wx3, day_mask=None).data
    assert not np.array_equal(no_mask, base)


def test_weather_encoder_is_causal():
    cfg = EncoderConfig(hidden=8, patch=4, side=8, vit_heads=2, temporal_heads=2)
    enc = WeatherEncoder(cfg, np.random.default_rng(8))
    rng = np.random.default_rng(9)
    tmin = rng.uniform(0, 10, (1, 30))
    wx = np.stack([tmin, tmin + 4, rng.uniform(0, 3, (1, 30)),
                   rng.normal(size=(1, 30)), rng.normal(size=(1, 30))],
                  axis=2).astype(np.float32)
    base = enc(wx).data
    late = wx.copy()
    late[:, 20:] += 50.0
    out = enc(late).data
    assert np.array_equal(out[:, :20], base[:, :20])
    assert not np.array_equal(out[:, 20:], base[:, 20:])


def test_weather_encoder_shape_errors():
    cfg = EncoderConfig(hidden=8, patch=4, side=8, vit_heads=2, temporal_heads=2)
    enc = WeatherEncoder(cfg, np.random.default_rng(10))
    with pytest.raises(ShapeError):
        enc(np.zeros((10, 5), dtype=np.float32))


def test_weather_reconstruct_shape():
    cfg = EncoderConfig(hidden=8, patch=4, side=8, vit_heads=2, temporal_heads=2)
    enc = WeatherEncoder(cfg, np.random.default_rng(11))
    wx = np.zeros((2, 15, 5), dtype=np.float32)
    h = enc(wx)
    assert enc.reconstruct(h).shape == (2, 15, 5)


def test_temporal_match_selects_correct_days():
    rng = np.random.default_rng(12)
    emb = Tensor(rng.normal(size=(2, 50, 4)).astype(np.float32))
    doys = np.array([[3, 10, 49], [1, 2, 50]])
    out = temporal_match(emb, doys, start_doy=1)
    assert out.shape == (2, 3, 4)
    assert np.array_equal(out.data[0, 0], emb.data[0, 2])    # doy 3 -> index 2
    assert np.array_equal(out.data[1, 2], emb.data[1, 49])   # doy 50 -> index 49
    assert np.array_equal(out.data[0, 2], emb.data[0, 48])


def test_temporal_match_rejects_uncovered_doys():
    emb = Tensor(np.zeros((1, 10, 4), dtype=np.float32))
    with pytest.raises(DomainError, match="doy 11"):
        temporal_match(emb, np.array([[11]]), start_doy=1)
    with pytest.raises(DomainError):
        temporal_match(emb, np.array([[4]]), start_doy=5)


def test_temporal_match_gradient_routes_to_selected_days():
    emb = Tensor(np.zeros((1, 6, 2), dtype=np.float32), requires_grad=True)
    out = temporal_match(emb, np.array([[2, 4]]), start_doy=1)
    out.sum().backward()
    want = np.zeros((1, 6, 2), dtype=np.float32)
    want[0, 1] = 1.0
    want[0, 3] = 1.0
    assert np.array_equal(emb.grad, want)


def test_doy_embed_domain_and_tanh_range():
    embed = DoyEmbed(8, np.random.default_rng(13))
    out = embed(np.array([[1, 180, 365]])).data
    assert out.shape == (1, 3, 8)
    assert np.all(np.abs(out) < 1.0)  # tanh squashes
    with pytest.raises(DomainError):
        embed(np.array([0]))
    with pytest.raises(DomainError):
        embed(np.array([366]))


def test_doy_embed_is_scaled_input():
    embed = DoyEmbed(4, np.random.default_rng(14))
    w, b = embed.lin.w.data, embed.lin.b.data
    doy = 100
    want = np.tanh((doy / DOY_NORM) * w[0] + b)
    assert np.allclose(embed(np.array([doy])).data[0], want, atol=1e-6)


def test_delta_embed_linear_no_squash():
    embed = DeltaEmbed(4, np.random.default_rng(15))
    w, b = embed.lin.w.data, embed.lin.b.data
    out = embed(np.array([365 * 3])).data[0]  # deltas beyond a year are legal
    want = (365 * 3 / DOY_NORM) * w[0] + b
    assert np.allclose(out, want, atol=1e-5)
    with pytest.raises(DomainError):
        embed(np.array([-1]))
    assert embed(np.array([0])).data.shape == (1, 4)


def test_gather_unmasked_selects_plan_complement():
    rng = np.random.default_rng(16)
    patches = rng.normal(size=(2, 4, 16, 5)).astype(np.float32)
    plans = [build_mask(4, 16, 0.5, np.random.default_rng(s)) for s in (1, 2)]
    sel, idx = gather_unmasked(patches, plans)
    assert sel.shape == (2, 4, 8, 5)
    assert idx.shape == (2, 4, 8)
    for b in range(2):
        for t in range(4):
            assert np.array_equal(idx[b, t], np.flatnonzero(~plans[b].masked[t]))
            assert np.array_equal(sel[b, t], patches[b, t, idx[b, t]])


def test_gather_unmasked_plan_count_mismatch():
    patches = np.zeros((2, 4, 16, 5), dtype=np.float32)
    plans = [build_mask(4, 16, 0.5, np.random.default_rng(0))]
    with pytest.raises(ShapeError):
        gather_unmasked(patches, plans)


def test_encoder_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(side=30, patch=8)
    with pytest.raises(ConfigError):
        EncoderConfig(hidden=30, vit_heads=4)
    cfg = EncoderConfig(side=32, patch=8)
    assert cfg.grid == 16
    assert cfg.patch_dim == 6 * 64
