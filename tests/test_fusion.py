"""Fusion and causal temporal encoding: broadcast arithmetic, masked-timestamp
skipping, and the per-location no-leakage guarantee."""

import numpy as np
import pytest

from civsf.errors import ShapeError
from civsf.fusion import TemporalEncoder, causal_temporal_encode, fuse_add
from civsf.masking import build_mask
from civsf.numerics import Tensor
from civsf.training.model import trivial_plans


def make_encoder(hidden=8, depth=2, heads=2, seed=0) -> TemporalEncoder:
    return TemporalEncoder(hidden, depth, heads, 2, np.random.default_rng(seed))


def test_fuse_add_broadcasts_over_patches():
    rng = np.random.default_rng(1)
    tokens = Tensor(rng.normal(size=(2, 3, 4, 8)).astype(np.float32))
    wx = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32))
    doy = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32))
    out = fuse_add(tokens, wx, doy).data
    want = tokens.data + wx.data[:, :, None, :] + doy.data[:, :, None, :]
    assert np.allclose(out, want, atol=1e-7)


def test_fuse_add_without_weather_adds_nothing():
    rng = np.random.default_rng(2)
    tokens = Tensor(rng.normal(size=(1, 2, 3, 4)).astype(np.float32))
    doy = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    out = fuse_add(tokens, None, doy).data
    assert np.array_equal(out, tokens.data)


def test_fuse_add_shape_errors():
    tokens = Tensor(np.zeros((1, 2, 3, 4), dtype=np.float32))
    good = Tensor(np.zeros((1, 2, 4), dtype=np.float32))
    bad = Tensor(np.zeros((1, 3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        fuse_add(tokens, good, bad)
    with pytest.raises(ShapeError):
        fuse_add(tokens, bad, good)


def test_temporal_encode_is_causal_per_location():
    enc = make_encoder()
    rng = np.random.default_rng(3)
    t, g = 5, 4
    plans = trivial_plans(t, g, 1)
    fused = rng.normal(size=(1, t, g, 8)).astype(np.float32)
    base = causal_temporal_encode(enc, Tensor(fused), plans).data
    for j in range(1, t):
        bumped = fused.copy()
        bumped[0, j] += 2.0
        out = causal_temporal_encode(enc, Tensor(bumped), plans).data
        assert np.array_equal(out[0, :j], base[0, :j]), f"leak from timestamp {j}"
        assert not np.array_equal(out[0, j], base[0, j])


def test_temporal_encode_locations_are_independent():
    enc = make_encoder(seed=4)
    rng = np.random.default_rng(5)
    plans = trivial_plans(3, 4, 1)
    fused = rng.normal(size=(1, 3, 4, 8)).astype(np.float32)
    base = causal_temporal_encode(enc, Tensor(fused), plans).data
    bumped = fused.copy()
    bumped[0, :, 2] += 3.0  # location 2 only
    out = causal_temporal_encode(enc, Tensor(bumped), plans).data
    keep = [0, 1, 3]
    assert np.array_equal(out[0][:, keep], base[0][:, keep])
    assert not np.array_equal(out[0][:, 2], base[0][:, 2])


def test_temporal_encode_skips_masked_timestamps():
    """A location's series visits only its unmasked timestamps: values at
    masked (t, location) cells must not influence any output."""
    enc = make_encoder(seed=6)
    rng = np.random.default_rng(7)
    t, g = 4, 16
    plan = build_mask(t, g, 0.5, np.random.default_rng(8))
    fused = rng.normal(size=(1, t, g, 8)).astype(np.float32)
    base = causal_temporal_encode(enc, Tensor(fused), [plan]).data
    poisoned = fused.copy()
    poisoned[0][plan.masked] = 1e6
    out = causal_temporal_encode(enc, Tensor(poisoned), [plan]).data
    assert np.array_equal(out, base)


def test_temporal_encode_compact_output_layout():
    """Whole-grid input gives compact output (slot order per plan): slot s of timestamp t
    holds location unmasked_patches[t, s]'s encoding at that timestamp."""
    enc = make_encoder(seed=9)
    rng = np.random.default_rng(10)
    t, g = 4, 8
    plan = build_mask(t, g, 0.5, np.random.default_rng(11))
    fused = rng.normal(size=(1, t, g, 8)).astype(np.float32)
    out = causal_temporal_encode(enc, Tensor(fused), [plan]).data
    assert out.shape == (1, t, 4, 8)

    # oracle: run each location's sequence alone through the same blocks
    from civsf.numerics import nn
    for loc in range(g):
        times = plan.series_times[loc]
        seq = Tensor(fused[:, times, loc])
        x = seq.reshape(1, len(times), 8)
        keep = nn.causal_keep(len(times))
        for block in enc.blocks:
            x = block(x, keep)
        x = enc.ln_f(x).data
        for s, (tt, slot) in enumerate(zip(times, plan.series_slots[loc])):
            assert np.allclose(out[0, tt, slot], x[0, s], atol=1e-6)


def test_temporal_encode_batch_requires_equal_series_len():
    enc = make_encoder(seed=12)
    p1 = build_mask(4, 16, 0.5, np.random.default_rng(0))
    p2 = trivial_plans(4, 16, 1)[0]
    fused = Tensor(np.zeros((2, 4, 16, 8), dtype=np.float32))
    with pytest.raises(ShapeError, match="series lengths"):
        causal_temporal_encode(enc, fused, [p1, p2])


def test_temporal_encode_plan_count_mismatch():
    enc = make_encoder(seed=13)
    fused = Tensor(np.zeros((2, 3, 4, 8), dtype=np.float32))
    with pytest.raises(ShapeError):
        causal_temporal_encode(enc, fused, trivial_plans(3, 4, 1))


def test_temporal_encode_single_timestamp():
    enc = make_encoder(seed=14)
    rng = np.random.default_rng(15)
    fused = rng.normal(size=(2, 1, 4, 8)).astype(np.float32)
    out = causal_temporal_encode(enc, Tensor(fused), trivial_plans(1, 4, 2))
    assert out.shape == (2, 1, 4, 8)


def test_temporal_encode_gradient_flows():
    enc = make_encoder(seed=16)
    rng = np.random.default_rng(17)
    fused = Tensor(rng.normal(size=(1, 3, 4, 8)).astype(np.float32), requires_grad=True)
    out = causal_temporal_encode(enc, fused, trivial_plans(3, 4, 1))
    (out * out).mean().backward()
    assert fused.grad is not None
    assert np.all(np.isfinite(fused.grad))
    assert np.abs(fused.grad).max() > 0
