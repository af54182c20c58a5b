"""Per-modality encoders: shared ViT, weather LSTM, DOY and delta embedders.

The ViT is one parameter set applied to every timestamp. The weather encoder
is a unidirectional sequence-to-sequence LSTM over daily channels; masked
days are zero-filled and flagged through a sixth indicator channel so genuine
zero weather stays distinguishable. Temporal embedding matching picks the
LSTM state at each image's DOY to align the two temporal resolutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from civsf.errors import ConfigError, DomainError, ShapeError
from civsf.masking import MaskPlan
from civsf.numerics import Tensor, nn

# fixed channel normalization (tmin, tmax, precip, wind_u, wind_v)
WEATHER_MEAN = np.array([8.0, 14.0, 1.5, 0.0, 0.0], dtype=np.float32)
WEATHER_STD = np.array([12.0, 12.0, 3.0, 3.0, 3.0], dtype=np.float32)
DOY_NORM = 365.0


@dataclass
class EncoderConfig:
    hidden: int = 64
    patch: int = 8
    side: int = 32
    vit_depth: int = 2
    vit_heads: int = 4
    temporal_depth: int = 2
    temporal_heads: int = 4
    ff_expansion: int = 2

    def __post_init__(self):
        if self.side % self.patch != 0:
            raise ConfigError(f"image side {self.side} not divisible by patch {self.patch}")
        if self.hidden % self.vit_heads or self.hidden % self.temporal_heads:
            raise ConfigError(f"hidden {self.hidden} not divisible by head counts")

    @property
    def grid(self) -> int:
        per_side = self.side // self.patch
        return per_side * per_side

    @property
    def patch_dim(self) -> int:
        return 6 * self.patch * self.patch


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """(..., 6, H, H) -> (..., G, 6*p*p), row-major patches, channel-major within."""
    *lead, c, h, w = images.shape
    if h != w or h % patch != 0:
        raise ConfigError(f"image side {h}x{w} not divisible by patch {patch}")
    n = h // patch
    x = images.reshape(-1, c, n, patch, n, patch)
    x = x.transpose(0, 2, 4, 1, 3, 5)
    return x.reshape(*lead, n * n, c * patch * patch)


def unpatchify(patches: np.ndarray, side: int, patch: int) -> np.ndarray:
    """Inverse of patchify (numpy)."""
    *lead, g, pd = patches.shape
    n = side // patch
    c = pd // (patch * patch)
    x = patches.reshape(-1, n, n, c, patch, patch)
    x = x.transpose(0, 3, 1, 4, 2, 5)
    return x.reshape(*lead, c, side, side)


class VitEncoder(nn.Module):
    """Shared-across-timestamps ViT over unmasked patch vectors."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32):
        d = cfg.hidden
        self.embed = nn.Linear(cfg.patch_dim, d, rng, dtype=dtype)
        # learned positional table, one row per grid position
        self.pos = Tensor((rng.normal(0.0, 0.02, size=(cfg.grid, d))).astype(dtype),
                          requires_grad=True)
        self.blocks = [nn.TransformerBlock(d, cfg.vit_heads, cfg.ff_expansion, rng, dtype=dtype)
                       for _ in range(cfg.vit_depth)]
        self.ln_f = nn.LayerNorm(d, dtype=dtype)
        self.hidden = d

    def __call__(self, patch_vecs: np.ndarray, patch_idx: np.ndarray) -> Tensor:
        """patch_vecs (B, T, U, 6p^2) with patch_idx (B, T, U) grid positions
        -> tokens (B, T, U, D). Attention mixes patches within a timestamp."""
        b, t, u, pd = patch_vecs.shape
        x = self.embed(Tensor(patch_vecs)) + self.pos[patch_idx]
        x = x.reshape(b * t, u, self.hidden)
        for block in self.blocks:
            x = block(x)
        x = self.ln_f(x)
        return x.reshape(b, t, u, self.hidden)


class WeatherEncoder(nn.Module):
    """Seq-to-seq unidirectional LSTM over daily weather, with the phase-1b
    reconstruction head (one linear map back to the 5 channels)."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, dtype=np.float32):
        self.lstm = nn.Lstm(6, cfg.hidden, rng, dtype=dtype)
        self.recon = nn.Linear(cfg.hidden, 5, rng, dtype=dtype)
        self.dtype = dtype

    @staticmethod
    def normalize(weather: np.ndarray) -> np.ndarray:
        return ((weather - WEATHER_MEAN) / WEATHER_STD).astype(np.float32)

    def __call__(self, weather: np.ndarray, day_mask: np.ndarray | None = None,
                 steps: int | None = None) -> Tensor:
        """weather (B, L, 5) raw units; day_mask (B, L) bool hides days.
        Returns hidden states (B, L', D), L' = steps or L."""
        if weather.ndim != 2 + 1:
            raise ShapeError(f"weather must be (batch, days, 5), got {weather.shape}")
        x = self.normalize(weather)
        b, length, _ = x.shape
        if day_mask is None:
            indicator = np.zeros((b, length, 1), dtype=self.dtype)
        else:
            x = np.where(day_mask[..., None], 0.0, x).astype(self.dtype)
            indicator = day_mask[..., None].astype(self.dtype)
        return self.lstm(np.concatenate([x, indicator], axis=2), steps=steps)

    def reconstruct(self, hidden: Tensor) -> Tensor:
        """Hidden states -> normalized 5-channel weather."""
        return self.recon(hidden)


def temporal_match(weather_emb: Tensor, doys: np.ndarray, start_doy: int) -> Tensor:
    """Select the weather embedding at each image DOY: out[b, i] =
    weather_emb[b, doys[b, i] - start_doy]."""
    idx = np.asarray(doys) - start_doy
    length = weather_emb.shape[1]
    if idx.min() < 0 or idx.max() >= length:
        bad = int(np.asarray(doys).flat[int(np.argmax((idx < 0) | (idx >= length)))])
        raise DomainError(f"doy {bad} outside weather span of {length} days from {start_doy}")
    b_idx = np.arange(weather_emb.shape[0])[:, None]
    return weather_emb[b_idx, idx]


class DoyEmbed(nn.Module):
    """doy/365 -> linear -> tanh, shared across timestamps."""

    def __init__(self, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.lin = nn.Linear(1, hidden, rng, dtype=dtype)
        self.dtype = dtype

    def __call__(self, doys: np.ndarray) -> Tensor:
        doys = np.asarray(doys)
        if doys.size and (doys.min() < 1 or doys.max() > 365):
            raise DomainError(f"doy outside [1, 365]: {int(doys.flat[np.argmax((doys < 1) | (doys > 365))])}")
        x = (doys / DOY_NORM).astype(self.dtype)[..., None]
        return self.lin(Tensor(x)).tanh()


class DeltaEmbed(nn.Module):
    """delta/365 -> linear, no squashing (gaps are unbounded above)."""

    def __init__(self, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.lin = nn.Linear(1, hidden, rng, dtype=dtype)
        self.dtype = dtype

    def __call__(self, ddays: np.ndarray) -> Tensor:
        ddays = np.asarray(ddays)
        if ddays.size and ddays.min() < 0:
            raise DomainError(f"negative forecast delta {int(ddays.min())}")
        x = (ddays / DOY_NORM).astype(self.dtype)[..., None]
        return self.lin(Tensor(x))


def gather_unmasked(patches: np.ndarray, plans: list[MaskPlan]) -> tuple[np.ndarray, np.ndarray]:
    """Select unmasked patch vectors per plan.

    patches (B, T, G, P) with one plan per batch row -> (B, T, U, P) plus the
    grid indices (B, T, U) that were kept.
    """
    b = patches.shape[0]
    if len(plans) != b:
        raise ShapeError(f"{len(plans)} plans for batch of {b}")
    idx = np.stack([p.unmasked_patches for p in plans])        # (B, T, U)
    sel = np.take_along_axis(patches, idx[..., None], axis=2)
    return sel, idx
