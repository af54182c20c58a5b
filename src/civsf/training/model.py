"""Framework model assembly and the shared encode path.

One FrameworkModel carries every component its framework kind needs and
nothing else: SM-* kinds have no weather encoder at all (so weather values
cannot be read even by accident), *-MR kinds have no forecaster or delta
embedder. Components are initialized from per-component derived streams, so
two kinds built from the same seed share identical initial weights for the
components they have in common.
"""

from __future__ import annotations

import numpy as np

from civsf.encoders import (
    DeltaEmbed,
    DoyEmbed,
    EncoderConfig,
    VitEncoder,
    WeatherEncoder,
    gather_unmasked,
    patchify,
    temporal_match,
)
from civsf.errors import ConfigError, DomainError
from civsf.forecast_decode import Forecaster, PatchDecoder, forecast_embed
from civsf.fusion import TemporalEncoder, causal_temporal_encode, fuse_add
from civsf.harness.config import FRAMEWORKS, Config
from civsf.masking import MaskPlan
from civsf.numerics import RngStream, Tensor, nn, no_grad


def uses_weather(kind: str) -> bool:
    return kind in ("mm-mr", "ci-vsf")


def uses_forecaster(kind: str) -> bool:
    return kind in ("sm-vsf", "ci-vsf")


class FrameworkModel(nn.Module):
    def __init__(self, kind: str, cfg: Config, seed: int, dtype=np.float32):
        if kind not in FRAMEWORKS:
            raise ConfigError(f"unknown framework '{kind}'")
        enc = EncoderConfig(hidden=cfg.hidden, patch=cfg.patch, side=cfg.side,
                            vit_depth=cfg.vit_depth, vit_heads=cfg.vit_heads,
                            temporal_depth=cfg.temporal_depth,
                            temporal_heads=cfg.temporal_heads,
                            ff_expansion=cfg.ff_expansion)
        stream = RngStream(seed)
        self.vit = VitEncoder(enc, stream.generator("init/vit"), dtype=dtype)
        self.doy = DoyEmbed(enc.hidden, stream.generator("init/doy"), dtype=dtype)
        self.temporal = TemporalEncoder(enc.hidden, enc.temporal_depth, enc.temporal_heads,
                                        enc.ff_expansion, stream.generator("init/temporal"),
                                        dtype=dtype)
        self.decoder = PatchDecoder(enc.hidden, enc.patch, stream.generator("init/decoder"),
                                    dtype=dtype)
        if uses_weather(kind):
            self.weather = WeatherEncoder(enc, stream.generator("init/weather"), dtype=dtype)
        else:
            self.weather = None
        if kind == "mm-mr":
            self.wx_head = nn.Linear(enc.hidden, 5, stream.generator("init/wx_head"), dtype=dtype)
        else:
            self.wx_head = None
        if uses_forecaster(kind):
            self.delta = DeltaEmbed(enc.hidden, stream.generator("init/delta"), dtype=dtype)
            self.forecaster = Forecaster(enc.hidden, stream.generator("init/forecaster"),
                                         dtype=dtype)
        else:
            self.delta = None
            self.forecaster = None
        self.kind = kind
        self.enc = enc
        self.dtype = dtype

    # -- parameter subsets per phase -------------------------------------------

    def phase_params(self, phase: str) -> list[tuple[str, Tensor]]:
        prefixes = {
            "1a": ("vit", "decoder"),
            "1b": ("weather",),
            "1c": ("vit", "doy", "temporal", "decoder", "weather", "wx_head"),
            "2": ("vit", "doy", "temporal", "decoder", "weather", "delta", "forecaster"),
        }[phase]
        return [(n, p) for n, p in self.named_parameters()
                if n.split(".", 1)[0] in prefixes]

    # -- forward paths -----------------------------------------------------------

    def encode_weather(self, weather: np.ndarray, steps: int | None = None) -> Tensor | None:
        if self.weather is None:
            return None
        return self.weather(weather, steps=steps)

    def fuse_series(self, patches: np.ndarray, doys: np.ndarray,
                    weather_h: Tensor | None, start_doy: int,
                    plans: list[MaskPlan], mask_pixels: bool) -> Tensor:
        """Tokens of patchified images (B, T, G, P) plus matched weather and
        DOY embeddings -> (B, T, U, D).

        mask_pixels=True: the ViT sees only unmasked patches (phases 1a/2).
        mask_pixels=False: the ViT sees the whole grid and the plan masks
        embeddings at the temporal stage instead (phase 1c).
        """
        b, t = patches.shape[:2]
        if mask_pixels:
            sel, idx = gather_unmasked(patches, plans)
        else:
            sel = patches
            idx = np.broadcast_to(np.arange(self.enc.grid), (b, t, self.enc.grid))
        tokens = self.vit(sel.astype(self.dtype, copy=False), idx)
        weather_t = None
        if weather_h is not None:
            weather_t = temporal_match(weather_h, doys, start_doy)
        return fuse_add(tokens, weather_t, self.doy(doys))

    def encode_series(self, images: np.ndarray, doys: np.ndarray,
                      weather_h: Tensor | None, start_doy: int,
                      plans: list[MaskPlan], mask_pixels: bool) -> Tensor:
        """Full encode path to compact Emb_STW (B, T, U, D)."""
        fused = self.fuse_series(patchify(images, self.enc.patch), doys, weather_h, start_doy,
                                 plans, mask_pixels)
        return causal_temporal_encode(self.temporal, fused, plans)

    def frozen_weather(self, weather: np.ndarray, steps: int | None = None
                       ) -> np.ndarray | None:
        """No-grad weather states (B, L', D) of whole series (B, L, 5), from
        their first day; L' = steps or L. None for kinds without weather."""
        with no_grad():
            h = self.encode_weather(weather, steps=steps)
        return None if h is None else h.data

    def frozen_encode(self, images: np.ndarray, doys: np.ndarray,
                      weather_h: np.ndarray | None, start_doy: int) -> Tensor:
        """No-grad encode of whole windows, nothing masked.

        images (B, T, 6, H, H), doys (B, T), and weather_h (B, L, D), the
        frozen_weather states of each window's series from start_doy (None
        for kinds without weather). Returns Emb_STW (B, T, G, D). A row's
        embedding is bitwise the same whichever rows are encoded beside it,
        so fine-tunes encode each distinct window once and gather its rows.
        """
        b, t = images.shape[:2]
        plans = trivial_plans(t, self.enc.grid, b)
        h = None
        if weather_h is not None:
            last_day = int(np.max(doys))
            if last_day - start_doy + 1 > weather_h.shape[1]:
                raise DomainError(f"doy {last_day} beyond the {weather_h.shape[1]} weather "
                                  f"states from {start_doy}")
            h = Tensor(weather_h)
        with no_grad():
            return self.encode_series(images, doys, h, start_doy, plans, mask_pixels=True)

    def frozen_forecast(self, last_emb: np.ndarray, weather_t: np.ndarray | None,
                        target_doys: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """Forecast embeddings (B, G, D) from the last-timestep Emb_STW
        (B, G, D) of frozen_encode'd windows to target days (B,), which may be
        any days after the windows, observed or not. deltas (B,) are the
        target days minus each window's last DOY; weather_t (B, D) is the
        weather state at each target, None for kinds without weather."""
        with no_grad():
            femb = forecast_embed(self.forecaster, Tensor(last_emb),
                                  None if weather_t is None else Tensor(weather_t),
                                  self.doy(target_doys), self.delta(deltas))
        return femb.data


def weather_at(states, offsets: np.ndarray) -> np.ndarray:
    """The weather state (B, D) offsets[b] days after the first day of each
    row's frozen_weather states (L_b, D); DomainError past their end."""
    for h, k in zip(states, offsets):
        if k >= len(h):
            raise DomainError(f"target {k} days after the weather start is beyond its "
                              f"{len(h)} states")
    return np.stack([h[k] for h, k in zip(states, offsets)])


def trivial_plans(t_steps: int, g_patches: int, n: int) -> list[MaskPlan]:
    """r=0 plans (nothing masked), shared across a batch of n rows."""
    masked = np.zeros((t_steps, g_patches), dtype=bool)
    plan = MaskPlan(t_steps, g_patches, 0.0, masked)
    return [plan] * n
