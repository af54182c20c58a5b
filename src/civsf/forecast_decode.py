"""The forecaster head and the shared per-patch MLP decoder with repopulation.

The forecaster morphs a source timestamp's patch embeddings to a target date:
sum of (source embedding, weather embedding at the target DOY, target DOY
embedding, delta embedding) through a two-hidden-layer tanh MLP. The decoder
is one shared MLP mapping D to 6*p*p per patch; masked grid slots hold zero
vectors, so they all decode to one constant patch by construction.
"""

from __future__ import annotations

import numpy as np

from civsf.errors import ShapeError
from civsf.numerics import Tensor, nn, put


class Forecaster(nn.Module):
    """Two hidden tanh layers of width 2D, linear output back to D."""

    def __init__(self, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.l1 = nn.Linear(hidden, 2 * hidden, rng, dtype=dtype)
        self.l2 = nn.Linear(2 * hidden, 2 * hidden, rng, dtype=dtype)
        self.l3 = nn.Linear(2 * hidden, hidden, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.l3(self.l2(self.l1(x).tanh()).tanh())


def forecast_embed(forecaster: Forecaster, src: Tensor, weather: Tensor | None,
                   doy: Tensor, delta: Tensor) -> Tensor:
    """src (B, U, D) patch embeddings; weather/doy/delta (B, D) broadcast over
    patches; weather=None is the SM variant (addend contributes nothing)."""
    b, u, d = src.shape
    for name, t in (("doy", doy), ("delta", delta)):
        if t.shape != (b, d):
            raise ShapeError(f"{name} embedding shape {t.shape} != ({b}, {d})")
    x = src + doy.reshape(b, 1, d) + delta.reshape(b, 1, d)
    if weather is not None:
        if weather.shape != (b, d):
            raise ShapeError(f"weather embedding shape {weather.shape} != ({b}, {d})")
        x = x + weather.reshape(b, 1, d)
    return forecaster(x)


class PatchDecoder(nn.Module):
    """Shared light-weight MLP decoder, D -> 2D -> 6*p*p per patch."""

    def __init__(self, hidden: int, patch: int, rng: np.random.Generator, dtype=np.float32):
        self.l1 = nn.Linear(hidden, 2 * hidden, rng, dtype=dtype)
        self.l2 = nn.Linear(2 * hidden, 6 * patch * patch, rng, dtype=dtype)
        self.hidden = hidden
        self.patch = patch

    def __call__(self, x: Tensor) -> Tensor:
        return self.l2(self.l1(x).tanh())

    def reinit(self, rng: np.random.Generator) -> None:
        """Fresh weights in place (fine-tunes that retrain the decoder)."""
        for _, p in self.named_parameters():
            d_in, d_out = (p.data.shape if p.data.ndim == 2 else (p.data.shape[0], p.data.shape[0]))
            if p.data.ndim == 2:
                p.data = nn.xavier_uniform(rng, p.data.shape, d_in, d_out, p.data.dtype)
            else:
                p.data = np.zeros_like(p.data)
            p.grad = None


def repopulate(tokens: Tensor, grid_idx: np.ndarray, g_total: int) -> Tensor:
    """Place tokens (..., U, D) at their grid positions in (..., G, D) zeros.

    grid_idx carries each token's patch id; positions never repeat, masked
    slots stay zero.
    """
    *lead, u, d = tokens.shape
    lead_idx = np.ix_(*[np.arange(n) for n in lead]) if lead else ()
    idx = tuple(a[..., None] for a in lead_idx) + (grid_idx,)
    return put(tokens, idx, (*lead, g_total, d))
