"""Additive multimodal fusion and the causal temporal encoder producing Emb_STW.

Fusion adds the matched weather embedding and the DOY embedding to every
patch token of a timestamp (broadcast over patches). The temporal encoder
then runs causal attention per spatial location over that location's
unmasked-timestamp sequence; masked timestamps are skipped, not zero-filled,
which the masking module's equal-length guarantee makes regular.
"""

from __future__ import annotations

import numpy as np

from civsf.errors import ShapeError
from civsf.masking import MaskPlan
from civsf.numerics import Tensor, nn, put


def fuse_add(patch_tokens: Tensor, weather_t: Tensor | None, doy_t: Tensor) -> Tensor:
    """patch_tokens (B, T, U, D) + weather (B, T, D) + doy (B, T, D).

    SM variants pass weather_t=None, which contributes exactly nothing (the
    addend is skipped rather than zero-filled, so no weather values are read).
    """
    b, t, u, d = patch_tokens.shape
    if doy_t.shape != (b, t, d):
        raise ShapeError(f"doy embeddings {doy_t.shape} do not match tokens {patch_tokens.shape}")
    out = patch_tokens + doy_t.reshape(b, t, 1, d)
    if weather_t is not None:
        if weather_t.shape != (b, t, d):
            raise ShapeError(f"weather embeddings {weather_t.shape} do not match tokens {patch_tokens.shape}")
        out = out + weather_t.reshape(b, t, 1, d)
    return out


class TemporalEncoder(nn.Module):
    def __init__(self, hidden: int, depth: int, heads: int, expansion: int,
                 rng: np.random.Generator, dtype=np.float32):
        self.blocks = [nn.TransformerBlock(hidden, heads, expansion, rng, dtype=dtype)
                       for _ in range(depth)]
        self.ln_f = nn.LayerNorm(hidden, dtype=dtype)


def causal_temporal_encode(encoder: TemporalEncoder, fused: Tensor,
                           plans: list[MaskPlan]) -> Tensor:
    """Run the causal temporal transformer per location; regroup per timestamp.

    fused is (B, T, U, D) where the U axis is either the unmasked-slot order
    (pixel-masked input, U < G) or the whole patch grid (embedding masking,
    U = G; masked slots are skipped here, which is what masks them). With mask
    ratio 0 the two orders coincide. Output is always compact: (B, T, U', D) with
    U' = (1-r)*G, slot order given by each plan's unmasked_patches.

    Sequence order within a location is ascending timestamp; the causal keep
    mask makes entry t a function of entries <= t only, bitwise.
    """
    b, t, u, d = fused.shape
    if len(plans) != b:
        raise ShapeError(f"{len(plans)} plans for batch of {b}")
    lengths = {p.series_len for p in plans}
    if len(lengths) != 1:
        raise ShapeError(f"unequal location series lengths in batch: {sorted(lengths)}")
    s = lengths.pop()
    g = plans[0].g_patches

    t_idx = np.stack([p.series_times for p in plans])      # (B, G, S)
    slot_idx = np.stack([p.series_slots for p in plans])   # (B, G, S)
    if u == g:
        gather_u = np.broadcast_to(np.arange(g)[None, :, None], t_idx.shape)
    else:
        gather_u = slot_idx
    b_idx = np.arange(b)[:, None, None]

    seq = fused[b_idx, t_idx, gather_u]                    # (B, G, S, D)
    x = seq.reshape(b * g, s, d)
    keep = nn.causal_keep(s)
    for block in encoder.blocks:
        x = block(x, keep)
    x = encoder.ln_f(x)
    x = x.reshape(b, g, s, d)
    u_out = plans[0].unmasked_patches.shape[1]
    # each compact (t, slot) position receives exactly one location's entry
    return put(x, (b_idx, t_idx, slot_idx), (b, t, u_out, d))
