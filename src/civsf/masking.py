"""Spatiotemporally uniform masking lattices.

A mask plan is a T x G boolean matrix (timestamps x patch positions) where
every row masks exactly ratio*G patches and every column masks exactly
ratio*T timestamps. Construction: fill a canonical lattice cyclically, then
relabel rows and columns with independent seeded permutations.

The cyclic fill puts cell index j*M + i (column j, i in range(M), M=ratio*T)
into row (j*M + i) mod T. Those indices sweep 0..G*M-1 consecutively, so each
residue class mod T receives exactly G*M/T = ratio*G cells: both margins are
exact by construction, which is why non-integer ratio*T or ratio*G is
rejected instead of rounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from civsf.errors import DomainError


@dataclass
class MaskPlan:
    t_steps: int
    g_patches: int
    ratio: float
    masked: np.ndarray                 # (T, G) bool
    # gather/scatter companions, all derived from `masked`:
    unmasked_patches: np.ndarray = field(init=False)   # (T, U) patch ids, ascending
    slot_of: np.ndarray = field(init=False)            # (T, G) slot index or -1
    series_times: np.ndarray = field(init=False)       # (G, S) timestamps, ascending
    series_slots: np.ndarray = field(init=False)       # (G, S) slot at that timestamp

    def __post_init__(self):
        t, g = self.t_steps, self.g_patches
        u = g - int(round(self.ratio * g))
        s = t - int(round(self.ratio * t))
        self.unmasked_patches = np.empty((t, u), dtype=np.int64)
        self.slot_of = np.full((t, g), -1, dtype=np.int64)
        for row in range(t):
            ids = np.flatnonzero(~self.masked[row])
            self.unmasked_patches[row] = ids
            self.slot_of[row, ids] = np.arange(u)
        self.series_times = np.empty((g, s), dtype=np.int64)
        self.series_slots = np.empty((g, s), dtype=np.int64)
        for col in range(g):
            ts = np.flatnonzero(~self.masked[:, col])
            self.series_times[col] = ts
            self.series_slots[col] = self.slot_of[ts, col]

    @property
    def series_len(self) -> int:
        return self.series_times.shape[1]


def build_mask(t_steps: int, g_patches: int, ratio: float,
               rng: np.random.Generator) -> MaskPlan:
    """Build an exact uniform mask plan; see the module docstring.

    Raises DomainError when ratio is outside [0, 1) or when ratio*t_steps or
    ratio*g_patches is not an integer.
    """
    if t_steps < 1 or g_patches < 1:
        raise DomainError(f"mask lattice needs t_steps>=1 and g_patches>=1, got {t_steps}x{g_patches}")
    if not (0.0 <= ratio < 1.0):
        raise DomainError(f"mask ratio must lie in [0, 1), got {ratio}")
    per_col = ratio * t_steps
    per_row = ratio * g_patches
    if abs(per_col - round(per_col)) > 1e-9 or abs(per_row - round(per_row)) > 1e-9:
        raise DomainError(
            f"ratio {ratio} does not divide the lattice: ratio*T={per_col}, ratio*G={per_row} "
            "must both be integers")
    m = int(round(per_col))

    base = np.zeros((t_steps, g_patches), dtype=bool)
    for col in range(g_patches):
        rows = (col * m + np.arange(m)) % t_steps
        base[rows, col] = True

    row_perm = rng.permutation(t_steps)
    col_perm = rng.permutation(g_patches)
    masked = base[np.ix_(row_perm, col_perm)]
    return MaskPlan(t_steps, g_patches, ratio, masked)


def verify_mask(plan: MaskPlan) -> None:
    """Raise DomainError unless both margins are exact."""
    want_row = int(round(plan.ratio * plan.g_patches))
    want_col = int(round(plan.ratio * plan.t_steps))
    rows = plan.masked.sum(axis=1)
    cols = plan.masked.sum(axis=0)
    if not np.all(rows == want_row):
        bad = int(np.flatnonzero(rows != want_row)[0])
        raise DomainError(f"row {bad} masks {int(rows[bad])} patches, expected {want_row}")
    if not np.all(cols == want_col):
        bad = int(np.flatnonzero(cols != want_col)[0])
        raise DomainError(f"column {bad} masks {int(cols[bad])} timestamps, expected {want_col}")


def render_mask(plan: MaskPlan) -> str:
    """ASCII grid, one row per timestamp: '#' masked, '.' visible."""
    lines = ["".join("#" if m else "." for m in row) for row in plan.masked]
    return "\n".join(lines)


def build_weather_mask(length: int, ratio: float, rng: np.random.Generator) -> np.ndarray:
    """1-D boolean day mask: a uniform subset of round(ratio*length) days hidden."""
    if not (0.0 <= ratio < 1.0):
        raise DomainError(f"day mask ratio must lie in [0, 1), got {ratio}")
    n_mask = int(round(ratio * length))
    mask = np.zeros(length, dtype=bool)
    if n_mask:
        mask[rng.choice(length, size=n_mask, replace=False)] = True
    return mask
