"""Sample records, training instances, dataset splits, and the binary container.

A sample is one location: a spectral image series at irregular DOYs, a daily
weather series covering those DOYs, and optional supervision (soil series,
crop map). Weather channels are ordered (tmin, tmax, precip, wind_u, wind_v).

Container layout (little-endian, magic "CIVSFDS1"): u32 sample count; per
sample a fixed header u16 T, u16 H, u16 L, u16 start_doy, u8 flags (bit0
soil, bit1 crops), then the image block (T*6*H*H float32), DOYs (T u16),
weather (L*5 float32), optional soil (T float32), optional crops (H*H u8).
No padding anywhere; every offset follows from the header fields.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from civsf.errors import ConfigError, DataFormatError, DomainError, ShapeError
from civsf.fileio import ByteReader, write_atomic

MAGIC = b"CIVSFDS1"
BANDS = 6
WEATHER_CHANNELS = 5


@dataclass
class Sample:
    images: np.ndarray            # (T, 6, H, H) float32
    doys: np.ndarray              # (T,) int, strictly increasing
    weather: np.ndarray           # (L, 5) float32, daily from start_doy
    start_doy: int
    soil: np.ndarray | None = None    # (T,) float32 in [0, 1]
    crops: np.ndarray | None = None   # (H, H) uint8 class map
    region: int = 0

    @property
    def t_steps(self) -> int:
        return self.images.shape[0]

    @property
    def side(self) -> int:
        return self.images.shape[2]


def validate(sample: Sample) -> list[str]:
    """Return human-readable invariant violations (empty when the sample is well formed)."""
    bad: list[str] = []
    img = sample.images
    if img.ndim != 4 or img.shape[1] != BANDS or img.shape[2] != img.shape[3]:
        bad.append(f"images shape {img.shape} is not (T, {BANDS}, H, H)")
        return bad
    if img.dtype != np.float32:
        bad.append(f"images dtype {img.dtype} != float32")
    if not np.all(np.isfinite(img)):
        bad.append("images contain non-finite values")
    elif img.size and (img.min() < 0.0 or img.max() > 1.0):
        bad.append(f"image values outside [0, 1]: min={img.min():.4f} max={img.max():.4f}")
    t = img.shape[0]
    if sample.doys.shape != (t,):
        bad.append(f"doys shape {sample.doys.shape} != ({t},)")
    else:
        if t and not np.all(np.diff(sample.doys) > 0):
            bad.append("doys not strictly increasing")
        if t and (sample.doys[0] < 1 or sample.doys[-1] > 365):
            bad.append("doys outside [1, 365]")
        if t:
            lo, hi = sample.start_doy, sample.start_doy + sample.weather.shape[0] - 1
            if sample.doys[0] < lo or sample.doys[-1] > hi:
                bad.append(f"image doys not covered by weather [{lo}, {hi}]")
    wx = sample.weather
    if wx.ndim != 2 or wx.shape[1] != WEATHER_CHANNELS:
        bad.append(f"weather shape {wx.shape} is not (L, {WEATHER_CHANNELS})")
    else:
        if wx.dtype != np.float32:
            bad.append(f"weather dtype {wx.dtype} != float32")
        if not np.all(np.isfinite(wx)):
            bad.append("weather contains non-finite values")
        else:
            if np.any(wx[:, 0] > wx[:, 1]):
                bad.append("tmin exceeds tmax on some day")
            if np.any(wx[:, 2] < 0):
                bad.append("negative precipitation")
    if sample.soil is not None:
        if sample.soil.shape != (t,):
            bad.append(f"soil shape {sample.soil.shape} != ({t},)")
        elif sample.soil.size and (sample.soil.min() < 0 or sample.soil.max() > 1):
            bad.append("soil values outside [0, 1]")
    if sample.crops is not None:
        side = img.shape[2]
        if sample.crops.shape != (side, side):
            bad.append(f"crops shape {sample.crops.shape} != ({side}, {side})")
        elif sample.crops.dtype != np.uint8:
            bad.append(f"crops dtype {sample.crops.dtype} != uint8")
    return bad


@dataclass(frozen=True)
class Instance:
    """One forecast task: C consecutive context images and one later target."""
    sample_idx: int
    start: int
    length: int
    target: int
    delta: int


def build_instances(sample: Sample, sample_idx: int, context_len: int,
                    gap_min: int, gap_max: int) -> list[Instance]:
    """Enumerate every (window, target) pair with an in-range DOY gap.

    Windows are C consecutive images; the target is any strictly later image
    whose DOY distance from the window's final image lies in [gap_min, gap_max].
    """
    if context_len < 1:
        raise DomainError(f"context_len must be >= 1, got {context_len}")
    if gap_min < 1 or gap_max < gap_min:
        raise DomainError(f"bad gap range [{gap_min}, {gap_max}]")
    doys = sample.doys
    out: list[Instance] = []
    for start in range(sample.t_steps - context_len + 1):
        last = start + context_len - 1
        for j in range(last + 1, sample.t_steps):
            gap = int(doys[j] - doys[last])
            if gap_min <= gap <= gap_max:
                out.append(Instance(sample_idx, start, context_len, j, gap))
    return out


def instances_of(samples: list[Sample], idxs, context_len: int, gap_min: int,
                 gap_max: int) -> list[Instance]:
    """build_instances of each listed sample, in the order listed."""
    return [inst for si in idxs
            for inst in build_instances(samples[si], si, context_len, gap_min, gap_max)]


def context_windows(sample: Sample, context_len: int) -> list[int]:
    """Start indices of every full-length context window (for reconstruction phases)."""
    return list(range(max(0, sample.t_steps - context_len + 1)))


def windows_of(samples: list[Sample], idxs, length: int) -> list[tuple[int, int]]:
    """Every (sample, start) window of the given length in the listed samples."""
    return [(si, s) for si in idxs for s in context_windows(samples[si], length)]


def stack_windows(samples: list[Sample], rows, length: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Batch arrays of (sample, start) context windows of the given length.

    Returns images (B, length, 6, H, H), DOYs (B, length), whole weather
    series (B, L, 5) and the start DOY they share; ShapeError when the rows'
    samples differ in start DOY or weather length.
    """
    starts = sorted({int(samples[si].start_doy) for si, _ in rows})
    if len(starts) != 1:
        raise ShapeError(f"mixed start_doy values in one batch: {starts}")
    spans = sorted({samples[si].weather.shape[0] for si, _ in rows})
    if len(spans) != 1:
        raise ShapeError(f"mixed weather lengths in one batch: {spans}")
    images = np.stack([samples[si].images[s:s + length] for si, s in rows])
    doys = np.stack([samples[si].doys[s:s + length] for si, s in rows])
    weather = np.stack([samples[si].weather for si, _ in rows])
    return images, doys, weather, starts[0]


def split(n_samples: int, fractions: tuple[float, float, float],
          seed: int) -> tuple[list[int], list[int], list[int]]:
    """Partition sample indices into train/val/test by largest remainder.

    The same (n_samples, fractions, seed) always yields the same partition.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    if any(f < 0 for f in fractions):
        raise ConfigError(f"split fractions must be nonnegative, got {fractions}")
    quotas = [f * n_samples for f in fractions]
    sizes = [int(q) for q in quotas]
    remainders = [q - s for q, s in zip(quotas, sizes)]
    short = n_samples - sum(sizes)
    for i in np.argsort(remainders)[::-1][:short]:
        sizes[int(i)] += 1
    order = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))).permutation(n_samples)
    a, b = sizes[0], sizes[0] + sizes[1]
    return (sorted(int(i) for i in order[:a]),
            sorted(int(i) for i in order[a:b]),
            sorted(int(i) for i in order[b:]))


# -- container I/O -------------------------------------------------------------


def save_container(path: str, samples: list[Sample]) -> int:
    """Write samples to a container file; returns bytes written."""
    chunks: list[bytes] = [MAGIC, struct.pack("<I", len(samples))]
    for i, s in enumerate(samples):
        problems = validate(s)
        if problems:
            raise DomainError(f"sample {i} invalid: {problems[0]}")
        t, side, length = s.t_steps, s.side, s.weather.shape[0]
        flags = (1 if s.soil is not None else 0) | (2 if s.crops is not None else 0)
        chunks.append(struct.pack("<HHHHB", t, side, length, s.start_doy, flags))
        chunks.append(np.ascontiguousarray(s.images, dtype="<f4").tobytes())
        chunks.append(np.ascontiguousarray(s.doys, dtype="<u2").tobytes())
        chunks.append(np.ascontiguousarray(s.weather, dtype="<f4").tobytes())
        if s.soil is not None:
            chunks.append(np.ascontiguousarray(s.soil, dtype="<f4").tobytes())
        if s.crops is not None:
            chunks.append(np.ascontiguousarray(s.crops, dtype="u1").tobytes())
    blob = b"".join(chunks)
    write_atomic(path, blob)
    return len(blob)


def load_container(path: str) -> list[Sample]:
    """Read a container; raises DataFormatError (with byte offset) on malformed input."""
    r = ByteReader(path, "container")
    magic = r.take(8, "magic")
    if magic != MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {MAGIC!r}", offset=0)
    (count,) = r.unpack("<I", "sample count")
    samples: list[Sample] = []
    for i in range(count):
        header_at = r.pos
        t, side, length, start_doy, flags = r.unpack("<HHHHB", f"sample {i} header")
        if flags & ~0b11:
            raise DataFormatError(f"sample {i}: unknown flag bits {flags:#x}", offset=header_at + 8)
        images = r.array(t * BANDS * side * side, "<f4",
                         f"sample {i} images").reshape(t, BANDS, side, side)
        doys = r.array(t, "<u2", f"sample {i} doys").astype(np.int64)
        weather = r.array(length * WEATHER_CHANNELS, "<f4",
                          f"sample {i} weather").reshape(length, WEATHER_CHANNELS)
        soil = r.array(t, "<f4", f"sample {i} soil") if flags & 1 else None
        crops = (r.array(side * side, "u1", f"sample {i} crops").reshape(side, side)
                 if flags & 2 else None)
        samples.append(Sample(images, doys, weather, int(start_doy), soil, crops))
    r.end()
    return samples
