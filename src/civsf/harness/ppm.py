"""Binary PPM (P6) emission of band composites with percentile stretch."""

from __future__ import annotations

import re

import numpy as np

from civsf.errors import DataFormatError, DomainError
from civsf.fileio import ByteReader, write_atomic

# B4, B3, B2 band positions in the stored channel order (B2,B3,B4,B8,B9,B12)
DEFAULT_BANDS = (2, 1, 0)

# "P6", then width, height and maxval, each after whitespace or comment lines,
# then one whitespace byte before the payload; at most 9 digits per field
_GAP = rb"(?:\s|#[^\n]*\n)+"
_HEADER = re.compile(rb"P6" + _GAP + rb"(\d{1,9})" + _GAP + rb"(\d{1,9})" + _GAP
                     + rb"(\d{1,9})\s")


def stretch(channel: np.ndarray, lo_pct: float = 2.0, hi_pct: float = 98.0) -> np.ndarray:
    """Percentile-stretch one channel to uint8; constant input maps to
    mid-gray."""
    x = np.asarray(channel, dtype=np.float64)
    lo, hi = np.percentile(x, [lo_pct, hi_pct])
    if hi > lo:
        y = np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    else:
        y = np.full_like(x, 0.5)
    return np.round(y * 255.0).astype(np.uint8)


def compose(image: np.ndarray, bands: tuple[int, int, int] = DEFAULT_BANDS) -> np.ndarray:
    """(6, H, W) image -> stretched (H, W, 3) uint8 composite."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 6:
        raise DomainError(f"expected a (6, H, W) image, got {image.shape}")
    for b in bands:
        if not 0 <= int(b) < 6:
            raise DomainError(f"band index {b} outside [0, 6)")
    return np.stack([stretch(image[int(b)]) for b in bands], axis=-1)


def write_ppm(path: str, image: np.ndarray, bands: tuple[int, int, int] = DEFAULT_BANDS,
              config_hash: str = "", seed: int | None = None) -> None:
    rgb = compose(image, bands)
    h, w, _ = rgb.shape
    note = f"# config: {config_hash} seed: {seed}\n" if config_hash else ""
    write_atomic(path, f"P6\n{note}{w} {h}\n255\n".encode("ascii") + rgb.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """Parse a binary P6 file back to (H, W, 3) uint8."""
    r = ByteReader(path, "PPM")
    if not r.blob.startswith(b"P6"):
        raise DataFormatError(f"{path} is not a binary PPM", offset=0)
    header = _HEADER.match(r.blob)
    if header is None:
        raise DataFormatError(f"{path} has a malformed PPM header", offset=0)
    w, h, maxval = (int(field) for field in header.groups())
    if maxval != 255:
        raise DataFormatError(f"unsupported maxval {maxval}", offset=header.start(3))
    r.take(header.end(), "header")
    rgb = r.array(w * h * 3, "u1", "payload").reshape(h, w, 3)
    r.end()
    return rgb
