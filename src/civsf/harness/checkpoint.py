"""Binary checkpoint container: magic "CIVSFCK1".

Layout (little-endian): magic; u32 metadata byte length; metadata as
plain-text "key: value" lines sorted by key; u32 tensor count; per tensor a
table entry (u16 name length, name bytes, u8 dtype tag, u8 rank, u32 extents,
u64 offset into the data section); then the raw data section. All tensors are
stored single precision (tag 0). Entries are sorted by name and offsets are
assigned in that order, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import struct

import numpy as np

from civsf.errors import DataFormatError

MAGIC = b"CIVSFCK1"
_DTYPES = {0: np.dtype("<f4")}


def save_checkpoint(path: str, tensors: dict[str, np.ndarray],
                    meta: dict[str, str]) -> int:
    """Write tensors + metadata; returns bytes written."""
    for key, value in meta.items():
        if "\n" in key or "\n" in str(value) or ":" in key:
            raise DataFormatError(f"metadata key/value not encodable: {key!r}")
    meta_text = "".join(f"{k}: {meta[k]}\n" for k in sorted(meta))
    meta_blob = meta_text.encode("utf-8")

    names = sorted(tensors)
    table = []
    offset = 0
    blobs = []
    for name in names:
        # asarray with order="C", not ascontiguousarray: the latter promotes
        # rank-0 arrays to rank 1 and would break scalar entries
        arr = np.asarray(tensors[name], dtype="<f4", order="C")
        raw = arr.tobytes()
        entry = struct.pack("<H", len(name.encode())) + name.encode()
        entry += struct.pack("<BB", 0, arr.ndim)
        entry += struct.pack(f"<{arr.ndim}I", *arr.shape) if arr.ndim else b""
        entry += struct.pack("<Q", offset)
        table.append(entry)
        blobs.append(raw)
        offset += len(raw)

    out = [MAGIC, struct.pack("<I", len(meta_blob)), meta_blob,
           struct.pack("<I", len(names))] + table + blobs
    blob = b"".join(out)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    with open(path, "rb") as fh:
        blob = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(blob):
            raise DataFormatError(f"truncated checkpoint: needed {n} bytes for {what}", offset=pos)
        out = blob[pos:pos + n]
        pos += n
        return out

    def text(n: int, what: str) -> str:
        at = pos
        raw = take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{what} is not UTF-8", offset=at + e.start) from None

    if take(8, "magic") != MAGIC:
        raise DataFormatError(f"bad checkpoint magic in {path}", offset=0)
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta: dict[str, str] = {}
    for line in text(meta_len, "metadata").splitlines():
        key, _, value = line.partition(": ")
        meta[key] = value
    (count,) = struct.unpack("<I", take(4, "tensor count"))

    entries = []
    for i in range(count):
        (name_len,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        name = text(name_len, f"entry {i} name")
        tag, rank = struct.unpack("<BB", take(2, f"entry {i} dtype/rank"))
        if tag not in _DTYPES:
            raise DataFormatError(f"unknown dtype tag {tag} for tensor '{name}'", offset=pos - 2)
        shape = struct.unpack(f"<{rank}I", take(4 * rank, f"entry {i} extents")) if rank else ()
        (offset,) = struct.unpack("<Q", take(8, f"entry {i} offset"))
        entries.append((name, tag, shape, offset))

    data_start = pos
    tensors: dict[str, np.ndarray] = {}
    for name, tag, shape, offset in entries:
        dt = _DTYPES[tag]
        n_bytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize if shape else dt.itemsize
        at = data_start + offset
        if at + n_bytes > len(blob):
            raise DataFormatError(f"tensor '{name}' extends past end of file", offset=at)
        if name in tensors:
            raise DataFormatError(f"duplicate tensor name '{name}'", offset=at)
        arr = np.frombuffer(blob[at:at + n_bytes], dtype=dt)
        tensors[name] = arr.reshape(shape).copy()
    return tensors, meta
