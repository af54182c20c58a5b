"""Binary checkpoint container: magic "CIVSFCK1".

Layout (little-endian): magic; u32 metadata byte length; metadata as
plain-text "key: value" lines sorted by key; u32 tensor count; per tensor a
table entry (u16 name length, name bytes, u8 dtype tag, u8 rank, u32 extents,
u64 offset into the data section); then the raw data section. All tensors are
stored single precision (tag 0). Entries are sorted by name and offsets are
assigned in that order, so save -> load -> save is byte-identical; load
rejects offsets that leave a gap or overlap and bytes after the last tensor.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from civsf.errors import DataFormatError
from civsf.fileio import ByteReader, write_atomic

MAGIC = b"CIVSFCK1"
_DTYPES = {0: np.dtype("<f4")}
MAX_RANK = 32   # the most dimensions every supported numpy version allows


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
    write_atomic(path, blob)
    return len(blob)


def load_checkpoint(path: str) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    r = ByteReader(path, "checkpoint")
    if r.take(8, "magic") != MAGIC:
        raise DataFormatError(f"bad checkpoint magic in {path}", offset=0)
    (meta_len,) = r.unpack("<I", "metadata length")
    meta: dict[str, str] = {}
    for line in r.text(meta_len, "metadata").splitlines():
        key, _, value = line.partition(": ")
        meta[key] = value
    (count,) = r.unpack("<I", "tensor count")

    entries: dict[str, tuple[np.dtype, tuple[int, ...]]] = {}
    data_end = 0
    for i in range(count):
        (name_len,) = r.unpack("<H", f"entry {i} name length")
        name = r.text(name_len, f"entry {i} name")
        tag, rank = r.unpack("<BB", f"entry {i} dtype/rank")
        if tag not in _DTYPES:
            raise DataFormatError(f"unknown dtype tag {tag} for tensor '{name}'", offset=r.pos - 2)
        if rank > MAX_RANK:
            raise DataFormatError(f"tensor '{name}' has rank {rank} > {MAX_RANK}",
                                  offset=r.pos - 1)
        shape = r.unpack(f"<{rank}I", f"entry {i} extents")
        (offset,) = r.unpack("<Q", f"entry {i} offset")
        if offset != data_end:
            raise DataFormatError(f"tensor '{name}' at data offset {offset}, expected "
                                  f"{data_end}", offset=r.pos - 8)
        if name in entries:
            raise DataFormatError(f"duplicate tensor name '{name}'", offset=r.pos - 8)
        entries[name] = (_DTYPES[tag], shape)
        data_end += math.prod(shape) * _DTYPES[tag].itemsize

    # the data section holds the tensors back to back, in table order
    tensors = {name: r.array(math.prod(shape), dt, f"tensor '{name}'").reshape(shape)
               for name, (dt, shape) in entries.items()}
    r.end()
    return tensors, meta
