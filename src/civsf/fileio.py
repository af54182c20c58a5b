"""The one way the program reads a binary file and the one way it writes any file.

ByteReader holds a whole file and a cursor. Each field it cannot read (too
short or not UTF-8) raises DataFormatError with the field's byte offset, so
a parser built on it raises DataFormatError for a malformed file and OSError
for one it cannot open.

write_atomic writes a temporary file beside the target and os.replace-s it
over the target, so a killed run leaves the old file or the new one, never a
truncated one (a `--resume` point survives). A SIGKILL can leave the
temporary file behind. There is no fsync: the guarantee is against a killed
process, not a lost machine, because an fsync per forecast PPM or phase-end
checkpoint would cost far more than the write itself.
"""

from __future__ import annotations

import contextlib
import os
import struct

import numpy as np

from civsf.errors import DataFormatError


class ByteReader:
    """The bytes of the file at path, read from the front; kind names the
    format in error messages."""

    def __init__(self, path: str, kind: str):
        with open(path, "rb") as fh:
            self.blob = fh.read()
        self.kind = kind
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataFormatError(
                f"truncated {self.kind}: needed {n} bytes for {what}, "
                f"{len(self.blob) - self.pos} remain", offset=self.pos)
        out = self.blob[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, count: int, dtype: str | np.dtype, what: str) -> np.ndarray:
        """count items of dtype, as a writable copy."""
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * item, what), dtype=dtype).copy()

    def text(self, n: int, what: str) -> str:
        at = self.pos
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{what} is not UTF-8", offset=at + e.start) from None

    def end(self) -> None:
        """Raise unless every byte has been read."""
        if self.pos != len(self.blob):
            raise DataFormatError(f"{len(self.blob) - self.pos} trailing bytes after the "
                                  f"{self.kind}", offset=self.pos)


def write_atomic(path: str, data: bytes) -> None:
    """Replace the file at path with data in one step."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
