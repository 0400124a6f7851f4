"""Binary checkpoint serialization for named parameter sets.

Layout (all integers little-endian):

    magic   4 bytes  b"MEKD"
    version u32      currently 1
    count   u32      number of parameters
    then per parameter, in the order given:
        name_len u16, name UTF-8 bytes,
        rank     u8,  extents rank * u32,
        values   float64 row-major (C order)

Writes go to a temp file in the target directory followed by os.replace,
so a crash mid-write never leaves a truncated checkpoint at the final path.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np

MAGIC = b"MEKD"
VERSION = 1


class CheckpointError(ValueError):
    """Raised when a checkpoint file is malformed or unsupported."""


def dumps(params: dict[str, np.ndarray]) -> bytes:
    out = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for name, value in params.items():
        raw = name.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise CheckpointError(f"parameter name too long: {name[:32]}...")
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.ndim > 0xFF:
            raise CheckpointError(f"parameter rank too large: {arr.ndim}")
        out.append(struct.pack("<H", len(raw)))
        out.append(raw)
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.tobytes(order="C"))
    return b"".join(out)


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError("truncated checkpoint")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def loads(blob: bytes) -> dict[str, np.ndarray]:
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise CheckpointError("bad magic; not a checkpoint file")
    version, count = r.unpack("<II")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = r.unpack("<H")
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"parameter name is not UTF-8: {e.reason}") from None
        (rank,) = r.unpack("<B")
        shape = r.unpack(f"<{rank}I")
        size = 1
        for extent in shape:
            size *= extent
        raw = r.take(8 * size)
        try:
            values = np.frombuffer(raw, dtype="<f8").reshape(shape)
        except ValueError:  # a zero extent beside extents too large for numpy
            raise CheckpointError(f"impossible shape {shape} for {name!r}") from None
        if name in params:
            raise CheckpointError(f"duplicate parameter name {name!r}")
        params[name] = values.copy()  # frombuffer views are read-only
    if r.pos != len(blob):
        raise CheckpointError(f"{len(blob) - r.pos} trailing bytes after last parameter")
    return params


# mkstemp makes 0600 files; written files get the mode open() would give.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


def atomic_write(path: str | os.PathLike, blob: bytes) -> None:
    """Write blob to a temp file beside path, then rename it over path."""
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save(path: str | os.PathLike, params: dict[str, np.ndarray]) -> None:
    atomic_write(path, dumps(params))


def load(path: str | os.PathLike) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        return loads(fh.read())
