"""BSVF field file format: a tiny binary container for one real field.

Layout (all little-endian):
    bytes 0-3   magic ``BSVF``
    u32         version, currently 1
    u32         n, grid points per dimension
    f64         L, domain side length
    n*n f64     field values, row-major

Readers raise ``SpectralError`` for an unreadable path, wrong magic or
version, a grid size that is not a power of two >= 8 and a payload shorter
than the header promises; the last two are checked before the payload is read.
Writers go through a temporary file renamed into place, so a write that
fails leaves any earlier file at the path as it was.
"""

from __future__ import annotations

import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .spectral import Grid2D, RealField, SpectralError

MAGIC = b"BSVF"
VERSION = 1

_HEADER = struct.Struct("<4sIId")


def atomic_write(path, *chunks) -> None:
    """Write the chunks (bytes-like) to a temporary file next to path, then rename it onto path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_bsvf(path, field: RealField) -> None:
    payload = np.ascontiguousarray(field.values, dtype="<f8")
    atomic_write(path, _HEADER.pack(MAGIC, VERSION, field.grid.n, field.grid.L), payload)


def read_bsvf(path) -> RealField:
    try:
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise SpectralError(f"{path}: truncated BSVF header")
            magic, version, n, L = _HEADER.unpack(header)
            if magic != MAGIC:
                raise SpectralError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise SpectralError(f"{path}: unsupported BSVF version {version}, expected {VERSION}")
            if n < 8 or n & (n - 1):
                raise SpectralError(f"{path}: BSVF grid size must be a power of two >= 8, got n={n}")
            size = os.fstat(fh.fileno()).st_size - _HEADER.size
            if size < 8 * n * n:
                raise SpectralError(f"{path}: truncated BSVF payload ({size} bytes for n={n})")
            raw = fh.read(8 * n * n)
    except OSError as exc:
        raise SpectralError(f"{path}: cannot read BSVF file: {exc.strerror or exc}") from None
    values = np.frombuffer(raw, dtype="<f8").reshape(n, n)
    return RealField(Grid2D(n, L), values.copy())
