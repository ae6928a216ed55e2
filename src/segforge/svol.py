"""Reader/writer for the .svol container: a tiny little-endian volume format.

Layout: 8-byte magic ``SVOL0001``, uint32 rank, uint32 dims[rank], uint8
dtype code (0=float32, 1=uint8, 2=int16), then the raw C-order payload.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError, open_input, open_output

MAGIC = b"SVOL0001"

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<i2")}
_CODE_FOR_KIND = {dtype.kind: code for code, dtype in _DTYPE_CODES.items()}
MAX_RANK = 8


def write_svol(path: str | os.PathLike, array: np.ndarray) -> None:
    """Store any float, unsigned or signed integer array as float32, uint8 or int16.

    An integer value the stored type cannot hold is a FormatError, not wrapped.
    """
    arr = np.ascontiguousarray(array)
    code = _CODE_FOR_KIND.get(arr.dtype.kind)
    if code is None:
        raise FormatError(f"svol cannot store dtype {arr.dtype}")
    stored = arr.astype(_DTYPE_CODES[code], copy=False)
    if arr.dtype.kind != "f" and stored.dtype != arr.dtype and not np.array_equal(stored, arr):
        raise FormatError(f"svol stores {arr.dtype} as {stored.dtype}, "
                          f"which cannot hold every value of this array")
    arr = stored
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise FormatError(f"svol rank must be 1..{MAX_RANK}, got {arr.ndim}")
    with open_output(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(struct.pack("<B", code))
        fh.write(arr.tobytes())


def read_svol(path: str | os.PathLike) -> np.ndarray:
    with open_input(path, "volume") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"not a svol file: {path}")
    off = len(MAGIC)
    (rank,) = struct.unpack_from("<I", blob, off)
    off += 4
    if rank < 1 or rank > MAX_RANK:
        raise FormatError(f"svol rank {rank} out of range in {path}")
    if len(blob) < off + 4 * rank + 1:
        raise FormatError(f"truncated svol header in {path}")
    dims = struct.unpack_from(f"<{rank}I", blob, off)
    off += 4 * rank
    (code,) = struct.unpack_from("<B", blob, off)
    off += 1
    dtype = _DTYPE_CODES.get(code)
    if dtype is None:
        raise FormatError(f"unknown svol dtype code {code} in {path}")
    count = math.prod(dims)
    expected = off + count * dtype.itemsize
    if len(blob) != expected:
        raise FormatError(f"svol payload size mismatch in {path}: "
                          f"expected {expected} bytes, file has {len(blob)}")
    return np.frombuffer(blob, dtype=dtype, count=count, offset=off).reshape(dims).copy()
