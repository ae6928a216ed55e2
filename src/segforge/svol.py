"""Reader/writer for the .svol container: a tiny little-endian volume format.

Layout: 8-byte magic ``SVOL0001``, uint32 rank, uint32 dims[rank], uint8
dtype code (0=float32, 1=uint8, 2=int16), then the raw C-order payload.
`read_svol` decodes it through `errors.read_binary`, so every fault names
its byte offset and the payload is read straight into the result, or a
slab of whole first-axis rows at a time into a sink.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import FormatError, open_output, read_binary, write_array

MAGIC = b"SVOL0001"

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<i2")}
_CODE_FOR_KIND = {dtype.kind: code for code, dtype in _DTYPE_CODES.items()}
MAX_RANK = 8


def write_svol(path: str | os.PathLike, array: np.ndarray) -> None:
    """Store any float, unsigned or signed integer array as float32, uint8 or int16.

    An integer value the stored type cannot hold is a FormatError, not wrapped.
    Every check is made before the file is opened; the payload is then
    written from the stored array's own buffer, which is `array` itself when
    it is already C-ordered in the stored dtype.
    """
    src = np.atleast_1d(array)   # a 0-d array is stored with rank 1
    code = _CODE_FOR_KIND.get(src.dtype.kind)
    if code is None:
        raise FormatError(f"svol cannot store dtype {src.dtype}")
    arr = np.ascontiguousarray(src, dtype=_DTYPE_CODES[code])
    if src.dtype.kind != "f" and arr.dtype != src.dtype and not np.array_equal(arr, src):
        raise FormatError(f"svol stores {src.dtype} as {arr.dtype}, "
                          f"which cannot hold every value of this array")
    if arr.ndim > MAX_RANK:
        raise FormatError(f"svol rank must be 1..{MAX_RANK}, got {arr.ndim}")
    header = MAGIC + struct.pack(f"<I{arr.ndim}IB", arr.ndim, *arr.shape, code)
    with open_output(path) as fh:
        fh.write(header)
        write_array(fh, arr)


def read_svol(path: str | os.PathLike, sink=None):
    """Load one svol array; with `sink`, return `sink(dims, slabs)` as `read_nifti` does."""
    with read_binary(path, "volume") as reader:
        if reader.take(len(MAGIC), "magic") != MAGIC:
            raise FormatError(f"not a svol file: {path}")
        (rank,) = reader.unpack("<I", "rank")
        if rank < 1 or rank > MAX_RANK:
            raise FormatError(f"svol rank {rank} at byte {len(MAGIC)} out of range in {path}")
        dims = reader.unpack(f"<{rank}I", "dims")
        (code,) = reader.unpack("<B", "dtype code")
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise FormatError(f"unknown svol dtype code {code} at byte {reader.offset - 1} "
                              f"in {path}")
        if sink is None:
            arr = reader.array(dtype, dims, "payload")
        else:
            arr = sink(dims, reader.slabs(dtype, dims, "payload"))
        reader.drain()
    return arr
