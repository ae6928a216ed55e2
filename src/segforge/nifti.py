"""Minimal NIfTI-1 single-file (.nii / .nii.gz) volume reader and writer.

Only the header fields needed to locate and decode the voxel payload are
interpreted: dim, datatype, bitpix, vox_offset and the scl_slope/scl_inter
scaling pair. Byte order is detected from sizeof_hdr. Volumes come back as
``[D, H, W]`` arrays (slowest axis first), matching the on-disk x-fastest
ordering read in C order.

`read_nifti` checks the whole header and bounds the payload by the file's
size before it allocates the result, then reads the payload straight into
that array, PIECE bytes at a time, and swaps bytes in place when the file
is big-endian. No copy of the whole file is ever held.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import os
import struct
import zlib

import numpy as np

from .errors import DataError, FormatError

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"
PIECE = 1 << 20           # bytes per read of a payload into its array
DEFLATE_MAX_RATIO = 1032  # deflate inflates its input at most 1032-fold

# NIfTI datatype code -> numpy dtype (endianness applied at read time)
_DATATYPES = {
    2: np.dtype("u1"),     # unsigned char
    4: np.dtype("i2"),     # signed short
    16: np.dtype("f4"),    # float
    512: np.dtype("u2"),   # unsigned short
}
_CODE_FOR_DTYPE = {dt: code for code, dt in _DATATYPES.items()}


@contextlib.contextmanager
def _open_volume(path):
    """The file open for reading, gunzipped for `.gz`, and a bound on the bytes it yields.

    The bound is the file size, or for gzip deflate's 1032:1 ceiling times the
    compressed size. A missing file is a DataError; a truncated or corrupt
    gzip stream, wherever a read meets it, is a FormatError naming the file.
    """
    try:
        with open(path, "rb") as raw:
            size = os.fstat(raw.fileno()).st_size
            if str(path).endswith(".gz"):
                with gzip.GzipFile(fileobj=raw, mode="rb") as fh:
                    yield fh, size * DEFLATE_MAX_RATIO
            else:
                yield raw, size
    except FileNotFoundError:
        raise DataError(f"volume file not found: {path}") from None
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"corrupt gzip stream in {path}: {exc}") from None


def _byte_order(blob: bytes, path) -> str:
    """The header's byte order, told by which one reads sizeof_hdr as 348."""
    if len(blob) < HEADER_SIZE:
        raise FormatError(f"file too small for a NIfTI-1 header "
                          f"({len(blob)} < {HEADER_SIZE} bytes): {path}")
    for bo in "<>":
        if struct.unpack_from(bo + "i", blob, 0)[0] == HEADER_SIZE:
            return bo
    raise FormatError(f"bad sizeof_hdr at byte 0, not a NIfTI-1 file: {path}")


def _read_into(fh, out: memoryview) -> int:
    """Fill `out` from `fh` in PIECE-byte reads; the count read, short only at the end."""
    done = 0
    while done < len(out):
        n = fh.readinto(out[done:done + PIECE])
        if not n:
            break
        done += n
    return done


def read_nifti(path: str | os.PathLike) -> np.ndarray:
    """Load one 3D volume; scl scaling (when slope is nonzero) yields float32.

    The header is checked before the result is allocated, and the payload is
    read straight into it. The stream is read to its end, so gzip checks its
    CRC and length.
    """
    with _open_volume(path) as (fh, limit):
        blob = fh.read(HEADER_SIZE)
        bo = _byte_order(blob, path)

        dim = struct.unpack_from(bo + "8h", blob, 40)
        (datatype,) = struct.unpack_from(bo + "h", blob, 70)
        (bitpix,) = struct.unpack_from(bo + "h", blob, 72)
        (vox_offset,) = struct.unpack_from(bo + "f", blob, 108)
        (scl_slope,) = struct.unpack_from(bo + "f", blob, 112)
        (scl_inter,) = struct.unpack_from(bo + "f", blob, 116)
        magic = blob[344:348]
        if magic != MAGIC_SINGLE:
            raise FormatError(f"bad magic {magic!r} at byte 344 in {path} "
                              f"(only single-file n+1 is handled)")

        rank = dim[0]
        if not 1 <= rank <= 7:
            raise FormatError(f"dim[0]={rank} at byte 40 out of range in {path}")
        dims = list(dim[1:1 + rank])
        if any(d < 1 for d in dims):
            raise FormatError(f"non-positive dims {dims} at byte 40 in {path}")
        while len(dims) > 3 and dims[-1] == 1:
            dims.pop()
        if len(dims) != 3:
            raise FormatError(f"expected a 3D volume, got dims {dims} in {path}")
        nx, ny, nz = dims

        base = _DATATYPES.get(datatype)
        if base is None:
            raise FormatError(f"unsupported datatype code {datatype} at byte 70 in {path}")
        if bitpix != base.itemsize * 8:
            raise FormatError(f"bitpix {bitpix} at byte 72 does not match "
                              f"datatype {datatype} in {path}")

        if not math.isfinite(vox_offset):
            raise FormatError(f"non-finite vox_offset {vox_offset} at byte 108 in {path}")
        offset = int(vox_offset)
        if offset < HEADER_SIZE:
            raise FormatError(f"vox_offset {vox_offset} at byte 108 overlaps the header in {path}")
        need = offset + nx * ny * nz * base.itemsize
        if need > limit:
            raise FormatError(f"truncated payload from byte {offset} in {path}: "
                              f"need {need} bytes, the file holds at most {limit}")

        # x varies fastest on disk, so C order gives [z, y, x] = [D, H, W]
        vol = np.empty((nz, ny, nx), dtype=base)
        fh.seek(offset)
        if _read_into(fh, memoryview(vol).cast("B")) < vol.nbytes:
            raise FormatError(f"truncated payload from byte {offset} in {path}: "
                              f"need {need} bytes, have {fh.tell()}")
        while fh.read(PIECE):
            pass

    if base.newbyteorder(bo) != base:
        vol.byteswap(inplace=True)
    if scl_slope != 0.0 and (scl_slope != 1.0 or scl_inter != 0.0):
        if not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
            raise FormatError(f"non-finite scl_slope/scl_inter at byte 112 in {path}")
        try:
            with np.errstate(over="raise"):
                vol = (vol.astype(np.float32) * np.float32(scl_slope) + np.float32(scl_inter))
        except FloatingPointError:
            raise FormatError(f"scl_slope/scl_inter at byte 112 overflow float32 "
                              f"in {path}") from None
    return vol


def read_spacing(path: str | os.PathLike) -> tuple[float, float, float]:
    """Voxel spacing in [D, H, W] order (pixdim 3, 2, 1) from the header alone."""
    with _open_volume(path) as (fh, _):
        blob = fh.read(HEADER_SIZE)
    pixdim = struct.unpack_from(_byte_order(blob, path) + "8f", blob, 76)
    return float(pixdim[3]), float(pixdim[2]), float(pixdim[1])


def write_nifti(path: str | os.PathLike, volume: np.ndarray,
                spacing: tuple[float, float, float] | None = None) -> None:
    """Store a [D, H, W] array as a single-file NIfTI-1 volume, no scaling."""
    if volume.ndim != 3:
        raise FormatError(f"write_nifti needs a 3D array, got shape {volume.shape}")
    arr = np.ascontiguousarray(volume)
    if arr.dtype not in _CODE_FOR_DTYPE:
        if arr.dtype.kind == "f":
            arr = arr.astype("f4")
        else:
            raise FormatError(f"cannot store dtype {volume.dtype} in NIfTI "
                              f"(use u1, i2, u2 or f4)")
    base = np.dtype(arr.dtype.name)
    code = _CODE_FOR_DTYPE[base]
    arr = arr.astype(base.newbyteorder("<"), copy=False)
    nz, ny, nx = arr.shape

    sd, sh, sw = spacing if spacing is not None else (1.0, 1.0, 1.0)
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, base.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, sw, sh, sd, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, float(HEADER_SIZE + 4))  # header + empty extension flag
    struct.pack_into("<f", hdr, 112, 0.0)   # scl_slope 0: no scaling on read
    struct.pack_into("<f", hdr, 116, 0.0)
    hdr[344:348] = MAGIC_SINGLE

    payload = bytes(hdr) + b"\x00\x00\x00\x00" + arr.tobytes()
    if str(path).endswith(".gz"):
        with open(path, "wb") as fh:
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)
