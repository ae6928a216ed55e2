"""Minimal NIfTI-1 single-file (.nii / .nii.gz) volume reader and writer.

Only the header fields needed to locate and decode the voxel payload are
interpreted: dim, datatype, bitpix, vox_offset and the scl_slope/scl_inter
scaling pair. Byte order is detected from sizeof_hdr. Volumes come back as
``[D, H, W]`` arrays (slowest axis first), matching the on-disk x-fastest
ordering read in C order.

`read_nifti` checks the whole header, then reads the payload through
`errors.read_binary`, which bounds it by the file's size before it
allocates anything. An unscaled volume is read straight into its array; a
scaled one, or one handed to a sink, is decoded a slab of whole z-slices at
a time. No copy of the whole file is ever held.
"""

from __future__ import annotations

import gzip
import math
import os
import struct

import numpy as np

from .errors import BinaryReader, FormatError, open_output, read_binary, write_array

HEADER_SIZE = 348
MAGIC_SINGLE = b"n+1\x00"

# NIfTI datatype code -> numpy dtype (endianness applied at read time)
_DATATYPES = {
    2: np.dtype("u1"),     # unsigned char
    4: np.dtype("i2"),     # signed short
    16: np.dtype("f4"),    # float
    512: np.dtype("u2"),   # unsigned short
}
_CODE_FOR_DTYPE = {dt: code for code, dt in _DATATYPES.items()}


def _read_header(reader: BinaryReader) -> tuple[bytes, str]:
    """The header and its byte order, told by which one reads sizeof_hdr as 348."""
    blob = reader.take(HEADER_SIZE, "header")
    for bo in "<>":
        if struct.unpack_from(bo + "i", blob, 0)[0] == HEADER_SIZE:
            return blob, bo
    raise FormatError(f"bad sizeof_hdr at byte 0, not a NIfTI-1 file: {reader.path}")


def _scaler(slope: float, inter: float, path):
    """The map a slab goes through for scl_slope/scl_inter, or None when they ask for none."""
    if slope == 0.0 or (slope == 1.0 and inter == 0.0):
        return None
    if not (math.isfinite(slope) and math.isfinite(inter)):
        raise FormatError(f"non-finite scl_slope/scl_inter at byte 112 in {path}")
    slope, inter = np.float32(slope), np.float32(inter)

    def scale(slab: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(over="raise"):
                return slab.astype(np.float32) * slope + inter
        except FloatingPointError:
            raise FormatError(f"scl_slope/scl_inter at byte 112 overflow float32 "
                              f"in {path}") from None

    return scale


def _gather(dims, slabs) -> np.ndarray:
    """The float32 volume of `dims` that `slabs` fill."""
    vol = np.empty(dims, dtype=np.float32)
    for lo, slab in slabs:
        vol[lo:lo + len(slab)] = slab
    return vol


def read_nifti(path: str | os.PathLike, sink=None):
    """Load one 3D volume; scl scaling (when slope is nonzero) yields float32.

    The header is checked before anything is allocated. An unscaled payload
    is read straight into the result; a scaled one is read and scaled a slab
    of whole z-slices at a time into the float32 result. With `sink`, no
    volume is built: read_nifti returns `sink(dims, slabs)`, where `slabs`
    yields `(z0, slab)` pairs in order, each slab native and scaled, and held
    in a buffer the next one may reuse. The stream is read to its end, so
    gzip checks its CRC and length; bytes after the payload are allowed.
    """
    with read_binary(path, "volume") as reader:
        blob, bo = _read_header(reader)

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
        scale = _scaler(scl_slope, scl_inter, path)

        # x varies fastest on disk, so C order gives [z, y, x] = [D, H, W]
        dtype, shape = base.newbyteorder(bo), (nz, ny, nx)
        if sink is None and scale is None:
            vol = reader.array(dtype, shape, "payload", at=offset)
        else:
            slabs = reader.slabs(dtype, shape, "payload", at=offset)
            if scale is not None:
                slabs = ((z0, scale(slab)) for z0, slab in slabs)
            vol = (sink or _gather)(shape, slabs)
        reader.drain(trailing_ok=True)
    return vol


def read_spacing(path: str | os.PathLike) -> tuple[float, float, float]:
    """Voxel spacing in [D, H, W] order (pixdim 3, 2, 1) from the header alone."""
    with read_binary(path, "volume") as reader:
        blob, bo = _read_header(reader)
    pixdim = struct.unpack_from(bo + "8f", blob, 76)
    return float(pixdim[3]), float(pixdim[2]), float(pixdim[1])


def write_nifti(path: str | os.PathLike, volume: np.ndarray,
                spacing: tuple[float, float, float] | None = None) -> None:
    """Store a [D, H, W] array as a single-file NIfTI-1 volume, no scaling.

    The dims (each at most 32767, the int16 the header stores them in) and
    the dtype are checked and the header built before the file is opened;
    the payload is then written from the stored array's own buffer (the
    volume itself when it is already C-ordered in its stored dtype), through
    the compressor for `.nii.gz`.
    """
    if volume.ndim != 3:
        raise FormatError(f"write_nifti needs a 3D array, got shape {volume.shape}")
    if max(volume.shape) > 32767:
        raise FormatError(f"NIfTI-1 dims are int16, at most 32767, got shape {volume.shape}")
    base = volume.dtype
    if base not in _CODE_FOR_DTYPE:
        if base.kind != "f":
            raise FormatError(f"cannot store dtype {volume.dtype} in NIfTI "
                              f"(use u1, i2, u2 or f4)")
        base = np.dtype("f4")
    code = _CODE_FOR_DTYPE[base]
    arr = np.ascontiguousarray(volume, dtype=base.newbyteorder("<"))
    nz, ny, nx = arr.shape

    sd, sh, sw = spacing if spacing is not None else (1.0, 1.0, 1.0)
    hdr = bytearray(HEADER_SIZE + 4)   # + the empty extension flag
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<8h", hdr, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", hdr, 70, code)
    struct.pack_into("<h", hdr, 72, base.itemsize * 8)
    struct.pack_into("<8f", hdr, 76, 1.0, sw, sh, sd, 1.0, 1.0, 1.0, 1.0)
    struct.pack_into("<f", hdr, 108, float(HEADER_SIZE + 4))  # header + empty extension flag
    struct.pack_into("<f", hdr, 112, 0.0)   # scl_slope 0: no scaling on read
    struct.pack_into("<f", hdr, 116, 0.0)
    hdr[344:348] = MAGIC_SINGLE

    with open_output(path) as fh:
        if str(path).endswith(".gz"):
            # the gzip header names `path`, not the temporary file written. Level 1,
            # nibabel's, wrote a 155x240x240 float32 volume in 0.69 s against 1.16 s
            # at level 9 (2 vCPU), for 2% more bytes
            with gzip.GzipFile(os.fspath(path), mode="wb", fileobj=fh, mtime=0,
                               compresslevel=1) as gz:
                gz.write(hdr)
                write_array(gz, arr)
        else:
            fh.write(hdr)
            write_array(fh, arr)
