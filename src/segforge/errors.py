"""Exception hierarchy shared across the toolkit, and the one file policy.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
everything else derived from SegforgeError -> 4.

Every volume and checkpoint read, and every file and directory written,
goes through the helpers below (the CLI reads a run config itself). An
input that cannot be opened is a DataError; what a read then meets is the
caller's to judge, so a corrupt gzip stream stays a FormatError. Every
output path is the caller's choice (--out, --save-masks, output_dir), so
one that cannot be written is a ConfigError. Outputs are renamed over
their path only when complete, so a failed write leaves the old file.

A `BinaryReader` from `read_binary` decodes every binary file; a format
module keeps only its layout. Each read is bounded by the file's size before
anything is allocated, a short one is a FormatError naming the byte offset,
and a payload is read in slabs of whole rows (`BinaryReader.slabs`), either
straight into its array, never via a second copy, or into one reused
buffer of about PIECE bytes for a caller that keeps only part of it.
Writers check everything and build every header first, then `write_array`
hands each array's own buffer to the file, so a write holds no copy either.
"""

import contextlib
import gzip
import math
import os
import struct
import zlib
from pathlib import Path

import numpy as np


class SegforgeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SegforgeError):
    """Tensor or layer received incompatible shapes."""


class ContractError(SegforgeError):
    """A documented precondition was violated."""


class ConfigError(SegforgeError):
    """Invalid model or run configuration."""


class DataError(SegforgeError):
    """Dataset content is missing or inconsistent."""


class FormatError(DataError):
    """A file could not be parsed; message includes the byte offset."""


class NumericError(SegforgeError):
    """Non-finite values where finite ones are required (e.g. NaN gradients)."""


def open_input(path, what: str):
    """`path` open for binary reading; failing to open it is a DataError naming `what`."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None


PIECE = 1 << 20           # bytes per read of a payload into its array
DEFLATE_MAX_RATIO = 1032  # deflate inflates its input at most 1032-fold


class BinaryReader:
    """A stream read front to back from `offset`; each read is first checked against `limit`."""

    def __init__(self, fh, path, limit: int):
        self._fh = fh
        self.path = path
        self.limit = limit
        self.offset = 0

    def _truncated(self, field: str, start: int, nbytes: int, got=None) -> FormatError:
        end = f"{self.limit} at the latest" if got is None else start + got
        return FormatError(f"truncated {field} from byte {start} in {self.path}: "
                           f"{field} size {nbytes} bytes, the data ends at byte {end}")

    def take(self, nbytes: int, field: str) -> bytes:
        """The next `nbytes` bytes, which hold `field`."""
        if self.offset + nbytes > self.limit:
            raise self._truncated(field, self.offset, nbytes)
        data = self._fh.read(nbytes)
        if len(data) < nbytes:
            raise self._truncated(field, self.offset, nbytes, len(data))
        self.offset += nbytes
        return data

    def unpack(self, fmt: str, field: str) -> tuple:
        """The next fields `fmt` describes, as `struct.unpack` gives them."""
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), field))

    def _payload_size(self, dtype: np.dtype, dims, field: str, start: int) -> int:
        """The byte size of a `dtype` array of `dims` at `start`; shape and bound are checked."""
        nbytes = math.prod(dims) * dtype.itemsize
        if start + nbytes > self.limit:
            raise self._truncated(field, start, nbytes)
        try:   # the shape checks np.empty makes, without allocating
            np.broadcast_to(np.empty((), dtype=dtype), dims)
        except ValueError:   # more dims than numpy allows, or a size-0 shape that overflows
            raise FormatError(f"bad shape {list(dims)} of {field} at byte {start} "
                              f"in {self.path}") from None
        return nbytes

    def _begin(self, dtype: np.dtype, dims, field: str, at) -> tuple[int, int]:
        """`(start, nbytes)` of the payload next, or at byte `at`, checked and sought to."""
        start = self.offset if at is None else at
        nbytes = self._payload_size(dtype, dims, field, start)
        if at is not None:
            self._fh.seek(at)
        return start, nbytes

    def slabs(self, dtype: np.dtype, dims, field: str, at=None):
        """The `(lo, slab)` pairs of the C-order `dtype` array of `dims` next, or from byte `at`.

        Each slab holds whole rows `lo:lo + len(slab)` of the first axis, in
        native byte order, read into one buffer of about PIECE bytes that the
        next slab reuses. The size is checked against the limit by this call,
        so before a caller allocates what the slabs fill.
        """
        start, nbytes = self._begin(dtype, dims, field, at)
        return self._read_slabs(dtype, dims, field, start, nbytes)

    def _read_slabs(self, dtype, dims, field, start, nbytes, out=None):
        """Yield the slabs `slabs` describes, read into `out` when it is given."""
        shape = tuple(dims) or (1,)   # a 0-d array is one row
        rows = shape[0]
        done = 0
        if nbytes:
            per = max(1, PIECE // (nbytes // rows))
            if out is not None:
                out = out.reshape(shape)
            else:
                buf = np.empty((min(per, rows), *shape[1:]), dtype=dtype.newbyteorder("="))
            for lo in range(0, rows, per):
                slab = out[lo:lo + per] if out is not None else buf[:min(per, rows - lo)]
                raw = slab.reshape(-1).view(np.uint8)
                got = 0
                while got < raw.size:
                    n = self._fh.readinto(raw[got:got + PIECE])
                    if not n:
                        raise self._truncated(field, start, nbytes, done + got)
                    got += n
                done += got
                if not dtype.isnative:
                    slab.byteswap(inplace=True)
                yield lo, slab
        self.offset = start + nbytes

    def array(self, dtype: np.dtype, dims, field: str, at=None) -> np.ndarray:
        """The C-order `dtype` array of `dims` next, or from byte `at`, as a native array.

        It is allocated only once the size is checked, then read slab by
        slab straight into itself.
        """
        start, nbytes = self._begin(dtype, dims, field, at)
        arr = np.empty(dims, dtype=dtype.newbyteorder("="))
        for _ in self._read_slabs(dtype, dims, field, start, nbytes, out=arr):
            pass
        return arr

    def skip(self, dtype: np.dtype, dims, field: str) -> None:
        """Pass over the `dtype` array of `dims` next without reading it into memory.

        A plain file seeks; a gzip stream inflates the bytes and drops them.
        """
        start = self.offset
        nbytes = self._payload_size(dtype, dims, field, start)
        got = self._fh.seek(start + nbytes) - start
        if got < nbytes:
            raise self._truncated(field, start, nbytes, got)
        self.offset = start + nbytes

    def drain(self, trailing_ok: bool = False) -> None:
        """Read to the end, so gzip checks its CRC; bytes left are an error unless trailing_ok."""
        left = 0
        while chunk := self._fh.read(PIECE):   # counted, not kept
            left += len(chunk)
        if left and not trailing_ok:
            raise FormatError(f"{left} trailing bytes at byte {self.offset} in {self.path}")


@contextlib.contextmanager
def read_binary(path, what: str):
    """A BinaryReader over `path`, gunzipped for `.gz`, bounded by the file's size.

    A file that cannot be opened is a DataError naming `what`; a truncated or
    corrupt gzip stream, wherever a read meets it, is a FormatError.
    """
    try:
        with open_input(path, what) as raw:
            size = os.fstat(raw.fileno()).st_size
            if str(path).endswith(".gz"):
                with gzip.GzipFile(fileobj=raw, mode="rb") as fh:
                    yield BinaryReader(fh, path, size * DEFLATE_MAX_RATIO)
            else:
                yield BinaryReader(raw, path, size)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"corrupt gzip stream in {path}: {exc}") from None


@contextlib.contextmanager
def open_output(path):
    """A binary file that replaces `path` when the block completes; any OSError is a ConfigError.

    The block writes `<path>.tmp`, which is removed if the block raises.
    """
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)      # still there only if the block or the rename failed


def write_array(fh, arr: np.ndarray) -> None:
    """Write C-contiguous `arr`'s own buffer to `fh`, in PIECE-byte slices and with no copy.

    The slices bound what one write hands on, such as the output of one
    GzipFile compression call, to PIECE bytes.
    """
    buf = arr.reshape(-1).view(np.uint8)
    for lo in range(0, buf.size, PIECE):
        fh.write(buf[lo:lo + PIECE])


def check_output_dir(path) -> None:
    """A ConfigError unless the directory that output `path` would be written into exists."""
    parent = Path(path).parent
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: no directory {parent}")


def make_dirs(path) -> None:
    """Create directory `path` and any missing parents; an OSError is a ConfigError."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror or exc}") from None
