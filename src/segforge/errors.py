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
"""

import contextlib
import os
from pathlib import Path


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
