"""Binary checkpoint container: model, optimizer state, run config, progress.

Layout (all little-endian): magic ``SEGCKPT1``, u32 version, two
length-prefixed UTF-8 JSON documents (run config, then meta holding epoch /
best record / optimizer step), u32 tensor count, then named tensor entries:
u32 name length, name bytes, u8 dtype code, u8 rank, u32 dims, raw data.
A model's arrays are named by `model_arrays` alone, as ``param:<path>`` and
``buffer:<path>``; the optimizer adds ``adam.m:`` and ``adam.v:`` entries.
Saves are atomic (temp file + rename), so an interrupted run keeps its last
intact checkpoint. Loads decode the file through `errors.read_binary`, each
tensor read straight into its array, so a load holds no copy of the file; a
save writes each tensor from its own buffer, so a save holds none either.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (BinaryReader, ConfigError, FormatError, open_output, read_binary,
                     write_array)
from .layers import Module
from .model import ModelConfig, SegmentationModel

MAGIC = b"SEGCKPT1"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1"), 3: np.dtype("<i8")}
_CODE_FOR_NAME = {dtype.name: code for code, dtype in _DTYPE_CODES.items()}


@dataclass
class CheckpointData:
    config: dict
    arrays: dict[str, np.ndarray]
    epoch: int
    best: Optional[dict]
    optimizer_step: int


def model_arrays(model: Module) -> dict[str, np.ndarray]:
    """Every array a checkpoint holds for `model`, by its stored name, in walk order.

    Parameters are ``param:<path>`` and buffers ``buffer:<path>``; the
    values are the model's own arrays, so writing into them updates it.
    """
    arrays = {f"param:{name}": p.data for name, p in model.named_parameters()}
    arrays.update((f"buffer:{name}", b) for name, b in model.named_buffers())
    return arrays


def _entry_header(name: str, arr: np.ndarray) -> tuple[bytes, np.dtype]:
    """An entry's name, dtype code, rank and dims, and the dtype its data is stored in."""
    code = _CODE_FOR_NAME.get(arr.dtype.name)
    if code is None:
        raise FormatError(f"cannot checkpoint dtype {arr.dtype} for '{name}'")
    shape = arr.shape or (1,)   # a 0-d array is stored as np.ascontiguousarray makes it
    nbytes = name.encode("utf-8")
    header = struct.pack(f"<I{len(nbytes)}sBB{len(shape)}I", len(nbytes), nbytes,
                         code, len(shape), *shape)
    return header, _DTYPE_CODES[code]


def save_checkpoint(path: str | os.PathLike, config: dict, model: Module,
                    optimizer=None, epoch: int = 0, best: Optional[dict] = None) -> None:
    """Write the model's arrays, and the optimizer's moments if given, to `path` atomically.

    Every dtype is checked and every header built before the first byte is
    written; each array's own buffer then follows its header, so the save
    holds no copy of what it writes (an array not already C-ordered in its
    stored dtype is converted on its own, just before it is written).
    """
    arrays = model_arrays(model)
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
    meta = {
        "epoch": int(epoch),
        "best": best,
        "optimizer_step": int(optimizer.step_count) if optimizer is not None else 0,
    }
    config_doc = json.dumps(config, sort_keys=True).encode("utf-8")
    meta_doc = json.dumps(meta, sort_keys=True).encode("utf-8")
    head = b"".join([MAGIC, struct.pack("<I", VERSION),
                     struct.pack("<I", len(config_doc)), config_doc,
                     struct.pack("<I", len(meta_doc)), meta_doc,
                     struct.pack("<I", len(arrays))])
    entries = [(*_entry_header(name, arr), arr) for name, arr in arrays.items()]

    with open_output(path) as fh:
        fh.write(head)
        for header, dtype, arr in entries:
            fh.write(header)
            write_array(fh, np.ascontiguousarray(arr, dtype=dtype))


def _read_doc(reader: BinaryReader, what: str) -> dict:
    """A length-prefixed JSON object, the config or meta document."""
    (length,) = reader.unpack("<I", f"{what} length")
    off = reader.offset
    try:
        doc = json.loads(reader.take(length, f"{what} document").decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError both are
        raise FormatError(f"corrupt {what} document at byte {off} in {reader.path}: "
                          f"{exc}") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{what} document at byte {off} is not an object in {reader.path}")
    return doc


def load_checkpoint(path: str | os.PathLike, optimizer_state: bool = True) -> CheckpointData:
    """Parse a checkpoint; a truncated or corrupt file raises FormatError with its byte offset.

    With `optimizer_state` False, the ``adam.*`` entries are checked (name,
    dtype, dims and the payload's bound) but their payloads are skipped, not
    read, and they are left out of `arrays`; inference needs only the model.
    """
    with read_binary(path, "checkpoint") as reader:
        if reader.take(len(MAGIC), "magic") != MAGIC:
            raise FormatError(f"not a checkpoint file: {path}")
        (version,) = reader.unpack("<I", "version")
        if version != VERSION:
            raise FormatError(f"unsupported checkpoint version {version} at byte {len(MAGIC)} "
                              f"in {path}")
        config = _read_doc(reader, "config")
        meta_off = reader.offset
        meta = _read_doc(reader, "meta")
        try:
            epoch, optimizer_step = int(meta["epoch"]), int(meta["optimizer_step"])
        except (KeyError, TypeError, ValueError):
            raise FormatError(f"meta document at byte {meta_off} lacks an integer epoch "
                              f"and optimizer_step in {path}") from None
        (count,) = reader.unpack("<I", "tensor count")

        arrays: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = reader.unpack("<I", "tensor name length")
            try:
                name = reader.take(name_len, "tensor name").decode("utf-8")
            except UnicodeDecodeError:
                raise FormatError(f"corrupt tensor name at byte {reader.offset - name_len} "
                                  f"in {path}") from None
            code, rank = reader.unpack("<BB", f"dtype and rank of '{name}'")
            dtype = _DTYPE_CODES.get(code)
            if dtype is None:
                raise FormatError(f"unknown dtype code {code} for '{name}' at byte "
                                  f"{reader.offset - 2} in {path}")
            dims = reader.unpack(f"<{rank}I", f"dims of '{name}'")
            if optimizer_state or not name.startswith("adam."):
                arrays[name] = reader.array(dtype, dims, f"tensor '{name}'")
            else:
                reader.skip(dtype, dims, f"tensor '{name}'")
        reader.drain()

    return CheckpointData(config=config, arrays=arrays, epoch=epoch,
                          best=meta.get("best"), optimizer_step=optimizer_step)


def apply_arrays(model: Module, ckpt: CheckpointData) -> None:
    """Copy checkpoint params/buffers into a model.

    Names and shapes are all checked before the first copy, so a mismatch
    raises ConfigError and leaves the model untouched.
    """
    targets = model_arrays(model)
    stored = {k: v for k, v in ckpt.arrays.items() if k.startswith(("param:", "buffer:"))}
    missing, extra = sorted(targets.keys() - stored), sorted(stored.keys() - targets)
    if missing or extra:
        raise ConfigError(f"checkpoint arrays do not match the model: missing {missing}, "
                          f"extra {extra}; checkpoint config {ckpt.config.get('model')}")
    for key, arr in targets.items():
        if stored[key].shape != arr.shape:
            raise ConfigError(f"'{key}' shape {stored[key].shape} in checkpoint "
                              f"does not match model {arr.shape}")
    for key, arr in targets.items():
        arr[...] = stored[key].astype(arr.dtype, copy=False)


def restore_model(ckpt: CheckpointData) -> SegmentationModel:
    """Rebuild the architecture from the stored config and load its weights."""
    model = SegmentationModel(ModelConfig.from_dict(ckpt.config.get("model")))
    apply_arrays(model, ckpt)
    return model
