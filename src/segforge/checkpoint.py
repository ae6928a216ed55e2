"""Binary checkpoint container: model, optimizer state, run config, progress.

Layout (all little-endian): magic ``SEGCKPT1``, u32 version, two
length-prefixed UTF-8 JSON documents (run config, then meta holding epoch /
best record / optimizer step), u32 tensor count, then named tensor entries:
u32 name length, name bytes, u8 dtype code, u8 rank, u32 dims, raw data.
A model's arrays are named by `model_arrays` alone, as ``param:<path>`` and
``buffer:<path>``; the optimizer adds ``adam.m:`` and ``adam.v:`` entries.
Saves are atomic (temp file + rename), so an interrupted run keeps its last
intact checkpoint.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, FormatError
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


def _pack_entry(name: str, arr: np.ndarray) -> bytes:
    code = _CODE_FOR_NAME.get(arr.dtype.name)
    if code is None:
        raise FormatError(f"cannot checkpoint dtype {arr.dtype} for '{name}'")
    data = np.ascontiguousarray(arr, dtype=_DTYPE_CODES[code])
    nbytes = name.encode("utf-8")
    parts = [struct.pack("<I", len(nbytes)), nbytes,
             struct.pack("<BB", code, data.ndim),
             struct.pack(f"<{data.ndim}I", *data.shape) if data.ndim else b"",
             data.tobytes()]
    return b"".join(parts)


def save_checkpoint(path: str | os.PathLike, config: dict, model: Module,
                    optimizer=None, epoch: int = 0, best: Optional[dict] = None) -> None:
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

    parts = [MAGIC, struct.pack("<I", VERSION),
             struct.pack("<I", len(config_doc)), config_doc,
             struct.pack("<I", len(meta_doc)), meta_doc,
             struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        parts.append(_pack_entry(name, arr))

    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(b"".join(parts))
    os.replace(tmp, path)


def load_checkpoint(path: str | os.PathLike) -> CheckpointData:
    """Parse a checkpoint; a truncated or corrupt file raises FormatError with its byte offset."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        raise DataError(f"checkpoint not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from None
    if len(blob) < len(MAGIC) + 4 or blob[:len(MAGIC)] != MAGIC:
        raise FormatError(f"not a checkpoint file: {path}")

    def unpack(fmt, off, what):
        size = struct.calcsize(fmt)
        if off + size > len(blob):
            raise FormatError(f"truncated checkpoint: {what} at byte {off} needs {size} bytes, "
                              f"file ends at {len(blob)} in {path}")
        return struct.unpack_from(fmt, blob, off), off + size

    def take_doc(off, what):
        (length,), off = unpack("<I", off, f"{what} length")
        if off + length > len(blob):
            raise FormatError(f"truncated {what} document at byte {off} in {path}")
        try:
            doc = json.loads(blob[off:off + length].decode("utf-8"))
        except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError both are
            raise FormatError(f"corrupt {what} document at byte {off} in {path}: {exc}") from None
        if not isinstance(doc, dict):
            raise FormatError(f"{what} document at byte {off} is not an object in {path}")
        return doc, off + length

    (version,), off = unpack("<I", len(MAGIC), "version")
    if version != VERSION:
        raise FormatError(f"unsupported checkpoint version {version} at byte {len(MAGIC)} "
                          f"in {path}")
    config, off = take_doc(off, "config")
    meta_off = off
    meta, off = take_doc(off, "meta")
    try:
        epoch, optimizer_step = int(meta["epoch"]), int(meta["optimizer_step"])
    except (KeyError, TypeError, ValueError):
        raise FormatError(f"meta document at byte {meta_off} lacks an integer epoch "
                          f"and optimizer_step in {path}") from None
    (count,), off = unpack("<I", off, "tensor count")

    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        entry = off
        (name_len,), off = unpack("<I", off, "tensor name length")
        if off + name_len > len(blob):
            raise FormatError(f"truncated tensor name at byte {off} in {path}")
        try:
            name = blob[off:off + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"corrupt tensor name at byte {off} in {path}") from None
        off += name_len
        (code, rank), off = unpack("<BB", off, f"dtype and rank of '{name}'")
        dtype = _DTYPE_CODES.get(code)
        if dtype is None:
            raise FormatError(f"unknown dtype code {code} for '{name}' at byte {off - 2} "
                              f"in {path}")
        dims, off = unpack(f"<{rank}I", off, f"dims of '{name}'")
        n = math.prod(dims)
        end = off + n * dtype.itemsize
        if end > len(blob):
            raise FormatError(f"truncated tensor '{name}' (entry at byte {entry}) in {path}")
        try:
            arr = np.frombuffer(blob, dtype=dtype, count=n, offset=off).reshape(dims)
        except ValueError:   # more dims than numpy allows, or a size-0 overflowing shape
            raise FormatError(f"bad shape {dims} of '{name}' (entry at byte {entry}) "
                              f"in {path}") from None
        arrays[name] = arr.astype(dtype.newbyteorder("="), copy=True)
        off = end
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes at byte {off} in {path}")

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
    model_cfg = ckpt.config.get("model")
    if model_cfg is None:
        raise ConfigError("checkpoint config has no 'model' section")
    model = SegmentationModel(ModelConfig.from_dict(model_cfg, "model"))
    apply_arrays(model, ckpt)
    return model
