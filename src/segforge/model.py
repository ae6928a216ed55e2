"""Model assembly: SE-ResNet encoder, U-Net decoder, segmentation head.

The encoder is a bottleneck ResNet with squeeze-and-excitation gates after
the third conv of every block. Five feature taps (stem output plus the four
stage outputs) feed a nearest-upsample decoder with skip concatenation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .errors import ConfigError, ShapeError
from .layers import (BatchNorm2d, Conv2d, Dense, Module, concat_channels,
                     global_avg_pool, maxpool2d, upsample_nearest)
from .tensor import Tensor, add, mul, relu, reshape, sigmoid

EXPANSION = 4  # bottleneck output channels = EXPANSION * mid width


class ConfigDocument:
    """JSON codec for a config dataclass, driven by its fields and their types.

    `to_dict` emits the fields in declaration order, tuples as lists and
    nested configs as objects, and casts no value. `from_dict` checks each
    value against its field's type and raises ConfigError naming the dotted
    key. A bool is not an int (so `type(v) is int`, not isinstance) and a
    string is never read as a number; an int is taken for a float field and
    stored as a float.
    """

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d, key: str = ""):
        """Build from a JSON object; `key` is the section's dotted key in messages."""
        if not isinstance(d, dict):
            raise ConfigError(f"{key or cls.__name__} must be an object, got {type(d).__name__}")
        hints = typing.get_type_hints(cls)
        prefix = f"{key}." if key else ""
        unknown = [k for k in d if k not in hints]
        if unknown:
            raise ConfigError(f"unknown config key(s): {[prefix + str(k) for k in unknown]}")
        return cls(**{k: _decode(hints[k], v, prefix + k) for k, v in d.items()})


def _encode(value):
    if isinstance(value, ConfigDocument):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


def _decode(hint, value, key: str):
    if isinstance(hint, type) and issubclass(hint, ConfigDocument):
        return hint.from_dict(value, key)
    if typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)   # (int, ...) or (int, int): only ints are used
        size = None if args[-1] is Ellipsis else len(args)
        if (not isinstance(value, (list, tuple)) or size not in (None, len(value))
                or not all(type(v) is int for v in value)):
            want = "a list of ints" if size is None else f"a list of {size} ints"
            raise ConfigError(f"{key} must be {want}, got {value!r}")
        return tuple(value)
    if hint is float and type(value) is int:
        return float(value)
    if not (type(value) is int if hint is int else isinstance(value, hint)):
        raise ConfigError(f"{key} must be {hint.__name__}, got {type(value).__name__} {value!r}")
    return value


@dataclass(frozen=True)
class ModelConfig(ConfigDocument):
    in_channels: int = 3
    num_classes: int = 4
    stem_width: int = 64
    stage_depths: tuple[int, ...] = (3, 8, 36, 3)
    reduction: int = 16
    decoder_channels: tuple[int, ...] = (256, 128, 64, 32, 16)
    seed: int = 0

    def __post_init__(self):
        if len(self.stage_depths) != 4:
            raise ConfigError(f"stage_depths must have 4 entries, got {self.stage_depths}")
        if len(self.decoder_channels) != 5:
            raise ConfigError(f"decoder_channels must have 5 entries, got {self.decoder_channels}")
        if any(d < 1 for d in self.stage_depths):
            raise ConfigError(f"stage depths must be positive, got {self.stage_depths}")
        if self.reduction < 1:
            raise ConfigError(f"reduction must be positive, got {self.reduction}")
        if self.stem_width % self.reduction:
            raise ConfigError(f"stem_width {self.stem_width} not divisible by reduction {self.reduction}")

    @property
    def tap_channels(self) -> tuple[int, ...]:
        s = self.stem_width
        return (s, 4 * s, 8 * s, 16 * s, 32 * s)


PRESETS: dict[str, ModelConfig] = {
    "full": ModelConfig(),
    "desk": ModelConfig(stem_width=16, stage_depths=(1, 1, 1, 1), reduction=4,
                        decoder_channels=(64, 32, 16, 16, 8)),
}


class SEBlock(Module):
    """Squeeze-and-excitation: global pool -> bottleneck MLP -> sigmoid gate."""

    def __init__(self, channels: int, reduction: int):
        if channels % reduction:
            raise ConfigError(f"SE channels {channels} not divisible by reduction {reduction}")
        self.channels = channels
        self.fc1 = Dense(channels, channels // reduction)
        self.fc2 = Dense(channels // reduction, channels)

    def __call__(self, x: Tensor) -> Tensor:
        n, c = x.shape[0], x.shape[1]
        if c != self.channels:
            raise ShapeError(f"SE block built for {self.channels} channels, got {c}")
        s = reshape(global_avg_pool(x), (n, c))
        s = relu(self.fc1(s))
        gate = reshape(sigmoid(self.fc2(s)), (n, c, 1, 1))
        return mul(x, gate)


class Bottleneck(Module):
    """1x1 -> 3x3 -> 1x1 residual block with an SE gate before the add."""

    def __init__(self, in_channels: int, mid_channels: int, stride: int, reduction: int):
        out_channels = EXPANSION * mid_channels
        self.conv1 = Conv2d(in_channels, mid_channels, 1, bias=False)
        self.bn1 = BatchNorm2d(mid_channels)
        self.conv2 = Conv2d(mid_channels, mid_channels, 3, stride=stride, padding=1, bias=False)
        self.bn2 = BatchNorm2d(mid_channels)
        self.conv3 = Conv2d(mid_channels, out_channels, 1, bias=False)
        self.bn3 = BatchNorm2d(out_channels)
        self.se = SEBlock(out_channels, reduction)
        if stride != 1 or in_channels != out_channels:
            self.down_conv: Optional[Conv2d] = Conv2d(in_channels, out_channels, 1,
                                                      stride=stride, bias=False)
            self.down_bn: Optional[BatchNorm2d] = BatchNorm2d(out_channels)
        else:
            self.down_conv = None
            self.down_bn = None

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        y = relu(self.bn1(self.conv1(x), training))
        y = relu(self.bn2(self.conv2(y), training))
        y = self.se(self.bn3(self.conv3(y), training))
        if self.down_conv is not None:
            shortcut = self.down_bn(self.down_conv(x), training)
        else:
            shortcut = x
        return relu(add(y, shortcut))


class Encoder(Module):
    """Stem + four bottleneck stages; returns five taps at /2../32 scale."""

    def __init__(self, config: ModelConfig):
        s = config.stem_width
        self.stem_conv = Conv2d(config.in_channels, s, 7, stride=2, padding=3, bias=False)
        self.stem_bn = BatchNorm2d(s)
        self.stages = []
        in_ch = s
        for i, depth in enumerate(config.stage_depths):
            mid = s * 2 ** i
            blocks = []
            for j in range(depth):
                stride = 2 if (i > 0 and j == 0) else 1
                blocks.append(Bottleneck(in_ch, mid, stride, config.reduction))
                in_ch = EXPANSION * mid
            self.stages.append(blocks)

    def __call__(self, x: Tensor, training: bool = False) -> tuple[Tensor, ...]:
        e1 = relu(self.stem_bn(self.stem_conv(x), training))
        y = maxpool2d(e1, 3, stride=2, padding=1)
        taps = [e1]
        for blocks in self.stages:
            for block in blocks:
                y = block(y, training)
            taps.append(y)
        return tuple(taps)


class DecoderStage(Module):
    """Upsample x2, concat skip if present, then two 3x3 conv+bn+relu."""

    def __init__(self, in_channels: int, skip_channels: int, out_channels: int):
        self.skip_channels = skip_channels
        self.conv1 = Conv2d(in_channels + skip_channels, out_channels, 3, padding=1, bias=False)
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(out_channels, out_channels, 3, padding=1, bias=False)
        self.bn2 = BatchNorm2d(out_channels)

    def __call__(self, x: Tensor, skip: Optional[Tensor], training: bool = False) -> Tensor:
        y = upsample_nearest(x, 2)
        if skip is not None:
            y = concat_channels(y, skip)
        elif self.skip_channels:
            raise ShapeError("decoder stage built with a skip input but none was given")
        y = relu(self.bn1(self.conv1(y), training))
        return relu(self.bn2(self.conv2(y), training))


class SegmentationModel(Module):
    """Encoder-decoder network producing per-pixel class logits."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self.encoder = Encoder(config)
        taps = config.tap_channels
        skips = (taps[3], taps[2], taps[1], taps[0], 0)
        self.decoder = []
        in_ch = taps[4]
        for skip_ch, out_ch in zip(skips, config.decoder_channels):
            self.decoder.append(DecoderStage(in_ch, skip_ch, out_ch))
            in_ch = out_ch
        self.head = Conv2d(in_ch, config.num_classes, 1, bias=True)

    def __call__(self, x: Tensor, training: bool = False) -> Tensor:
        if x.ndim != 4 or x.shape[1] != self.config.in_channels:
            raise ShapeError(f"model expects [N,{self.config.in_channels},H,W], got {x.shape}")
        if x.shape[2] % 32 or x.shape[3] % 32:
            raise ShapeError(f"spatial dims must be divisible by 32, got {x.shape[2]}x{x.shape[3]}")
        e1, e2, e3, e4, e5 = self.encoder(x, training)
        skips = (e4, e3, e2, e1, None)
        y = e5
        for stage, skip in zip(self.decoder, skips):
            y = stage(y, skip, training)
        return self.head(y)

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.grad = None


def init_parameters(model: Module, seed: int) -> None:
    """He-normal init for conv/dense weights, deterministic in walk order.

    Biases, batch-norm affine params, and running stats keep their
    constructor defaults (zero / one).
    """
    rng = np.random.default_rng(seed)
    for name, p in model.named_parameters():
        if not name.endswith(".weight") and name != "weight":
            continue
        if p.ndim == 4:
            fan_in = p.shape[1] * p.shape[2] * p.shape[3]
        elif p.ndim == 2:
            fan_in = p.shape[0]
        else:
            continue
        std = np.sqrt(2.0 / fan_in)
        p.data[...] = (rng.standard_normal(p.shape) * std).astype(p.dtype)


def build_model(config: ModelConfig) -> SegmentationModel:
    model = SegmentationModel(config)
    init_parameters(model, config.seed)
    return model
