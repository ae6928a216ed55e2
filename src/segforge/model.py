"""Model assembly: SE-ResNet encoder, U-Net decoder, segmentation head.

The encoder is a bottleneck ResNet with squeeze-and-excitation gates after
the third conv of every block. Five feature taps (stem output plus the four
stage outputs) feed a nearest-upsample decoder with skip concatenation.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, fields
from typing import Annotated, Optional

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .layers import (BN_EPS, BatchNorm2d, Conv2d, Dense, Module, concat_channels, conv2d,
                     global_avg_pool, maxpool2d, upsample_nearest)
from .tensor import Tensor, add, grad_enabled, mul, relu, reshape, sigmoid

EXPANSION = 4  # bottleneck output channels = EXPANSION * mid width


@dataclass(frozen=True)
class Range:
    """A numeric field's range, declared in its annotation: `Annotated[int, Range(1)]`. `lo` is
    inclusive (exclusive if `lo_open`), `hi` exclusive, None unbounded. On an int-tuple field
    it bounds each element, a tuple `lo` each element by its own bound."""
    lo: float | tuple[int, ...] | None = None
    hi: float | None = None
    lo_open: bool = False

    def check(self, key: str, value) -> None:
        items = value if isinstance(value, tuple) else (value,)
        los = self.lo if isinstance(self.lo, tuple) else (self.lo,) * len(items)
        for v, lo in zip(items, los):
            if lo is not None and (v <= lo if self.lo_open else v < lo):
                raise ConfigError(f"{key} must be {'>' if self.lo_open else '>='} {self.lo}, "
                                  f"got {value}")
            if self.hi is not None and v >= self.hi:
                raise ConfigError(f"{key} must be < {self.hi}, got {value}")


Seed = Annotated[int, Range(0)]   # numpy's default_rng takes seeds >= 0
Count = Annotated[int, Range(1)]


class ConfigDocument:
    """A config dataclass that checks itself when built, and its JSON codec.

    However it is built, `__post_init__` checks each field by its type hint (a bool is not an
    int, a string never a number, an int is taken for a float, a float is finite, a tuple holds
    its declared count of ints, a section is its class) and each declared `Range`; subclasses
    add cross-field rules after it. Messages name a field `KEY + name`; `KEY` ("model.") is not
    a field. `from_dict` only turns JSON into fields and refuses unknown keys.
    """

    KEY = ""

    def __post_init__(self):
        for name, hint in typing.get_type_hints(type(self), include_extras=True).items():
            key, value = self.KEY + name, getattr(self, name)
            base, *declared = typing.get_args(hint) if hasattr(hint, "__metadata__") else (hint,)
            if typing.get_origin(base) is tuple:   # a fixed-size tuple of ints
                n = len(typing.get_args(base))
                if type(value) is not tuple or [type(v) for v in value] != [int] * n:
                    raise ConfigError(f"{key} must be a tuple of {n} ints, got {value!r}")
            elif not (type(value) is int if base is int
                      else isinstance(value, base) or base is float and type(value) is int):
                raise ConfigError(f"{key} must be {base.__name__}, "
                                  f"got {type(value).__name__} {value!r}")
            if isinstance(value, float) and not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            for r in declared:
                r.check(key, value)

    def to_dict(self) -> dict:
        return {f.name: _encode(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """Build from a JSON object, keyed in messages by `KEY`."""
        if not isinstance(d, dict):
            raise ConfigError(f"{cls.KEY[:-1] or cls.__name__} must be an object, "
                              f"got {type(d).__name__}")
        hints = typing.get_type_hints(cls)   # without extras, so Annotated is stripped
        unknown = [cls.KEY + str(k) for k in d if k not in hints]
        if unknown:
            raise ConfigError(f"unknown config key(s): {unknown}")
        return cls(**{k: _decode(hints[k], v) for k, v in d.items()})


def _encode(value):
    if isinstance(value, ConfigDocument):
        return value.to_dict()
    return list(value) if isinstance(value, tuple) else value


def _decode(hint, value):
    if isinstance(hint, type) and issubclass(hint, ConfigDocument):
        return hint.from_dict(value)
    if typing.get_origin(hint) is tuple and isinstance(value, list):
        return tuple(value)
    return float(value) if hint is float and type(value) is int else value


@dataclass(frozen=True)
class ModelConfig(ConfigDocument):
    KEY = "model."
    in_channels: Count = 3
    num_classes: Count = 4
    stem_width: Count = 64
    stage_depths: Annotated[tuple[int, int, int, int], Range(1)] = (3, 8, 36, 3)
    reduction: Count = 16
    decoder_channels: Annotated[tuple[int, int, int, int, int], Range(1)] = (256, 128, 64, 32, 16)
    seed: Seed = 0

    def __post_init__(self):
        super().__post_init__()
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


def conv_bn(conv: Conv2d, bn: BatchNorm2d, x: Tensor, training: bool,
            relu: bool = False) -> Tensor:
    """`bn(conv(x))`, ReLU fused when relu=True; in eval mode, one conv with the BN folded in.

    The fold (Jacob et al., arXiv:1712.05877) is weight W*s and bias beta - mu*s, with
    s = gamma / sqrt(var + eps), computed on each call. Eval mode runs under `no_grad`.
    """
    if training:
        return bn(conv(x), relu=relu)
    if grad_enabled():
        raise ContractError("eval-mode forward records no gradients; run it under no_grad()")
    scale = bn.gamma.data / np.sqrt(bn.running_var + BN_EPS)
    mean = bn.running_mean if conv.bias is None else bn.running_mean - conv.bias.data
    out = conv2d(x, Tensor(conv.weight.data * scale.reshape(-1, 1, 1, 1)),
                 Tensor(bn.beta.data - mean * scale), conv.stride, conv.padding)
    if relu:
        np.maximum(out.data, 0, out=out.data)
    return out


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
        y = conv_bn(self.conv1, self.bn1, x, training, relu=True)
        y = conv_bn(self.conv2, self.bn2, y, training, relu=True)
        y = self.se(conv_bn(self.conv3, self.bn3, y, training))
        shortcut = x if self.down_conv is None else conv_bn(self.down_conv, self.down_bn, x, training)
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
        e1 = conv_bn(self.stem_conv, self.stem_bn, x, training, relu=True)
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
        y = conv_bn(self.conv1, self.bn1, y, training, relu=True)
        return conv_bn(self.conv2, self.bn2, y, training, relu=True)


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
