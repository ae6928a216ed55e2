"""Layer library: convolution, batch norm, pooling, upsampling, concat, dense.

Every functional op records a single tape node with an analytic backward
rule. Convolution is cross-correlation (no kernel flip) over zero-padded
input, implemented as im2col plus one matrix multiply; weights are OIHW.

im2col rows are output pixels and columns run in (c, kh, kw) order, so the
weight matrix is the OIHW tensor reshaped in place. For 3x3 kernels the
gather pads the input once into a channels-last buffer and fills the
(n, oh, ow, c, kh, kw) matrix with nine strided slice copies, each running
over channels; col2im adds the same nine slices back into a zeroed
channels-last buffer, row-major over (kh, kw), and transposes to NCHW once.
Other kernels copy a transposed sliding-window view and scatter in NCHW:
the window copy is faster for the 3-channel 7x7 stem and no slower for 1x1.
For any kernel the two paths build the same matrix and sum gradients in the
same order, so the choice never changes a bit. A (kh, kw, c) column order
would make the gather cheaper still, but it changes the GEMM's reduction
order and so the last bits of every output.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, ShapeError
from .tensor import Tensor, add, matmul, record

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - kernel) // stride + 1


# ---------------------------------------------------------------------------
# functional ops


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0) -> Tensor:
    """2D cross-correlation of NCHW input with OIHW weights."""
    if x.ndim != 4 or weight.ndim != 4:
        raise ShapeError(f"conv2d needs rank-4 input and weight, got {x.shape}, {weight.shape}")
    if stride < 1 or padding < 0:
        raise ContractError(f"invalid stride/padding: {stride}, {padding}")
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, weight expects {ic}")
    oh = conv_out_size(h, kh, stride, padding)
    ow = conv_out_size(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(f"conv2d output would be empty for input {x.shape} kernel {kh}x{kw}")
    if bias is not None and bias.shape != (oc,):
        raise ShapeError(f"conv2d bias must have shape ({oc},), got {bias.shape}")

    cols = _image_to_cols(x.data, (kh, kw), (oh, ow), stride, padding)
    wmat = weight.data.reshape(oc, -1)
    flat = cols @ wmat.T
    if bias is not None:
        flat += bias.data
    out = np.ascontiguousarray(flat.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))

    has_bias = bias is not None

    def grad_fn(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * oh * ow, oc)
        gw = (g2.T @ cols).reshape(weight.shape)
        gb = g.sum(axis=(0, 2, 3)) if has_bias else None
        gcols = g2 @ wmat
        gx = _cols_to_image(gcols, (n, c, h, w), (kh, kw), (oh, ow), stride, padding)
        if has_bias:
            return gx, gw, gb
        return gx, gw

    inputs = (x, weight, bias) if has_bias else (x, weight)
    return record("conv2d", inputs, out, grad_fn)


def _image_to_cols(x, ksize, osize, stride, padding):
    """im2col: [n*oh*ow, c*kh*kw] patch rows, columns in (c, kh, kw) order."""
    n, c, h, w = x.shape
    kh, kw = ksize
    oh, ow = osize
    if (kh, kw) == (3, 3):
        xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c), dtype=x.dtype)
        xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
        cols = np.empty((n, oh, ow, c, kh, kw), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[..., i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
        return cols.reshape(n * oh * ow, c * kh * kw)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)


def _cols_to_image(gcols, x_shape, ksize, osize, stride, padding):
    """col2im: sum each patch-row gradient back onto its input pixels, NCHW out."""
    n, c, h, w = x_shape
    kh, kw = ksize
    oh, ow = osize
    hp, wp = h + 2 * padding, w + 2 * padding
    gc = gcols.reshape(n, oh, ow, c, kh, kw)
    if (kh, kw) == (3, 3):
        gxp = np.zeros((n, hp, wp, c), dtype=gcols.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += gc[..., i, j]
        return np.ascontiguousarray(
            gxp[:, padding:padding + h, padding:padding + w].transpose(0, 3, 1, 2))
    gc = gc.transpose(0, 3, 1, 2, 4, 5)
    gxp = np.zeros((n, c, hp, wp), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += gc[:, :, :, :, i, j]
    if padding:
        return np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w])
    return gxp


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = BN_MOMENTUM, eps: float = BN_EPS,
               update_running: bool = True) -> Tensor:
    """Per-channel normalization.

    Train mode normalizes by batch statistics and (optionally) updates the
    running estimates in place; eval mode is a fixed affine map of the input.
    """
    if x.ndim != 4:
        raise ShapeError(f"batch_norm needs rank-4 input, got {x.shape}")
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"batch_norm params must have shape ({c},)")
    if running_mean.shape != (c,) or running_var.shape != (c,):
        raise ShapeError(f"batch_norm running stats must have shape ({c},)")

    if training:
        m = n * h * w
        if m < 2:
            raise ContractError("batch_norm train mode needs at least 2 values per channel")
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        invstd = 1.0 / np.sqrt(var + eps)
        xhat = (x.data - mu.reshape(1, c, 1, 1)) * invstd.reshape(1, c, 1, 1)
        if update_running:
            running_mean *= 1.0 - momentum
            running_mean += momentum * mu
            running_var *= 1.0 - momentum
            running_var += momentum * var * (m / (m - 1.0))
    else:
        invstd = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - running_mean.reshape(1, c, 1, 1)) * invstd.reshape(1, c, 1, 1)

    out = gamma.data.reshape(1, c, 1, 1) * xhat + beta.data.reshape(1, c, 1, 1)

    def grad_fn(g):
        gbeta = g.sum(axis=(0, 2, 3))
        ggamma = (g * xhat).sum(axis=(0, 2, 3))
        if training:
            m = n * h * w
            gxhat = g * gamma.data.reshape(1, c, 1, 1)
            gx = (invstd.reshape(1, c, 1, 1) / m) * (
                m * gxhat
                - gxhat.sum(axis=(0, 2, 3), keepdims=True)
                - xhat * (gxhat * xhat).sum(axis=(0, 2, 3), keepdims=True)
            )
        else:
            gx = g * (gamma.data * invstd).reshape(1, c, 1, 1)
        return gx, ggamma, gbeta

    return record("batch_norm", (x, gamma, beta), out, grad_fn)


def maxpool2d(x: Tensor, kernel: int, stride: Optional[int] = None, padding: int = 0) -> Tensor:
    """Per-window maximum; ties route gradient to the first (row-major) index."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d needs rank-4 input, got {x.shape}")
    if stride is None:
        stride = kernel
    if kernel < 1 or stride < 1 or padding < 0 or padding >= kernel:
        raise ContractError(f"invalid pool kernel/stride/padding: {kernel}, {stride}, {padding}")
    n, c, h, w = x.shape
    if h < kernel or w < kernel:
        raise ShapeError(f"pool window {kernel} larger than input {h}x{w}")
    if padding:
        xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=-np.inf)
    else:
        xp = x.data
    oh = conv_out_size(h, kernel, stride, padding)
    ow = conv_out_size(w, kernel, stride, padding)
    win = sliding_window_view(xp, (kernel, kernel), axis=(2, 3))[:, :, ::stride, ::stride]
    flat = win.reshape(n, c, oh, ow, kernel * kernel)
    arg = flat.argmax(axis=-1)
    out = np.ascontiguousarray(np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0])
    hp, wp = h + 2 * padding, w + 2 * padding

    def grad_fn(g):
        gxp = np.zeros((n, c, hp, wp), dtype=g.dtype)
        rows = np.arange(oh)[None, None, :, None] * stride + arg // kernel
        cols = np.arange(ow)[None, None, None, :] * stride + arg % kernel
        ni = np.arange(n)[:, None, None, None]
        ci = np.arange(c)[None, :, None, None]
        np.add.at(gxp, (ni, ci, rows, cols), g)
        if padding:
            return (np.ascontiguousarray(gxp[:, :, padding:padding + h, padding:padding + w]),)
        return (gxp,)

    return record("maxpool2d", (x,), out, grad_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean per channel: [N,C,H,W] -> [N,C,1,1]."""
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool needs rank-4 input, got {x.shape}")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def grad_fn(g):
        return (np.ascontiguousarray(np.broadcast_to(g / (h * w), x.shape)),)

    return record("global_avg_pool", (x,), out, grad_fn)


def upsample_nearest(x: Tensor, factor: int) -> Tensor:
    """Replicate each pixel into a factor x factor block."""
    if x.ndim != 4:
        raise ShapeError(f"upsample_nearest needs rank-4 input, got {x.shape}")
    if int(factor) != factor or factor < 1:
        raise ContractError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    n, c, h, w = x.shape
    out = x.data.repeat(factor, axis=2).repeat(factor, axis=3)

    def grad_fn(g):
        return (g.reshape(n, c, h, factor, w, factor).sum(axis=(3, 5)),)

    return record("upsample_nearest", (x,), out, grad_fn)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Channel concatenation of two NCHW tensors with equal N, H, W."""
    if a.ndim != 4 or b.ndim != 4:
        raise ShapeError(f"concat_channels needs rank-4 inputs, got {a.shape}, {b.shape}")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels batch/spatial mismatch: {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def grad_fn(g):
        return (np.ascontiguousarray(g[:, :ca]), np.ascontiguousarray(g[:, ca:]))

    return record("concat_channels", (a, b), out, grad_fn)


def dense(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map x @ W + b for [N,K] input and [K,M] weight."""
    y = matmul(x, weight)
    if bias is None:
        return y
    if bias.ndim != 1 or bias.shape[0] != weight.shape[1]:
        raise ShapeError(f"dense bias must have shape ({weight.shape[1]},), got {bias.shape}")
    return add(y, bias)


# ---------------------------------------------------------------------------
# parameter-holding layers


class Module:
    """Minimal parameter container; children are discovered from attributes."""

    _buffers: tuple[str, ...] = ()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            yield from _walk_params(value, prefix + name)

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for bname in self._buffers:
            yield prefix + bname, getattr(self, bname)
        for name, value in vars(self).items():
            yield from _walk_buffers(value, prefix + name)

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]


def _walk_params(value, path):
    if isinstance(value, Tensor):
        yield path, value
    elif isinstance(value, Module):
        yield from value.named_parameters(path + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk_params(item, f"{path}.{i}")


def _walk_buffers(value, path):
    if isinstance(value, Module):
        yield from value.named_buffers(path + ".")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _walk_buffers(item, f"{path}.{i}")


class Conv2d(Module):
    def __init__(self, in_channels: int, out_channels: int, kernel: int,
                 stride: int = 1, padding: int = 0, bias: bool = True, dtype=np.float32):
        self.stride = stride
        self.padding = padding
        self.weight = Tensor(np.zeros((out_channels, in_channels, kernel, kernel), dtype=dtype),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm2d(Module):
    _buffers = ("running_mean", "running_var")

    def __init__(self, channels: int, eps: float = BN_EPS, momentum: float = BN_MOMENTUM,
                 dtype=np.float32):
        self.eps = eps
        self.momentum = momentum
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def __call__(self, x: Tensor, training: bool = False,
                 update_running: Optional[bool] = None) -> Tensor:
        update = training if update_running is None else update_running
        return batch_norm(x, self.gamma, self.beta, self.running_mean, self.running_var,
                          training=training, momentum=self.momentum, eps=self.eps,
                          update_running=update)


class Dense(Module):
    def __init__(self, in_features: int, out_features: int, dtype=np.float32):
        self.weight = Tensor(np.zeros((in_features, out_features), dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features, dtype=dtype), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return dense(x, self.weight, self.bias)
